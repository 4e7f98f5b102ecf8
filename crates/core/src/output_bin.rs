//! A compact binary encoding of [`CompileOutput`] for the cache's segment
//! log.
//!
//! The JSON envelope (`output_json`) is the exchange format — stable,
//! inspectable, streamed to clients. It is also what capped the retired
//! one-JSON-file-per-entry disk cache: rehydrating a corpus-scale store spends almost all of its
//! wall clock inside the JSON tree parser. Segment records therefore carry
//! this fixed-layout binary form instead — length-prefixed strings, `u64`
//! little-endian integers, `f64` payloads as raw IEEE-754 bits — which
//! decodes with no tokenizer, no `Value` tree, and no number re-parsing.
//!
//! The format is versioned ([`OUTPUT_BIN_FORMAT_VERSION`]) and **exact**:
//! `f64`s round-trip via `to_bits`/`from_bits`, so a decoded output is
//! bit-identical to the encoded one — `decode(encode(out)).to_json() ==
//! out.to_json()` holds for every representable output, which is the
//! invariant the cache's bit-identity guarantees rest on. Encoding rejects
//! non-finite numbers with the same policy as the JSON envelope: a NaN in a
//! compile output is an upstream bug, and the cache must not preserve it.

use crate::interface::{CompileOutput, GateCounts, PhaseTimings};
use std::time::Duration;
use zac_fidelity::{ExecutionSummary, FidelityReport};
use zac_zair::{AodInst, Instruction, Program, QubitLoc, RearrangeJob, U3Application};

/// Version byte leading every encoded output. Bump on any layout change;
/// decoders reject other versions (the cache treats that as a miss and
/// recompiles — its normal degradation mode).
pub const OUTPUT_BIN_FORMAT_VERSION: u8 = 1;

/// Why an encode or decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The buffer ended before the document did (torn or truncated record).
    Truncated,
    /// The leading version byte is not one this reader supports.
    Version(u8),
    /// An enum discriminant or tag byte holds an unknown value.
    Tag(u8),
    /// A length prefix or string is structurally impossible (overflow,
    /// non-UTF-8 bytes where a string was declared).
    Malformed,
    /// The output contains non-finite numbers and must not be persisted.
    NonFinite,
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "binary output document is truncated"),
            Self::Version(v) => write!(
                f,
                "unsupported binary output version {v} (reader supports {OUTPUT_BIN_FORMAT_VERSION})"
            ),
            Self::Tag(t) => write!(f, "unknown tag byte {t} in binary output document"),
            Self::Malformed => write!(f, "malformed binary output document"),
            Self::NonFinite => write!(f, "compile output contains non-finite numbers"),
        }
    }
}

impl std::error::Error for BinError {}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) -> Result<(), BinError> {
        if !v.is_finite() {
            return Err(BinError::NonFinite);
        }
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        Ok(())
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn f64s(&mut self, vs: &[f64]) -> Result<(), BinError> {
        self.usize(vs.len());
        vs.iter().try_for_each(|&v| self.f64(v))
    }

    fn usizes(&mut self, vs: &[usize]) {
        self.usize(vs.len());
        vs.iter().for_each(|&v| self.usize(v));
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        let end = self.pos.checked_add(n).ok_or(BinError::Malformed)?;
        let slice = self.buf.get(self.pos..end).ok_or(BinError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, BinError> {
        Ok(self.bytes(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, BinError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(BinError::Tag(t)),
        }
    }

    fn u64(&mut self) -> Result<u64, BinError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.bytes(8)?);
        Ok(u64::from_le_bytes(raw))
    }

    fn usize(&mut self) -> Result<usize, BinError> {
        usize::try_from(self.u64()?).map_err(|_| BinError::Malformed)
    }

    /// A length prefix about to drive `n` reads of ≥ `width` bytes each:
    /// bounds-checked against the remaining buffer so a corrupt length
    /// cannot trigger a huge allocation before `Truncated` would surface.
    fn len(&mut self, width: usize) -> Result<usize, BinError> {
        let n = self.usize()?;
        if n.saturating_mul(width.max(1)) > self.buf.len() - self.pos {
            return Err(BinError::Truncated);
        }
        Ok(n)
    }

    fn f64(&mut self) -> Result<f64, BinError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, BinError> {
        let n = self.len(1)?;
        std::str::from_utf8(self.bytes(n)?).map(str::to_owned).map_err(|_| BinError::Malformed)
    }

    fn f64s(&mut self) -> Result<Vec<f64>, BinError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn usizes(&mut self) -> Result<Vec<usize>, BinError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.usize()).collect()
    }
}

/// Saturating nanosecond conversion (same policy as the JSON envelope).
fn ns_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn put_loc(w: &mut Writer, loc: &QubitLoc) {
    w.usize(loc.qubit);
    w.usize(loc.slm_id);
    w.usize(loc.row);
    w.usize(loc.col);
}

fn get_loc(r: &mut Reader) -> Result<QubitLoc, BinError> {
    Ok(QubitLoc { qubit: r.usize()?, slm_id: r.usize()?, row: r.usize()?, col: r.usize()? })
}

fn put_locs(w: &mut Writer, locs: &[QubitLoc]) {
    w.usize(locs.len());
    locs.iter().for_each(|l| put_loc(w, l));
}

fn get_locs(r: &mut Reader) -> Result<Vec<QubitLoc>, BinError> {
    let n = r.len(32)?;
    (0..n).map(|_| get_loc(r)).collect()
}

fn put_loc_rows(w: &mut Writer, rows: &[Vec<QubitLoc>]) {
    w.usize(rows.len());
    rows.iter().for_each(|row| put_locs(w, row));
}

fn get_loc_rows(r: &mut Reader) -> Result<Vec<Vec<QubitLoc>>, BinError> {
    let n = r.len(8)?;
    (0..n).map(|_| get_locs(r)).collect()
}

fn put_aod_inst(w: &mut Writer, inst: &AodInst) -> Result<(), BinError> {
    match inst {
        AodInst::Activate { row_id, row_y, col_id, col_x } => {
            w.u8(0);
            w.usizes(row_id);
            w.f64s(row_y)?;
            w.usizes(col_id);
            w.f64s(col_x)?;
        }
        AodInst::Deactivate { row_id, col_id } => {
            w.u8(1);
            w.usizes(row_id);
            w.usizes(col_id);
        }
        AodInst::Move { row_id, row_y_begin, row_y_end, col_id, col_x_begin, col_x_end } => {
            w.u8(2);
            w.usizes(row_id);
            w.f64s(row_y_begin)?;
            w.f64s(row_y_end)?;
            w.usizes(col_id);
            w.f64s(col_x_begin)?;
            w.f64s(col_x_end)?;
        }
    }
    Ok(())
}

fn get_aod_inst(r: &mut Reader) -> Result<AodInst, BinError> {
    match r.u8()? {
        0 => Ok(AodInst::Activate {
            row_id: r.usizes()?,
            row_y: r.f64s()?,
            col_id: r.usizes()?,
            col_x: r.f64s()?,
        }),
        1 => Ok(AodInst::Deactivate { row_id: r.usizes()?, col_id: r.usizes()? }),
        2 => Ok(AodInst::Move {
            row_id: r.usizes()?,
            row_y_begin: r.f64s()?,
            row_y_end: r.f64s()?,
            col_id: r.usizes()?,
            col_x_begin: r.f64s()?,
            col_x_end: r.f64s()?,
        }),
        t => Err(BinError::Tag(t)),
    }
}

fn put_job(w: &mut Writer, job: &RearrangeJob) -> Result<(), BinError> {
    w.usize(job.aod_id);
    put_loc_rows(w, &job.begin_locs);
    put_loc_rows(w, &job.end_locs);
    w.usize(job.insts.len());
    job.insts.iter().try_for_each(|i| put_aod_inst(w, i))?;
    w.f64(job.begin_time)?;
    w.f64(job.end_time)?;
    w.f64(job.pick_duration)?;
    w.f64(job.move_duration)?;
    w.f64(job.drop_duration)
}

fn get_job(r: &mut Reader) -> Result<RearrangeJob, BinError> {
    let aod_id = r.usize()?;
    let begin_locs = get_loc_rows(r)?;
    let end_locs = get_loc_rows(r)?;
    let n = r.len(1)?;
    let insts = (0..n).map(|_| get_aod_inst(r)).collect::<Result<_, _>>()?;
    Ok(RearrangeJob {
        aod_id,
        begin_locs,
        end_locs,
        insts,
        begin_time: r.f64()?,
        end_time: r.f64()?,
        pick_duration: r.f64()?,
        move_duration: r.f64()?,
        drop_duration: r.f64()?,
    })
}

fn put_instruction(w: &mut Writer, inst: &Instruction) -> Result<(), BinError> {
    match inst {
        Instruction::Init { init_locs } => {
            w.u8(0);
            put_locs(w, init_locs);
            Ok(())
        }
        Instruction::OneQGate { gates, begin_time, end_time } => {
            w.u8(1);
            w.usize(gates.len());
            for g in gates {
                w.f64(g.theta)?;
                w.f64(g.phi)?;
                w.f64(g.lambda)?;
                put_loc(w, &g.loc);
            }
            w.f64(*begin_time)?;
            w.f64(*end_time)
        }
        Instruction::Rydberg { zone_id, begin_time, end_time } => {
            w.u8(2);
            w.usize(*zone_id);
            w.f64(*begin_time)?;
            w.f64(*end_time)
        }
        Instruction::RearrangeJob(job) => {
            w.u8(3);
            put_job(w, job)
        }
    }
}

fn get_instruction(r: &mut Reader) -> Result<Instruction, BinError> {
    match r.u8()? {
        0 => Ok(Instruction::Init { init_locs: get_locs(r)? }),
        1 => {
            let n = r.len(56)?;
            let gates = (0..n)
                .map(|_| {
                    Ok(U3Application {
                        theta: r.f64()?,
                        phi: r.f64()?,
                        lambda: r.f64()?,
                        loc: get_loc(r)?,
                    })
                })
                .collect::<Result<_, BinError>>()?;
            Ok(Instruction::OneQGate { gates, begin_time: r.f64()?, end_time: r.f64()? })
        }
        2 => Ok(Instruction::Rydberg {
            zone_id: r.usize()?,
            begin_time: r.f64()?,
            end_time: r.f64()?,
        }),
        3 => Ok(Instruction::RearrangeJob(get_job(r)?)),
        t => Err(BinError::Tag(t)),
    }
}

/// Encodes `out` into the versioned binary layout.
///
/// # Errors
///
/// [`BinError::NonFinite`] if any float in the output is NaN or infinite —
/// the same rejection the JSON envelope applies, so the two formats accept
/// exactly the same set of outputs.
pub fn encode_output(out: &CompileOutput) -> Result<Vec<u8>, BinError> {
    let mut w = Writer { buf: Vec::with_capacity(256) };
    w.u8(OUTPUT_BIN_FORMAT_VERSION);
    // Summary.
    w.str(&out.summary.name);
    w.usize(out.summary.num_qubits);
    w.f64(out.summary.duration_us)?;
    w.usize(out.summary.g1);
    w.usize(out.summary.g2);
    w.usize(out.summary.n_exc);
    w.usize(out.summary.n_tran);
    w.f64s(&out.summary.idle_us)?;
    // Report.
    w.f64(out.report.one_q)?;
    w.f64(out.report.two_q)?;
    w.f64(out.report.transfer)?;
    w.f64(out.report.decoherence)?;
    w.f64(out.report.duration_us)?;
    // Counts.
    w.usize(out.counts.g1);
    w.usize(out.counts.g2);
    w.usize(out.counts.n_exc);
    w.usize(out.counts.n_tran);
    // Timing + cache marker.
    w.u64(ns_u64(out.compile_time));
    w.bool(out.from_cache);
    match out.phases {
        None => w.u8(0),
        Some(p) => {
            w.u8(1);
            w.u64(ns_u64(p.place));
            w.u64(ns_u64(p.schedule));
        }
    }
    // Program.
    match &out.program {
        None => w.u8(0),
        Some(p) => {
            w.u8(1);
            w.str(&p.circuit_name);
            w.str(&p.arch_name);
            w.usize(p.num_qubits);
            w.usize(p.instructions.len());
            p.instructions.iter().try_for_each(|i| put_instruction(&mut w, i))?;
        }
    }
    Ok(w.buf)
}

/// Decodes a document produced by [`encode_output`].
///
/// # Errors
///
/// [`BinError`] on truncation, version mismatch, or structural damage —
/// never a panic, whatever the bytes.
pub fn decode_output(bytes: &[u8]) -> Result<CompileOutput, BinError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let version = r.u8()?;
    if version != OUTPUT_BIN_FORMAT_VERSION {
        return Err(BinError::Version(version));
    }
    let summary = ExecutionSummary {
        name: r.str()?,
        num_qubits: r.usize()?,
        duration_us: r.f64()?,
        g1: r.usize()?,
        g2: r.usize()?,
        n_exc: r.usize()?,
        n_tran: r.usize()?,
        idle_us: r.f64s()?,
    };
    let report = FidelityReport {
        one_q: r.f64()?,
        two_q: r.f64()?,
        transfer: r.f64()?,
        decoherence: r.f64()?,
        duration_us: r.f64()?,
    };
    let counts =
        GateCounts { g1: r.usize()?, g2: r.usize()?, n_exc: r.usize()?, n_tran: r.usize()? };
    let compile_time = Duration::from_nanos(r.u64()?);
    let from_cache = r.bool()?;
    let phases = match r.u8()? {
        0 => None,
        1 => Some(PhaseTimings {
            place: Duration::from_nanos(r.u64()?),
            schedule: Duration::from_nanos(r.u64()?),
        }),
        t => return Err(BinError::Tag(t)),
    };
    let program = match r.u8()? {
        0 => None,
        1 => {
            let circuit_name = r.str()?;
            let arch_name = r.str()?;
            let num_qubits = r.usize()?;
            let n = r.len(1)?;
            let instructions = (0..n).map(|_| get_instruction(&mut r)).collect::<Result<_, _>>()?;
            Some(Program { circuit_name, arch_name, num_qubits, instructions })
        }
        t => return Err(BinError::Tag(t)),
    };
    if r.pos != bytes.len() {
        return Err(BinError::Malformed);
    }
    Ok(CompileOutput { summary, report, counts, compile_time, program, from_cache, phases })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zac_arch::Architecture;
    use zac_circuit::{bench_circuits, preprocess};
    use zac_fidelity::{evaluate_neutral_atom, NeutralAtomParams};

    fn sample() -> CompileOutput {
        let summary = ExecutionSummary {
            name: "bin".into(),
            num_qubits: 3,
            duration_us: 21.5,
            g1: 5,
            g2: 2,
            n_exc: 1,
            n_tran: 6,
            idle_us: vec![0.0, 3.25, 7.5],
        };
        let report = evaluate_neutral_atom(&summary, &NeutralAtomParams::reference());
        CompileOutput::new(summary, report, Duration::from_nanos(987_654), None)
            .with_phases(Duration::from_nanos(700_000), Duration::from_nanos(287_654))
    }

    #[test]
    fn roundtrip_is_json_byte_identical() {
        let out = sample();
        let back = decode_output(&encode_output(&out).unwrap()).unwrap();
        assert_eq!(back.to_json().unwrap(), out.to_json().unwrap());
    }

    /// A full ZAC compile — `Program` with every instruction variant in
    /// play — survives the binary round trip byte-for-byte.
    #[test]
    fn compiled_program_roundtrips_exactly() {
        let mut config = crate::ZacConfig::full();
        config.placement.sa_iterations = 50;
        let zac = crate::Zac::with_config(Architecture::reference(), config);
        let out = crate::Compiler::compile(&zac, &preprocess(&bench_circuits::qft(6))).unwrap();
        assert!(out.program.is_some(), "ZAC emits a program");
        let bytes = encode_output(&out).unwrap();
        let back = decode_output(&bytes).unwrap();
        assert_eq!(back.to_json().unwrap(), out.to_json().unwrap());
        assert!(
            bytes.len() < out.to_json().unwrap().len(),
            "binary form is smaller than the JSON envelope"
        );
    }

    #[test]
    fn from_cache_flag_roundtrips() {
        let mut out = sample();
        out.from_cache = true;
        let back = decode_output(&encode_output(&out).unwrap()).unwrap();
        assert!(back.from_cache);
    }

    #[test]
    fn non_finite_outputs_are_rejected() {
        let mut out = sample();
        out.summary.duration_us = f64::NAN;
        assert_eq!(encode_output(&out).unwrap_err(), BinError::NonFinite);
        let mut out = sample();
        out.report.one_q = f64::INFINITY;
        assert_eq!(encode_output(&out).unwrap_err(), BinError::NonFinite);
    }

    #[test]
    fn truncation_and_version_damage_are_errors_not_panics() {
        let bytes = encode_output(&sample()).unwrap();
        for cut in 0..bytes.len() {
            assert!(decode_output(&bytes[..cut]).is_err(), "prefix of {cut} bytes must not parse");
        }
        let mut wrong = bytes.clone();
        wrong[0] = 99;
        assert_eq!(decode_output(&wrong).unwrap_err(), BinError::Version(99));
        // Trailing garbage is rejected: a record's payload is exactly one
        // document.
        let mut padded = bytes;
        padded.push(0);
        assert_eq!(decode_output(&padded).unwrap_err(), BinError::Malformed);
    }

    /// A corrupt interior length prefix must fail cleanly (bounded
    /// allocation), not attempt a giant `Vec`.
    #[test]
    fn corrupt_length_prefix_fails_cleanly() {
        let out = sample();
        let bytes = encode_output(&out).unwrap();
        // The first length prefix is the summary name at offset 1.
        let mut evil = bytes;
        evil[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_output(&evil).is_err());
    }
}
