//! ZAIR programs: containers, the validating interpreter, and analysis.
//!
//! [`Program::analyze`] walks the instruction stream, tracking every qubit's
//! location, and produces the [`Analysis`] record the fidelity model consumes:
//! total duration, per-qubit busy time, gate counts, transfer counts and
//! idle-qubit Rydberg excitations. The same walk validates the program
//! (location consistency, trap occupancy, zone existence), so an analyzed
//! program is a verified program.

use crate::inst::{Instruction, QubitLoc, RearrangeJob};
use std::collections::HashMap;
use std::fmt;
use zac_arch::{Architecture, Loc};

/// A complete compiled program in ZAIR.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Name of the source circuit.
    pub circuit_name: String,
    /// Name of the target architecture.
    pub arch_name: String,
    /// Number of qubits.
    pub num_qubits: usize,
    /// The instruction stream, in issue order.
    pub instructions: Vec<Instruction>,
}

/// Validation error for a ZAIR program.
#[derive(Debug, Clone, PartialEq)]
pub enum ZairError {
    /// The first instruction must be `init` (and only the first).
    MissingOrMisplacedInit,
    /// `init` places two qubits on one trap, or a qubit twice.
    BadInit,
    /// A job starts a qubit somewhere it is not.
    LocationMismatch {
        /// The qubit.
        qubit: usize,
    },
    /// A job drops a qubit on an occupied trap.
    OccupiedTarget {
        /// The moving qubit.
        qubit: usize,
        /// The qubit already sitting there.
        occupant: usize,
    },
    /// A qloc does not exist in the architecture.
    InvalidLoc {
        /// The qubit with the bad qloc.
        qubit: usize,
    },
    /// A `rydberg` instruction names a zone that does not exist.
    UnknownZone {
        /// The offending zone id.
        zone_id: usize,
    },
    /// An instruction has `end_time < begin_time`.
    NegativeDuration,
    /// A job's `aod_id` exceeds the architecture's AOD count.
    UnknownAod {
        /// The offending AOD id.
        aod_id: usize,
    },
    /// A qubit index is out of range.
    QubitOutOfRange {
        /// The offending qubit.
        qubit: usize,
    },
}

impl fmt::Display for ZairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingOrMisplacedInit => write!(f, "program must start with exactly one init"),
            Self::BadInit => write!(f, "init places qubits inconsistently"),
            Self::LocationMismatch { qubit } => {
                write!(f, "qubit {qubit} is not at its claimed begin location")
            }
            Self::OccupiedTarget { qubit, occupant } => {
                write!(f, "qubit {qubit} dropped on a trap occupied by qubit {occupant}")
            }
            Self::InvalidLoc { qubit } => write!(f, "qubit {qubit} references an invalid trap"),
            Self::UnknownZone { zone_id } => write!(f, "unknown entanglement zone {zone_id}"),
            Self::NegativeDuration => write!(f, "instruction ends before it begins"),
            Self::UnknownAod { aod_id } => write!(f, "unknown AOD {aod_id}"),
            Self::QubitOutOfRange { qubit } => write!(f, "qubit {qubit} out of range"),
        }
    }
}

impl std::error::Error for ZairError {}

/// Execution summary extracted from a validated program; the input to the
/// fidelity model (Sec. VII-B).
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Number of qubits.
    pub num_qubits: usize,
    /// Total program duration (µs).
    pub total_duration_us: f64,
    /// Executed 1Q gates (`g1`).
    pub g1: usize,
    /// Executed 2Q gates (`g2`): complete Rydberg-site pairs per exposure.
    pub g2: usize,
    /// Idle qubits caught in an exposure without a partner (`N_exc`).
    pub n_exc: usize,
    /// Atom transfers (`N_tran`): two per qubit per rearrangement job.
    pub n_tran: usize,
    /// Per-qubit busy time (µs): gates plus transfers (movement is idle).
    pub busy_us: Vec<f64>,
    /// Number of Rydberg exposures.
    pub num_rydberg_stages: usize,
    /// Number of rearrangement jobs.
    pub num_jobs: usize,
}

impl Analysis {
    /// Per-qubit idle time: total duration minus busy time, clamped at 0.
    pub fn idle_us(&self) -> Vec<f64> {
        self.busy_us.iter().map(|b| (self.total_duration_us - b).max(0.0)).collect()
    }
}

/// Instruction-count statistics (paper Sec. IX).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZairStats {
    /// ZAIR instructions (init + 1qGate + rydberg + rearrangeJob).
    pub zair_instructions: usize,
    /// Machine-level instructions (init + 1qGate + rydberg + each AOD
    /// activate/move/deactivate inside jobs).
    pub machine_instructions: usize,
    /// Rearrangement jobs.
    pub jobs: usize,
}

impl Program {
    /// Creates an empty program (instructions added by the scheduler).
    pub fn new(
        circuit_name: impl Into<String>,
        arch_name: impl Into<String>,
        num_qubits: usize,
    ) -> Self {
        Self {
            circuit_name: circuit_name.into(),
            arch_name: arch_name.into(),
            num_qubits,
            instructions: Vec::new(),
        }
    }

    /// Total duration: the latest end time of any instruction (µs).
    pub fn total_duration_us(&self) -> f64 {
        self.instructions.iter().map(Instruction::end_time).fold(0.0, f64::max)
    }

    /// The rearrangement jobs, in issue order.
    pub fn jobs(&self) -> impl Iterator<Item = &RearrangeJob> + '_ {
        self.instructions.iter().filter_map(|i| match i {
            Instruction::RearrangeJob(j) => Some(j),
            _ => None,
        })
    }

    /// Instruction-count statistics (paper Sec. IX).
    pub fn stats(&self) -> ZairStats {
        let zair_instructions = self.instructions.len();
        let mut machine_instructions = 0;
        let mut jobs = 0;
        for i in &self.instructions {
            match i {
                Instruction::RearrangeJob(j) => {
                    jobs += 1;
                    machine_instructions += j.insts.len();
                }
                _ => machine_instructions += 1,
            }
        }
        ZairStats { zair_instructions, machine_instructions, jobs }
    }

    /// Serializes to pretty JSON in the paper's Fig. 19 style.
    ///
    /// # Errors
    ///
    /// Rejects programs carrying non-finite numbers (NaN/infinite times,
    /// angles or coordinates — always the symptom of an upstream scheduling
    /// bug): JSON cannot represent them, and emitting the `null` the format
    /// falls back to would silently corrupt the round trip.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        let mut w = serde::JsonWriter::new();
        serde::Serialize::serialize(self, &mut w);
        if w.wrote_non_finite() {
            return Err(serde_json::Error::custom(format!(
                "program `{}` contains a non-finite time/angle/coordinate",
                self.circuit_name
            )));
        }
        Ok(w.into_pretty_string())
    }

    /// Parses a program from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// A stable 64-bit digest over the *entire* program content: names,
    /// qubit count, and every field of every instruction, with `f64`s hashed
    /// by IEEE-754 bit pattern. Two programs share a digest iff they are
    /// bit-identical — the scheduler's refactor-regression tests key on this
    /// (see `zac-schedule/tests/bit_identity.rs`).
    pub fn content_fingerprint(&self) -> u64 {
        let mut fp = zac_circuit::Fingerprint::new();
        fp.write_str(&self.circuit_name);
        fp.write_str(&self.arch_name);
        fp.write_usize(self.num_qubits);
        fp.write_usize(self.instructions.len());
        let write_qloc = |fp: &mut zac_circuit::Fingerprint, ql: &QubitLoc| {
            fp.write_usize(ql.qubit);
            fp.write_usize(ql.slm_id);
            fp.write_usize(ql.row);
            fp.write_usize(ql.col);
        };
        let write_ids = |fp: &mut zac_circuit::Fingerprint, ids: &[usize]| {
            fp.write_usize(ids.len());
            for &i in ids {
                fp.write_usize(i);
            }
        };
        let write_f64s = |fp: &mut zac_circuit::Fingerprint, vs: &[f64]| {
            fp.write_usize(vs.len());
            for &v in vs {
                fp.write_f64(v);
            }
        };
        for inst in &self.instructions {
            fp.write_str(inst.kind());
            match inst {
                Instruction::Init { init_locs } => {
                    fp.write_usize(init_locs.len());
                    for ql in init_locs {
                        write_qloc(&mut fp, ql);
                    }
                }
                Instruction::OneQGate { gates, begin_time, end_time } => {
                    fp.write_usize(gates.len());
                    for g in gates {
                        fp.write_f64(g.theta);
                        fp.write_f64(g.phi);
                        fp.write_f64(g.lambda);
                        write_qloc(&mut fp, &g.loc);
                    }
                    fp.write_f64(*begin_time);
                    fp.write_f64(*end_time);
                }
                Instruction::Rydberg { zone_id, begin_time, end_time } => {
                    fp.write_usize(*zone_id);
                    fp.write_f64(*begin_time);
                    fp.write_f64(*end_time);
                }
                Instruction::RearrangeJob(j) => {
                    fp.write_usize(j.aod_id);
                    for locs in [&j.begin_locs, &j.end_locs] {
                        fp.write_usize(locs.len());
                        for row in locs.iter() {
                            fp.write_usize(row.len());
                            for ql in row {
                                write_qloc(&mut fp, ql);
                            }
                        }
                    }
                    fp.write_usize(j.insts.len());
                    for ai in &j.insts {
                        match ai {
                            crate::inst::AodInst::Activate { row_id, row_y, col_id, col_x } => {
                                fp.write_u8(1);
                                write_ids(&mut fp, row_id);
                                write_f64s(&mut fp, row_y);
                                write_ids(&mut fp, col_id);
                                write_f64s(&mut fp, col_x);
                            }
                            crate::inst::AodInst::Deactivate { row_id, col_id } => {
                                fp.write_u8(2);
                                write_ids(&mut fp, row_id);
                                write_ids(&mut fp, col_id);
                            }
                            crate::inst::AodInst::Move {
                                row_id,
                                row_y_begin,
                                row_y_end,
                                col_id,
                                col_x_begin,
                                col_x_end,
                            } => {
                                fp.write_u8(3);
                                write_ids(&mut fp, row_id);
                                write_f64s(&mut fp, row_y_begin);
                                write_f64s(&mut fp, row_y_end);
                                write_ids(&mut fp, col_id);
                                write_f64s(&mut fp, col_x_begin);
                                write_f64s(&mut fp, col_x_end);
                            }
                        }
                    }
                    fp.write_f64(j.begin_time);
                    fp.write_f64(j.end_time);
                    fp.write_f64(j.pick_duration);
                    fp.write_f64(j.move_duration);
                    fp.write_f64(j.drop_duration);
                }
            }
        }
        fp.finish()
    }

    /// Validates the program against `arch` and extracts its [`Analysis`].
    ///
    /// The interpreter tracks qubit locations through every rearrangement
    /// job, checks trap occupancy and AOD/zone references, derives which
    /// site pairs perform CZs at each Rydberg exposure, and accumulates the
    /// fidelity-model counters.
    ///
    /// # Errors
    ///
    /// A [`ZairError`] naming the first violated rule.
    pub fn analyze(&self, arch: &Architecture) -> Result<Analysis, ZairError> {
        let n = self.num_qubits;
        let mut loc_of: Vec<Option<Loc>> = vec![None; n];
        let mut occupant: HashMap<Loc, usize> = HashMap::new();

        let to_loc = |ql: &QubitLoc| -> Result<Loc, ZairError> {
            arch.slm_to_loc(ql.slm_id, ql.row, ql.col)
                .ok_or(ZairError::InvalidLoc { qubit: ql.qubit })
        };

        let mut analysis = Analysis {
            num_qubits: n,
            total_duration_us: 0.0,
            g1: 0,
            g2: 0,
            n_exc: 0,
            n_tran: 0,
            busy_us: vec![0.0; n],
            num_rydberg_stages: 0,
            num_jobs: 0,
        };

        let mut iter = self.instructions.iter();
        match iter.next() {
            Some(Instruction::Init { init_locs }) => {
                for ql in init_locs {
                    if ql.qubit >= n {
                        return Err(ZairError::QubitOutOfRange { qubit: ql.qubit });
                    }
                    let loc = to_loc(ql)?;
                    if loc_of[ql.qubit].is_some() || occupant.contains_key(&loc) {
                        return Err(ZairError::BadInit);
                    }
                    loc_of[ql.qubit] = Some(loc);
                    occupant.insert(loc, ql.qubit);
                }
            }
            _ => return Err(ZairError::MissingOrMisplacedInit),
        }

        for inst in iter {
            if inst.end_time() < inst.begin_time() {
                return Err(ZairError::NegativeDuration);
            }
            analysis.total_duration_us = analysis.total_duration_us.max(inst.end_time());
            match inst {
                Instruction::Init { .. } => return Err(ZairError::MissingOrMisplacedInit),
                Instruction::OneQGate { gates, .. } => {
                    for g in gates {
                        if g.loc.qubit >= n {
                            return Err(ZairError::QubitOutOfRange { qubit: g.loc.qubit });
                        }
                        let loc = to_loc(&g.loc)?;
                        if loc_of[g.loc.qubit] != Some(loc) {
                            return Err(ZairError::LocationMismatch { qubit: g.loc.qubit });
                        }
                        analysis.g1 += 1;
                    }
                }
                Instruction::Rydberg { zone_id, begin_time, end_time } => {
                    if *zone_id >= arch.entanglement_zones().len() {
                        return Err(ZairError::UnknownZone { zone_id: *zone_id });
                    }
                    analysis.num_rydberg_stages += 1;
                    // Group zone occupants by site; pairs gate, singles excite.
                    let mut by_site: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
                    for (q, loc) in loc_of.iter().enumerate() {
                        if let Some(Loc::Site { zone, row, col, .. }) = loc {
                            if zone == zone_id {
                                by_site.entry((*row, *col)).or_default().push(q);
                            }
                        }
                    }
                    let dur = end_time - begin_time;
                    for (_, qs) in by_site {
                        if qs.len() >= 2 {
                            analysis.g2 += 1;
                            for q in qs {
                                analysis.busy_us[q] += dur;
                            }
                        } else {
                            analysis.n_exc += qs.len();
                        }
                    }
                }
                Instruction::RearrangeJob(job) => {
                    if job.aod_id >= arch.aods().len() {
                        return Err(ZairError::UnknownAod { aod_id: job.aod_id });
                    }
                    analysis.num_jobs += 1;
                    // Pick up all qubits.
                    let mut pairs: Vec<(usize, Loc)> = Vec::new();
                    for (bql, eql) in job.moves() {
                        if bql.qubit >= n {
                            return Err(ZairError::QubitOutOfRange { qubit: bql.qubit });
                        }
                        let from = to_loc(bql)?;
                        let to = to_loc(eql)?;
                        if loc_of[bql.qubit] != Some(from) {
                            return Err(ZairError::LocationMismatch { qubit: bql.qubit });
                        }
                        occupant.remove(&from);
                        pairs.push((bql.qubit, to));
                    }
                    // Drop them off.
                    for (q, to) in pairs {
                        if let Some(&other) = occupant.get(&to) {
                            return Err(ZairError::OccupiedTarget { qubit: q, occupant: other });
                        }
                        occupant.insert(to, q);
                        loc_of[q] = Some(to);
                        analysis.n_tran += 2;
                        analysis.busy_us[q] += 2.0 * 15.0_f64.min(job.pick_duration);
                    }
                }
            }
        }

        // 1Q busy time: each gate occupies its qubit for the group's
        // per-gate share (sequential execution).
        for inst in &self.instructions {
            if let Instruction::OneQGate { gates, begin_time, end_time } = inst {
                if !gates.is_empty() {
                    let per = (end_time - begin_time) / gates.len() as f64;
                    for g in gates {
                        analysis.busy_us[g.loc.qubit] += per;
                    }
                }
            }
        }

        Ok(analysis)
    }
}

/// JSON impl (the in-tree serde stand-in has no derive).
mod json {
    use super::Program;

    serde::impl_serde_struct!(Program { circuit_name, arch_name, num_qubits, instructions });
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "{} on {}: {} instructions ({} jobs), {:.1} us",
            self.circuit_name,
            self.arch_name,
            s.zair_instructions,
            s.jobs,
            self.total_duration_us()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::U3Application;
    use crate::machine::{build_job, shift_job, MoveSpec};

    fn arch() -> Architecture {
        Architecture::reference()
    }

    fn qloc(arch: &Architecture, q: usize, loc: Loc) -> QubitLoc {
        let (slm, r, c) = arch.loc_to_slm(loc);
        QubitLoc::new(q, slm, r, c)
    }

    /// A two-qubit program: init, fetch both to a site, expose, return one.
    fn sample_program(arch: &Architecture) -> Program {
        let s0 = Loc::Storage { zone: 0, row: 99, col: 0 };
        let s1 = Loc::Storage { zone: 0, row: 99, col: 1 };
        let w0 = Loc::Site { zone: 0, row: 0, col: 0, slot: 0 };
        let w1 = Loc::Site { zone: 0, row: 0, col: 0, slot: 1 };

        let mut p = Program::new("sample", arch.name(), 2);
        p.instructions
            .push(Instruction::Init { init_locs: vec![qloc(arch, 0, s0), qloc(arch, 1, s1)] });
        let mut job =
            build_job(arch, &[MoveSpec::new(0, s0, w0), MoveSpec::new(1, s1, w1)], 15.0).unwrap();
        shift_job(&mut job, 0.0);
        let t1 = job.end_time;
        p.instructions.push(Instruction::RearrangeJob(job));
        p.instructions.push(Instruction::Rydberg {
            zone_id: 0,
            begin_time: t1,
            end_time: t1 + 0.36,
        });
        let mut back = build_job(arch, &[MoveSpec::new(0, w0, s0)], 15.0).unwrap();
        shift_job(&mut back, t1 + 0.36);
        p.instructions.push(Instruction::RearrangeJob(back));
        p
    }

    #[test]
    fn analyze_counts_gates_and_transfers() {
        let arch = arch();
        let p = sample_program(&arch);
        let a = p.analyze(&arch).unwrap();
        assert_eq!(a.g2, 1);
        assert_eq!(a.g1, 0);
        assert_eq!(a.n_exc, 0);
        assert_eq!(a.n_tran, 6); // 2 qubits in, 1 qubit back
        assert_eq!(a.num_rydberg_stages, 1);
        assert_eq!(a.num_jobs, 2);
        assert!(a.total_duration_us > 140.0);
        assert!(a.busy_us[0] > a.busy_us[1], "qubit 0 moved twice");
    }

    #[test]
    fn lone_qubit_in_zone_is_excited() {
        let arch = arch();
        let mut p = sample_program(&arch);
        // Remove qubit 1's fetch: rebuild with only qubit 0 in the zone.
        let s0 = Loc::Storage { zone: 0, row: 99, col: 0 };
        let s1 = Loc::Storage { zone: 0, row: 99, col: 1 };
        let w0 = Loc::Site { zone: 0, row: 0, col: 0, slot: 0 };
        p.instructions = vec![
            Instruction::Init { init_locs: vec![qloc(&arch, 0, s0), qloc(&arch, 1, s1)] },
            {
                let job = build_job(&arch, &[MoveSpec::new(0, s0, w0)], 15.0).unwrap();
                Instruction::RearrangeJob(job)
            },
            Instruction::Rydberg { zone_id: 0, begin_time: 150.0, end_time: 150.36 },
        ];
        let a = p.analyze(&arch).unwrap();
        assert_eq!(a.g2, 0);
        assert_eq!(a.n_exc, 1);
    }

    #[test]
    fn missing_init_rejected() {
        let arch = arch();
        let p = Program::new("x", arch.name(), 1);
        assert_eq!(p.analyze(&arch).unwrap_err(), ZairError::MissingOrMisplacedInit);
    }

    #[test]
    fn double_init_rejected() {
        let arch = arch();
        let mut p = Program::new("x", arch.name(), 1);
        let s = Loc::Storage { zone: 0, row: 0, col: 0 };
        p.instructions.push(Instruction::Init { init_locs: vec![qloc(&arch, 0, s)] });
        p.instructions.push(Instruction::Init { init_locs: vec![] });
        assert_eq!(p.analyze(&arch).unwrap_err(), ZairError::MissingOrMisplacedInit);
    }

    #[test]
    fn init_collision_rejected() {
        let arch = arch();
        let mut p = Program::new("x", arch.name(), 2);
        let s = Loc::Storage { zone: 0, row: 0, col: 0 };
        p.instructions
            .push(Instruction::Init { init_locs: vec![qloc(&arch, 0, s), qloc(&arch, 1, s)] });
        assert_eq!(p.analyze(&arch).unwrap_err(), ZairError::BadInit);
    }

    #[test]
    fn location_mismatch_rejected() {
        let arch = arch();
        let s0 = Loc::Storage { zone: 0, row: 99, col: 0 };
        let s5 = Loc::Storage { zone: 0, row: 99, col: 5 };
        let w0 = Loc::Site { zone: 0, row: 0, col: 0, slot: 0 };
        let mut p = Program::new("x", arch.name(), 1);
        p.instructions.push(Instruction::Init { init_locs: vec![qloc(&arch, 0, s0)] });
        // Job claims the qubit starts at s5.
        let job = build_job(&arch, &[MoveSpec::new(0, s5, w0)], 15.0).unwrap();
        p.instructions.push(Instruction::RearrangeJob(job));
        assert_eq!(p.analyze(&arch).unwrap_err(), ZairError::LocationMismatch { qubit: 0 });
    }

    #[test]
    fn occupied_target_rejected() {
        let arch = arch();
        let s0 = Loc::Storage { zone: 0, row: 99, col: 0 };
        let s1 = Loc::Storage { zone: 0, row: 99, col: 1 };
        let mut p = Program::new("x", arch.name(), 2);
        p.instructions
            .push(Instruction::Init { init_locs: vec![qloc(&arch, 0, s0), qloc(&arch, 1, s1)] });
        let job = build_job(&arch, &[MoveSpec::new(0, s0, s1)], 15.0).unwrap();
        p.instructions.push(Instruction::RearrangeJob(job));
        assert_eq!(
            p.analyze(&arch).unwrap_err(),
            ZairError::OccupiedTarget { qubit: 0, occupant: 1 }
        );
    }

    #[test]
    fn one_q_gate_counted_and_checked() {
        let arch = arch();
        let s0 = Loc::Storage { zone: 0, row: 99, col: 0 };
        let mut p = Program::new("x", arch.name(), 1);
        p.instructions.push(Instruction::Init { init_locs: vec![qloc(&arch, 0, s0)] });
        p.instructions.push(Instruction::OneQGate {
            gates: vec![U3Application {
                theta: 1.0,
                phi: 0.0,
                lambda: 0.0,
                loc: qloc(&arch, 0, s0),
            }],
            begin_time: 0.0,
            end_time: 52.0,
        });
        let a = p.analyze(&arch).unwrap();
        assert_eq!(a.g1, 1);
        assert!((a.busy_us[0] - 52.0).abs() < 1e-9);
        assert!((a.idle_us()[0] - 0.0).abs() < 1e-9);
    }

    #[test]
    fn stats_count_machine_instructions() {
        let arch = arch();
        let p = sample_program(&arch);
        let s = p.stats();
        assert_eq!(s.zair_instructions, 4);
        assert_eq!(s.jobs, 2);
        assert!(s.machine_instructions > s.zair_instructions);
    }

    #[test]
    fn json_roundtrip() {
        let arch = arch();
        let p = sample_program(&arch);
        let json = p.to_json().expect("serialization succeeds");
        assert!(json.contains("\"type\": \"rearrangeJob\""));
        let back = Program::from_json(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn non_finite_times_rejected_by_to_json() {
        let arch = arch();
        let mut p = sample_program(&arch);
        if let Instruction::Rydberg { end_time, .. } = &mut p.instructions[2] {
            *end_time = f64::NAN;
        } else {
            panic!("sample program shape changed");
        }
        let err = p.to_json().unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn malformed_json_rejected() {
        // Regression coverage for `from_json` error paths: syntax errors,
        // wrong top-level shape, missing fields, and bad instruction tags.
        for bad in [
            "",
            "{not json",
            "[1, 2, 3]",
            r#"{"circuit_name": "x"}"#,
            r#"{"circuit_name": "x", "arch_name": "a", "num_qubits": -3, "instructions": []}"#,
            // 1e300 has fract() == 0; must not saturate to usize::MAX.
            r#"{"circuit_name": "x", "arch_name": "a", "num_qubits": 1e300, "instructions": []}"#,
            r#"{"circuit_name": "x", "arch_name": "a", "num_qubits": 1,
                "instructions": [{"type": "warp", "zone_id": 0}]}"#,
            r#"{"circuit_name": "x", "arch_name": "a", "num_qubits": 1,
                "instructions": [{"zone_id": 0, "begin_time": 0, "end_time": 1}]}"#,
        ] {
            assert!(Program::from_json(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn unknown_zone_rejected() {
        let arch = arch();
        let s0 = Loc::Storage { zone: 0, row: 99, col: 0 };
        let mut p = Program::new("x", arch.name(), 1);
        p.instructions.push(Instruction::Init { init_locs: vec![qloc(&arch, 0, s0)] });
        p.instructions.push(Instruction::Rydberg { zone_id: 7, begin_time: 0.0, end_time: 1.0 });
        assert_eq!(p.analyze(&arch).unwrap_err(), ZairError::UnknownZone { zone_id: 7 });
    }
}
