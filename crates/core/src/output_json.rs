//! The versioned [`CompileOutput`] JSON envelope.
//!
//! ZAIR programs (`zac-zair`) have carried stable JSON for a while; this
//! module gives the *exchange type* itself one, so a serving layer can
//! stream compile results to clients. The schema is versioned and
//! forward-tolerant:
//!
//! * **v2** (current, [`COMPILE_OUTPUT_FORMAT_VERSION`]) — summary, report,
//!   named gate counts, wall-clock compile time, the `from_cache` marker,
//!   the optional place/schedule phase split, and the optional ZAIR
//!   program;
//! * **v1** — the pre-serving shape without `counts`/`from_cache`/`phases`;
//!   a v2 reader accepts it, deriving counts from the summary and
//!   defaulting the rest;
//! * unknown fields from *future* versions with the same major shape are
//!   ignored rather than rejected, so a v2 reader keeps working against a
//!   v2-plus-extras writer.
//!
//! Field order is fixed and all numbers are finite for real outputs, so
//! equal outputs serialize byte-identically — the property the serving
//! layer's bit-identity tests are built on.

use crate::interface::{CompileOutput, GateCounts, PhaseTimings};
use serde::{DeError, Deserialize, JsonWriter, ObjectView, Serialize, Value};
use std::time::Duration;
use zac_circuit::Fingerprint;

/// Current envelope version written by [`CompileOutput::to_json`]. Readers
/// accept every version from 1 up to this one.
pub const COMPILE_OUTPUT_FORMAT_VERSION: u64 = 2;

impl Serialize for GateCounts {
    fn serialize(&self, w: &mut JsonWriter) {
        let mut o = w.object();
        o.field("g1", &self.g1).field("g2", &self.g2);
        o.field("n_exc", &self.n_exc).field("n_tran", &self.n_tran);
        o.end();
    }
}

impl Deserialize for GateCounts {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = ObjectView::new(v)?;
        Ok(Self {
            g1: obj.field("g1")?,
            g2: obj.field("g2")?,
            n_exc: obj.field("n_exc")?,
            n_tran: obj.field("n_tran")?,
        })
    }
}

impl Serialize for PhaseTimings {
    fn serialize(&self, w: &mut JsonWriter) {
        let mut o = w.object();
        o.field("place_ns", &ns_u64(self.place)).field("schedule_ns", &ns_u64(self.schedule));
        o.end();
    }
}

impl Deserialize for PhaseTimings {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = ObjectView::new(v)?;
        let place_ns: u64 = obj.field("place_ns")?;
        let schedule_ns: u64 = obj.field("schedule_ns")?;
        Ok(Self {
            place: Duration::from_nanos(place_ns),
            schedule: Duration::from_nanos(schedule_ns),
        })
    }
}

/// Saturating nanosecond conversion: a `Duration` wider than `u64` ns
/// (≈584 years) is not a real compile time.
fn ns_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Serialize for CompileOutput {
    fn serialize(&self, w: &mut JsonWriter) {
        let mut o = w.object();
        o.field("version", &COMPILE_OUTPUT_FORMAT_VERSION);
        o.field("summary", &self.summary);
        o.field("report", &self.report);
        o.field("counts", &self.counts);
        o.field("compile_time_ns", &ns_u64(self.compile_time));
        o.field("from_cache", &self.from_cache);
        o.field("phases", &self.phases);
        o.field("program", &self.program);
        o.end();
    }
}

impl Deserialize for CompileOutput {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = ObjectView::new(v)?;
        let version: u64 = obj.field("version")?;
        if !(1..=COMPILE_OUTPUT_FORMAT_VERSION).contains(&version) {
            return Err(DeError::msg(format!(
                "unsupported CompileOutput envelope version {version} (reader supports 1..={COMPILE_OUTPUT_FORMAT_VERSION})"
            )));
        }
        let summary = obj.field("summary")?;
        // v1 envelopes predate the named counts; derive them exactly as
        // `CompileOutput::new` does.
        let counts =
            obj.opt_field::<GateCounts>("counts")?.unwrap_or_else(|| GateCounts::from(&summary));
        Ok(Self {
            summary,
            report: obj.field("report")?,
            counts,
            compile_time: Duration::from_nanos(obj.field::<u64>("compile_time_ns")?),
            from_cache: obj.opt_field("from_cache")?.unwrap_or(false),
            phases: obj.opt_field("phases")?,
            program: obj.opt_field("program")?,
        })
    }
}

impl CompileOutput {
    /// Serializes to the versioned envelope (see the module docs).
    ///
    /// # Errors
    ///
    /// [`serde_json::Error`] if the output contains non-finite numbers —
    /// JSON cannot represent them, and a NaN in a compile output is an
    /// upstream bug that must not propagate silently as `null`.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        let mut w = JsonWriter::new();
        self.serialize(&mut w);
        if w.wrote_non_finite() {
            return Err(serde_json::Error::custom(format!(
                "compile output for `{}` contains non-finite numbers",
                self.summary.name
            )));
        }
        Ok(w.into_string())
    }

    /// Parses any supported envelope version (see the module docs for the
    /// compatibility rules).
    ///
    /// # Errors
    ///
    /// [`serde_json::Error`] on malformed JSON, an unsupported version, or
    /// a field-shape mismatch.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// The output with its wall-clock and cache bookkeeping normalized:
    /// `compile_time` zeroed, phase durations zeroed (presence preserved),
    /// `from_cache` cleared. What remains — summary, report, counts,
    /// program — is exactly what compilation *semantics* determine, so two
    /// normalized outputs are equal iff the compilations were equivalent.
    #[must_use]
    pub fn normalized(&self) -> Self {
        let mut out = self.clone();
        out.compile_time = Duration::ZERO;
        out.phases =
            out.phases.map(|_| PhaseTimings { place: Duration::ZERO, schedule: Duration::ZERO });
        out.from_cache = false;
        out
    }

    /// Serialized [`normalized`](Self::normalized) form: the byte-stable
    /// semantic payload. Two outputs with equal `semantic_json` came from
    /// equivalent compilations regardless of where or when they ran.
    ///
    /// # Errors
    ///
    /// As [`to_json`](Self::to_json).
    pub fn semantic_json(&self) -> Result<String, serde_json::Error> {
        self.normalized().to_json()
    }

    /// Stable FNV-1a digest of [`semantic_json`](Self::semantic_json) —
    /// the "direct-compile digest" service smoke tests compare against.
    /// Outputs that fail to serialize digest to 0 (never a real digest).
    pub fn semantic_digest(&self) -> u64 {
        let Ok(json) = self.semantic_json() else {
            return 0;
        };
        let mut fp = Fingerprint::new();
        fp.write_str(&json);
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zac_fidelity::{evaluate_neutral_atom, ExecutionSummary, NeutralAtomParams};

    /// A deterministic sample whose floats are integer-valued where that
    /// keeps the golden envelope readable.
    fn sample() -> CompileOutput {
        let summary = ExecutionSummary {
            name: "golden".into(),
            num_qubits: 2,
            duration_us: 16.0,
            g1: 3,
            g2: 2,
            n_exc: 1,
            n_tran: 4,
            idle_us: vec![8.0, 12.5],
        };
        let report = evaluate_neutral_atom(&summary, &NeutralAtomParams::reference());
        CompileOutput::new(summary, report, Duration::from_nanos(1_234_567), None)
            .with_phases(Duration::from_nanos(1_000_000), Duration::from_nanos(234_567))
    }

    /// Golden lock on the v2 envelope: key order, version tag, phases,
    /// `from_cache`, and counts are all part of the stable format.
    #[test]
    fn v2_envelope_matches_golden_shape_and_roundtrips() {
        let mut out = sample();
        out.from_cache = true;
        let json = out.to_json().unwrap();
        let head = "{\"version\":2,\"summary\":{\"name\":\"golden\",\"num_qubits\":2,\
                    \"duration_us\":16,\"g1\":3,\"g2\":2,\"n_exc\":1,\"n_tran\":4,\
                    \"idle_us\":[8,12.5]},\"report\":{";
        assert!(json.starts_with(head), "envelope head drifted:\n{json}");
        let tail = "\"counts\":{\"g1\":3,\"g2\":2,\"n_exc\":1,\"n_tran\":4},\
                    \"compile_time_ns\":1234567,\"from_cache\":true,\
                    \"phases\":{\"place_ns\":1000000,\"schedule_ns\":234567},\
                    \"program\":null}";
        assert!(json.ends_with(tail), "envelope tail drifted:\n{json}");

        let back = CompileOutput::from_json(&json).unwrap();
        assert_eq!(back.summary, out.summary);
        assert_eq!(back.report, out.report);
        assert_eq!(back.counts, out.counts);
        assert_eq!(back.compile_time, out.compile_time);
        assert_eq!(back.phases, out.phases);
        assert_eq!(back.from_cache, out.from_cache);
        assert!(back.program.is_none());
        // And the round trip is byte-stable.
        assert_eq!(back.to_json().unwrap(), json);
    }

    /// A compiled program survives the envelope byte-identically.
    #[test]
    fn program_roundtrips_inside_the_envelope() {
        use zac_arch::Architecture;
        use zac_circuit::{bench_circuits, preprocess};
        let mut config = crate::ZacConfig::full();
        config.placement.sa_iterations = 50;
        let zac = crate::Zac::with_config(Architecture::reference(), config);
        let out = crate::Compiler::compile(&zac, &preprocess(&bench_circuits::ghz(6))).unwrap();
        assert!(out.program.is_some());
        let back = CompileOutput::from_json(&out.to_json().unwrap()).unwrap();
        assert_eq!(
            back.program.as_ref().unwrap().to_json().unwrap(),
            out.program.as_ref().unwrap().to_json().unwrap()
        );
        assert_eq!(back.to_json().unwrap(), out.to_json().unwrap());
    }

    /// A v2 reader accepts a v1 envelope: counts derive from the summary,
    /// `from_cache` defaults to false, phases to absent.
    #[test]
    fn v2_reader_accepts_v1_envelopes() {
        let out = sample();
        // Render a v1 document by hand from the sample's own pieces.
        let v1 = format!(
            "{{\"version\":1,\"summary\":{},\"report\":{},\"compile_time_ns\":1234567,\"program\":null}}",
            serde_json::to_string(&out.summary).unwrap(),
            serde_json::to_string(&out.report).unwrap(),
        );
        let back = CompileOutput::from_json(&v1).unwrap();
        assert_eq!(back.summary, out.summary);
        assert_eq!(back.counts, GateCounts::from(&out.summary), "counts derived from summary");
        assert!(!back.from_cache);
        assert_eq!(back.phases, None);
        assert_eq!(back.compile_time, Duration::from_nanos(1_234_567));
    }

    /// Unknown future fields are tolerated; unknown future *versions* are
    /// rejected loudly.
    #[test]
    fn unknown_future_fields_are_tolerated_but_future_versions_are_not() {
        let json = sample().to_json().unwrap();
        let with_extra = json.replacen(
            "\"summary\"",
            "\"future_hint\":{\"speculative\":[1,2,3]},\"summary\"",
            1,
        );
        let back = CompileOutput::from_json(&with_extra).expect("extra fields are ignored");
        assert_eq!(back.summary, sample().summary);

        let future = json.replacen("\"version\":2", "\"version\":99", 1);
        let err = CompileOutput::from_json(&future).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn non_finite_outputs_refuse_to_serialize() {
        let mut out = sample();
        out.summary.duration_us = f64::NAN;
        let err = out.to_json().unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    /// Normalization erases exactly the wall-clock/cache fields and nothing
    /// else, so semantic digests identify equivalent compilations.
    #[test]
    fn semantic_digest_ignores_timing_and_cache_marking_only() {
        let out = sample();
        let mut later = out.clone();
        later.compile_time = Duration::from_secs(5);
        later.from_cache = true;
        later.phases =
            Some(PhaseTimings { place: Duration::from_secs(4), schedule: Duration::from_secs(1) });
        assert_eq!(out.semantic_digest(), later.semantic_digest());
        assert_eq!(out.semantic_json().unwrap(), later.semantic_json().unwrap());

        let mut different = out.clone();
        different.summary.g1 += 1;
        different.counts = GateCounts::from(&different.summary);
        assert_ne!(out.semantic_digest(), different.semantic_digest());

        // Phase *presence* is semantic (pipeline shape), only durations are
        // normalized away.
        let mut phaseless = out.clone();
        phaseless.phases = None;
        assert_ne!(out.semantic_digest(), phaseless.semantic_digest());
    }
}
