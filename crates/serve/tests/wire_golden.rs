//! Wire byte-identity lock: the exact bytes `serde_json::to_string` writes
//! for every protocol response shape, plus the `semantic_digest` of every
//! paper-suite and bundled-corpus compile.
//!
//! * `golden/wire.txt` holds one `case<TAB>json` line per case: every
//!   [`Response`] arm, every [`EntryOutcome`] arm (including each
//!   [`EntryError`] kind) and every [`RejectReason`] kind. The `ok` result
//!   embeds a real compiled program that contains every ZAIR instruction
//!   and AOD instruction kind; other cases cover strings that need escapes
//!   (quote, backslash, a control character, non-ASCII), `-0.0`, a
//!   saturated `compile_time_ns` (`u64::MAX`), integers above 2^53, and
//!   non-finite numbers, which a `Response` writes as `null`.
//! * `golden/semantic_digests.txt` holds `CompileOutput::semantic_digest`
//!   of the 17-circuit paper suite plus `tests/corpus/` under the paper
//!   configuration, with the exhaustive placement engine pinned so the
//!   table also holds under `ZAC_PLACER=windowed` runs.
//!
//! The serializer may be rewritten freely; these bytes may not move.
//! Regenerate both files with `ZAC_WIRE_GOLDEN_REGEN=1 cargo test -p
//! zac-serve --release --test wire_golden` — only for reviewed,
//! intentional wire-format changes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;
use zac_arch::Architecture;
use zac_circuit::qasm::parse_qasm;
use zac_circuit::{bench_circuits, preprocess, StagedCircuit};
use zac_core::{CompileOutput, Compiler, PhaseTimings, Zac, ZacConfig};
use zac_place::PlacementEngine;
use zac_serve::{Done, EntryError, EntryOutcome, PhaseTotals, RejectReason, Response};

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
const CORPUS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");

/// Text that needs every kind of escape the writer knows: quote,
/// backslash, the short-form controls, a `\u00XX` control and non-ASCII
/// (which passes through unescaped).
const ESCAPES: &str = "q\"uote b\\ack n\nl t\tab r\rf\u{c}b\u{8} ctl\u{1}\u{1f} é→𝄞 del\u{7f}";

fn regen() -> bool {
    std::env::var("ZAC_WIRE_GOLDEN_REGEN").is_ok_and(|v| v == "1")
}

/// The paper configuration with the golden-locked exhaustive engine.
fn pinned_config() -> ZacConfig {
    let mut cfg = zac_bench::zac_config();
    cfg.placement.engine = PlacementEngine::Exhaustive;
    cfg
}

/// A small real compile whose program exercises every instruction kind
/// (init, 1qGate, rydberg, rearrangeJob; activate, move, deactivate), with
/// its wall-clock fields pinned so the bytes are reproducible.
fn compiled_sample() -> CompileOutput {
    let qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\n\
                h q[0];\ncx q[0],q[1];\nu3(-0.5,0.25,-1.75) q[2];\ncx q[1],q[2];\n\
                rz(3.0) q[0];\ncx q[0],q[2];\n";
    let circuit = parse_qasm(qasm, "golden_sample").expect("sample QASM parses");
    let zac = Zac::with_config(Architecture::reference(), pinned_config());
    let mut out = Compiler::compile(&zac, &preprocess(&circuit)).expect("sample compiles");
    out.compile_time = Duration::from_nanos(123_456_789);
    out.phases = Some(PhaseTimings {
        place: Duration::from_nanos(1_000),
        schedule: Duration::from_nanos(2),
    });
    out
}

fn result(id: &str, entry: usize, name: &str, outcome: EntryOutcome) -> Response {
    Response::Result { id: id.into(), entry, name: name.into(), outcome }
}

fn every_reject_reason() -> Vec<(&'static str, RejectReason)> {
    vec![
        ("too_large", RejectReason::TooLarge { needed: 40, available: 16 }),
        ("too_many_gates", RejectReason::TooManyGates { gates: 100_000, cap: 50_000 }),
        ("too_many_circuits", RejectReason::TooManyCircuits { circuits: 65, cap: 64 }),
        ("deadline_expired", RejectReason::DeadlineExpired { deadline_ms: 5, waited_ms: 7 }),
        ("queue_full", RejectReason::QueueFull { depth: 9, cap: 9 }),
        ("breaker_open", RejectReason::BreakerOpen { failures: 3, cooldown_ms: 250 }),
        ("shed", RejectReason::Shed { depth: 1024, cap: 1024 }),
    ]
}

/// Every golden case, in file order.
fn cases() -> Vec<(String, Response)> {
    let sample = compiled_sample();
    let mut cases: Vec<(String, Response)> = Vec::new();

    cases.push((
        "result.ok.compiled".into(),
        result("req-1", 0, "golden_sample", EntryOutcome::Ok(Box::new(sample.clone()))),
    ));

    let mut saturated = sample.clone();
    saturated.compile_time = Duration::MAX;
    saturated.phases = Some(PhaseTimings { place: Duration::MAX, schedule: Duration::ZERO });
    saturated.from_cache = true;
    saturated.summary.name = ESCAPES.into();
    cases.push((
        "result.ok.saturated_times_escaped_name".into(),
        result(ESCAPES, 3, ESCAPES, EntryOutcome::Ok(Box::new(saturated))),
    ));

    let mut odd_numbers = sample.clone();
    odd_numbers.program = None;
    odd_numbers.phases = None;
    odd_numbers.report.one_q = -0.0;
    odd_numbers.report.two_q = f64::NAN;
    odd_numbers.report.transfer = f64::INFINITY;
    odd_numbers.report.decoherence = f64::NEG_INFINITY;
    odd_numbers.report.duration_us = 1e300;
    odd_numbers.summary.idle_us = vec![0.1, -2.5e-7, 9_007_199_254_740_993.0, 1e21, -0.0];
    cases.push((
        "result.ok.non_finite_and_signed_zero".into(),
        result("req-1", 1, "numbers", EntryOutcome::Ok(Box::new(odd_numbers))),
    ));

    for (kind, reason) in every_reject_reason() {
        cases.push((
            format!("result.rejected.{kind}"),
            result("req-1", 2, "rejected", EntryOutcome::Rejected(reason)),
        ));
        cases.push((format!("rejected.{kind}"), Response::Rejected { id: "req-2".into(), reason }));
    }

    cases.push((
        "result.failed.compile".into(),
        result("req-1", 4, "f", EntryOutcome::Failed(EntryError::Compile(ESCAPES.into()))),
    ));
    cases.push((
        "result.failed.panic".into(),
        result(
            "req-1",
            5,
            "f",
            EntryOutcome::Failed(EntryError::Panicked { message: "index out of bounds".into() }),
        ),
    ));
    cases.push((
        "result.failed.cancelled".into(),
        result(
            "req-1",
            usize::MAX,
            "f",
            EntryOutcome::Failed(EntryError::Cancelled { after_ms: u64::MAX }),
        ),
    ));

    cases.push((
        "done.plain".into(),
        Response::Done(Done {
            id: "req-1".into(),
            ok: 17,
            rejected: 2,
            failed: 1,
            latency_ms: 0,
            phase_totals: PhaseTotals { place_ns: u64::MAX, schedule_ns: 1 << 53 },
            metrics: None,
            trace: None,
        }),
    ));
    let metrics: serde::Value = serde_json::from_str(
        r#"{"version":1,"counters":{"serve.requests":3,"big":18446744073709551615},
            "gauges":{"neg":-12.5,"tiny":1e-9},"empty":{},"list":[],"nested":[[true,false,null]]}"#,
    )
    .expect("metrics literal parses");
    let trace = serde::Value::Object(vec![
        ("neg_zero".into(), serde::Value::Number(serde::Number::from_f64(-0.0))),
        ("nan".into(), serde::Value::Number(serde::Number::from_f64(f64::NAN))),
        ("inf".into(), serde::Value::Number(serde::Number::from_f64(f64::INFINITY))),
        ("name".into(), serde::Value::String(ESCAPES.into())),
    ]);
    cases.push((
        "done.metrics_and_trace".into(),
        Response::Done(Done {
            id: ESCAPES.into(),
            ok: 0,
            rejected: 0,
            failed: 0,
            latency_ms: 12,
            phase_totals: PhaseTotals::default(),
            metrics: Some(metrics),
            trace: Some(trace),
        }),
    ));

    cases.push((
        "error.with_id".into(),
        Response::Error { id: Some("r".into()), reason: ESCAPES.into() },
    ));
    cases.push((
        "error.without_id".into(),
        Response::Error { id: None, reason: "malformed request: expected `{` at byte 0".into() },
    ));
    cases
}

fn load(path: &Path) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("golden file {} committed: {e}", path.display()));
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, value) = l.split_once('\t').expect("golden line: key\\tvalue");
            (key.to_owned(), value.to_owned())
        })
        .collect()
}

/// Compares `rows` against the golden file (or rewrites it under regen).
fn check_or_regen(file: &str, header: &str, rows: &[(String, String)]) {
    let path = Path::new(GOLDEN_DIR).join(file);
    if regen() {
        let mut out = String::from(header);
        for (key, value) in rows {
            writeln!(out, "{key}\t{value}").unwrap();
        }
        std::fs::create_dir_all(GOLDEN_DIR).unwrap();
        std::fs::write(&path, out).unwrap();
        println!("regenerated {}", path.display());
        return;
    }
    let goldens = load(&path);
    let mut mismatches = Vec::new();
    for (key, value) in rows {
        match goldens.get(key) {
            Some(expect) if expect == value => {}
            Some(expect) => {
                mismatches.push(format!("{key}:\n  expected {expect}\n  got      {value}"))
            }
            None => mismatches.push(format!("{key}: missing from {file}")),
        }
    }
    assert_eq!(goldens.len(), rows.len(), "{file} lists cases this test no longer produces");
    assert!(mismatches.is_empty(), "bytes drifted from {file}:\n{}", mismatches.join("\n"));
}

#[test]
fn response_bytes_match_goldens() {
    let rows: Vec<(String, String)> = cases()
        .into_iter()
        .map(|(name, response)| {
            let json = serde_json::to_string(&response).expect("responses serialize");
            (name, json)
        })
        .collect();

    // The compiled sample really covers every instruction kind.
    let compiled = &rows.iter().find(|(name, _)| name == "result.ok.compiled").unwrap().1;
    for kind in ["init", "1qGate", "rydberg", "rearrangeJob", "activate", "move", "deactivate"] {
        assert!(compiled.contains(&format!("\"type\":\"{kind}\"")), "sample lacks `{kind}`");
    }
    for (name, json) in &rows {
        // Lines must stay single-line for the line protocol (and this file).
        assert!(!json.contains(['\n', '\t']), "{name} writes a raw newline or tab");
    }

    check_or_regen(
        "wire.txt",
        "# serde_json::to_string bytes of every protocol response shape, one\n\
         # `case<TAB>json` per line. Regenerate only for reviewed wire changes:\n\
         # ZAC_WIRE_GOLDEN_REGEN=1 cargo test -p zac-serve --release --test wire_golden\n",
        &rows,
    );
}

/// The 17-circuit paper suite plus the bundled corpus, staged.
fn suite() -> Vec<StagedCircuit> {
    let mut circuits: Vec<StagedCircuit> =
        bench_circuits::paper_suite().iter().map(|e| preprocess(&e.circuit)).collect();
    let mut files: Vec<_> = std::fs::read_dir(CORPUS_DIR)
        .expect("bundled corpus directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "qasm"))
        .collect();
    files.sort();
    for path in files {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).expect("readable corpus file");
        let circuit = parse_qasm(&src, &name).expect("bundled corpus file parses");
        circuits.push(preprocess(&circuit));
    }
    circuits
}

#[test]
fn semantic_digests_match_goldens() {
    let zac = Zac::with_config(Architecture::reference(), pinned_config());
    let rows: Vec<(String, String)> = suite()
        .iter()
        .map(|staged| {
            let out = Compiler::compile(&zac, staged)
                .unwrap_or_else(|e| panic!("{} compiles: {e}", staged.name));
            (staged.name.clone(), format!("{:016x}", out.semantic_digest()))
        })
        .collect();
    assert_eq!(rows.len(), 27, "17 paper-suite circuits + 10 corpus files");
    check_or_regen(
        "semantic_digests.txt",
        "# CompileOutput::semantic_digest per circuit (paper config, exhaustive\n\
         # placement engine). Regenerate only for reviewed output changes:\n\
         # ZAC_WIRE_GOLDEN_REGEN=1 cargo test -p zac-serve --release --test wire_golden\n",
        &rows,
    );
}
