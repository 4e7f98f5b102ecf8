//! Shared harness for regenerating the paper's tables and figures.
//!
//! Every `benches/*.rs` target (plain binaries, `harness = false`) uses this
//! crate to run the compilers over the paper's benchmark suite and print the
//! same rows/series the paper reports.
//!
//! Since the [`zac_core::Compiler`]-trait refactor the harness is fully
//! generic: [`default_compilers`] assembles the paper's six-compiler lineup
//! (Fig. 8 legend order), [`run_compilers`] drives any compiler slice over
//! one circuit, and [`BatchRunner`] fans a suite × compiler matrix out
//! across cores with rayon. Results are independent per (circuit, compiler)
//! cell and the parallel scheduler preserves input order, so parallel runs
//! are identical to serial runs (asserted in this crate's tests).

pub mod corpus;

use rayon::prelude::*;
use zac_arch::Architecture;
use zac_baselines::{Atomique, Enola, Nalac, Sc};
use zac_cache::CompileCache;
use zac_circuit::{bench_circuits, preprocess, StagedCircuit};
use zac_core::{CompileError, CompileOutput, Compiler, GateCounts, Zac, ZacConfig};
use zac_fidelity::FidelityReport;
use zac_telemetry::MetricsSnapshot;

/// One compiler's results on one circuit.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Compiler label as used in the paper's legends.
    pub compiler: String,
    /// Fidelity report.
    pub report: FidelityReport,
    /// Named gate/error counters.
    pub counts: GateCounts,
    /// Compile wall time in seconds. For cache hits this is the *original*
    /// compile time recorded when the entry was produced — lookup times
    /// never pollute figure timing series (regression-tested below).
    pub compile_secs: f64,
    /// Per-phase split of `compile_secs` as `(place, schedule)` seconds,
    /// for pipeline compilers that report one (ZAC). Cache hits carry the
    /// original split.
    pub phase_secs: Option<(f64, f64)>,
    /// Whether the result was served from a [`CompileCache`] rather than
    /// freshly compiled.
    pub from_cache: bool,
}

impl RunResult {
    fn from_output(compiler: &dyn Compiler, out: CompileOutput) -> Self {
        Self {
            compiler: compiler.name().to_owned(),
            report: out.report,
            counts: out.counts,
            compile_secs: out.compile_time.as_secs_f64(),
            phase_secs: out.phases.map(|p| (p.place.as_secs_f64(), p.schedule.as_secs_f64())),
            from_cache: out.from_cache,
        }
    }

    /// Total fidelity.
    pub fn fidelity(&self) -> f64 {
        self.report.total()
    }
}

/// A non-capacity compiler failure observed in a sweep cell: a compiler
/// bug, not a circuit that merely does not fit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Compiler label.
    pub compiler: String,
    /// The backend's error message.
    pub reason: String,
}

/// Outcome of running one compiler on one circuit — the typed replacement
/// for the old "`Option<RunResult>` plus a stderr warning" shape: callers
/// and tests can now observe *why* a cell is blank instead of scraping
/// stderr.
///
/// Since the serving refactor the three-way shape itself lives in
/// [`zac_core::admission::Outcome`] (the serving layer uses it with
/// `T = CompileOutput`); this alias keeps the harness vocabulary — and all
/// existing `RunOutcome::...` construction and matching — unchanged.
pub type RunOutcome = Outcome<RunResult>;

pub use zac_core::admission::{AdmissionLimits, Outcome, RejectReason};

/// All compilers' results on one circuit.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Circuit name (paper naming, e.g. `bv_n14`).
    pub name: String,
    /// Qubit count.
    pub qubits: usize,
    /// (2Q, 1Q) gate counts after our preprocessing.
    pub gates: (usize, usize),
    /// (2Q, 1Q) gate counts the paper reports.
    pub paper_gates: (usize, usize),
    /// Results keyed by compiler label.
    pub results: Vec<RunResult>,
    /// Non-capacity failures observed in this row ([`RunOutcome::Failed`]
    /// cells). Empty in a healthy sweep; the cells stay blank in figures
    /// either way.
    pub failures: Vec<CellFailure>,
}

impl ComparisonRow {
    /// Looks up a compiler's result by label.
    pub fn result(&self, compiler: &str) -> Option<&RunResult> {
        self.results.iter().find(|r| r.compiler == compiler)
    }
}

/// Compiler labels in the paper's Fig. 8 legend order.
pub const COMPILERS: [&str; 6] =
    ["SC-Heron", "SC-Grid", "Monolithic-Atomique", "Monolithic-Enola", "Zoned-NALAC", "Zoned-ZAC"];

/// The harness's ZAC configuration (SA budget matching the paper's 1000
/// iterations).
pub fn zac_config() -> ZacConfig {
    ZacConfig::full()
}

/// The paper's six-compiler lineup (Fig. 8 legend order): two SC machines,
/// the two monolithic baselines, NALAC, and ZAC on the reference zoned
/// architecture. All behind the unified [`Compiler`] trait.
pub fn default_compilers() -> Vec<Box<dyn Compiler>> {
    vec![
        Box::new(Sc::heron()),
        Box::new(Sc::grid()),
        Box::new(Atomique::default()),
        Box::new(Enola::default()),
        Box::new(Nalac::default()),
        Box::new(Zac::with_config(Architecture::reference(), zac_config())),
    ]
}

/// Runs one compiler on one circuit, reporting a typed [`RunOutcome`].
pub fn run_cell(compiler: &dyn Compiler, staged: &StagedCircuit) -> RunOutcome {
    run_cell_with(compiler, staged, None)
}

/// [`run_cell`] with an optional shared [`CompileCache`]: the cache is
/// consulted first (hits carry their original compile time and
/// `from_cache == true`), and successful fresh compilations populate it.
pub fn run_cell_with(
    compiler: &dyn Compiler,
    staged: &StagedCircuit,
    cache: Option<&CompileCache>,
) -> RunOutcome {
    let compiled = match cache {
        Some(cache) => cache.get_or_compile(compiler, staged),
        None => compiler.compile(staged),
    };
    match compiled {
        Ok(out) => RunOutcome::Ok(RunResult::from_output(compiler, out)),
        Err(e) => outcome_from_error(e),
    }
}

fn outcome_from_error(e: CompileError) -> RunOutcome {
    match e {
        CompileError::CircuitTooLarge { needed, available } => {
            RunOutcome::TooLarge { needed, available }
        }
        CompileError::Failed(reason) => RunOutcome::Failed(reason),
        CompileError::Cancelled => RunOutcome::Failed("compilation cancelled".into()),
    }
}

/// Runs every compiler in `compilers` on one staged circuit with
/// blank-cell semantics: oversized cells are skipped silently, and
/// non-capacity failures — compiler bugs, not capacity limits — are
/// additionally surfaced on stderr at this harness boundary so aggregate
/// statistics never shrink unnoticed. Use [`run_cell`] directly to observe
/// failures as values.
pub fn run_compilers(compilers: &[Box<dyn Compiler>], staged: &StagedCircuit) -> Vec<RunResult> {
    compilers
        .iter()
        .filter_map(|compiler| match run_cell(&**compiler, staged) {
            RunOutcome::Failed(reason) => {
                eprintln!("warning: {} failed on {}: {reason}", compiler.name(), staged.name);
                None
            }
            outcome => outcome.into_result(),
        })
        .collect()
}

/// Runs the default six-compiler lineup on one staged circuit.
pub fn compare_all(staged: &StagedCircuit) -> Vec<RunResult> {
    run_compilers(&default_compilers(), staged)
}

/// Execution strategy for a suite × compiler sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Fan the (circuit, compiler) cells out across cores with rayon.
    #[default]
    Parallel,
    /// One cell at a time, in order (reference semantics).
    Serial,
}

/// Drives a benchmark suite × compiler matrix, optionally in parallel and
/// optionally through a shared compilation cache.
///
/// Each (circuit, compiler) cell is an independent compilation (every
/// compiler in this workspace is deterministic given its config, including
/// ZAC's seeded SA), so the parallel schedule produces results identical to
/// the serial one; only wall-clock timing differs. When the *timing* is the
/// measurement (Fig. 12), use [`BatchRunner::serial`]: per-cell
/// `compile_secs` under the parallel mode includes contention from
/// co-running cells. (Cache hits are immune to this: they carry the compile
/// time recorded when the entry was produced.)
///
/// # Example
///
/// ```
/// use zac_bench::{default_compilers, BatchRunner};
/// use zac_cache::CompileCache;
/// use zac_circuit::{bench_circuits, preprocess};
///
/// let suite = vec![preprocess(&bench_circuits::ghz(8))];
/// let cache = CompileCache::in_memory(256);
/// let runner = BatchRunner::parallel().with_cache(cache.clone());
/// let cold = runner.run(&default_compilers(), &suite);
/// let warm = runner.run(&default_compilers(), &suite); // all cache hits
/// assert_eq!(cold[0].results.len(), 6);
/// assert!(warm[0].results.iter().all(|r| r.from_cache));
/// assert_eq!(cache.stats().hits, 6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchRunner {
    mode: BatchMode,
    cache: Option<CompileCache>,
}

impl BatchRunner {
    /// A runner that sweeps in parallel (the default).
    pub fn parallel() -> Self {
        Self { mode: BatchMode::Parallel, cache: None }
    }

    /// A runner that sweeps serially (reference path for determinism
    /// checks).
    pub fn serial() -> Self {
        Self { mode: BatchMode::Serial, cache: None }
    }

    /// Routes every cell through `cache`. Clones of one [`CompileCache`]
    /// share storage, so suite × compiler sweeps across runners — repeated
    /// figure regenerations, fig14-style architecture matrices — reuse each
    /// other's compilations.
    pub fn with_cache(mut self, cache: CompileCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The runner's mode.
    pub fn mode(&self) -> BatchMode {
        self.mode
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&CompileCache> {
        self.cache.as_ref()
    }

    /// Runs every compiler on every circuit, returning one row per circuit
    /// (suite order) with results in compiler order. Oversized cells are
    /// left blank; non-capacity failures are recorded on
    /// [`ComparisonRow::failures`].
    pub fn run(
        &self,
        compilers: &[Box<dyn Compiler>],
        suite: &[StagedCircuit],
    ) -> Vec<ComparisonRow> {
        // Flatten to (circuit, compiler) cells so rayon balances the load:
        // a slow cell (ZAC on ising_n98) overlaps many fast ones.
        let cells: Vec<(usize, usize)> =
            (0..suite.len()).flat_map(|ci| (0..compilers.len()).map(move |ki| (ci, ki))).collect();
        let compile_cell = |&(ci, ki): &(usize, usize)| {
            run_cell_with(&*compilers[ki], &suite[ci], self.cache.as_ref())
        };
        let outputs: Vec<RunOutcome> = match self.mode {
            BatchMode::Parallel => cells.par_iter().map(compile_cell).collect(),
            BatchMode::Serial => cells.iter().map(compile_cell).collect(),
        };

        let mut rows: Vec<ComparisonRow> = suite
            .iter()
            .map(|staged| ComparisonRow {
                name: staged.name.clone(),
                qubits: staged.num_qubits,
                gates: (staged.num_2q_gates(), staged.num_1q_gates()),
                paper_gates: (0, 0),
                results: Vec::new(),
                failures: Vec::new(),
            })
            .collect();
        for ((ci, ki), outcome) in cells.into_iter().zip(outputs) {
            match outcome {
                RunOutcome::Ok(r) => rows[ci].results.push(r),
                RunOutcome::TooLarge { .. } => {}
                RunOutcome::Failed(reason) => {
                    // Recorded for callers *and* warned here, so unattended
                    // figure regenerations never shrink their aggregates
                    // silently.
                    eprintln!(
                        "warning: {} failed on {}: {reason}",
                        compilers[ki].name(),
                        rows[ci].name
                    );
                    rows[ci]
                        .failures
                        .push(CellFailure { compiler: compilers[ki].name().to_owned(), reason });
                }
            }
        }
        rows
    }

    /// [`run`](BatchRunner::run) with per-circuit telemetry attribution:
    /// sweeps circuit by circuit (cells within a circuit still follow the
    /// runner's [`BatchMode`]) and captures the process-global metrics
    /// registry delta across each circuit's cells.
    ///
    /// Rows are identical to [`run`](BatchRunner::run) — telemetry only
    /// observes. Attribution relies on the registry deltas, so enable
    /// recording first ([`zac_telemetry::set_enabled`] or `ZAC_TELEMETRY=1`)
    /// and keep other compilation work off the process while sweeping;
    /// with recording disabled every delta is zero.
    pub fn run_with_metrics(
        &self,
        compilers: &[Box<dyn Compiler>],
        suite: &[StagedCircuit],
    ) -> (Vec<ComparisonRow>, Vec<CircuitMetrics>) {
        let mut rows = Vec::with_capacity(suite.len());
        let mut metrics = Vec::with_capacity(suite.len());
        for staged in suite {
            let before = MetricsSnapshot::capture();
            rows.extend(self.run(compilers, std::slice::from_ref(staged)));
            let after = MetricsSnapshot::capture();
            metrics.push(CircuitMetrics {
                circuit: staged.name.clone(),
                metrics: after.delta_since(&before),
            });
        }
        (rows, metrics)
    }
}

/// The telemetry delta attributed to one circuit's sweep cells by
/// [`BatchRunner::run_with_metrics`].
#[derive(Debug, Clone)]
pub struct CircuitMetrics {
    /// Circuit name (paper naming, e.g. `bv_n14`).
    pub circuit: String,
    /// Counter/histogram increases recorded while this circuit's cells ran.
    pub metrics: MetricsSnapshot,
}

/// The paper's 17-circuit evaluation suite, preprocessed — the default
/// input for suite × compiler sweeps.
pub fn default_suite() -> Vec<StagedCircuit> {
    bench_circuits::paper_suite().iter().map(|entry| preprocess(&entry.circuit)).collect()
}

/// Runs the full Fig. 8 comparison over the paper's 17-circuit suite,
/// fanning the suite × compiler matrix out across cores.
pub fn run_architecture_comparison() -> Vec<ComparisonRow> {
    let entries = bench_circuits::paper_suite();
    let suite: Vec<StagedCircuit> =
        entries.iter().map(|entry| preprocess(&entry.circuit)).collect();
    let mut rows = BatchRunner::parallel().run(&default_compilers(), &suite);
    for (row, entry) in rows.iter_mut().zip(&entries) {
        row.paper_gates = (entry.paper_2q, entry.paper_1q);
    }
    rows
}

/// Geometric mean over positive values (0 if any ≤ 0). The empty slice
/// yields 1.0 — the empty product — so corpus sweeps with zero successful
/// rows aggregate cleanly instead of propagating NaN.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    zac_fidelity::geometric_mean(values)
}

/// Geometric mean of one metric across rows for one compiler (skipping
/// circuits the compiler could not handle).
pub fn compiler_geomean(
    rows: &[ComparisonRow],
    compiler: &str,
    f: impl Fn(&RunResult) -> f64,
) -> f64 {
    let vals: Vec<f64> = rows.iter().filter_map(|r| r.result(compiler).map(&f)).collect();
    if vals.is_empty() {
        0.0
    } else {
        geomean(&vals)
    }
}

/// Prints a header line for a bench report.
pub fn print_header(title: &str, paper_claim: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("paper: {paper_claim}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: corpus sweeps can legitimately produce zero successful
    /// rows, and their aggregate must be the empty product, not NaN or a
    /// panic.
    #[test]
    fn geomean_of_empty_slice_is_identity() {
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[0.5, 0.0]), 0.0);
    }

    #[test]
    fn compare_all_covers_six_compilers_on_small_circuit() {
        let staged = preprocess(&bench_circuits::ghz(10));
        let results = compare_all(&staged);
        assert_eq!(results.len(), 6);
        for r in &results {
            assert!(COMPILERS.contains(&r.compiler.as_str()));
            assert!((0.0..=1.0).contains(&r.fidelity()), "{}: {}", r.compiler, r.fidelity());
        }
    }

    #[test]
    fn default_lineup_matches_legend_order() {
        let names: Vec<String> = default_compilers().iter().map(|c| c.name().to_owned()).collect();
        assert_eq!(names, COMPILERS);
    }

    #[test]
    fn zac_beats_monolithic_on_ghz() {
        let staged = preprocess(&bench_circuits::ghz(23));
        let results = compare_all(&staged);
        let get = |label: &str| results.iter().find(|r| r.compiler == label).unwrap().fidelity();
        assert!(get("Zoned-ZAC") > get("Monolithic-Enola"));
        assert!(get("Zoned-ZAC") > get("Monolithic-Atomique"));
    }

    #[test]
    fn counts_are_named_and_consistent() {
        let staged = preprocess(&bench_circuits::ghz(10));
        let results = compare_all(&staged);
        let zac = results.iter().find(|r| r.compiler == "Zoned-ZAC").unwrap();
        assert_eq!(zac.counts.g2, 9);
        assert_eq!(zac.counts.n_exc, 0);
        let enola = results.iter().find(|r| r.compiler == "Monolithic-Enola").unwrap();
        assert_eq!(enola.counts.n_exc, 9 * 8);
    }

    /// The tentpole guarantee: a rayon-parallel sweep is indistinguishable
    /// from the serial reference, bit-for-bit, modulo wall-clock timing.
    #[test]
    fn batch_runner_parallel_matches_serial() {
        let suite: Vec<StagedCircuit> = [
            bench_circuits::ghz(16),
            bench_circuits::bv(14, 13),
            bench_circuits::ising(20),
            bench_circuits::qft(8),
        ]
        .iter()
        .map(preprocess)
        .collect();
        let par = BatchRunner::parallel().run(&default_compilers(), &suite);
        let ser = BatchRunner::serial().run(&default_compilers(), &suite);
        assert_eq!(par.len(), ser.len());
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.name, s.name);
            assert_eq!(p.qubits, s.qubits);
            assert_eq!(p.gates, s.gates);
            assert_eq!(p.results.len(), s.results.len(), "{}", p.name);
            for (pr, sr) in p.results.iter().zip(&s.results) {
                assert_eq!(pr.compiler, sr.compiler);
                // Bit-exact equality of every f64 metric (timing excluded:
                // wall clocks differ between any two runs).
                assert_eq!(pr.report, sr.report, "{} / {}", p.name, pr.compiler);
                assert_eq!(pr.counts, sr.counts, "{} / {}", p.name, pr.compiler);
            }
        }
    }

    #[test]
    fn batch_runner_skips_oversized_cells() {
        // 150 qubits exceed both SC machines and both 10×10 monolithic
        // arrays (Enola: 100 sites; Atomique: 200 slots still fits).
        let suite = vec![preprocess(&bench_circuits::ghz(150))];
        let rows = BatchRunner::parallel().run(&default_compilers(), &suite);
        let names: Vec<&str> = rows[0].results.iter().map(|r| r.compiler.as_str()).collect();
        assert!(!names.contains(&"SC-Heron"));
        assert!(!names.contains(&"SC-Grid"));
        assert!(!names.contains(&"Monolithic-Enola"));
        assert!(names.contains(&"Zoned-NALAC"));
        assert!(names.contains(&"Zoned-ZAC"));
        // Capacity skips are not failures.
        assert!(rows[0].failures.is_empty());
    }

    /// A compiler that always fails with a non-capacity error.
    struct Broken;

    impl Compiler for Broken {
        fn name(&self) -> &str {
            "Broken"
        }

        fn compile(&self, _: &StagedCircuit) -> Result<zac_core::CompileOutput, CompileError> {
            Err(CompileError::Failed("synthetic failure".into()))
        }
    }

    #[test]
    fn run_cell_reports_typed_outcomes() {
        let staged = preprocess(&bench_circuits::ghz(10));
        match run_cell(&Broken, &staged) {
            RunOutcome::Failed(reason) => assert_eq!(reason, "synthetic failure"),
            other => panic!("expected Failed, got {other:?}"),
        }
        let big = preprocess(&bench_circuits::ghz(150));
        match run_cell(&Sc::heron(), &big) {
            RunOutcome::TooLarge { needed, available } => {
                assert_eq!(needed, 150);
                assert!(available < 150);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert!(run_cell(&Sc::heron(), &staged).into_result().is_some());
    }

    #[test]
    fn batch_runner_records_failures_on_rows() {
        let staged = preprocess(&bench_circuits::ghz(8));
        let compilers: Vec<Box<dyn Compiler>> = vec![Box::new(Broken), Box::new(Sc::heron())];
        let rows = BatchRunner::serial().run(&compilers, &[staged]);
        assert_eq!(rows[0].results.len(), 1);
        assert_eq!(
            rows[0].failures,
            vec![CellFailure { compiler: "Broken".into(), reason: "synthetic failure".into() }]
        );
    }

    fn small_suite() -> Vec<StagedCircuit> {
        [
            bench_circuits::ghz(16),
            bench_circuits::bv(14, 13),
            bench_circuits::ising(20),
            bench_circuits::qft(8),
        ]
        .iter()
        .map(preprocess)
        .collect()
    }

    /// The caching guarantee: a warm sweep performs **zero** `compile()`
    /// calls and returns results bit-identical to the cold sweep —
    /// including `compile_secs`, which must carry the original compile
    /// time, never the cache-lookup time.
    #[test]
    fn warm_sweep_compiles_nothing_and_matches_cold_sweep() {
        let suite = small_suite();
        let compilers = default_compilers();
        let cache = zac_cache::CompileCache::in_memory(1024);
        let runner = BatchRunner::parallel().with_cache(cache.clone());

        let cold = runner.run(&compilers, &suite);
        let warm = runner.run(&compilers, &suite);

        // Every cell of the warm sweep was a cache hit…
        let stats = cache.stats();
        let cells = (suite.len() * compilers.len()) as u64;
        assert_eq!(stats.hits, cells, "warm sweep must hit on every cell: {stats:?}");
        assert!(warm.iter().flat_map(|r| &r.results).all(|r| r.from_cache));
        assert!(cold.iter().flat_map(|r| &r.results).all(|r| !r.from_cache));

        // …and bit-identical to the cold sweep, timing included.
        assert_eq!(cold.len(), warm.len());
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.name, w.name);
            assert_eq!(c.results.len(), w.results.len(), "{}", c.name);
            for (cr, wr) in c.results.iter().zip(&w.results) {
                assert_eq!(cr.compiler, wr.compiler);
                assert_eq!(cr.report, wr.report, "{} / {}", c.name, cr.compiler);
                assert_eq!(cr.counts, wr.counts, "{} / {}", c.name, cr.compiler);
                assert_eq!(
                    cr.compile_secs.to_bits(),
                    wr.compile_secs.to_bits(),
                    "{} / {}: cached timing must be the original compile time",
                    c.name,
                    cr.compiler
                );
            }
        }
    }

    /// The zero-compile assertion, counter-based: after a cold sweep primed
    /// the cache, a second sweep must not invoke any compiler at all.
    #[test]
    fn warm_sweep_zero_compile_calls_counter_asserted() {
        let suite = small_suite();
        let counters: Vec<std::sync::Arc<std::sync::atomic::AtomicUsize>> =
            (0..6).map(|_| std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0))).collect();

        struct SharedCounting {
            inner: Box<dyn Compiler>,
            calls: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        }

        impl Compiler for SharedCounting {
            fn name(&self) -> &str {
                self.inner.name()
            }

            fn config_tokens(&self, fp: &mut zac_core::Fingerprint) {
                self.inner.config_tokens(fp);
            }

            fn compile(
                &self,
                staged: &StagedCircuit,
            ) -> Result<zac_core::CompileOutput, CompileError> {
                self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.inner.compile(staged)
            }
        }

        let compilers: Vec<Box<dyn Compiler>> = default_compilers()
            .into_iter()
            .zip(&counters)
            .map(|(inner, calls)| {
                Box::new(SharedCounting { inner, calls: calls.clone() }) as Box<dyn Compiler>
            })
            .collect();

        let cache = zac_cache::CompileCache::in_memory(1024);
        let runner = BatchRunner::parallel().with_cache(cache.clone());
        runner.run(&compilers, &suite);
        let after_cold: usize =
            counters.iter().map(|c| c.load(std::sync::atomic::Ordering::Relaxed)).sum();
        assert_eq!(after_cold, suite.len() * compilers.len(), "cold sweep compiles every cell");

        runner.run(&compilers, &suite);
        let after_warm: usize =
            counters.iter().map(|c| c.load(std::sync::atomic::Ordering::Relaxed)).sum();
        assert_eq!(after_warm, after_cold, "warm sweep performs zero compile() calls");
    }

    /// `run_with_metrics` returns the same rows as `run` (telemetry only
    /// observes) and, with the recorder on, attributes nonzero core, place,
    /// and schedule counters to every circuit of the sweep.
    #[test]
    fn run_with_metrics_attributes_counters_per_circuit() {
        let suite = small_suite();
        let compilers = default_compilers();
        let plain = BatchRunner::serial().run(&compilers, &suite);

        zac_telemetry::set_enabled(true);
        let (rows, metrics) = BatchRunner::serial().run_with_metrics(&compilers, &suite);
        zac_telemetry::set_enabled(false);

        assert_eq!(rows.len(), plain.len());
        for (r, p) in rows.iter().zip(&plain) {
            assert_eq!(r.name, p.name);
            assert_eq!(r.results.len(), p.results.len(), "{}", r.name);
            for (rr, pr) in r.results.iter().zip(&p.results) {
                assert_eq!(rr.report, pr.report, "{} / {}", r.name, rr.compiler);
                assert_eq!(rr.counts, pr.counts, "{} / {}", r.name, rr.compiler);
            }
        }

        assert_eq!(metrics.len(), suite.len());
        for m in &metrics {
            // ≥, not ==: other tests in this binary may compile concurrently
            // while the recorder is on, inflating a delta.
            assert!(
                m.metrics.counter("core.pipeline.compiles") >= 1,
                "{}: ZAC compiles through the instrumented pipeline",
                m.circuit
            );
            for prefix in ["place.", "schedule."] {
                assert!(
                    m.metrics.counter_sum_with_prefix(prefix) > 0,
                    "{}: no {prefix} activity recorded",
                    m.circuit
                );
            }
        }
    }

    /// The cache composes across differently-shaped sweeps: a serial rerun
    /// over a subset of the suite reuses the parallel sweep's entries.
    #[test]
    fn cache_is_shared_across_runners_and_modes() {
        let suite = small_suite();
        let cache = zac_cache::CompileCache::in_memory(1024);
        let compilers = default_compilers();
        BatchRunner::parallel().with_cache(cache.clone()).run(&compilers, &suite);
        let rows = BatchRunner::serial().with_cache(cache.clone()).run(&compilers, &suite[..2]);
        assert!(rows.iter().flat_map(|r| &r.results).all(|r| r.from_cache));
        assert_eq!(cache.stats().misses, (suite.len() * compilers.len()) as u64);
    }
}
