//! The three workloads, each untraced (end-to-end metrics) or traced
//! (per-layer metrics).

use crate::check::{self, check_output, Reference};
use crate::gen::{self, Pick, RequestGen, Rng, Source};
use crate::layers::{self, micros, Decompositions, Layers, ServeTracer, LAYER_SUM_TOLERANCE};
use crate::stats::{median, Latencies};
use crate::Args;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;
use zac_cache::{CacheKey, CacheStats, CompileCache};
use zac_circuit::preprocess;
use zac_core::{CompileOutput, Compiler, Zac};
use zac_schedule::ScheduleWorkspace;
use zac_serve::{CircuitEntry, Request, Response, Service, ServiceConfig};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Ops per untraced run at least, and per latency window: a window's p99
/// has ten samples beyond it.
pub const MIN_OPS: usize = 1100;
/// Client threads of the serve workloads, capped at the CPU count.
const CLIENTS: usize = 2;
/// Requests per client between the untimed steps that generate inputs and
/// compile references for fresh circuits.
const ROUND: usize = 48;
/// Distinct circuits filling the `serve-churn` store, and its memory tier:
/// one slot per cache shard, far below the working set, so most repeats
/// read the disk tier.
const STORE_CIRCUITS: usize = 128;
const MEMORY_TIER: usize = 16;
/// Memory tier of `serve-hot` and the probes: holds every circuit.
const WARM_TIER: usize = 256;
/// Requests over which a traced serve run takes its deterministic counts.
const TRACE_WINDOW: usize = 300;
/// Layered compiles per circuit in a compile probe.
const PROBE_REPEATS: usize = 2;

/// What one run measured.
#[derive(Default)]
pub struct Run {
    pub ops: Latencies,
    /// Seconds in which ops were in flight.
    pub busy_s: f64,
    /// Ops completed per second in each window of the run: a compile-cold
    /// pass or a serve round.
    pub rates: Vec<f64>,
    pub setup_s: f64,
    /// Fidelity and program duration of each distinct pool circuit produced
    /// in the run's first `MIN_OPS` ops, a window fixed by the seed.
    pub produced: BTreeMap<String, (f64, f64)>,
    /// Failures: ops that failed their check, and gates not tied to one op.
    pub failures: Vec<String>,
    pub layers: Layers,
}

impl Run {
    fn op(&mut self, micros: f64, verdict: Result<(), String>) {
        self.ops.record(micros, verdict.is_ok());
        self.gate(verdict);
    }

    fn gate(&mut self, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            self.failures.push(e);
        }
    }

    fn produce(&mut self, name: &str, out: &CompileOutput) {
        if self.ops.attempted() < MIN_OPS as u64 {
            self.produced.insert(name.to_string(), (out.report.total(), out.summary.duration_us));
        }
    }
}

/// Set-up timings. The first set-up runs before measuring and the others at
/// even shares of the measured time, so set-up time samples the same
/// machine conditions the ops do.
struct Setups {
    budget: f64,
    times: Vec<f64>,
}

impl Setups {
    fn new(budget: f64) -> Self {
        Self { budget, times: Vec::new() }
    }

    fn time<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let start = Instant::now();
        let out = f()?;
        self.times.push(start.elapsed().as_secs_f64());
        Ok(out)
    }

    /// Whether another set-up is due once `spent` of the budget is used.
    fn due(&self, spent: f64) -> bool {
        self.times.len() < SETUPS && spent >= self.budget * self.times.len() as f64 / SETUPS as f64
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new() -> Result<Self, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = Path::new(".zacperf-work").join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn references(zac: &Zac, sources: &[Source]) -> Result<Vec<Reference>, String> {
    sources.iter().map(|s| check::reference(zac, s)).collect()
}

/// The end-to-end compile op: parse → stage → `Compiler::compile`.
fn compile_op(zac: &Zac, source: &Source) -> Result<CompileOutput, String> {
    let circuit = check::parse(source)?;
    Compiler::compile(zac, &preprocess(&circuit)).map_err(|e| format!("{}: {e}", source.name))
}

/// Layered compiles of every circuit in `sources`, for the compile layers
/// of workloads whose ops compile nothing themselves.
fn compile_probe(zac: &Zac, sources: &[Source], layers: &mut Layers) -> Result<(), String> {
    let mut ws = ScheduleWorkspace::new();
    let mut dec = Decompositions::default();
    for repeat in 0..PROBE_REPEATS {
        for s in sources {
            layers::decompose(zac, &mut ws, s, repeat % 2 == 1, layers, &mut dec)?;
        }
    }
    dec.report(layers);
    Ok(())
}

fn sum_gate(layers: &Layers) -> Result<(), String> {
    let ratio = layers.get("trace.layer_sum_ratio").unwrap_or(0.0);
    if (ratio - 1.0).abs() > LAYER_SUM_TOLERANCE {
        return Err(format!(
            "compile layers sum to {ratio:.3}× the untraced compile time (tolerance ±{LAYER_SUM_TOLERANCE})"
        ));
    }
    Ok(())
}

/// Client threads: `CLIENTS`, capped at the CPU count.
fn client_threads() -> usize {
    CLIENTS.min(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Runs `f(i)` on `n` scoped threads released together, in index order.
fn on_threads<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let barrier = Barrier::new(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let (f, barrier) = (&f, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    f(i)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread")).collect()
    })
}

/// The `compile-cold` set-up: render the inputs, and on each thread build a
/// compiler and compile each circuit once.
#[allow(clippy::type_complexity)]
fn cold_setup(threads: usize) -> Result<(Vec<Source>, Vec<Zac>, Vec<Vec<CompileOutput>>), String> {
    let sources = gen::suite();
    let built = on_threads(threads, |_| {
        let zac = check::compiler();
        let warm = sources.iter().map(|s| compile_op(&zac, s)).collect::<Result<Vec<_>, _>>()?;
        Ok::<_, String>((zac, warm))
    });
    let (zacs, warm) = built.into_iter().collect::<Result<Vec<_>, _>>()?.into_iter().unzip();
    Ok((sources, zacs, warm))
}

/// `compile-cold`: no cache; each op compiles one of the 27 circuits. Each
/// client thread has its own compiler and compiles every circuit once per
/// pass, in its own seeded order; a round is one pass per thread, started
/// together. A run ends on a round boundary, so every run weighs the
/// circuits alike. The traced run decomposes one op at a time.
pub fn compile_cold(args: &Args) -> Result<Run, String> {
    let threads = client_threads();
    let mut setups = Setups::new(args.seconds);
    let (sources, zacs, warm) = setups.time(|| cold_setup(threads))?;
    let zac = &zacs[0];
    let refs = references(zac, &sources)?;
    let arch = zac.arch();
    let mut run = Run::default();
    for (out, r) in warm.iter().flat_map(|w| w.iter().zip(&refs)) {
        run.gate(check_output(arch, out, r));
    }

    let mut rngs: Vec<Rng> = (0..threads as u64).map(|t| Rng::new(args.seed, 0xC01D + t)).collect();
    let start = Instant::now();
    let mut ws = ScheduleWorkspace::new();
    let mut dec = Decompositions::default();
    loop {
        if args.trace {
            for idx in rngs[0].permutation(sources.len()) {
                let traced_first = run.ops.attempted() % 2 == 1;
                let verdict = layers::decompose(
                    zac,
                    &mut ws,
                    &sources[idx],
                    traced_first,
                    &mut run.layers,
                    &mut dec,
                );
                run.op(0.0, verdict);
            }
        } else {
            let orders: Vec<Vec<usize>> =
                rngs.iter_mut().map(|r| r.permutation(sources.len())).collect();
            let t = Instant::now();
            let results = on_threads(threads, |i| {
                orders[i]
                    .iter()
                    .map(|&idx| {
                        let t = Instant::now();
                        let out = compile_op(&zacs[i], &sources[idx]);
                        let us = micros(t);
                        (idx, us, out.and_then(|out| check_output(arch, &out, &refs[idx])))
                    })
                    .collect::<Vec<_>>()
            });
            let wall = t.elapsed().as_secs_f64();
            run.busy_s += wall;
            run.rates.push((threads * sources.len()) as f64 / wall);
            for (idx, us, verdict) in results.into_iter().flatten() {
                run.op(us, verdict);
                run.produce(&sources[idx].name, &refs[idx].output);
            }
        }
        let spent = if args.trace { start.elapsed().as_secs_f64() } else { run.busy_s };
        if spent >= args.seconds && (args.trace || run.ops.attempted() as usize >= MIN_OPS) {
            break;
        }
        if setups.due(spent) {
            setups.time(|| cold_setup(threads))?;
        }
    }
    while setups.times.len() < SETUPS {
        setups.time(|| cold_setup(threads))?;
    }
    run.setup_s = median(&setups.times);

    if args.trace {
        dec.report(&mut run.layers);
        run.gate(sum_gate(&run.layers));
        let work = WorkDir::new()?;
        let mut probe = Layers::default();
        run.gate(layers::store_probe(zac, &refs, &work.join("probe"), &mut probe));
        run.gate(serve_probe(zac, &sources, &refs, &mut probe));
        run.layers.fill_from(probe);
    }
    Ok(run)
}

fn request_line(id: String, entries: Vec<CircuitEntry>) -> String {
    serde_json::to_string(&Request::new(id, "Zoned-ZAC", entries)).expect("a request serializes")
}

fn entry(source: &Source) -> CircuitEntry {
    CircuitEntry { name: source.name.clone(), qasm: source.qasm.clone() }
}

fn service(cache: CompileCache) -> Service {
    Service::new(ServiceConfig { zac_config: check::zac_config(), cache, ..Default::default() })
}

/// One generated request, with the benchmark's references for its fresh
/// circuits compiled before the request is timed.
struct Pending {
    line: String,
    picks: Vec<Pick>,
    fresh: Vec<Option<Reference>>,
}

impl Pending {
    fn new(id: String, picks: Vec<Pick>, pool: &[Source], zac: &Zac) -> Result<Self, String> {
        let mut entries = Vec::with_capacity(picks.len());
        let mut fresh = Vec::with_capacity(picks.len());
        for pick in &picks {
            match pick {
                Pick::Pool(i) => {
                    entries.push(entry(&pool[*i]));
                    fresh.push(None);
                }
                Pick::Fresh(source) => {
                    entries.push(entry(source));
                    fresh.push(Some(check::reference(zac, source)?));
                }
            }
        }
        Ok(Self { line: request_line(id, entries), picks, fresh })
    }

    /// Checks the request's responses: one ok result per entry, each equal
    /// to the benchmark's own compile of its circuit, then a terminal
    /// `Done` with every entry ok.
    fn verify(
        &self,
        arch: &zac_arch::Architecture,
        refs: &[Reference],
        responses: &[Response],
    ) -> Result<(), String> {
        let mut seen = vec![false; self.picks.len()];
        for response in responses {
            match response {
                Response::Result { entry, outcome, name, .. } => {
                    let out = outcome.output().ok_or_else(|| format!("{name}: {outcome:?}"))?;
                    let reference = match self.picks.get(*entry) {
                        Some(Pick::Pool(i)) => &refs[*i],
                        Some(Pick::Fresh(_)) => {
                            self.fresh[*entry].as_ref().expect("compiled ahead")
                        }
                        None => return Err(format!("{name}: no entry {entry}")),
                    };
                    check_output(arch, out, reference)?;
                    if std::mem::replace(&mut seen[*entry], true) {
                        return Err(format!("{name}: two results"));
                    }
                }
                Response::Done(done) if done.ok == self.picks.len() => {}
                other => return Err(format!("terminal response {other:?}")),
            }
        }
        if !matches!(responses.last(), Some(Response::Done(_))) || seen.contains(&false) {
            return Err("a request ended without a result for every entry".into());
        }
        Ok(())
    }
}

/// The served output of each entry, in entry order.
fn outputs(responses: &[Response]) -> BTreeMap<usize, &CompileOutput> {
    responses
        .iter()
        .filter_map(|r| match r {
            Response::Result { entry, outcome, .. } => Some((*entry, outcome.output()?)),
            _ => None,
        })
        .collect()
}

/// Serve probe for `compile-cold`: each circuit as a one-entry request to a
/// cold in-process service.
fn serve_probe(
    zac: &Zac,
    sources: &[Source],
    refs: &[Reference],
    layers: &mut Layers,
) -> Result<(), String> {
    let service = service(CompileCache::in_memory(WARM_TIER));
    let tracer = ServeTracer::new();
    for i in 0..sources.len() {
        let p = Pending::new(format!("probe-{i}"), vec![Pick::Pool(i)], sources, zac)?;
        let (_, responses, _) = tracer.request(&service, &p.line, layers)?;
        p.verify(zac.arch(), refs, &responses)?;
    }
    Ok(())
}

/// A serve workload's service, just set up, with the pre-warm request's
/// responses (`serve-hot`) to check once the set-up is timed.
struct Ready {
    service: Service,
    open_ms: f64,
    warm: Vec<Response>,
}

impl Ready {
    fn verify_warm(&self, zac: &Zac, pool: &[Source], refs: &[Reference]) -> Result<(), String> {
        if self.warm.is_empty() {
            return Ok(());
        }
        warm_request(zac, pool)?.verify(zac.arch(), refs, &self.warm)
    }
}

fn warm_request(zac: &Zac, pool: &[Source]) -> Result<Pending, String> {
    Pending::new("warm".into(), (0..pool.len()).map(Pick::Pool).collect(), pool, zac)
}

/// `serve-hot` pre-warms the memory tier through the service with one
/// request carrying every pool circuit; `serve-churn` fills a segment store
/// in `dir` and opens it cold under a small memory tier.
fn serve_setup(
    churn: bool,
    zac: &Zac,
    pool: &[Source],
    refs: &[Reference],
    dir: &Path,
) -> Result<Ready, String> {
    if churn {
        let fill = fill_store(zac, refs, dir)?;
        drop(fill);
        let t = Instant::now();
        let cache =
            CompileCache::with_segment_store(MEMORY_TIER, dir).map_err(|e| e.to_string())?;
        let open_ms = micros(t) / 1e3;
        return Ok(Ready { service: service(cache), open_ms, warm: Vec::new() });
    }
    let service = service(CompileCache::in_memory(WARM_TIER));
    let (_, _, warm) = layers::submit(&service, &warm_request(zac, pool)?.line);
    Ok(Ready { service, open_ms: 0.0, warm })
}

fn fill_store(zac: &Zac, refs: &[Reference], dir: &Path) -> Result<CompileCache, String> {
    let cache = CompileCache::with_segment_store(2 * refs.len(), dir)
        .map_err(|e| format!("segment store: {e}"))?;
    for r in refs {
        cache.put(CacheKey::compute(zac, &r.staged), &r.output);
    }
    Ok(cache)
}

/// `serve-hot` (`churn == false`) and `serve-churn`: clients against an
/// in-process service through `submit_line`.
pub fn serve(args: &Args, churn: bool) -> Result<Run, String> {
    let zac = check::compiler();
    let pool = if churn { gen::store_circuits(STORE_CIRCUITS) } else { gen::suite() };
    let refs = references(&zac, &pool)?;
    let work = WorkDir::new()?;
    let mut setups = Setups::new(args.seconds);
    let ready = setups.time(|| serve_setup(churn, &zac, &pool, &refs, &work.join("store")))?;
    let mut open_ms = vec![ready.open_ms];
    let mut run = Run::default();
    run.gate(ready.verify_warm(&zac, &pool, &refs));
    let service = &ready.service;
    let before = service.cache().stats();
    let appends_before = appends(service.cache());

    let mut clients = Clients::new(args.seed, pool.len(), churn);
    let mut traced =
        if args.trace { Some(Traced::new(args.seed, churn, &zac, &refs, &work)?) } else { None };
    let start = Instant::now();
    loop {
        let spent = match &mut traced {
            Some(t) => {
                t.step(&zac, &pool, &refs, service, &mut run)?;
                if t.n < TRACE_WINDOW {
                    continue;
                }
                start.elapsed().as_secs_f64()
            }
            None => {
                clients.round(&zac, &pool, &refs, service, &mut run)?;
                run.busy_s
            }
        };
        if spent >= args.seconds && (args.trace || run.ops.attempted() as usize >= MIN_OPS) {
            break;
        }
        if setups.due(spent) {
            let dir = work.join(&format!("store-{}", setups.times.len()));
            let spare = setups.time(|| serve_setup(churn, &zac, &pool, &refs, &dir))?;
            open_ms.push(spare.open_ms);
            run.gate(spare.verify_warm(&zac, &pool, &refs));
            drop(spare);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    run.setup_s = median(&setups.times);

    // Tier gates over the service's own counters.
    let after = service.cache().stats();
    let (hits, disk, misses) = (
        after.hits - before.hits,
        after.disk_hits - before.disk_hits,
        after.misses - before.misses,
    );
    let appended = appends(service.cache()) - appends_before;
    if !churn && (disk != 0 || misses != 0 || hits == 0) {
        run.failures
            .push(format!("serve-hot left the memory tier: {disk} disk hits, {misses} misses"));
    }
    if churn && (disk == 0 || misses == 0 || appended == 0) {
        run.failures.push(format!(
            "serve-churn must read the disk tier, miss and append: {disk} disk hits, {misses} misses, {appended} appends"
        ));
    }

    if args.trace {
        if churn {
            run.layers.set("cache.open_ms", median(&open_ms));
        }
        let mut probe = Layers::default();
        run.gate(compile_probe(&zac, &pool, &mut probe));
        if !churn {
            run.gate(layers::store_probe(&zac, &refs, &work.join("probe"), &mut probe));
        }
        run.layers.fill_from(probe);
        run.gate(sum_gate(&run.layers));
    }
    Ok(run)
}

fn appends(cache: &CompileCache) -> u64 {
    cache.segment_stats().map_or(0, |s| s.appends)
}

/// The untraced closed loop: per round, each client's requests are
/// generated (and fresh circuits' references compiled) untimed, then the
/// clients start together and each submits its requests back to back,
/// checking every response as it arrives.
struct Clients {
    gens: Vec<RequestGen>,
    round: usize,
}

impl Clients {
    fn new(seed: u64, pool: usize, churn: bool) -> Self {
        let gens = (0..client_threads()).map(|c| RequestGen::new(seed, c, pool, churn)).collect();
        Self { gens, round: 0 }
    }

    fn round(
        &mut self,
        zac: &Zac,
        pool: &[Source],
        refs: &[Reference],
        service: &Service,
        run: &mut Run,
    ) -> Result<(), String> {
        let round = self.round;
        self.round += 1;
        let pending: Vec<Vec<Pending>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .gens
                .iter_mut()
                .enumerate()
                .map(|(c, gen)| {
                    scope.spawn(move || {
                        (0..ROUND)
                            .map(|i| {
                                Pending::new(
                                    format!("c{c}-{round}-{i}"),
                                    gen.next_request(),
                                    pool,
                                    zac,
                                )
                            })
                            .collect::<Result<Vec<_>, _>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("generator thread")).collect::<Vec<_>>()
        })
        .into_iter()
        .collect::<Result<_, _>>()?;

        let t = Instant::now();
        let results = on_threads(pending.len(), |c| {
            pending[c]
                .iter()
                .map(|p| {
                    let (us, _, responses) = layers::submit(service, &p.line);
                    (us, p.verify(zac.arch(), refs, &responses))
                })
                .collect::<Vec<_>>()
        });
        let wall = t.elapsed().as_secs_f64();
        run.busy_s += wall;
        run.rates.push(results.iter().map(Vec::len).sum::<usize>() as f64 / wall);

        for (requests, results) in pending.iter().zip(results) {
            for (p, (us, verdict)) in requests.iter().zip(results) {
                if verdict.is_ok() {
                    for pick in &p.picks {
                        if let &Pick::Pool(i) = pick {
                            run.produce(&pool[i].name, &refs[i].output);
                        }
                    }
                }
                run.op(us, verdict);
            }
        }
        Ok(())
    }
}

/// The traced loop: one client, each request shadow-timed layer by layer
/// and its entries replayed in order through a mirror cache of the same
/// configuration. The mirror's counters over the first `TRACE_WINDOW`
/// requests give the deterministic cache ratios.
struct Traced {
    tracer: ServeTracer,
    gen: RequestGen,
    churn: bool,
    mirror: CompileCache,
    base: CacheStats,
    base_appends: u64,
    payload: (usize, usize),
    n: usize,
}

impl Traced {
    fn new(
        seed: u64,
        churn: bool,
        zac: &Zac,
        refs: &[Reference],
        work: &WorkDir,
    ) -> Result<Self, String> {
        let mirror = if churn {
            let dir = work.join("mirror");
            drop(fill_store(zac, refs, &dir)?);
            CompileCache::with_segment_store(MEMORY_TIER, &dir).map_err(|e| e.to_string())?
        } else {
            let cache = CompileCache::in_memory(WARM_TIER);
            for r in refs {
                cache.put(CacheKey::compute(zac, &r.staged), &r.output);
            }
            cache
        };
        Ok(Self {
            tracer: ServeTracer::new(),
            gen: RequestGen::new(seed, 0, refs.len(), churn),
            churn,
            base: mirror.stats(),
            base_appends: appends(&mirror),
            mirror,
            payload: (0, 0),
            n: 0,
        })
    }

    fn step(
        &mut self,
        zac: &Zac,
        pool: &[Source],
        refs: &[Reference],
        service: &Service,
        run: &mut Run,
    ) -> Result<(), String> {
        self.n += 1;
        let p = Pending::new(format!("t-{}", self.n), self.gen.next_request(), pool, zac)?;
        let (us, responses, keys) = self.tracer.request(service, &p.line, &mut run.layers)?;
        let verdict = p.verify(zac.arch(), refs, &responses);
        if verdict.is_ok() {
            for (key, out) in keys.iter().zip(outputs(&responses).into_values()) {
                if run.layers.time("cache.get_us", || self.mirror.get(*key)).is_none() {
                    run.layers.time("cache.put_us", || self.mirror.put(*key, out));
                }
                if self.churn {
                    let bytes = layers::codec(out, &mut run.layers)?;
                    if self.n <= TRACE_WINDOW {
                        self.payload.0 += bytes;
                        self.payload.1 += 1;
                    }
                }
            }
        }
        run.op(us, verdict);
        if self.n == TRACE_WINDOW {
            let mut window = Layers::default();
            layers::cache_ratios(&self.mirror, self.base, self.base_appends, &mut window);
            if self.churn {
                window.set(
                    "core.payload_bytes",
                    self.payload.0 as f64 / self.payload.1.max(1) as f64,
                );
            }
            run.layers.fill_from(window);
        }
        Ok(())
    }
}
