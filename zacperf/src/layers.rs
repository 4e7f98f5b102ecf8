//! Per-layer measurement, taken from outside the program by timing calls to
//! each crate's public functions. No span or counter is added inside the
//! program; the one in-program source read here is the existing
//! `place.sa.moves_*` counter pair.

use crate::check::{self, same_output, schedulable, Reference};
use crate::gen::Source;
use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use zac_cache::{CacheKey, CacheStats, CompileCache};
use zac_circuit::preprocess;
use zac_circuit::qasm::parse_qasm;
use zac_core::{decode_output, encode_output, Zac, ZacOutput};
use zac_fidelity::{evaluate_neutral_atom, ExecutionSummary};
use zac_place::{plan_placement_cached, InitialPlacementCache};
use zac_schedule::{schedule_with_workspace, ScheduleConfig, ScheduleWorkspace};
use zac_serve::bind::Binder;
use zac_serve::plan::Planner;
use zac_serve::{AdmissionLimits, Request, Response, Service};
use zac_telemetry::metrics::{PLACE_SA_ACCEPTED, PLACE_SA_REJECTED};

/// The compile layers' self times must sum to the untraced compile time
/// within this share.
pub const LAYER_SUM_TOLERANCE: f64 = 0.15;

/// Microseconds since `start`.
pub fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Accumulated layer metrics: times as mean µs per call, and values (counts
/// and ratios) set once.
#[derive(Debug, Default)]
pub struct Layers {
    times: BTreeMap<&'static str, (f64, u64)>,
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Runs `f`, recording its duration under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_time(name, micros(start));
        out
    }

    pub fn add_time(&mut self, name: &'static str, us: f64) {
        let slot = self.times.entry(name).or_default();
        slot.0 += us;
        slot.1 += 1;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn has(&self, name: &str) -> bool {
        self.times.contains_key(name) || self.values.contains_key(name)
    }

    /// Adds `other`'s metrics that this set lacks: a probe fills in the
    /// layers a workload's own ops never reach.
    pub fn fill_from(&mut self, other: Layers) {
        for (name, slot) in other.times {
            if !self.has(name) {
                self.times.insert(name, slot);
            }
        }
        for (name, value) in other.values {
            if !self.has(name) {
                self.values.insert(name, value);
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .get(name)
            .copied()
            .or_else(|| self.times.get(name).map(|&(total, n)| total / n as f64))
    }
}

/// Deterministic facts about one compiled circuit.
#[derive(Debug, Clone, Default)]
pub struct CircuitCounts {
    gates_2q: usize,
    stages: usize,
    reused: usize,
    movement: f64,
    sa_accepted: u64,
    sa_rejected: u64,
    jobs: usize,
    instructions: usize,
}

/// Per-circuit compile decompositions: deterministic counts from the first
/// one, and every pair's untraced, layer-sum and traced times.
#[derive(Debug, Default)]
pub struct Decompositions {
    counts: BTreeMap<String, CircuitCounts>,
    untraced: BTreeMap<String, Vec<f64>>,
    layer_sum: BTreeMap<String, Vec<f64>>,
    traced: BTreeMap<String, Vec<f64>>,
}

impl Decompositions {
    /// Ratio of the layer sum to the untraced compile time, and the tracing
    /// overhead in percent, each summed over per-circuit medians.
    pub fn sum_check(&self) -> (f64, f64) {
        let total = |m: &BTreeMap<String, Vec<f64>>| m.values().map(|v| median(v)).sum::<f64>();
        let untraced = total(&self.untraced);
        (total(&self.layer_sum) / untraced, 100.0 * (total(&self.traced) / untraced - 1.0))
    }

    /// Records the deterministic counts and the sum check into `layers`.
    pub fn report(&self, layers: &mut Layers) {
        let c = &self.counts;
        let sum = |f: fn(&CircuitCounts) -> f64| c.values().map(f).sum::<f64>();
        let operands = 2.0 * sum(|c| c.gates_2q as f64);
        let (acc, rej) = (sum(|c| c.sa_accepted as f64), sum(|c| c.sa_rejected as f64));
        layers.set("circuit.gates_2q", sum(|c| c.gates_2q as f64));
        layers.set("circuit.stages", sum(|c| c.stages as f64));
        layers.set("place.reuse_ratio", sum(|c| c.reused as f64) / operands);
        layers.set("place.movement_cost", sum(|c| c.movement));
        layers.set("place.sa_accept_ratio", acc / (acc + rej));
        layers.set("schedule.jobs", sum(|c| c.jobs as f64));
        layers.set("schedule.instructions", sum(|c| c.instructions as f64));
        let (ratio, overhead) = self.sum_check();
        layers.set("trace.layer_sum_ratio", ratio);
        layers.set("trace.overhead_pct", overhead);
    }
}

/// One layer-by-layer compile.
struct Layered {
    staged: zac_circuit::StagedCircuit,
    plan: zac_place::PlacementPlan,
    program: zac_zair::Program,
    summary: ExecutionSummary,
    report: zac_fidelity::FidelityReport,
    /// Sum of the layers' times, and the whole traced compile, in µs.
    sum: f64,
    traced: f64,
    sa_accepted: u64,
    sa_rejected: u64,
}

/// The untraced op: parse → stage → `Zac::compile_staged`, and its µs.
fn untraced(zac: &Zac, source: &Source) -> Result<(ZacOutput, f64), String> {
    let start = Instant::now();
    let circuit = parse_qasm(black_box(&source.qasm), &source.name).map_err(|e| e.to_string())?;
    let out =
        zac.compile_staged(&preprocess(&circuit)).map_err(|e| format!("{}: {e}", source.name))?;
    Ok((out, micros(start)))
}

/// The same op, calling each layer's public function in turn.
fn layered(
    zac: &Zac,
    ws: &mut ScheduleWorkspace,
    source: &Source,
    layers: &mut Layers,
) -> Result<Layered, String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", source.name);
    let (arch, config) = (zac.arch(), zac.config());
    let start = Instant::now();
    let mut sum = 0.0;
    let mut timed = |name: &'static str, layers: &mut Layers, us: f64| {
        layers.add_time(name, us);
        sum += us;
    };
    let t = Instant::now();
    let circuit =
        parse_qasm(black_box(&source.qasm), &source.name).map_err(|e| fail("parse", &e))?;
    timed("circuit.parse_us", layers, micros(t));
    let t = Instant::now();
    let staged = preprocess(&circuit);
    timed("circuit.stage_us", layers, micros(t));
    let split = schedulable(arch, &staged);
    // A fresh cache per op, so every op pays the anneal. The recorder is on
    // only around this call, for the SA move counters.
    let sa_cache = InitialPlacementCache::new();
    zac_telemetry::set_enabled(true);
    let (acc0, rej0) = (PLACE_SA_ACCEPTED.get(), PLACE_SA_REJECTED.get());
    let t = Instant::now();
    let sa = sa_cache.get_or_compute(arch, &split, &config.placement);
    let sa_us = micros(t);
    let (sa_accepted, sa_rejected) =
        (PLACE_SA_ACCEPTED.get() - acc0, PLACE_SA_REJECTED.get() - rej0);
    zac_telemetry::set_enabled(false);
    zac_telemetry::take_spans();
    sa.map_err(|e| fail("SA", &e))?;
    timed("place.sa_us", layers, sa_us);
    let t = Instant::now();
    let plan = plan_placement_cached(arch, &split, &config.placement, Some(&sa_cache))
        .map_err(|e| fail("place", &e))?;
    timed("place.dynamic_us", layers, micros(t));
    let schedule_config = ScheduleConfig {
        t_tran_us: config.params.t_tran_us,
        t_ryd_us: config.params.t_2q_us,
        t_1q_us: config.params.t_1q_us,
    };
    let t = Instant::now();
    let program = schedule_with_workspace(arch, &split, &plan, &schedule_config, ws)
        .map_err(|e| fail("schedule", &e))?;
    timed("schedule.run_us", layers, micros(t));
    let t = Instant::now();
    let analysis = program.analyze(arch).map_err(|e| fail("analyze", &e))?;
    timed("zair.analyze_us", layers, micros(t));
    let t = Instant::now();
    let summary = ExecutionSummary::from_analysis(&split.name, &analysis);
    let report = evaluate_neutral_atom(&summary, &config.params);
    timed("fidelity.evaluate_us", layers, micros(t));
    let traced = micros(start);
    drop(split);
    Ok(Layered { staged, plan, program, summary, report, sum, traced, sa_accepted, sa_rejected })
}

/// Compiles `source` untraced and layer by layer, in the order
/// `traced_first` gives (callers alternate it, so neither side always runs
/// on warmer caches), and records each layer's time. The layered result
/// must equal `Zac::compile_staged`'s: same program, plan, summary and
/// report, and the program must pass the verifier.
pub fn decompose(
    zac: &Zac,
    ws: &mut ScheduleWorkspace,
    source: &Source,
    traced_first: bool,
    layers: &mut Layers,
    out: &mut Decompositions,
) -> Result<(), String> {
    let (l, (whole, untraced_us)) = if traced_first {
        let l = layered(zac, ws, source, layers)?;
        (l, untraced(zac, source)?)
    } else {
        let u = untraced(zac, source)?;
        (layered(zac, ws, source, layers)?, u)
    };
    let arch = zac.arch();
    let split = schedulable(arch, &l.staged);
    layers
        .time("zair.verify_us", || l.program.verify_against(arch, &split))
        .map_err(|e| format!("{}: verify: {e}", source.name))?;
    if l.program != whole.program
        || l.plan != whole.plan
        || l.summary != whole.summary
        || l.report != whole.report
    {
        return Err(format!("{}: layered compile differs from Zac::compile_staged", source.name));
    }

    let name = &source.name;
    out.untraced.entry(name.clone()).or_default().push(untraced_us);
    out.layer_sum.entry(name.clone()).or_default().push(l.sum);
    out.traced.entry(name.clone()).or_default().push(l.traced);
    out.counts.entry(name.clone()).or_insert_with(|| {
        let stats = l.program.stats();
        CircuitCounts {
            gates_2q: l.staged.num_2q_gates(),
            stages: l.staged.num_stages(),
            reused: l.plan.total_reused_qubits(),
            movement: l.plan.movement_cost(arch),
            sa_accepted: l.sa_accepted,
            sa_rejected: l.sa_rejected,
            jobs: stats.jobs,
            instructions: stats.zair_instructions,
        }
    });
    Ok(())
}

/// Records a cache's lookup ratios, evictions and segment appends since
/// `base` and `base_appends`.
pub fn cache_ratios(
    cache: &CompileCache,
    base: CacheStats,
    base_appends: u64,
    layers: &mut Layers,
) {
    let s = cache.stats();
    let lookups = (s.lookups() - base.lookups()).max(1) as f64;
    layers.set("cache.hit_ratio", (s.hits - base.hits) as f64 / lookups);
    layers.set("cache.disk_hit_ratio", (s.disk_hits - base.disk_hits) as f64 / lookups);
    layers.set("cache.miss_ratio", (s.misses - base.misses) as f64 / lookups);
    layers.set("cache.evictions", (s.evictions - base.evictions) as f64);
    let appends = cache.segment_stats().map_or(0, |g| g.appends) - base_appends;
    layers.set("cache.segment_appends", appends as f64);
}

/// Times the binary codec on `output` and checks it round-trips.
pub fn codec(output: &zac_core::CompileOutput, layers: &mut Layers) -> Result<usize, String> {
    let bytes =
        layers.time("core.encode_bin_us", || encode_output(output)).map_err(|e| e.to_string())?;
    let back =
        layers.time("core.decode_bin_us", || decode_output(&bytes)).map_err(|e| e.to_string())?;
    if !same_output(&back, output) {
        return Err(format!("{}: binary codec does not round-trip", output.summary.name));
    }
    Ok(bytes.len())
}

/// Store probe: fingerprints, encodes and appends every reference to a new
/// segment store in `dir`, reopens it cold, and reads each back.
pub fn store_probe(
    zac: &Zac,
    refs: &[Reference],
    dir: &Path,
    layers: &mut Layers,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("segment store: {e}");
    let capacity = 2 * refs.len();
    let cache = CompileCache::with_segment_store(capacity, dir).map_err(io)?;
    let mut keys = Vec::with_capacity(refs.len());
    let mut payload = 0;
    for r in refs {
        let key = layers.time("cache.fingerprint_us", || CacheKey::compute(zac, &r.staged));
        payload += codec(&r.output, layers)?;
        layers.time("cache.put_us", || cache.put(key, &r.output));
        keys.push(key);
    }
    let appends = cache.segment_stats().map_or(0, |s| s.appends);
    drop(cache);
    let t = Instant::now();
    let cache = CompileCache::with_segment_store(capacity, dir).map_err(io)?;
    layers.set("cache.open_ms", micros(t) / 1e3);
    for (key, r) in keys.into_iter().zip(refs) {
        match layers.time("cache.get_us", || cache.get(key)) {
            Some(out) => check::check_output(zac.arch(), &out, r)?,
            None => return Err(format!("{}: lost from the segment store", r.staged.name)),
        }
    }
    // The reads come from the reopened store; the appends from the first.
    cache_ratios(&cache, CacheStats::default(), 0, layers);
    layers.set("cache.segment_appends", appends as f64);
    layers.set("core.payload_bytes", payload as f64 / refs.len() as f64);
    Ok(())
}

/// One request as a client sees it: submit the line, drain the stream to
/// its terminal response, and serialize every response as the binary's
/// writer does. Returns the latency and serialization time in µs.
pub fn submit(service: &Service, line: &str) -> (f64, f64, Vec<Response>) {
    let start = Instant::now();
    let mut encode = 0.0;
    let mut responses = Vec::new();
    for response in service.submit_line(line) {
        let t = Instant::now();
        let wire = serde_json::to_string(&response).unwrap_or_default();
        black_box(wire.len());
        encode += micros(t);
        let terminal = response.is_terminal();
        responses.push(response);
        if terminal {
            break;
        }
    }
    (micros(start), encode, responses)
}

/// Shadow-times the serve layers by calling the same public functions the
/// service calls, on the same line, outside the request.
pub struct ServeTracer {
    binder: Binder,
    planner: Planner,
}

impl ServeTracer {
    pub fn new() -> Self {
        Self {
            binder: Binder::new(check::zac_config()),
            planner: Planner::new(AdmissionLimits::default()),
        }
    }

    /// Shadow-times decode, bind (with its parse and stage), fingerprint and
    /// plan, then runs the request. The residual (latency minus the
    /// shadowed layers) is queue wait plus worker hand-off. Returns the
    /// latency, the responses and the entries' cache keys.
    pub fn request(
        &self,
        service: &Service,
        line: &str,
        layers: &mut Layers,
    ) -> Result<(f64, Vec<Response>, Vec<CacheKey>), String> {
        let t = Instant::now();
        let decoded = serde_json::from_str::<Request>(line).map_err(|e| e.to_string());
        let decode = micros(t);
        let request = decoded?;
        for entry in &request.circuits {
            let circuit = layers
                .time("circuit.parse_us", || parse_qasm(&entry.qasm, &entry.name))
                .map_err(|e| e.to_string())?;
            layers.time("circuit.stage_us", || black_box(preprocess(&circuit)));
        }
        let t = Instant::now();
        let bound = self.binder.bind(request);
        let bind = micros(t);
        let bound = bound?;
        let keys: Vec<CacheKey> = bound
            .circuits
            .iter()
            .map(|s| layers.time("cache.fingerprint_us", || CacheKey::compute(&*bound.compiler, s)))
            .collect();
        let t = Instant::now();
        let planned = self.planner.plan(bound);
        let plan = micros(t);
        planned.map_err(|e| format!("{e:?}"))?;

        let (latency, encode, responses) = submit(service, line);
        layers.add_time("serve.decode_us", decode);
        layers.add_time("serve.bind_us", bind);
        layers.add_time("serve.plan_us", plan);
        layers.add_time("serve.encode_us", encode);
        layers.add_time("serve.residual_us", latency - decode - bind - plan - encode);
        Ok((latency, responses, keys))
    }
}
