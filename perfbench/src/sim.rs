//! The simulated workloads: `lookup`, `fsmeta` and `scale`.
//!
//! Each run builds one experiment under one policy through the
//! workloads crate's public constructors, runs its warm-up and window,
//! and reads the engine's public statistics. With a [`Trace`], the policy
//! (and, on `lookup`, every thread's generator) is wrapped in a recording
//! decorator and the build and run calls get outer spans.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use o2_experiments::{scale_spec_for, serving_coretime_config, PolicyKind};
use o2_runtime::{Engine, OpGenerator, SchedPolicy};
use o2_workloads::{
    DirChooser, DirectoryLookupGen, Experiment, FsMetaExperiment, FsMetaSpec, FsMetaStats,
    Measurement, ScaleExperiment, WorkloadSpec,
};

use crate::trace::{Trace, TracedGen, TracedPolicy};

/// Which simulated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// Fig. 4a: 256 directories x 1000 entries, uniform, read-only.
    Lookup,
    /// Metadata churn over 4096 directories x 64 slots.
    FsMeta,
    /// 2e6 objects x 4 KB, Zipf(1.1), 95% reads, open-loop arrivals.
    Scale,
}

/// Mean gap between one thread's open-loop arrivals on `scale`, in cycles.
pub const SCALE_MEAN_GAP: f64 = 8_000.0;

/// The `scale` window: about 20k ops per policy, a few hundred of them
/// beyond p99. The arrival sketch also holds the 2000 warm-up ops, and
/// the backlog of the cold start sets p99 for both policies alike: p99
/// still falls by about a quarter from a 10M- to a 100M-cycle window, so
/// on `scale` the latency metrics measure cold start and queueing, not
/// replica serving. Both policies keep up with the offered load, so
/// their window throughputs equal it.
pub const SCALE_WINDOW_CYCLES: u64 = 10_000_000;

/// Problem size: the benchmark's, or a tiny one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes BENCHMARK.json describes.
    Full,
    /// A few thousand ops, for the benchmark's own tests.
    Tiny,
}

fn lookup_spec(seed: u64, size: Size) -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default(if size == Size::Tiny { 16 } else { 256 });
    spec.seed = seed;
    match size {
        // Twice the figure's window: ~9k samples per run behind p99.
        Size::Full => spec.measure_cycles *= 2,
        Size::Tiny => {
            spec.warmup_ops = 200;
            spec.measure_cycles = 300_000;
        }
    }
    spec
}

fn fsmeta_spec(seed: u64, size: Size) -> FsMetaSpec {
    let mut spec = FsMetaSpec::paper_default(if size == Size::Tiny { 64 } else { 4096 });
    spec.seed = seed;
    if size == Size::Tiny {
        spec.warmup_ops = 200;
        spec.measure_cycles = 300_000;
    }
    spec
}

fn scale_objects(size: Size) -> u64 {
    if size == Size::Tiny {
        20_000
    } else {
        2_000_000
    }
}

/// Everything a run produces that must repeat exactly: the simulated
/// outputs and the work counts of every layer. A traced run must match
/// its untraced twin field for field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exact {
    /// Ops completed over warm-up and window.
    pub total_ops: u64,
    /// Ops completed inside the window.
    pub window_ops: u64,
    /// Window throughput in sim kops/s, as IEEE bits.
    pub kops_bits: u64,
    /// Latency median in cycles: service on closed loops, arrival on `scale`.
    pub p50_cycles: u64,
    /// Latency 99th percentile in cycles.
    pub p99_cycles: u64,
    /// Latency samples behind the percentiles.
    pub latency_samples: u64,
    /// `o2-sim`: L1 lookups (hits, short-circuits included, plus misses).
    pub line_accesses: u64,
    /// `o2-sim`: accesses resolved by the L1 short-circuit.
    pub l1_short_circuits: u64,
    /// `o2-sim`: L3 misses.
    pub l3_misses: u64,
    /// `o2-sim`: loads served by DRAM.
    pub dram_loads: u64,
    /// `o2-sim`: loads served by another chip's cache.
    pub remote_cache_loads: u64,
    /// `o2-sim`: invalidations sent.
    pub invalidations: u64,
    /// `o2-sim`: coherence-directory slot probes.
    pub directory_probes: u64,
    /// `o2-sim`: lines evicted from any cache.
    pub evictions: u64,
    /// `o2-runtime`: events dispatched.
    pub events: u64,
    /// `o2-runtime`: superseded queue entries discarded.
    pub stale_events: u64,
    /// `o2-runtime`: cores parked.
    pub parks: u64,
    /// `o2-runtime`: open-loop sleeps.
    pub sleeps: u64,
    /// `o2-runtime`: op migrations.
    pub migrations: u64,
    /// `o2-runtime`: contended spin-lock attempts.
    pub lock_contention: u64,
    /// `o2-runtime`: background replica fills.
    pub replica_fills: u64,
    /// `o2-runtime`: cycles of background replica fills.
    pub replica_fill_cycles: u64,
    /// Policy: reads served by a non-primary replica.
    pub replica_served: u64,
    /// Policy: replica promotions.
    pub promotions: u64,
    /// Policy: first-write replica invalidations.
    pub replica_invalidations: u64,
    /// `Engine::footprint_bytes`.
    pub footprint_bytes: u64,
    /// Objects registered with the engine.
    pub objects: u64,
    /// `o2-fs` work counts (`fsmeta` only).
    pub fs: FsMetaStats,
}

impl Exact {
    /// Window throughput in sim kops/s.
    pub fn kops(&self) -> f64 {
        f64::from_bits(self.kops_bits)
    }
}

/// One policy's run of a simulated workload.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Host seconds from spec to runnable experiment (policy built,
    /// objects registered, threads spawned).
    pub setup_s: f64,
    /// Host seconds inside the run calls (warm-up plus window).
    pub run_s: f64,
    /// The exact outputs.
    pub exact: Exact,
    /// Failed correctness checks, empty when the run is correct.
    pub failures: Vec<String>,
}

fn maybe_outer<R>(trace: Option<&Trace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace {
        Some(t) => t.outer(name, f),
        None => f(),
    }
}

fn wrap(policy: Box<dyn SchedPolicy + Send>, trace: Option<&Trace>) -> Box<dyn SchedPolicy> {
    match trace {
        Some(t) => Box::new(TracedPolicy::new(policy, t)),
        None => policy,
    }
}

/// Reads the engine's public statistics into `exact` and checks that the
/// per-core completion counters add up to the engine's op count.
fn collect(engine: &Engine, exact: &mut Exact, failures: &mut Vec<String>) {
    let machine = engine.machine();
    let cores = machine.config().total_cores();
    let mut completed = 0;
    for c in 0..cores {
        let k = machine.counters(c);
        exact.line_accesses += k.l1_hits + k.l1_misses;
        exact.l3_misses += k.l3_misses;
        exact.dram_loads += k.dram_loads;
        exact.remote_cache_loads += k.remote_cache_loads;
        exact.invalidations += k.invalidations_sent;
        exact.migrations += k.migrations_in;
        completed += k.operations_completed;
    }
    exact.total_ops = engine.total_ops();
    if completed != exact.total_ops {
        failures.push(format!(
            "per-core operations_completed sum to {completed}, engine counted {}",
            exact.total_ops
        ));
    }
    let mem = engine.mem_stats();
    exact.l1_short_circuits = mem.l1_short_circuits;
    exact.directory_probes = mem.directory_probes;
    exact.evictions = mem.evictions;
    let ss = engine.sched_stats();
    exact.events = ss.events_processed;
    exact.stale_events = ss.stale_events;
    exact.parks = ss.parks;
    exact.sleeps = ss.sleeps;
    exact.replica_fills = ss.replica_fills;
    exact.replica_fill_cycles = ss.replica_fill_cycles;
    exact.lock_contention = engine.locks().total_contention();
    let r = engine.policy().replication_stats();
    exact.replica_served = r.replica_served;
    exact.promotions = r.promotions;
    exact.replica_invalidations = r.invalidations;
    exact.footprint_bytes = engine.footprint_bytes();
    exact.objects = engine.object_index().len() as u64;
}

/// The outputs of a closed-loop run: window throughput, the engine's
/// service-latency sketch, and the engine statistics.
fn closed_loop(m: &Measurement, engine: &Engine, exact: &mut Exact, failures: &mut Vec<String>) {
    exact.window_ops = m.window.ops;
    exact.kops_bits = m.kres_per_sec().to_bits();
    let lat = engine.sched_stats().op_latency;
    (exact.p50_cycles, exact.p99_cycles) = (lat.p50, lat.p99);
    exact.latency_samples = lat.count;
    collect(engine, exact, failures);
}

/// Runs `f`, turning a panic (how the `run_*` calls report an `Err` from
/// their `try_run_*` form) into a failure message.
fn checked<R>(f: impl FnOnce() -> R, failures: &mut Vec<String>) -> Option<R> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Some(r),
        Err(e) => {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            failures.push(format!("run failed: {msg}"));
            None
        }
    }
}

/// Builds and runs `workload` under `kind` on `seed`.
pub fn run(
    workload: SimWorkload,
    kind: PolicyKind,
    seed: u64,
    size: Size,
    trace: Option<&Trace>,
) -> SimRun {
    let mut exact = Exact::default();
    let mut failures = Vec::new();
    let (setup_s, run_s) = match workload {
        SimWorkload::Lookup => {
            let t = Instant::now();
            let mut exp = maybe_outer(trace, "sim.build", || {
                let spec = lookup_spec(seed, size);
                let policy = wrap(kind.build(&spec.machine), trace);
                match trace {
                    None => Experiment::build(spec, policy),
                    // The same generators `Experiment::build` makes, each
                    // wrapped in a recording decorator.
                    Some(tr) => Experiment::build_with(spec, policy, |spec, dirs, t| {
                        let gen = DirectoryLookupGen::new(
                            Rc::clone(dirs),
                            DirChooser::new(spec.n_dirs, spec.popularity),
                            spec.lookup_cost,
                            spec.write_fraction,
                            spec.seed.wrapping_add(u64::from(t) * 0x9E37_79B9),
                            None,
                        );
                        Box::new(TracedGen::new(Box::new(gen), tr)) as Box<dyn OpGenerator>
                    }),
                }
            });
            let setup_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let m = checked(
                || maybe_outer(trace, "sim.run", || exp.run()),
                &mut failures,
            );
            let run_s = t.elapsed().as_secs_f64();
            if let Some(m) = m {
                closed_loop(&m, exp.engine(), &mut exact, &mut failures);
            }
            (setup_s, run_s)
        }
        SimWorkload::FsMeta => {
            let t = Instant::now();
            let mut exp = maybe_outer(trace, "sim.build", || {
                let spec = fsmeta_spec(seed, size);
                let policy = wrap(kind.build(&spec.machine), trace);
                FsMetaExperiment::build(spec, policy)
            });
            let setup_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let m = checked(
                || maybe_outer(trace, "sim.run", || exp.run()),
                &mut failures,
            );
            let run_s = t.elapsed().as_secs_f64();
            if let Some(m) = m {
                closed_loop(&m, exp.engine(), &mut exact, &mut failures);
                exact.fs = exp.meta_stats();
                check_fs_balance(&exp, &mut failures);
            }
            (setup_s, run_s)
        }
        SimWorkload::Scale => {
            let n = scale_objects(size);
            let t = Instant::now();
            let mut exp = maybe_outer(trace, "sim.build", || {
                let mut spec = scale_spec_for(n, seed);
                spec.open_loop_mean_gap = Some(SCALE_MEAN_GAP);
                if size == Size::Full {
                    spec.measure_cycles = SCALE_WINDOW_CYCLES;
                }
                let policy = kind
                    .build_with_coretime_config(&spec.machine, serving_coretime_config(kind, n));
                ScaleExperiment::build(spec, wrap(policy, trace))
            });
            let setup_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let m = checked(
                || maybe_outer(trace, "sim.run", || exp.run()),
                &mut failures,
            );
            let run_s = t.elapsed().as_secs_f64();
            if let Some(m) = m {
                exact.window_ops = m.window.ops;
                exact.kops_bits = m.kops_per_sec().to_bits();
                collect(exp.engine(), &mut exact, &mut failures);
                match m.arrival_latency {
                    Some(lat) => {
                        (exact.p50_cycles, exact.p99_cycles) = (lat.p50, lat.p99);
                        exact.latency_samples = lat.count;
                        if lat.count != exact.total_ops {
                            failures.push(format!(
                                "arrival sketch holds {} samples for {} completed ops",
                                lat.count, exact.total_ops
                            ));
                        }
                    }
                    None => failures.push("open-loop run recorded no arrival latency".into()),
                }
            }
            (setup_s, run_s)
        }
    };
    if exact.window_ops == 0 && failures.is_empty() {
        failures.push("the window completed no ops".into());
    }
    SimRun {
        setup_s,
        run_s,
        exact,
        failures,
    }
}

/// The volume's live entries must equal the initial population plus
/// creates minus unlinks and drained entries.
fn check_fs_balance(exp: &FsMetaExperiment, failures: &mut Vec<String>) {
    let spec = exp.spec();
    let s = exp.meta_stats();
    let live: u64 = exp.with_volume(|v| {
        (0..spec.n_dirs)
            .map(|d| u64::from(v.live_entries(d).unwrap_or(0)))
            .sum()
    });
    let expected = (u64::from(spec.n_dirs) * u64::from(spec.initial_live_per_dir) + s.created)
        .checked_sub(s.unlinked + s.drained);
    if expected != Some(live) {
        failures.push(format!(
            "volume holds {live} live entries, FsMetaStats implies {expected:?}"
        ));
    }
}
