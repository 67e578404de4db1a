//! The repository's benchmark: runs one workload under CoreTime and the
//! thread scheduler on the same seed, checks the outputs, and
//! prints every metric by name with its unit. The last line of standard
//! output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`,
//! holding the end-to-end metrics with `--trace 0` and the per-layer
//! metrics with `--trace 1`.
//!
//! Usage: `perfbench --workload <lookup|fsmeta|scale|native> --seed <n>
//! --seconds <s> --trace <0|1>`; spans of a traced run go to
//! `perfbench/out/`. One process runs one workload, so `peak_rss_mb` is
//! that workload's own peak; `perfbench/run.py --workload all` starts one
//! process per workload.
//! `perfbench --describe` prints `BENCHMARK.json` and `perfbench
//! --metrics` every metric with its workloads and what it should move.
//!
//! Host-time metrics are taken over repetitions that fill `--seconds`:
//! `ops_per_host_s` is their [`HOST_FLOOR_QUANTILE`], the others their
//! median. Simulated metrics are exact and every repetition must
//! reproduce them.

mod native;
mod sim;
mod spec;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use o2_experiments::PolicyKind;

use crate::native::{Mix, NativeRun, Wrap};
use crate::sim::{SimRun, SimWorkload, Size};
use crate::spec::{END_TO_END, WORKLOADS};
use crate::trace::{rollup, Span, Trace};

/// Sub-seeds of one run. Repetition `i` runs sub-seed `i % SUBSEEDS`
/// (sub-seed 0 is `--seed` itself), every run makes at least one
/// repetition per sub-seed, and the simulated metrics are means over the
/// sub-seeds: one seed's p99 moves by 10-18% from seed to seed, which
/// averaging over eight keeps inside the bounds.
const SUBSEEDS: usize = 8;

/// The seed of repetition `rep`.
fn subseed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_add((rep % SUBSEEDS) as u64 * 0x9E37_79B9_7F4A_7C15)
}

/// The quantile of the per-repetition throughputs that `ops_per_host_s`
/// reports. On a shared host the same repetition runs up to 1.5x faster
/// in stretches of seconds to minutes, and how much of a run they cover
/// varies from run to run, while slow stretches recur in most runs. Over
/// 6-9 runs per workload of the same code, a run's median repetition
/// spread 0.25 (scale), 0.17 (lookup) and 0.13 (fsmeta) as interquartile
/// range over median, its 10th percentile 0.10, 0.06 and 0.06. A slower
/// program lowers the 10th percentile as much as the median.
const HOST_FLOOR_QUANTILE: f64 = 0.1;

/// The two policies every workload compares, CoreTime first.
const KINDS: [PolicyKind; 2] = [PolicyKind::CoreTime, PolicyKind::ThreadScheduler];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    out_dir: PathBuf,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        size: Size::Full,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            print!("{}", spec::benchmark_json());
            std::process::exit(0);
        }
        if flag == "--metrics" {
            print!("{}", spec::metrics_json());
            std::process::exit(0);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What one workload's run reports.
#[derive(Default)]
struct Outcome {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Human-readable context printed next to the metrics.
    notes: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    fn count(&mut self, ops: u64, failures: &[String]) {
        let ops = ops.max(1);
        self.attempted += ops;
        if !failures.is_empty() {
            self.failed += ops;
            self.failures.extend(failures.iter().cloned());
        }
    }
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (0 when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile of integer samples (0 when empty).
fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Peak resident set of this process in MB, from `/proc/self/status`:
/// the peak of the one workload the process runs.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Simulated clock of every simulated workload's machine, in GHz.
fn sim_ghz() -> f64 {
    o2_sim::MachineConfig::amd16().clock_ghz
}

// ---- simulated workloads ----------------------------------------------

fn sim_workload(name: &str) -> SimWorkload {
    match name {
        "lookup" => SimWorkload::Lookup,
        "fsmeta" => SimWorkload::FsMeta,
        _ => SimWorkload::Scale,
    }
}

/// Untraced repetitions of both policies until `seconds` of host time
/// are spent, at least one per sub-seed. A repetition of a sub-seed
/// already run must reproduce that run's exact outputs.
fn sim_reps(w: SimWorkload, a: &Args, out: &mut Outcome) -> Vec<[SimRun; 2]> {
    let mut reps: Vec<[SimRun; 2]> = Vec::new();
    let start = Instant::now();
    while reps.len() < SUBSEEDS || start.elapsed().as_secs_f64() < a.seconds {
        let n = reps.len();
        let rep = KINDS.map(|k| sim::run(w, k, subseed(a.seed, n), a.size, None));
        for (i, r) in rep.iter().enumerate() {
            let mut failures = r.failures.clone();
            if n >= SUBSEEDS && reps[n % SUBSEEDS][i].exact != r.exact {
                failures.push(format!(
                    "repetition {n} of {:?} diverged from repetition {}",
                    KINDS[i],
                    n % SUBSEEDS
                ));
            }
            out.count(r.exact.total_ops, &failures);
        }
        reps.push(rep);
    }
    reps
}

fn sim_host_s(rep: &[SimRun; 2]) -> f64 {
    rep.iter().map(|r| r.setup_s + r.run_s).sum()
}

fn sim_end_to_end(reps: &[[SimRun; 2]], out: &mut Outcome) {
    let setup: Vec<f64> = reps.iter().map(|r| r[0].setup_s + r[1].setup_s).collect();
    let ops_per_s: Vec<f64> = reps
        .iter()
        .map(|r| (r[0].exact.total_ops + r[1].exact.total_ops) as f64 / (r[0].run_s + r[1].run_s))
        .collect();
    // Exact metrics: means over the sub-seeds (the first SUBSEEDS reps).
    let mean = |f: &dyn Fn(&[SimRun; 2]) -> f64| {
        reps[..SUBSEEDS].iter().map(f).sum::<f64>() / SUBSEEDS as f64
    };
    let ns = |cycles: u64| cycles as f64 / sim_ghz();
    let ct_kops = mean(&|r| r[0].exact.kops());
    let ts_kops = mean(&|r| r[1].exact.kops());
    out.set("setup_s", median(&setup));
    out.set("ops_per_host_s", quantile(&ops_per_s, HOST_FLOOR_QUANTILE));
    out.set("ct_kops", ct_kops);
    out.set("ts_kops", ts_kops);
    out.set("ct_speedup", ct_kops / ts_kops);
    out.set("ct_p50_ns", mean(&|r| ns(r[0].exact.p50_cycles)));
    out.set("ct_p99_ns", mean(&|r| ns(r[0].exact.p99_cycles)));
    out.set("ts_p99_ns", mean(&|r| ns(r[1].exact.p99_cycles)));
    out.notes.push(format!(
        "{} repetitions over {SUBSEEDS} sub-seeds; latency samples per sub-seed: ct {}, ts {}",
        reps.len(),
        mean(&|r| r[0].exact.latency_samples as f64),
        mean(&|r| r[1].exact.latency_samples as f64),
    ));
}

/// Per-layer numbers of one traced simulated run, under suffix `p`.
fn sim_layers(run: &SimRun, spans: &[Span], p: &str, out: &mut Outcome) {
    let e = &run.exact;
    let build = rollup(spans, "sim.build");
    let r = rollup(spans, "sim.run");
    let per_access = |n: u64| n as f64 / e.line_accesses.max(1) as f64;
    let counts: [(&str, f64); 31] = [
        ("sim.line_accesses", e.line_accesses as f64),
        (
            "sim.l1_short_circuit_share",
            per_access(e.l1_short_circuits),
        ),
        ("sim.l3_misses", e.l3_misses as f64),
        ("sim.dram_loads", e.dram_loads as f64),
        ("sim.remote_cache_loads", e.remote_cache_loads as f64),
        ("sim.invalidations", e.invalidations as f64),
        (
            "sim.directory_probes_per_access",
            per_access(e.directory_probes),
        ),
        ("sim.evictions", e.evictions as f64),
        ("runtime.events", e.events as f64),
        (
            "runtime.events_per_op",
            e.events as f64 / e.total_ops.max(1) as f64,
        ),
        ("runtime.stale_events", e.stale_events as f64),
        ("runtime.parks", e.parks as f64),
        ("runtime.sleeps", e.sleeps as f64),
        ("runtime.migrations", e.migrations as f64),
        ("runtime.lock_contention", e.lock_contention as f64),
        ("runtime.replica_fills", e.replica_fills as f64),
        ("runtime.replica_fill_cycles", e.replica_fill_cycles as f64),
        ("runtime.self_s", r.self_s()),
        (
            "runtime.host_ns_per_event",
            r.self_s() * 1e9 / e.events.max(1) as f64,
        ),
        ("policy.register_s", build.seconds("policy.register")),
        ("policy.replica_served", e.replica_served as f64),
        ("policy.promotions", e.promotions as f64),
        ("policy.invalidations", e.replica_invalidations as f64),
        (
            "workloads.next_op_calls",
            r.count("workloads.next_op") as f64,
        ),
        ("workloads.next_op_s", r.seconds("workloads.next_op")),
        ("fs.created", e.fs.created as f64),
        ("fs.unlinked", e.fs.unlinked as f64),
        ("fs.renamed", e.fs.renamed as f64),
        ("fs.lookups", e.fs.lookups as f64),
        ("fs.dirs_recycled", e.fs.dirs_recycled as f64),
        (
            "collections.bytes_per_object",
            e.footprint_bytes as f64 / e.objects.max(1) as f64,
        ),
    ];
    for (name, v) in counts {
        out.set(format!("{name}.{p}"), v);
    }
    policy_layers(&r, p, out);
    out.set(
        format!("metrics.latency_samples.{p}"),
        e.latency_samples as f64,
    );
}

/// The `SchedPolicy` decision-path numbers of one rollup.
fn policy_layers(r: &trace::Rollup, p: &str, out: &mut Outcome) {
    let decisions = r.count("policy.ct_start");
    out.set(format!("policy.decisions.{p}"), decisions as f64);
    out.set(
        format!("policy.migrate_share.{p}"),
        r.placements_on as f64 / decisions.max(1) as f64,
    );
    out.set(
        format!("policy.ct_start_s.{p}"),
        r.seconds("policy.ct_start"),
    );
    out.set(format!("policy.ct_end_s.{p}"), r.seconds("policy.ct_end"));
    out.set(format!("policy.epochs.{p}"), r.count("policy.epoch") as f64);
    out.set(format!("policy.epoch_s.{p}"), r.seconds("policy.epoch"));
}

fn run_sim(name: &str, a: &Args) -> Outcome {
    let w = sim_workload(name);
    let mut out = Outcome::default();
    let reps = sim_reps(w, a, &mut out);
    if !a.trace {
        sim_end_to_end(&reps, &mut out);
        return out;
    }
    // Host time per repetition barely depends on the sub-seed, so the
    // median over all of them is the untraced reference.
    let untraced_s = median(&reps.iter().map(sim_host_s).collect::<Vec<_>>());
    let mut traced_s = 0.0;
    for (i, (kind, p)) in KINDS.iter().zip(spec::POLICIES).enumerate() {
        let tr = Trace::new();
        let run = sim::run(w, *kind, subseed(a.seed, 0), a.size, Some(&tr));
        traced_s += run.setup_s + run.run_s;
        let mut failures = run.failures.clone();
        if run.exact != reps[0][i].exact {
            failures.push(format!(
                "the traced {p} run's exact outputs differ from the untraced run's"
            ));
        }
        out.count(run.exact.total_ops, &failures);
        let spans = tr.spans();
        sim_layers(&run, &spans, p, &mut out);
        write_spans(&tr, &a.out_dir, &format!("{name}_{p}"), &mut out);
    }
    out.set("trace.overhead_share", traced_s / untraced_s - 1.0);
    out
}

// ---- native -----------------------------------------------------------

/// What one native repetition adds up to: both mixes under both policies
/// once plain, for throughput and set-up, and once more with a
/// [`trace::LatencyProbe`], for latency only, so that the probe is never
/// on a timed decision path. The runs themselves are dropped.
struct NativeRep {
    /// The end-to-end metrics except `peak_rss_mb`.
    metrics: Vec<(&'static str, f64)>,
    /// Build plus `run_native` host seconds, all four plain runs.
    host_s: f64,
    /// Latency samples behind the percentiles, per policy.
    samples: [usize; 2],
}

impl NativeRep {
    /// Summarises the plain `runs[mix][policy]` and the `probed` ones:
    /// throughput pools both plain mixes as ops over summed window
    /// seconds, latency pools both probed mixes' samples.
    fn of(runs: &[[NativeRun; 2]; 2], probed: &[[NativeRun; 2]; 2]) -> Self {
        let pooled = |policy: usize| {
            runs.iter()
                .filter_map(|r| r[policy].m.as_ref())
                .fold((0, 0.0), |(ops, s), m| (ops + m.ops, s + m.wall_seconds))
        };
        let latency = |policy: usize| -> Vec<u64> {
            probed
                .iter()
                .flat_map(|r| r[policy].latency_ns.iter().copied())
                .collect()
        };
        let ((ct_ops, ct_s), (ts_ops, ts_s)) = (pooled(0), pooled(1));
        let (ct_kops, ts_kops) = (ct_ops as f64 / ct_s / 1e3, ts_ops as f64 / ts_s / 1e3);
        let (mut ct_lat, mut ts_lat) = (latency(0), latency(1));
        Self {
            metrics: vec![
                ("setup_s", runs.iter().flatten().map(|r| r.setup_s).sum()),
                ("ops_per_host_s", (ct_ops + ts_ops) as f64 / (ct_s + ts_s)),
                ("ct_kops", ct_kops),
                ("ts_kops", ts_kops),
                ("ct_speedup", ct_kops / ts_kops),
                ("ct_p50_ns", percentile(&mut ct_lat, 0.5) as f64),
                ("ct_p99_ns", percentile(&mut ct_lat, 0.99) as f64),
                ("ts_p99_ns", percentile(&mut ts_lat, 0.99) as f64),
            ],
            host_s: runs.iter().flatten().map(native_host_s).sum(),
            samples: [ct_lat.len(), ts_lat.len()],
        }
    }
}

/// Untraced repetitions until `seconds` are spent, at least one per
/// sub-seed. `replay[sub-seed][mix]` is the sequential replay digest.
fn native_reps(a: &Args, replay: &[[u64; 2]], out: &mut Outcome) -> Vec<NativeRep> {
    let cfg = native::config(a.size);
    let mut reps = Vec::new();
    let start = Instant::now();
    while reps.len() < SUBSEEDS || start.elapsed().as_secs_f64() < a.seconds {
        let seed = subseed(a.seed, reps.len());
        let runs_with =
            |wrap| Mix::ALL.map(|mix| KINDS.map(|k| native::run(mix, k, seed, a.size, wrap)));
        let (runs, probed) = (runs_with(Wrap::Plain), runs_with(Wrap::Probe));
        for (m, pair) in runs.iter().chain(&probed).enumerate() {
            let m = m % Mix::ALL.len();
            for r in pair {
                check_native(r, replay[reps.len() % SUBSEEDS][m], Mix::ALL[m], &cfg, out);
            }
        }
        reps.push(NativeRep::of(&runs, &probed));
    }
    reps
}

fn check_native(
    r: &NativeRun,
    replay: u64,
    mix: Mix,
    cfg: &o2_native::NativeConfig,
    out: &mut Outcome,
) {
    let mut failures = r.failures.clone();
    if let Some(m) = &r.m {
        if m.state_digest != replay {
            failures.push(format!(
                "{} mix under {}: state digest {:#x}, sequential replay {:#x}",
                mix.key(),
                m.policy,
                m.state_digest,
                replay
            ));
        }
    }
    out.count(cfg.warmup_ops + cfg.measure_ops, &failures);
}

/// Host seconds of one native run: build plus the whole `run_native` call.
fn native_host_s(r: &NativeRun) -> f64 {
    r.setup_s + r.m.as_ref().map_or(0.0, |m| m.wall_seconds)
}

fn native_end_to_end(reps: &[NativeRep], out: &mut Outcome) {
    for (i, (name, _)) in reps[0].metrics.iter().enumerate() {
        let values: Vec<f64> = reps.iter().map(|r| r.metrics[i].1).collect();
        let q = if *name == "ops_per_host_s" {
            HOST_FLOOR_QUANTILE
        } else {
            0.5
        };
        out.set(*name, quantile(&values, q));
    }
    out.notes.push(format!(
        "{} repetitions over {SUBSEEDS} sub-seeds; latency samples per probed repetition (1 op in {}): \
         ct {}, ts {}; {} CPUs available",
        reps.len(),
        trace::PROBE_EVERY,
        reps[0].samples[0],
        reps[0].samples[1],
        o2_native::available_cpus()
    ));
}

fn run_native(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let replay: Vec<[u64; 2]> = (0..SUBSEEDS)
        .map(|i| Mix::ALL.map(|mix| native::replay_digest(mix, subseed(a.seed, i), a.size)))
        .collect();
    let reps = native_reps(a, &replay, &mut out);
    if !a.trace {
        native_end_to_end(&reps, &mut out);
        return out;
    }
    let cfg = native::config(a.size);
    let untraced_s = median(&reps.iter().map(|r| r.host_s).collect::<Vec<_>>());
    let mut traced_s = 0.0;
    // Spans of both mixes, per policy, for the policy-layer numbers.
    let mut policy_spans: [Vec<Span>; 2] = [Vec::new(), Vec::new()];
    for (mi, mix) in Mix::ALL.into_iter().enumerate() {
        for (pi, (kind, p)) in KINDS.iter().zip(spec::POLICIES).enumerate() {
            let tr = Trace::new();
            let run = native::run(mix, *kind, subseed(a.seed, 0), a.size, Wrap::Trace(&tr));
            traced_s += native_host_s(&run);
            check_native(&run, replay[0][mi], mix, &cfg, &mut out);
            let spans = tr.spans();
            if let Some(m) = &run.m {
                let prefix = format!("native.{}", mix.key());
                native_layers(m, &spans, cfg.warmup_ops, &prefix, p, &mut out);
            }
            write_spans(
                &tr,
                &a.out_dir,
                &format!("native_{}_{p}", mix.key()),
                &mut out,
            );
            policy_spans[pi].extend(spans);
        }
    }
    for (pi, p) in spec::POLICIES.iter().enumerate() {
        let r = rollup(&policy_spans[pi], "native.run");
        out.set(
            format!("policy.register_s.{p}"),
            r.seconds("policy.register"),
        );
        policy_layers(&r, p, &mut out);
        out.set(
            format!("metrics.latency_samples.{p}"),
            reps[0].samples[pi] as f64,
        );
    }
    out.set("trace.overhead_share", traced_s / untraced_s - 1.0);
    out
}

/// Per-mix numbers of one traced native run. The window is the span from
/// the first measured op's execute to the last one's; decision and
/// execute time count only spans that start inside it.
fn native_layers(
    m: &o2_native::NativeMeasurement,
    spans: &[Span],
    warmup_ops: u64,
    prefix: &str,
    p: &str,
    out: &mut Outcome,
) {
    let measured = spans
        .iter()
        .filter(|s| s.name == "native.execute" && s.op >= warmup_ops);
    let from = measured.clone().map(|s| s.start_ns).min().unwrap_or(0);
    let to = measured.map(|s| s.end_ns).max().unwrap_or(0);
    let in_window = |s: &&Span| s.id == 0 && s.start_ns >= from && s.start_ns <= to;
    let decision_s: f64 = spans
        .iter()
        .filter(in_window)
        .filter(|s| s.name.starts_with("policy."))
        .map(Span::seconds)
        .sum();
    let execute_s: f64 = spans
        .iter()
        .filter(in_window)
        .filter(|s| s.name == "native.execute")
        .map(Span::seconds)
        .sum();
    let mean = m.ops as f64 / m.per_worker_ops.len().max(1) as f64;
    let busiest = m.per_worker_ops.iter().copied().max().unwrap_or(0) as f64;
    for (name, v) in [
        ("window_s", m.wall_seconds),
        ("migrations", m.migrations as f64),
        ("migrate_share", m.migrations as f64 / m.ops.max(1) as f64),
        ("ring_full_local", m.ring_full_local as f64),
        ("ring_depth_hwm", m.ring_depth_hwm as f64),
        ("occupancy_skew", busiest / mean.max(1.0)),
        ("lock_contention", m.lock_contention as f64),
        ("epochs", m.epochs as f64),
        ("decision_s", decision_s),
        ("execute_s", execute_s),
        (
            "other_s",
            m.workers as f64 * m.wall_seconds - decision_s - execute_s,
        ),
    ] {
        out.set(format!("{prefix}.{name}.{p}"), v);
    }
}

// ---- output -----------------------------------------------------------

fn write_spans(tr: &Trace, dir: &Path, stem: &str, out: &mut Outcome) {
    let path = dir.join(format!("trace_{stem}.csv"));
    match std::fs::create_dir_all(dir).and_then(|()| tr.write_csv(&path)) {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// The metric names and units this run reports, in report order.
fn reported(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        spec::per_layer()
            .into_iter()
            .map(|(name, m)| (name, m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    }
}

fn run_workload(name: &str, a: &Args) -> Outcome {
    let mut out = if name == "native" {
        run_native(a)
    } else {
        run_sim(name, a)
    };
    if !a.trace {
        match peak_rss_mb() {
            Some(mb) => out.set("peak_rss_mb", mb),
            None => out
                .failures
                .push("cannot read VmHWM from /proc/self/status".into()),
        }
    }
    // Every reported metric is present; a layer a workload does not run
    // reads 0, and a value that is not a finite number is a failure.
    for (metric, _) in reported(a.trace) {
        let v = out.metrics.entry(metric.clone()).or_insert(0.0);
        if !v.is_finite() {
            *v = 0.0;
            out.failures
                .push(format!("{metric} is not a finite number"));
        }
    }
    out
}

fn main() {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = run_workload(&a.workload, &a);
    println!(
        "== {} (seed {}, {})",
        a.workload,
        a.seed,
        if a.trace { "traced" } else { "untraced" }
    );
    for note in &out.notes {
        println!("   {note}");
    }
    let mut fields = Vec::new();
    for (metric, unit) in reported(a.trace) {
        let value = out.metrics[&metric];
        println!("   {metric} = {value} {unit}");
        fields.push(format!(
            "\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "   failed_op_share = {} ({} of {} ops)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        eprintln!("perfbench: {}: {f}", a.workload);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: 7,
            seconds: 0.01,
            trace,
            size: Size::Tiny,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/test")),
        }
    }

    /// One test, so the traced runs never share the process-wide span
    /// parent with another test's run.
    #[test]
    fn tiny_runs_of_every_workload_pass_their_checks() {
        for w in WORKLOADS {
            let out = run_workload(w, &tiny(w, false));
            assert!(out.failures.is_empty(), "{w}: {:?}", out.failures);
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0, "{w}: failed_op_share must be 0");
            for m in &END_TO_END {
                let v = out.metrics[m.name];
                assert!(v.is_finite() && v > 0.0, "{w}: {} = {v}", m.name);
            }

            let traced = run_workload(w, &tiny(w, true));
            assert!(
                traced.failures.is_empty(),
                "{w} traced: {:?}",
                traced.failures
            );
            assert_eq!(traced.failed, 0);
            assert_eq!(traced.metrics.len(), spec::per_layer().len(), "{w}");
            // A layer the workload runs reports work.
            let decisions = traced.metrics["policy.decisions.ct"];
            assert!(decisions > 0.0, "{w}: no traced decisions");
        }
    }

    #[test]
    fn one_process_runs_one_workload() {
        let argv = |w: &str| {
            [
                "--workload",
                w,
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ]
            .map(String::from)
        };
        // VmHWM is per process: a second workload in the same process
        // would report the first one's peak as its own.
        assert!(parse_args(argv("all")).is_err());
        for w in WORKLOADS {
            assert_eq!(parse_args(argv(w)).expect("valid arguments").workload, w);
        }
    }

    #[test]
    fn subseed_zero_is_the_seed_and_repetitions_cycle() {
        assert_eq!(subseed(42, 0), 42);
        assert_eq!(subseed(42, SUBSEEDS), 42);
        assert_ne!(subseed(42, 1), 42);
    }

    #[test]
    fn quantiles_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        let mut s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut s, 0.99), 99);
        assert_eq!(percentile(&mut s, 0.5), 50);
    }
}
