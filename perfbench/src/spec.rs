//! The benchmark's metric set: every metric's name, unit, direction, the
//! workloads it is defined on, and what it should move or explain.
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds; a test keeps the two in step.

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["lookup", "fsmeta", "scale", "native"];

/// Why each workload is in the benchmark, in [`WORKLOADS`] order.
pub const WHY: [&str; 4] = [
    "Fig. 4a headline: 256 dirs x 1000 entries (8 MB), uniform, read-only, 16 closed-loop threads; host time is the memory model and CoreTime migrates most ops",
    "metadata churn, 4096 dirs x 64 slots, 16 closed-loop threads: short ops put host time in engine events, o2-fs mutations and decisions; CoreTime loses here",
    "2e6 objects x 4 KB, Zipf(1.1), 95% reads, open-loop Poisson arrivals: the only workload where setup and memory dominate and replica serving, fills and sleeps run",
    "o2-native on 2 pinned workers, lookup mix then fsmeta mix: the real wall clock; separates the cost of a ring hop (lookup) from a decision (fsmeta)",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 30;

const ALL: &[&str] = &WORKLOADS;
const SIM: &[&str] = &["lookup", "fsmeta", "scale"];

/// Which direction of a metric counts as better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name (per-layer names get their suffixes in [`per_layer`]).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Workloads on which the metric is measured; elsewhere it reads 0.
    pub workloads: &'static [&'static str],
    /// End to end: the share of the parent's median by which it may
    /// worsen. Per layer: `None`.
    pub bound: Option<f64>,
    /// What the metric means, or which end-to-end metric it should move.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        workloads: ALL,
        bound: Some(bound),
        note,
    }
}

/// The end-to-end metrics, measured on every workload with tracing off.
pub const END_TO_END: [Metric; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25,
        "host seconds from spec to runnable, summed over both policies (native: workload build plus run_native outside its window)"),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15,
        "peak resident set of the benchmark process (VmHWM)"),
    e2e("ops_per_host_s", "1/s", Better::Higher, 0.25,
        "ops completed by both policies per host second of run time, setup excluded (sim: warm-up plus window; native: real ops per window second); the 10th percentile over a run's repetitions, the host's steady floor"),
    e2e("ct_kops", "kops/s", Better::Higher, 0.25,
        "CoreTime window throughput; sim time at 2 GHz on lookup, fsmeta and scale, wall time pooled over both mixes on native; on scale both policies keep up, so it is the offered load"),
    e2e("ts_kops", "kops/s", Better::Higher, 0.25,
        "thread-scheduler window throughput, same time base as ct_kops"),
    e2e("ct_speedup", "x", Better::Higher, 0.2,
        "ct_kops over ts_kops on the same seed"),
    e2e("ct_p50_ns", "ns", Better::Lower, 0.25,
        "CoreTime median op latency: sim service (ct_start to ct_end) on lookup and fsmeta, sim arrival to completion on scale (warm-up included, so the cold-start backlog sets the tail for both policies), sampled wall decision to completion on native"),
    e2e("ct_p99_ns", "ns", Better::Lower, 0.25,
        "CoreTime 99th-percentile op latency, same definition as ct_p50_ns"),
    e2e("ts_p99_ns", "ns", Better::Lower, 0.25,
        "thread-scheduler 99th-percentile op latency, same definition as ct_p50_ns"),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        workloads,
        bound: None,
        note,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics before their policy (and native mix) suffixes.
/// Each is reported as `<name>.ct` and `<name>.ts`; `native.*` names are
/// reported per mix as `native.<mix>.<rest>.<policy>`.
pub const LAYERS: [Metric; 48] = [
    // o2-sim: exact counts of the memory model.
    layer("sim.line_accesses", "count", Lower, SIM,
        "host work of the memory model: moves ops_per_host_s on lookup, barely on fsmeta; must stay identical under any host-speed change"),
    layer("sim.l1_short_circuit_share", "share", Higher, SIM,
        "accesses resolved by the L1 fast path over line accesses: moves ops_per_host_s on lookup"),
    layer("sim.l3_misses", "count", Lower, SIM,
        "miss class: explains ct_speedup on lookup and fsmeta"),
    layer("sim.dram_loads", "count", Lower, SIM,
        "miss class: explains ct_speedup on lookup and fsmeta"),
    layer("sim.remote_cache_loads", "count", Lower, SIM,
        "miss class: explains ct_speedup on lookup and fsmeta"),
    layer("sim.invalidations", "count", Lower, SIM,
        "coherence invalidations sent: explains ct_speedup on fsmeta"),
    layer("sim.directory_probes_per_access", "count", Lower, SIM,
        "coherence-directory slot probes per line access: moves ops_per_host_s on lookup"),
    layer("sim.evictions", "count", Lower, SIM,
        "lines evicted from any cache: explains ct_speedup on lookup"),
    // o2-runtime: engine and event core.
    layer("runtime.events", "count", Lower, SIM,
        "events dispatched: moves ops_per_host_s on fsmeta and scale"),
    layer("runtime.events_per_op", "count", Lower, SIM,
        "events per completed op: moves ops_per_host_s on fsmeta and scale"),
    layer("runtime.stale_events", "count", Lower, SIM,
        "superseded queue entries discarded: moves ops_per_host_s on fsmeta and scale"),
    layer("runtime.parks", "count", Lower, SIM,
        "cores parked: moves ops_per_host_s on scale"),
    layer("runtime.sleeps", "count", Lower, SIM,
        "open-loop arrival waits: nonzero on scale only"),
    layer("runtime.migrations", "count", Higher, SIM,
        "op migrations: explains ct_speedup on lookup"),
    layer("runtime.lock_contention", "count", Lower, SIM,
        "contended spin-lock attempts: moves ct_kops on fsmeta"),
    layer("runtime.replica_fills", "count", Higher, SIM,
        "idle-time replica fills on scale: their host cost moves ops_per_host_s there, but no simulated end-to-end metric resolves them, as scale latency is set by cold start and its throughput is the offered load"),
    layer("runtime.replica_fill_cycles", "cycles", Lower, SIM,
        "cycles of idle-time replica fills on scale; like replica_fills, moves ops_per_host_s there and no simulated end-to-end metric"),
    layer("runtime.self_s", "s", Lower, SIM,
        "host time inside Engine::run_* not covered by policy or generator spans (engine plus memory model): moves ops_per_host_s on fsmeta and scale"),
    layer("runtime.host_ns_per_event", "ns", Lower, SIM,
        "runtime.self_s per event: moves ops_per_host_s on fsmeta and scale"),
    // o2-core and o2-baseline behind SchedPolicy.
    layer("policy.register_s", "s", Lower, ALL,
        "host time in register_object and reserve_objects: moves setup_s on scale"),
    layer("policy.decisions", "count", Lower, ALL,
        "on_ct_start calls"),
    layer("policy.migrate_share", "share", Higher, ALL,
        "Placement::On over decisions: explains ct_speedup on lookup"),
    layer("policy.ct_start_s", "s", Lower, ALL,
        "host time in on_ct_start: moves ops_per_host_s on fsmeta and scale, not on lookup; moves ct_kops on native"),
    layer("policy.ct_end_s", "s", Lower, ALL,
        "host time in on_ct_end: moves ops_per_host_s on fsmeta and scale, not on lookup"),
    layer("policy.epochs", "count", Lower, ALL,
        "on_epoch calls"),
    layer("policy.epoch_s", "s", Lower, ALL,
        "host time in on_epoch: moves ops_per_host_s on scale"),
    layer("policy.replica_served", "count", Higher, ALL,
        "reads served by a non-primary replica on scale; like runtime.replica_fills, moves ops_per_host_s there and no simulated end-to-end metric"),
    layer("policy.promotions", "count", Higher, ALL,
        "replica promotions on scale; like runtime.replica_fills, moves ops_per_host_s there and no simulated end-to-end metric"),
    layer("policy.invalidations", "count", Lower, ALL,
        "first-write replica invalidations on scale; like runtime.replica_fills, moves ops_per_host_s there and no simulated end-to-end metric"),
    // o2-workloads.
    layer("workloads.next_op_calls", "count", Lower, &["lookup"],
        "OpGenerator::next_op calls"),
    layer("workloads.next_op_s", "s", Lower, &["lookup"],
        "host time in OpGenerator::next_op: moves ops_per_host_s on lookup"),
    // o2-fs: exact work counts of the churn.
    layer("fs.created", "count", Higher, &["fsmeta"],
        "entries created: must stay identical under a name-index change"),
    layer("fs.unlinked", "count", Higher, &["fsmeta"],
        "entries unlinked: must stay identical under a name-index change"),
    layer("fs.renamed", "count", Higher, &["fsmeta"],
        "entries renamed: must stay identical under a name-index change"),
    layer("fs.lookups", "count", Higher, &["fsmeta"],
        "lookups: must stay identical under a name-index change"),
    layer("fs.dirs_recycled", "count", Higher, &["fsmeta"],
        "directories retired and recreated: must stay identical under a name-index change"),
    // o2-collections and o2-metrics.
    layer("collections.bytes_per_object", "B", Lower, SIM,
        "Engine::footprint_bytes over objects: moves peak_rss_mb and setup_s on scale"),
    layer("metrics.latency_samples", "count", Higher, ALL,
        "samples behind the latency percentiles"),
    // o2-native, per mix.
    layer("native.window_s", "s", Lower, &["native"],
        "measured window: the denominator of ct_kops and ts_kops on native"),
    layer("native.migrations", "count", Lower, &["native"],
        "ops sent over a migration ring"),
    layer("native.migrate_share", "share", Lower, &["native"],
        "ring migrations over measured ops: explains ct_speedup on native"),
    layer("native.ring_full_local", "count", Lower, &["native"],
        "migrations refused by a full ring and run locally"),
    layer("native.ring_depth_hwm", "count", Lower, &["native"],
        "deepest any migration ring got"),
    layer("native.occupancy_skew", "x", Lower, &["native"],
        "busiest worker's executed ops over the mean"),
    layer("native.lock_contention", "count", Lower, &["native"],
        "contended shard spin-lock attempts"),
    layer("native.epochs", "count", Lower, &["native"],
        "epoch callbacks in the window"),
    layer("native.decision_s", "s", Lower, &["native"],
        "host time inside the policy decorator during the window: moves ct_kops on the fsmeta mix"),
    layer("native.execute_s", "s", Lower, &["native"],
        "host time inside NativeWorkload::execute during the window"),
];

/// A layer metric that is not per policy.
pub const TRACE_OVERHEAD: Metric = layer(
    "trace.overhead_share",
    "share",
    Lower,
    ALL,
    "host time of the traced run over the untraced median, minus 1",
);

/// `native.other_s`, derived rather than measured: workers x window minus
/// decision and execute time (ring hops, spins, lock waits, idle).
pub const NATIVE_OTHER: Metric = layer(
    "native.other_s",
    "s",
    Lower,
    &["native"],
    "workers x window minus decision_s and execute_s: moves ct_kops on the lookup mix",
);

/// Policy suffixes, CoreTime first.
pub const POLICIES: [&str; 2] = ["ct", "ts"];

/// Native mixes, in run order.
pub const MIXES: [&str; 2] = ["lookup", "fsmeta"];

/// Every per-layer metric with its full name, in report order.
pub fn per_layer() -> Vec<(String, Metric)> {
    let mut out = Vec::new();
    for m in LAYERS.iter().chain(std::iter::once(&NATIVE_OTHER)) {
        match m.name.strip_prefix("native.") {
            Some(rest) => {
                for mix in MIXES {
                    for p in POLICIES {
                        out.push((format!("native.{mix}.{rest}.{p}"), *m));
                    }
                }
            }
            None => {
                for p in POLICIES {
                    out.push((format!("{}.{p}", m.name), *m));
                }
            }
        }
    }
    out.push((TRACE_OVERHEAD.name.to_string(), TRACE_OVERHEAD));
    out
}

/// The repository's `BENCHMARK.json`: workloads, metrics and bounds for
/// whatever runs and judges the benchmark.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .zip(WHY)
        .map(|(w, why)| format!("    {{\"name\": \"{w}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.unwrap_or(0.0)
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|(name, m)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"command\": [\"python3\", \"perfbench/run.py\"],\n",
            "  \"paths\": [\"perfbench\"],\n",
            "  \"run_seconds\": {},\n",
            "  \"workloads\": [\n{}\n  ],\n",
            "  \"end_to_end\": [\n{}\n  ],\n",
            "  \"per_layer\": [\n{}\n  ]\n",
            "}}\n"
        ),
        RUN_SECONDS,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// Every metric with the workloads it is measured on and what it should
/// move, as JSON: the map a performance claim starts from.
pub fn metrics_json() -> String {
    let list = |ws: &[&str]| {
        ws.iter()
            .map(|w| format!("\"{w}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let e2e = END_TO_END.iter().map(|m| (m.name.to_string(), *m));
    let rows: Vec<String> = e2e
        .chain(per_layer())
        .map(|(name, m)| {
            format!(
                "  {{\"name\": \"{name}\", \"unit\": \"{}\", \"better\": \"{}\", \"end_to_end\": {}, \"workloads\": [{}], \"note\": \"{}\"}}",
                m.unit,
                m.better.as_str(),
                m.bound.is_some(),
                list(m.workloads),
                m.note
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn all_metrics() -> Vec<(String, Metric)> {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), *m))
            .chain(per_layer())
            .collect()
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let metrics = all_metrics();
        for (name, _) in &metrics {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        let mut names: Vec<&String> = metrics.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), metrics.len(), "a metric name is used twice");
    }

    #[test]
    fn every_metric_has_a_unit_a_direction_and_workloads() {
        for (name, m) in all_metrics() {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: bad unit {:?}",
                m.unit
            );
            assert!(matches!(m.better, Better::Higher | Better::Lower));
            assert!(!m.workloads.is_empty(), "{name}: no workloads");
            for w in m.workloads {
                assert!(WORKLOADS.contains(w), "{name}: unknown workload {w}");
            }
            assert!(!m.note.is_empty() && !m.note.contains(['"', '\\']));
        }
    }

    #[test]
    fn metric_counts_and_bounds_stay_within_the_format_limits() {
        assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
        let layers = per_layer();
        assert!(
            !layers.is_empty() && layers.len() <= 128,
            "{}",
            layers.len()
        );
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics have a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(layers.iter().all(|(_, m)| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(WHY
            .iter()
            .all(|w| w.len() <= 200 && !w.contains(['"', '\\', '\n'])));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with `perfbench --describe`"
        );
    }
}
