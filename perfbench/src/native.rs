//! The `native` workload: `o2-native` on two pinned workers, running the
//! `bench_native` lookup mix and then its fsmeta mix.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use o2_experiments::PolicyKind;
use o2_native::{
    run_native, NativeConfig, NativeFsMeta, NativeFsMetaSpec, NativeLookup, NativeLookupSpec,
    NativeMeasurement, NativeWorkload,
};
use o2_runtime::SchedPolicy;

use crate::sim::Size;
use crate::trace::{LatencyProbe, Trace, TracedPolicy, TracedWorkload};

/// Worker threads of every native run.
pub const WORKERS: usize = 2;

/// The two op mixes, run in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 64 directories x 128 entries, Zipf(1.1), 5% writes.
    Lookup,
    /// 32 directories x 64 slots of metadata churn.
    FsMeta,
}

impl Mix {
    /// Both mixes.
    pub const ALL: [Mix; 2] = [Mix::Lookup, Mix::FsMeta];

    /// Metric-name component.
    pub fn key(self) -> &'static str {
        match self {
            Mix::Lookup => "lookup",
            Mix::FsMeta => "fsmeta",
        }
    }
}

fn build(mix: Mix, seed: u64, size: Size) -> Box<dyn NativeWorkload> {
    match (mix, size) {
        (Mix::Lookup, Size::Full) => {
            let mut spec = NativeLookupSpec::paper_default(64, seed);
            spec.entries_per_dir = 128;
            spec.zipf_exponent = Some(1.1);
            spec.write_fraction = 0.05;
            Box::new(NativeLookup::build(&spec))
        }
        (Mix::Lookup, Size::Tiny) => Box::new(NativeLookup::build(&NativeLookupSpec::small(seed))),
        (Mix::FsMeta, Size::Full) => Box::new(NativeFsMeta::build(&NativeFsMetaSpec {
            n_dirs: 32,
            slots_per_dir: 64,
            seed,
        })),
        (Mix::FsMeta, Size::Tiny) => Box::new(NativeFsMeta::build(&NativeFsMetaSpec::small(seed))),
    }
}

/// The run configuration: 2 workers, `bench_native`'s op counts.
pub fn config(size: Size) -> NativeConfig {
    let mut cfg = NativeConfig::new(WORKERS);
    (cfg.warmup_ops, cfg.measure_ops) = match size {
        Size::Full => (2_000, 40_000),
        Size::Tiny => (100, 2_000),
    };
    cfg
}

/// One policy's run of one mix.
#[derive(Debug, Clone)]
pub struct NativeRun {
    /// Workload build plus the part of `run_native` outside its window.
    pub setup_s: f64,
    /// What the runtime reported; `None` if it panicked.
    pub m: Option<NativeMeasurement>,
    /// Sampled decision-to-completion latencies in ns ([`Wrap::Probe`] runs).
    pub latency_ns: Vec<u64>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
}

/// What a native run puts around the layers it calls.
#[derive(Clone, Copy)]
pub enum Wrap<'a> {
    /// Nothing: the policy and the workload are called directly.
    Plain,
    /// A [`LatencyProbe`] around the policy, for the latency samples.
    Probe,
    /// Recording decorators around the policy and the workload, inside a
    /// `native.run` outer span.
    Trace(&'a Trace),
}

/// Runs `mix` under `kind` on `seed`, with `wrap` around the layers.
pub fn run(mix: Mix, kind: PolicyKind, seed: u64, size: Size, wrap: Wrap<'_>) -> NativeRun {
    let cfg = config(size);
    let t = Instant::now();
    let wl = build(mix, seed, size);
    let build_s = t.elapsed().as_secs_f64();
    let samples = Arc::new(Mutex::new(Vec::new()));
    let policy: Box<dyn SchedPolicy + Send> = match wrap {
        Wrap::Plain => kind.build(&cfg.machine),
        Wrap::Probe => Box::new(LatencyProbe::new(kind.build(&cfg.machine), &samples)),
        Wrap::Trace(tr) => Box::new(TracedPolicy::new(kind.build(&cfg.machine), tr)),
    };
    let mut failures = Vec::new();
    let t = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| match wrap {
        Wrap::Trace(tr) => {
            let traced = TracedWorkload::new(wl.as_ref());
            let m = tr.outer("native.run", || run_native(&traced, policy, &cfg));
            traced.flush(tr);
            m
        }
        Wrap::Plain | Wrap::Probe => run_native(wl.as_ref(), policy, &cfg),
    }));
    let run_s = t.elapsed().as_secs_f64();
    let m = match outcome {
        Ok(m) => m,
        Err(_) => {
            failures.push(format!("run_native panicked on the {} mix", mix.key()));
            return NativeRun {
                setup_s: build_s,
                m: None,
                latency_ns: Vec::new(),
                failures,
            };
        }
    };
    if m.ops != cfg.measure_ops || m.per_worker_ops.iter().sum::<u64>() != m.ops {
        failures.push(format!(
            "{} mix: {} ops measured, occupancy sums to {}, expected {}",
            mix.key(),
            m.ops,
            m.per_worker_ops.iter().sum::<u64>(),
            cfg.measure_ops
        ));
    }
    let latency_ns = std::mem::take(&mut *samples.lock().expect("latency samples"));
    NativeRun {
        setup_s: build_s + (run_s - m.wall_seconds).max(0.0),
        m: Some(m),
        latency_ns,
        failures,
    }
}

/// The state digest of executing `op(0..warmup+measure)` one by one on
/// one thread: what every policy's concurrent run must end in.
pub fn replay_digest(mix: Mix, seed: u64, size: Size) -> u64 {
    let cfg = config(size);
    let wl = build(mix, seed, size);
    for i in 0..cfg.warmup_ops + cfg.measure_ops {
        wl.execute(&wl.op(i));
    }
    wl.state_digest()
}
