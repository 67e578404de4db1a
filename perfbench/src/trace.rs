//! Spans recorded around the benchmark's calls into each layer.
//!
//! A traced run wraps the layers' public surfaces in decorators — a
//! [`SchedPolicy`] ([`TracedPolicy`]), an [`OpGenerator`] ([`TracedGen`])
//! and a [`NativeWorkload`] ([`TracedWorkload`]) — and opens an outer
//! span around every `*Experiment::build`, `Engine::run_*` and
//! `run_native` call ([`Trace::outer`]). Every span keeps its name, start,
//! end, the outer span that was open when it began, and an op id. Spans
//! stay in memory until the run ends; [`Trace::write_csv`] then writes
//! them out and the per-layer numbers are derived from them.
//!
//! Untraced runs use none of this: the end-to-end times come from runs
//! that call the layers directly. The one decorator of untraced runs,
//! [`LatencyProbe`], runs only in separate native repetitions that supply
//! the native latency percentiles and nothing else.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use o2_native::{ExecutedOp, NativeOp, NativeWorkload};
use o2_runtime::{
    Action, BehaviourCtx, CoreId, CounterDelta, DenseObjectId, EpochView, ObjectDescriptor,
    OpContext, OpGenerator, Placement, PolicyCommand, PolicyFaultStats, PolicyReplicationStats,
    SchedPolicy,
};

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary, as `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the process-wide trace origin.
    pub start_ns: u64,
    /// Nanoseconds since the process-wide trace origin.
    pub end_ns: u64,
    /// Id of the outer span open when this one began (0 at top level).
    pub parent: u64,
    /// Id of an outer span; 0 for leaf spans (numbered when written).
    pub id: u64,
    /// The operation this span belongs to: the native op index, or
    /// `thread << 32 | per-thread sequence` in the simulator.
    pub op: u64,
    /// Call outcome: for `policy.ct_start`, 1 + the target core of a
    /// `Placement::On` (0 for `Local`); for `policy.epoch`, the commands
    /// returned; for the folded `policy.register`, the calls folded in.
    pub detail: u64,
}

impl Span {
    /// Span length in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the trace origin.
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

static NEXT_OUTER: AtomicU64 = AtomicU64::new(1);
/// The innermost open outer span: the parent of every span that begins.
static CURRENT: AtomicU64 = AtomicU64::new(0);

fn current_parent() -> u64 {
    CURRENT.load(Ordering::Relaxed)
}

/// The in-memory span store of one traced run. Decorators buffer their
/// spans privately and hand them over when dropped.
#[derive(Clone, Default)]
pub struct Trace {
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Trace {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn extend(&self, spans: Vec<Span>) {
        self.spans.lock().expect("span store").extend(spans);
    }

    /// Runs `f` inside an outer span named `name`; spans that begin
    /// inside it record it as their parent.
    pub fn outer<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = NEXT_OUTER.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.swap(id, Ordering::Relaxed);
        let start_ns = now_ns();
        let out = f();
        let end_ns = now_ns();
        CURRENT.store(parent, Ordering::Relaxed);
        self.extend(vec![Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
            op: 0,
            detail: 0,
        }]);
        out
    }

    /// Every span recorded so far, sorted by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Writes every span as CSV (`id,parent,name,start_ns,end_ns,op,detail`).
    /// Leaf spans are numbered after the largest outer-span id.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut next = spans.iter().map(|s| s.id).max().unwrap_or(0) + 1;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,start_ns,end_ns,op,detail")?;
        for s in &spans {
            let id = if s.id == 0 {
                next += 1;
                next - 1
            } else {
                s.id
            };
            writeln!(
                out,
                "{id},{},{},{},{},{},{}",
                s.parent, s.name, s.start_ns, s.end_ns, s.op, s.detail
            )?;
        }
        out.flush()
    }
}

/// What the spans of one outer span's subtree add up to.
#[derive(Debug, Clone, Default)]
pub struct Rollup {
    /// Seconds and count per span name, over the subtree's leaf spans.
    pub by_name: BTreeMap<&'static str, (f64, u64)>,
    /// `ct_start` spans that returned `Placement::On`.
    pub placements_on: u64,
    /// The outer span's own duration.
    pub outer_s: f64,
}

impl Rollup {
    /// Total seconds of spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| v.0)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |v| v.1)
    }

    /// The outer span's self time: its duration minus the time its leaf
    /// spans cover. Leaf spans of one outer span never overlap in the
    /// simulator (one host thread).
    pub fn self_s(&self) -> f64 {
        let covered: f64 = self.by_name.values().map(|v| v.0).sum();
        (self.outer_s - covered).max(0.0)
    }
}

/// Rolls up the leaf spans whose parent is one of the outer spans named
/// `outer_name`.
pub fn rollup(spans: &[Span], outer_name: &str) -> Rollup {
    let outers: Vec<&Span> = spans.iter().filter(|s| s.name == outer_name).collect();
    let mut r = Rollup {
        outer_s: outers.iter().map(|s| s.seconds()).sum(),
        ..Rollup::default()
    };
    for s in spans {
        if s.id != 0 || !outers.iter().any(|o| o.id == s.parent) {
            continue;
        }
        let e = r.by_name.entry(s.name).or_default();
        e.0 += s.seconds();
        e.1 += 1;
        if s.name == "policy.ct_start" && s.detail != 0 {
            r.placements_on += 1;
        }
    }
    r
}

// ---- decorators -------------------------------------------------------

/// A [`SchedPolicy`] decorator recording one span per call, except for
/// object registration: a scale run registers millions of objects, so
/// those calls fold into one `policy.register` span whose length is the
/// sum of theirs and whose `detail` is their number.
pub struct TracedPolicy {
    inner: Box<dyn SchedPolicy + Send>,
    sink: Trace,
    buf: Vec<Span>,
    /// Per-thread `ct_start` sequence numbers, for op ids.
    seq: Vec<u64>,
    /// The folded registration span, once a registration call happened.
    register: Option<Span>,
}

impl TracedPolicy {
    /// Wraps `inner`; spans go to `sink` when the decorator is dropped.
    pub fn new(inner: Box<dyn SchedPolicy + Send>, sink: &Trace) -> Self {
        Self {
            inner,
            sink: sink.clone(),
            buf: Vec::new(),
            seq: Vec::new(),
            register: None,
        }
    }

    fn fold_register(&mut self, start_ns: u64) {
        let end_ns = now_ns();
        let span = self.register.get_or_insert(Span {
            name: "policy.register",
            start_ns,
            end_ns: start_ns,
            parent: current_parent(),
            id: 0,
            op: 0,
            detail: 0,
        });
        span.end_ns += end_ns - start_ns;
        span.detail += 1;
    }

    fn record(&mut self, name: &'static str, start_ns: u64, op: u64, detail: u64) {
        self.buf.push(Span {
            name,
            start_ns,
            end_ns: now_ns(),
            parent: current_parent(),
            id: 0,
            op,
            detail,
        });
    }

    fn op_id(&mut self, thread: usize, advance: bool) -> u64 {
        if self.seq.len() <= thread {
            self.seq.resize(thread + 1, 0);
        }
        if advance {
            self.seq[thread] += 1;
        }
        ((thread as u64) << 32) | self.seq[thread]
    }
}

impl Drop for TracedPolicy {
    fn drop(&mut self) {
        self.buf.extend(self.register.take());
        self.sink.extend(std::mem::take(&mut self.buf));
    }
}

impl SchedPolicy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn register_object(&mut self, id: DenseObjectId, object: &ObjectDescriptor) {
        let t = now_ns();
        self.inner.register_object(id, object);
        self.fold_register(t);
    }

    fn reserve_objects(&mut self, n: usize) {
        let t = now_ns();
        self.inner.reserve_objects(n);
        self.fold_register(t);
    }

    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }

    fn on_ct_start(&mut self, ctx: &OpContext<'_>) -> Placement {
        let op = self.op_id(ctx.thread, true);
        let t = now_ns();
        let placement = self.inner.on_ct_start(ctx);
        let detail = match placement {
            Placement::On(core) => u64::from(core) + 1,
            Placement::Local => 0,
        };
        self.record("policy.ct_start", t, op, detail);
        placement
    }

    fn on_ct_end(&mut self, ctx: &OpContext<'_>, delta: &CounterDelta) {
        let op = self.op_id(ctx.thread, false);
        let t = now_ns();
        self.inner.on_ct_end(ctx, delta);
        self.record("policy.ct_end", t, op, 0);
    }

    fn on_epoch(&mut self, view: &EpochView<'_>) -> Vec<PolicyCommand> {
        let t = now_ns();
        let commands = self.inner.on_epoch(view);
        self.record("policy.epoch", t, 0, commands.len() as u64);
        commands
    }

    fn core_down(&mut self, core: CoreId) {
        self.inner.core_down(core);
    }

    fn core_degraded(&mut self, core: CoreId, slowdown_percent: u32) {
        self.inner.core_degraded(core, slowdown_percent);
    }

    fn fault_stats(&self) -> PolicyFaultStats {
        self.inner.fault_stats()
    }

    fn replication_stats(&self) -> PolicyReplicationStats {
        self.inner.replication_stats()
    }
}

/// An [`OpGenerator`] decorator recording one span per `next_op`.
pub struct TracedGen {
    inner: Box<dyn OpGenerator>,
    sink: Trace,
    buf: Vec<Span>,
    seq: u64,
}

impl TracedGen {
    /// Wraps `inner`; spans go to `sink` when the decorator is dropped.
    pub fn new(inner: Box<dyn OpGenerator>, sink: &Trace) -> Self {
        Self {
            inner,
            sink: sink.clone(),
            buf: Vec::new(),
            seq: 0,
        }
    }
}

impl Drop for TracedGen {
    fn drop(&mut self) {
        self.sink.extend(std::mem::take(&mut self.buf));
    }
}

impl OpGenerator for TracedGen {
    fn next_op(&mut self, ctx: &BehaviourCtx) -> Vec<Action> {
        let t = now_ns();
        let op = self.inner.next_op(ctx);
        self.seq += 1;
        self.buf.push(Span {
            name: "workloads.next_op",
            start_ns: t,
            end_ns: now_ns(),
            parent: current_parent(),
            id: 0,
            op: ((ctx.thread as u64) << 32) | self.seq,
            detail: 0,
        });
        op
    }
}

/// Worker threads get a small index on first use, so each records into
/// its own buffer of [`TracedWorkload`] and the locks stay uncontended.
fn worker_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s)
}

/// Buffers per worker slot (slots beyond this share buffers).
const SLOTS: usize = 8;

/// A [`NativeWorkload`] decorator recording one span per `execute`.
pub struct TracedWorkload<'a> {
    inner: &'a dyn NativeWorkload,
    bufs: Vec<Mutex<Vec<Span>>>,
}

impl<'a> TracedWorkload<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn NativeWorkload) -> Self {
        Self {
            inner,
            bufs: (0..SLOTS).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Hands the recorded spans over to `sink`.
    pub fn flush(&self, sink: &Trace) {
        for b in &self.bufs {
            sink.extend(std::mem::take(&mut *b.lock().expect("span buffer")));
        }
    }
}

impl NativeWorkload for TracedWorkload<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn n_objects(&self) -> u32 {
        self.inner.n_objects()
    }

    fn descriptor(&self, object: u32) -> ObjectDescriptor {
        self.inner.descriptor(object)
    }

    fn key_of(&self, object: u32) -> u64 {
        self.inner.key_of(object)
    }

    fn op(&self, index: u64) -> NativeOp {
        self.inner.op(index)
    }

    fn execute(&self, op: &NativeOp) -> ExecutedOp {
        let t = now_ns();
        let done = self.inner.execute(op);
        let span = Span {
            name: "native.execute",
            start_ns: t,
            end_ns: now_ns(),
            parent: current_parent(),
            id: 0,
            op: op.index,
            detail: 0,
        };
        self.bufs[worker_slot() % SLOTS]
            .lock()
            .expect("span buffer")
            .push(span);
        done
    }

    fn fill(&self, object: u32) -> u64 {
        self.inner.fill(object)
    }

    fn state_digest(&self) -> u64 {
        self.inner.state_digest()
    }

    fn lock_contention(&self) -> u64 {
        self.inner.lock_contention()
    }
}

/// Samples native per-op latency in untraced runs: every
/// [`PROBE_EVERY`]th `ct_start` is stamped, and the same submitter's
/// next `ct_end` closes the sample. A native submitter has at most one op
/// in flight, so the pair is that op's decision-to-completion time,
/// including any ring hop. The probe reads the clock on one op in
/// [`PROBE_EVERY`] and otherwise only forwards.
pub struct LatencyProbe {
    inner: Box<dyn SchedPolicy + Send>,
    calls: u64,
    pending: Vec<Option<Instant>>,
    samples: Vec<u64>,
    sink: Arc<Mutex<Vec<u64>>>,
}

/// Sampling period of [`LatencyProbe`].
pub const PROBE_EVERY: u64 = 8;

impl LatencyProbe {
    /// Wraps `inner`; samples (ns) go to `sink` when the probe is dropped.
    pub fn new(inner: Box<dyn SchedPolicy + Send>, sink: &Arc<Mutex<Vec<u64>>>) -> Self {
        Self {
            inner,
            calls: 0,
            pending: Vec::new(),
            samples: Vec::new(),
            sink: Arc::clone(sink),
        }
    }
}

impl Drop for LatencyProbe {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.extend(std::mem::take(&mut self.samples));
        }
    }
}

impl SchedPolicy for LatencyProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn register_object(&mut self, id: DenseObjectId, object: &ObjectDescriptor) {
        self.inner.register_object(id, object);
    }

    fn reserve_objects(&mut self, n: usize) {
        self.inner.reserve_objects(n);
    }

    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }

    fn on_ct_start(&mut self, ctx: &OpContext<'_>) -> Placement {
        self.calls += 1;
        if self.calls % PROBE_EVERY == 0 {
            if self.pending.len() <= ctx.thread {
                self.pending.resize(ctx.thread + 1, None);
            }
            self.pending[ctx.thread] = Some(Instant::now());
        }
        self.inner.on_ct_start(ctx)
    }

    fn on_ct_end(&mut self, ctx: &OpContext<'_>, delta: &CounterDelta) {
        self.inner.on_ct_end(ctx, delta);
        if let Some(start) = self.pending.get_mut(ctx.thread).and_then(Option::take) {
            self.samples.push(start.elapsed().as_nanos() as u64);
        }
    }

    fn on_epoch(&mut self, view: &EpochView<'_>) -> Vec<PolicyCommand> {
        self.inner.on_epoch(view)
    }

    fn core_down(&mut self, core: CoreId) {
        self.inner.core_down(core);
    }

    fn core_degraded(&mut self, core: CoreId, slowdown_percent: u32) {
        self.inner.core_degraded(core, slowdown_percent);
    }

    fn fault_stats(&self) -> PolicyFaultStats {
        self.inner.fault_stats()
    }

    fn replication_stats(&self) -> PolicyReplicationStats {
        self.inner.replication_stats()
    }
}
