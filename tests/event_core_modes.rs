//! The engine's one event core, a `BinaryHeap` of `(wake_cycle, core)`
//! entries, against the pre-refactor smallest-clock order.
//!
//! `tests/event_scheduler.rs` pins the saturated scenario for one
//! uninterrupted run. Here the same run is cut into several
//! `run_until_cycles` calls, so entries at or past each limit stay pending
//! in the heap between calls; the fingerprint must not change. In debug
//! builds every pop is also checked against the queue-less cycle-box
//! reference.

use o2_suite::prelude::*;
use o2_suite::runtime::{RepeatBehaviour, StaticPolicy};

/// Folds every per-core counter of the machine plus the engine totals into
/// one FNV-1a fingerprint, so "bit-for-bit identical" is one comparison.
fn fingerprint(engine: &Engine) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(engine.total_ops());
    mix(engine.max_clock());
    mix(engine.min_clock());
    mix(engine.locks().total_acquisitions());
    mix(engine.locks().total_contention());
    let n = engine.machine().config().total_cores();
    for core in 0..n {
        let c = engine.machine().counters(core);
        for v in [
            c.busy_cycles,
            c.l1_hits,
            c.l1_misses,
            c.l2_hits,
            c.l2_misses,
            c.l3_hits,
            c.l3_misses,
            c.remote_cache_loads,
            c.dram_loads,
            c.invalidations_sent,
            c.invalidations_received,
            c.interconnect_messages,
            c.migrations_in,
            c.migrations_out,
            c.operations_completed,
        ] {
            mix(v);
        }
        mix(engine.core_clock(core));
    }
    h
}

/// A saturated 16-core scenario: every core runs two threads forever —
/// one doing annotated lock-protected reads whose object is pinned to
/// another core (so operations migrate), one doing plain compute + yield
/// (so quanta rotate). No core is ever idle, which is exactly the regime
/// where the event queue must reproduce the old smallest-clock order.
fn saturated_engine() -> Engine {
    let machine = Machine::new(MachineConfig::amd16());
    let mut cfg = RuntimeConfig::default();
    cfg.epoch_cycles = 100_000;
    cfg.quantum_cycles = 10_000;
    let mut policy = StaticPolicy::new();
    for i in 0..8u64 {
        policy.assign(0x1000 + i, ((i * 5) % 16) as u32);
    }
    let mut engine = Engine::new(machine, Box::new(policy), cfg);
    let data = engine.machine_mut().memory_mut().alloc(1 << 20, 0);
    let locks: Vec<_> = (0..8)
        .map(|_| {
            let r = engine.machine_mut().memory_mut().alloc(64, 1);
            engine.register_lock(r.addr)
        })
        .collect();
    for core in 0..16u32 {
        let obj = 0x1000 + u64::from(core % 8);
        let lock = locks[(core % 8) as usize];
        let op = OpBuilder::annotated(obj)
            .lock(lock)
            .compute(300)
            .read(data.addr + u64::from(core) * 4096, 1024)
            .unlock(lock)
            .finish();
        engine.spawn(core, Box::new(RepeatBehaviour::new(op, None)));
        engine.spawn(
            core,
            Box::new(RepeatBehaviour::new(
                vec![Action::Compute(500), Action::Yield],
                None,
            )),
        );
    }
    engine
}

/// Golden values captured from the pre-refactor engine (see
/// `tests/event_scheduler.rs`, which asserts them for an uninterrupted run).
const PRE_REFACTOR_SATURATED_FINGERPRINT: u64 = 0x9d48_13c2_1de4_cda3;
const PRE_REFACTOR_SATURATED_TOTAL_OPS: u64 = 28_864;

#[test]
fn heap_core_matches_pre_refactor_fingerprint() {
    let mut engine = saturated_engine();
    for limit in [250_000, 700_000, 1_100_000, 1_500_000] {
        engine.run_until_cycles(limit);
    }
    assert_eq!(engine.total_ops(), PRE_REFACTOR_SATURATED_TOTAL_OPS);
    assert_eq!(fingerprint(&engine), PRE_REFACTOR_SATURATED_FINGERPRINT);
}
