//! Engine-loop throughput benchmark → `BENCH_engine.json`.
//!
//! Runs three fixed-seed scenarios on the paper's 16-core AMD machine and
//! records how fast the *host* executes the simulation loop (simulated
//! ops and events per wall-clock second, best of [`REPS`] walls to ride
//! out host noise). The simulated op and event counts are deterministic;
//! CI asserts those, never the walls.
//!
//! * `idle_heavy` — 1 busy core, 15 parked: the regime the event-driven
//!   scheduler exists for (the old engine burned an idle-step per core
//!   every 400 cycles here).
//! * `saturated` — 32 threads on 16 cores with locks and migrations: the
//!   regime where the event queue must not be slower than a linear scan.
//! * `bursty` — a blocking-lock convoy: release hand-offs wake waiters in
//!   same-cycle storms, separated by long compute gaps.

use std::time::Instant;

use o2_runtime::{
    Action, Engine, NullPolicy, OpBuilder, RepeatBehaviour, RuntimeConfig, StaticPolicy,
};
use o2_sim::{ContentionModel, Machine, MachineConfig};

/// Repetitions per scenario; the best wall is recorded.
const REPS: usize = 3;

struct Scenario {
    name: &'static str,
    cycles: u64,
    build: fn() -> Engine,
}

struct Outcome {
    name: &'static str,
    simulated_cycles: u64,
    total_ops: u64,
    events_processed: u64,
    /// Best wall over [`REPS`] runs.
    wall_seconds: f64,
}

impl Outcome {
    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"scenario\": \"{}\",\n",
                "      \"simulated_cycles\": {},\n",
                "      \"total_ops\": {},\n",
                "      \"events_processed\": {},\n",
                "      \"wall_seconds\": {:.6},\n",
                "      \"sim_ops_per_wall_second\": {:.0},\n",
                "      \"events_per_wall_second\": {:.0}\n",
                "    }}"
            ),
            self.name,
            self.simulated_cycles,
            self.total_ops,
            self.events_processed,
            self.wall_seconds,
            self.total_ops as f64 / self.wall_seconds,
            self.events_processed as f64 / self.wall_seconds,
        )
    }
}

/// One timed run; returns `(wall, ops, events)`.
fn run_once(s: &Scenario) -> (f64, u64, u64) {
    let mut engine = (s.build)();
    let start = Instant::now();
    engine.run_until_cycles(s.cycles);
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    (
        wall,
        engine.total_ops(),
        engine.sched_stats().events_processed,
    )
}

fn measure(s: &Scenario) -> Outcome {
    let (mut wall, ops, events) = run_once(s);
    for _ in 1..REPS {
        wall = wall.min(run_once(s).0);
    }
    println!(
        "{:<12} {:>9} ops in {:.3}s ({:.0} sim-ops/s, {} events)",
        s.name,
        ops,
        wall,
        ops as f64 / wall,
        events,
    );
    Outcome {
        name: s.name,
        simulated_cycles: s.cycles,
        total_ops: ops,
        events_processed: events,
        wall_seconds: wall,
    }
}

fn idle_heavy() -> Engine {
    let mut cfg = MachineConfig::amd16();
    cfg.contention = ContentionModel::None;
    let mut engine = Engine::new(
        Machine::new(cfg),
        Box::new(NullPolicy),
        RuntimeConfig::default(),
    );
    let data = engine.machine_mut().memory_mut().alloc(64 * 1024, 0);
    let op = OpBuilder::annotated(0x1)
        .compute(600)
        .read(data.addr, 4096)
        .finish();
    engine.spawn(0, Box::new(RepeatBehaviour::new(op, None)));
    engine
}

fn saturated() -> Engine {
    let machine = Machine::new(MachineConfig::amd16());
    let mut cfg = RuntimeConfig::default();
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

fn bursty() -> Engine {
    let mut mcfg = MachineConfig::amd16();
    mcfg.contention = ContentionModel::None;
    let machine = Machine::new(mcfg);
    let cfg = RuntimeConfig::default().with_blocking_locks();
    let mut engine = Engine::new(machine, Box::new(NullPolicy), cfg);
    let lock_region = engine.machine_mut().memory_mut().alloc(64, 0);
    let lock = engine.register_lock(lock_region.addr);
    // All 16 cores contend on one blocking lock: every release hands off
    // to the next waiter, so wakeups arrive in dense same-cycle storms,
    // then the whole machine computes quietly for 30k cycles.
    for core in 0..16u32 {
        let op = OpBuilder::annotated(0x2000 + u64::from(core))
            .lock(lock)
            .compute(150)
            .unlock(lock)
            .compute(30_000)
            .finish();
        engine.spawn(core, Box::new(RepeatBehaviour::new(op, None)));
    }
    engine
}

fn main() {
    let scenarios = [
        Scenario {
            name: "idle_heavy",
            cycles: 30_000_000,
            build: idle_heavy,
        },
        Scenario {
            name: "saturated",
            cycles: 5_000_000,
            build: saturated,
        },
        Scenario {
            name: "bursty",
            cycles: 100_000_000,
            build: bursty,
        },
    ];
    let outcomes: Vec<Outcome> = scenarios.iter().map(measure).collect();
    let body = outcomes
        .iter()
        .map(Outcome::json)
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"engine_loop\",\n",
            "  \"machine\": \"amd16\",\n",
            "  \"engine\": \"event core: BinaryHeap of (wake_cycle, core), lazy stale discard, parked idle cores\",\n",
            "  \"reps_per_scenario\": {},\n",
            "  \"scenarios\": [\n{}\n  ]\n",
            "}}\n"
        ),
        REPS, body
    );
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("wrote BENCH_engine.json");
}
