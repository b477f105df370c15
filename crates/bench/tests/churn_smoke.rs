//! Release-mode smoke gate for the million-flow simulation core.
//!
//! Drives the churn scenario through `dosco_simnet` at two scales: 100k
//! concurrent flows on a synthetic 100-node grid, and 1M concurrent
//! flows on a 1000-node grid. Each scale asserts the storage contracts
//! that make million-flow runs viable:
//!
//! - the run reaches its live-flow target with zero drops inside a
//!   bounded wall clock,
//! - the flow slab's resident size equals its live-flow high-water mark
//!   (free slots are reused, never leaked), and
//! - doubling the steady-state portion of the episode does not grow the
//!   slabs at all: memory is flat over time, not merely sub-linear.
//!
//! Ignored by default so plain `cargo test` (debug) stays fast;
//! `scripts/check.sh` runs it with `--release -- --include-ignored`.

use dosco_bench::scenarios::churn_scenario;
use dosco_simnet::Simulation;
use std::time::Instant;

/// One churn-scenario size: a `rows x cols` grid where every node is an
/// ingress firing every `INTERVAL` time units, each flow dwelling `dwell`,
/// so steady state holds about `rows * cols / INTERVAL * dwell` flows.
struct Scale {
    name: &'static str,
    rows: usize,
    cols: usize,
    dwell: f64,
    /// Live flows the run must reach.
    peak: usize,
}

const INTERVAL: f64 = 10.0;

const SCALES: [Scale; 2] = [
    Scale {
        name: "100k",
        rows: 10,
        cols: 10,
        dwell: 10_000.0,
        peak: 100_000,
    },
    Scale {
        name: "1m",
        rows: 25,
        cols: 40,
        dwell: 11_000.0,
        peak: 1_000_000,
    },
];

/// Runs `scale`'s churn scenario to `horizon` dwells and returns the sim.
fn run_to(scale: &Scale, horizon: f64) -> Simulation {
    let topo = dosco_topology::generators::grid(scale.rows, scale.cols, 1.0, 1.0);
    let cfg = churn_scenario(topo, INTERVAL, scale.dwell, horizon * scale.dwell);
    let mut sim = Simulation::new(cfg, 7);
    sim.run(&mut dosco_baselines::ShortestPath::new());
    sim
}

#[test]
#[ignore = "release-mode smoke gate; run via scripts/check.sh"]
fn concurrent_flow_smoke() {
    for scale in &SCALES {
        let name = scale.name;
        let t = Instant::now();
        let sim = run_to(scale, 1.2);
        let elapsed = t.elapsed();

        let m = sim.metrics();
        assert_eq!(
            m.dropped.values().sum::<u64>(),
            0,
            "{name}: churn flows never drop"
        );
        assert!(m.completed > 0, "{name}: some flows must have completed");
        assert!(
            sim.peak_live_flows() >= scale.peak,
            "{name}: peak live flows {} below the {} target",
            sim.peak_live_flows(),
            scale.peak
        );
        // The slab never allocates beyond its live high-water mark: every
        // terminated flow's slot is reused before a new one is carved out.
        assert_eq!(
            sim.flow_slab_capacity(),
            sim.peak_live_flows(),
            "{name}: flow slab resident size must equal the live-flow peak"
        );
        assert!(
            sim.peak_queued_events() >= sim.peak_live_flows(),
            "{name}: each live flow holds at least one scheduled event"
        );
        // Generous bound (~10x the 100k run on a single-core host, and
        // far above the 1m run's few seconds): this is a regression
        // tripwire for accidental O(n^2) behavior, not a perf SLO.
        assert!(
            elapsed.as_secs() < 120,
            "{name}-flow smoke took {elapsed:?}; the event queue or flow \
             table has regressed superlinearly"
        );
    }
}

#[test]
#[ignore = "release-mode smoke gate; run via scripts/check.sh"]
fn steady_state_memory_is_flat() {
    for scale in &SCALES {
        let name = scale.name;
        // Same scenario, twice the steady-state time: every byte of slab
        // growth past warm-up would show up as a capacity difference here.
        // Only the counters are kept, so one simulation is live at a time.
        let caps = |horizon: f64| {
            let sim = run_to(scale, horizon);
            let arrived = sim.metrics().arrived;
            (arrived, sim.flow_slab_capacity(), sim.event_slab_capacity())
        };
        let short = caps(1.2);
        let long = caps(2.4);
        assert!(long.0 > short.0, "{name}: the long run admits more flows");
        assert_eq!(
            short.1, long.1,
            "{name}: flow slab grew with episode length: storage is not constant-memory"
        );
        assert_eq!(
            short.2, long.2,
            "{name}: event queue slab grew with episode length"
        );
    }
}
