//! `sim-grid-churn`: the discrete-event simulator under the
//! shortest-path baseline on a failing substrate.
//!
//! The flow-churn stress scenario on a 10×10 grid (every node an
//! ingress, one flow per node every 10 time units, each held for 1000,
//! so about 10k flows are live at steady state), run by
//! `Simulation::run` with `dosco_baselines::ShortestPath`, with per-link
//! stochastic failures (MTBF 500, MTTR 50) compiled from the workload
//! seed.
//!
//! The traced run drives the same episode from outside through
//! `next_decision` / `decide` / `apply`, splitting `next_decision` calls
//! by whether they moved the topology version (a churn epoch, including
//! its shortest-path recompute) or not (plain event dispatch). Between
//! those episodes it runs the scenario on a static substrate, the
//! churn-off control.

use crate::{measure, median, ms, repeat_for, LayerTable, Opts, Report, Scale};
use dosco_baselines::ShortestPath;
use dosco_bench::scenarios::churn_scenario;
use dosco_chaos::{ChurnSchedule, StochasticChurn};
use dosco_simnet::{
    ChurnTimeline, Coordinator, DecisionPoint, Metrics, ScenarioConfig, SimEvent, Simulation,
};
use dosco_topology::ShortestPaths;
use std::time::{Duration, Instant};

struct Setup {
    scenario: ScenarioConfig,
    timeline: ChurnTimeline,
}

fn setup(seed: u64, churn: bool, scale: Scale) -> Setup {
    let (dwell, horizon) = match scale {
        Scale::Full => (1_000.0, 5_000.0),
        Scale::Tiny => (100.0, 500.0),
    };
    let topology = dosco_topology::generators::grid(10, 10, 1.0, 1.0);
    let scenario = churn_scenario(topology, 10.0, dwell, horizon);
    let timeline = if churn {
        ChurnSchedule::none()
            .with_stochastic(StochasticChurn::default().with_link_failures(500.0, 50.0))
            .compile(&scenario.topology, scenario.horizon, seed)
            .expect("link-failure schedule is valid on the grid")
    } else {
        ChurnTimeline::none()
    };
    Setup { scenario, timeline }
}

/// Shortest-path coordination that counts the events streamed to it.
struct Counting {
    sp: ShortestPath,
    events: u64,
}

impl Coordinator for Counting {
    fn decide(&mut self, sim: &Simulation, dp: &DecisionPoint) -> dosco_simnet::Action {
        self.sp.decide(sim, dp)
    }

    fn observe(&mut self, sim: &Simulation, events: &[SimEvent]) {
        self.events += events.len() as u64;
        self.sp.observe(sim, events);
    }
}

/// One finished episode.
struct Episode {
    metrics: Metrics,
    wall: Duration,
    events: u64,
    live: usize,
    peak_live: usize,
    sp_recomputes: u64,
}

impl Episode {
    /// Events streamed to the coordinator per wall second.
    fn rate(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64()
    }
}

fn episode(sim: &Simulation, wall: Duration, events: u64) -> Episode {
    Episode {
        metrics: sim.metrics().clone(),
        wall,
        events,
        live: sim.live_flows(),
        peak_live: sim.peak_live_flows(),
        sp_recomputes: sim.churn_stats().map_or(0, |c| c.sp_recomputes),
    }
}

/// `Simulation::run` from construction to horizon, untraced.
fn untraced(s: &Setup, seed: u64) -> Episode {
    let t = Instant::now();
    let mut sim = Simulation::with_churn(s.scenario.clone(), seed, s.timeline.clone());
    let mut coord = Counting {
        sp: ShortestPath::new(),
        events: 0,
    };
    sim.run(&mut coord);
    let wall = t.elapsed();
    episode(&sim, wall, coord.events)
}

/// Exclusive times of one externally driven episode.
#[derive(Default)]
struct Layers {
    dispatch: Duration,
    churn_epoch: Duration,
    churn_epochs: u64,
    decide: Duration,
    apply: Duration,
}

/// The same episode driven call by call, mirroring `Simulation::run`.
fn traced(s: &Setup, seed: u64, layers: &mut Layers) -> Episode {
    let t = Instant::now();
    let mut sim = Simulation::with_churn(s.scenario.clone(), seed, s.timeline.clone());
    let mut coord = Counting {
        sp: ShortestPath::new(),
        events: 0,
    };
    let mut events = Vec::new();
    loop {
        sim.drain_events_into(&mut events);
        if !events.is_empty() {
            coord.observe(&sim, &events);
        }
        let version = sim.topo_version();
        let t0 = Instant::now();
        let dp = sim.next_decision();
        let t1 = Instant::now();
        if sim.topo_version() == version {
            layers.dispatch += t1 - t0;
        } else {
            layers.churn_epoch += t1 - t0;
            layers.churn_epochs += 1;
        }
        let Some(dp) = dp else {
            break;
        };
        let action = coord.decide(&sim, &dp);
        let t2 = Instant::now();
        sim.apply(action);
        layers.decide += t2 - t1;
        layers.apply += t2.elapsed();
    }
    sim.drain_events_into(&mut events);
    if !events.is_empty() {
        coord.observe(&sim, &events);
    }
    let wall = t.elapsed();
    episode(&sim, wall, coord.events)
}

/// Conservation at the horizon (every arrival completed, dropped, or
/// still live), zero drops on the static substrate, and equality with
/// the `reference` episode's metrics.
fn check(report: &mut Report, e: &Episode, reference: &Metrics, churn: bool, what: &str) {
    let m = &e.metrics;
    let conserved = m.arrived == m.completed + m.dropped_total() + e.live as u64;
    let drops_ok = churn || m.dropped_total() == 0;
    report
        .checks
        .op(conserved && drops_ok && m == reference, || {
            format!(
                "{what}: conserved {conserved} (arrived {}, completed {}, dropped {}, live {}), \
             static drops ok {drops_ok}, metrics equal reference {}",
                m.arrived,
                m.completed,
                m.dropped_total(),
                e.live,
                m == reference
            )
        });
}

/// Median wall time of one `compute_masked` call on the grid with one
/// node and two links down — the refresh a routing-affecting churn epoch
/// pays.
fn compute_masked_us(s: &Setup) -> f64 {
    let topo = &s.scenario.topology;
    let mut node_up = vec![true; topo.num_nodes()];
    let mut link_up = vec![true; topo.num_links()];
    let delays: Vec<f64> = topo.link_ids().map(|l| topo.link(l).delay).collect();
    node_up[37] = false;
    link_up[5] = false;
    link_up[91] = false;
    let mut us: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(ShortestPaths::compute_masked(
                topo, &node_up, &link_up, &delays,
            ));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut us)
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let seed = opts.seed;
    if !opts.trace {
        let (setup_s, eps) = measure(
            opts.seconds,
            || setup(seed, true, opts.scale),
            |s| untraced(s, seed),
        );
        report.set("setup_s", setup_s);
        let reference = eps[0].metrics.clone();
        for (i, e) in eps.iter().enumerate() {
            check(&mut report, e, &reference, true, &format!("episode {i}"));
        }
        let rates: Vec<f64> = eps.iter().map(Episode::rate).collect();
        report.note(crate::spread_note("throughput_per_s", &rates));
        let rate = crate::throughput(&rates);
        let m = &eps[0].metrics;
        let success = m.completed as f64 / m.arrived as f64;
        report.set("throughput_per_s", rate);
        report.set("success_ratio", success);
        report.note(format!(
            "# sim.events_per_s = {rate:.1} 1/s (first quartile of {} episodes of {} events, {} decisions)",
            eps.len(),
            eps[0].events,
            m.decisions
        ));
        report.note(format!(
            "# success_ratio = {success} (completed {} / arrived {}; dropped {}, live {}; {} SP recomputes)",
            m.completed,
            m.arrived,
            m.dropped_total(),
            eps[0].live,
            eps[0].sp_recomputes
        ));
        return report;
    }

    // Within the budget, alternate an untraced churn episode, a traced
    // one, and static episodes of the same scenario for about as long as
    // the untraced churn episode took: the churn-off control, measured
    // under the same host conditions as the churn-on episodes it is
    // compared with.
    let mut layers = Layers::default();
    let s = setup(seed, true, opts.scale);
    let still = setup(seed, false, opts.scale);
    let mut statics: Vec<Episode> = Vec::new();
    let pairs = repeat_for(opts.seconds, || {
        let plain = untraced(&s, seed);
        let traced = traced(&s, seed, &mut layers);
        let mut spent = Duration::ZERO;
        while spent < plain.wall {
            let e = untraced(&still, seed);
            spent += e.wall;
            statics.push(e);
        }
        (plain, traced)
    });
    let reference = pairs[0].0.metrics.clone();
    for (i, (plain, traced)) in pairs.iter().enumerate() {
        check(
            &mut report,
            plain,
            &reference,
            true,
            &format!("untraced episode {i}"),
        );
        check(
            &mut report,
            traced,
            &reference,
            true,
            &format!("traced episode {i}"),
        );
    }
    let static_reference = statics[0].metrics.clone();
    for (i, e) in statics.iter().enumerate() {
        check(
            &mut report,
            e,
            &static_reference,
            false,
            &format!("static episode {i}"),
        );
    }
    let static_rate = crate::throughput(&statics.iter().map(Episode::rate).collect::<Vec<_>>());
    let churn_rate = crate::throughput(&pairs.iter().map(|p| p.0.rate()).collect::<Vec<_>>());
    report.set("sim.static_events_per_s", static_rate);
    report.set("sim.churn_slowdown", static_rate / churn_rate);
    // Per-episode means, comparable whatever number of episodes fit.
    let n = pairs.len() as f64;
    let untraced_ms = pairs.iter().map(|p| ms(p.0.wall)).sum::<f64>() / n;
    let traced_ms = pairs.iter().map(|p| ms(p.1.wall)).sum::<f64>() / n;
    let table = LayerTable {
        rows: vec![
            ("simnet.dispatch_ms", ms(layers.dispatch) / n),
            ("simnet.churn_epoch_ms", ms(layers.churn_epoch) / n),
            ("baselines.sp.decide_ms", ms(layers.decide) / n),
            ("simnet.apply_ms", ms(layers.apply) / n),
        ],
        wall_ms: traced_ms,
    };
    let first = &pairs[0].1;
    report.set("simnet.churn_epochs", layers.churn_epochs as f64 / n);
    report.set("chaos.sp_recomputes", first.sp_recomputes as f64);
    report.set("simnet.peak_live_flows", first.peak_live as f64);
    report.set("topology.paths.compute_masked_us", compute_masked_us(&s));
    report.set_layers(&table, untraced_ms);
    report.note(format!(
        "# per-episode means over {} traced episodes of {} events",
        pairs.len(),
        first.events
    ));
    report.note(format!(
        "# churn off: {static_rate:.1} events/s over {} static episodes of {} events; \
         churn on: {churn_rate:.1} events/s; slowdown {:.2}x",
        statics.len(),
        statics[0].events,
        static_rate / churn_rate
    ));
    report
}
