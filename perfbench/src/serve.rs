//! `serve-fabric-abilene`: batched inference through the serving fabric.
//!
//! A closed loop of 8 clients: 8 concurrent greedy episodes of the
//! Abilene base scenario (2 ingresses, Poisson traffic, episode seeds
//! from the workload seed) served by `dosco_serve::serve_with` on 1
//! shard, with a fixed random policy of the paper's architecture. Every
//! live episode waits for its decision each epoch.
//!
//! The traced run serves once more with the crates' spans armed (the
//! shard's batched forward) and replays the same episodes one decision
//! at a time (`next_decision` → `ObservationAdapter::observe` →
//! `CoordinationPolicy::act` → `apply`), timing each call; the fabric's
//! own dispatch/encode/apply share is taken from that replay.

use crate::{measure, median, ms, quantile, repeat_for, LayerTable, Opts, Report, Scale};
use dosco_core::eval::evaluate;
use dosco_core::policy::PolicyMetadata;
use dosco_core::CoordinationPolicy;
use dosco_nn::mlp::{Activation, Mlp};
use dosco_obs::registry::span_snapshot;
use dosco_obs::SpanKind;
use dosco_serve::{serve_with, ServeConfig, ServeOutcome};
use dosco_simnet::{Action, Metrics, ScenarioConfig, Simulation};
use dosco_traffic::ArrivalPattern;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Concurrent episodes (closed-loop clients).
const EPISODES: u64 = 8;

/// Seed of the served policy's random weights: the model is fixed, the
/// workload seed only varies the traffic.
const POLICY_SEED: u64 = 0x5E_4E;

struct Setup {
    scenario: ScenarioConfig,
    policy: CoordinationPolicy,
    seeds: Vec<u64>,
    cfg: ServeConfig,
}

fn setup(seed: u64, scale: Scale) -> Setup {
    let horizon = match scale {
        Scale::Full => 4_000.0,
        Scale::Tiny => 300.0,
    };
    let scenario = ScenarioConfig::paper_base(2)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(horizon);
    scenario.validate().expect("serve scenario is valid");
    let degree = scenario.topology.network_degree();
    let mut rng = rand::rngs::StdRng::seed_from_u64(POLICY_SEED);
    let actor = Mlp::new(
        &[4 * degree + 4, 256, 256, degree + 1],
        Activation::Tanh,
        &mut rng,
    );
    let policy = CoordinationPolicy::new(actor, degree, PolicyMetadata::default());
    let seeds = (0..EPISODES)
        .map(|i| seed.wrapping_mul(1_000).wrapping_add(i))
        .collect();
    let cfg = ServeConfig::new(1);
    cfg.validate().expect("serve config is valid");
    Setup {
        scenario,
        policy,
        seeds,
        cfg,
    }
}

/// One fabric round: outcome, wall time, and the median and 99th
/// percentile of the gaps between epochs (kept as two numbers so memory
/// does not grow with the number of rounds).
struct Round {
    outcome: ServeOutcome,
    wall: Duration,
    epoch_p50_us: f64,
    epoch_p99_us: f64,
    epoch_gaps: usize,
}

fn round(s: &Setup) -> Round {
    let mut marks: Vec<Instant> = Vec::with_capacity(1 << 14);
    let t = Instant::now();
    let outcome = serve_with(&s.policy, None, &s.scenario, &s.seeds, &s.cfg, |_| {
        marks.push(Instant::now());
    });
    let wall = t.elapsed();
    let mut gaps: Vec<f64> = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e6)
        .collect();
    Round {
        outcome,
        wall,
        epoch_p50_us: quantile(&mut gaps, 0.5),
        epoch_p99_us: quantile(&mut gaps, 0.99),
        epoch_gaps: gaps.len(),
    }
}

/// Checks one round: every decision accounted for, none fell back to
/// shortest-path, and the metrics equal the `expected` episodes'.
fn check_round(report: &mut Report, r: &Round, expected: &[Metrics], against: &str) {
    let rep = &r.outcome.report;
    for (e, m) in r.outcome.metrics.iter().enumerate() {
        let ok = rep.conserved() && rep.fallback_decisions == 0 && expected.get(e) == Some(m);
        report.checks.op(ok, || {
            format!(
                "episode {e}: conserved {}, fallbacks {}, metrics equal {against}: {}",
                rep.conserved(),
                rep.fallback_decisions,
                expected.get(e) == Some(m)
            )
        });
    }
}

fn mean_success(metrics: &[Metrics]) -> f64 {
    metrics.iter().map(Metrics::success_ratio).sum::<f64>() / metrics.len() as f64
}

/// The per-decision replay of every episode, timed call by call.
#[derive(Default)]
struct Replay {
    metrics: Vec<Metrics>,
    wall: Duration,
    dispatch: Duration,
    observe: Duration,
    act: Duration,
    apply: Duration,
    act_us: Vec<f64>,
    decisions: u64,
}

/// Time between two marks of a timed replay (zero when untimed).
fn lap(from: Option<Instant>, to: Option<Instant>) -> Duration {
    match (from, to) {
        (Some(a), Some(b)) => b - a,
        _ => Duration::ZERO,
    }
}

/// Replays every episode one decision at a time; `timed` marks each call.
fn replay(s: &Setup, timed: bool) -> Replay {
    let adapter = s.policy.adapter();
    let mark = || timed.then(Instant::now);
    let mut r = Replay::default();
    let mut events = Vec::new();
    let start = Instant::now();
    for &seed in &s.seeds {
        let mut sim = Simulation::new(s.scenario.clone(), seed);
        loop {
            sim.drain_events_into(&mut events);
            let t0 = mark();
            let Some(dp) = sim.next_decision() else {
                r.dispatch += lap(t0, mark());
                break;
            };
            let t1 = mark();
            let obs = adapter.observe(&sim, &dp);
            let t2 = mark();
            let a = s.policy.act(&obs);
            let t3 = mark();
            sim.apply(Action::from_index(a));
            let t4 = mark();
            r.dispatch += lap(t0, t1);
            r.observe += lap(t1, t2);
            r.act += lap(t2, t3);
            r.apply += lap(t3, t4);
            if timed {
                r.act_us.push(lap(t2, t3).as_secs_f64() * 1e6);
            }
            r.decisions += 1;
        }
        r.metrics.push(sim.metrics().clone());
    }
    r.wall = start.elapsed();
    r
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let s = setup(opts.seed, opts.scale);
    // The per-decision deployment: every served episode must match it.
    let reference: Vec<Metrics> = s
        .seeds
        .iter()
        .map(|&seed| evaluate(&s.policy, &s.scenario, seed))
        .collect();
    if !opts.trace {
        let (setup_s, rounds) = measure(opts.seconds, || setup(opts.seed, opts.scale), round);
        report.set("setup_s", setup_s);
        for r in &rounds {
            check_round(&mut report, r, &reference, "per-decision evaluate");
        }
        let rates: Vec<f64> = rounds
            .iter()
            .map(|r| r.outcome.report.decisions as f64 / r.wall.as_secs_f64())
            .collect();
        let mut p50: Vec<f64> = rounds.iter().map(|r| r.epoch_p50_us).collect();
        let mut p99: Vec<f64> = rounds.iter().map(|r| r.epoch_p99_us).collect();
        report.note(crate::spread_note("throughput_per_s", &rates));
        let rate = crate::throughput(&rates);
        let success = mean_success(&rounds[0].outcome.metrics);
        report.set("throughput_per_s", rate);
        report.set("success_ratio", success);
        let rep = &rounds[0].outcome.report;
        report.note(format!(
            "# serve.decisions_per_s = {rate:.1} 1/s (first quartile of {} rounds of {} decisions)",
            rounds.len(),
            rep.decisions
        ));
        report.note(format!(
            "# serve.epoch_p50_us = {:.3} us, serve.epoch_p99_us = {:.3} us (medians over rounds of {} epoch gaps each)",
            median(&mut p50),
            median(&mut p99),
            rounds[0].epoch_gaps
        ));
        report.note(format!(
            "# serve.fallback_ratio = {} ({} of {} decisions)",
            rep.fallback_decisions as f64 / rep.decisions as f64,
            rep.fallback_decisions,
            rep.decisions
        ));
        report.note(format!(
            "# success_ratio = {success} (mean over {EPISODES} episodes)"
        ));
        return report;
    }

    // Within the budget, alternate: an untraced round (epoch latencies,
    // untraced wall), the untimed per-decision replay (the unbatched
    // baseline), a round with the batched-forward span armed, and the
    // timed replay.
    dosco_obs::reset();
    let passes = repeat_for(opts.seconds, || {
        let plain = round(&s);
        let untimed = replay(&s, false);
        dosco_obs::set_spans_enabled(true);
        let traced = round(&s);
        dosco_obs::set_spans_enabled(false);
        let timed = replay(&s, true);
        (plain, untimed, traced, timed)
    });
    let (batches, forward_ns, _) = span_snapshot(SpanKind::ServeBatchForward);
    let (mut plain_wall, mut untimed_wall, mut traced_wall) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut untimed_decisions, mut batched) = (0u64, 0u64);
    let mut r = Replay::default();
    let (mut p50, mut p99, mut act_us) = (Vec::new(), Vec::new(), Vec::new());
    // Table rows are per-pass means, comparable whatever number of passes
    // fit in the budget.
    let n = passes.len() as f64;
    for (plain, untimed, traced, timed) in passes {
        check_round(&mut report, &plain, &reference, "per-decision evaluate");
        check_round(&mut report, &traced, &reference, "per-decision evaluate");
        for (what, rp) in [("untimed", &untimed), ("timed", &timed)] {
            report.checks.op(rp.metrics == reference, || {
                format!("{what} per-decision replay metrics differ from evaluate")
            });
        }
        plain_wall += plain.wall;
        untimed_wall += untimed.wall;
        untimed_decisions += untimed.decisions;
        traced_wall += traced.wall;
        batched += traced.outcome.report.batched_decisions;
        p50.push(plain.epoch_p50_us);
        p99.push(plain.epoch_p99_us);
        act_us.extend(timed.act_us);
        r.wall += timed.wall;
        r.dispatch += timed.dispatch;
        r.observe += timed.observe;
        r.act += timed.act;
        r.apply += timed.apply;
        r.decisions += timed.decisions;
    }

    let decisions = r.decisions as f64;
    let forward = forward_ns as f64 / 1e6;
    // The fabric runs the same dispatch/encode/apply work as the replay;
    // what remains of its wall clock is routing and transport.
    let fabric_sim = ms(r.dispatch + r.observe + r.apply);
    let table = LayerTable {
        rows: vec![
            ("serve.shard.batch_forward_ms", forward / n),
            (
                "serve.frontend_other_ms",
                (ms(traced_wall) - forward - fabric_sim) / n,
            ),
            ("simnet.dispatch_ms", 2.0 * ms(r.dispatch) / n),
            ("core.observe.encode_ms", 2.0 * ms(r.observe) / n),
            ("simnet.apply_ms", 2.0 * ms(r.apply) / n),
            ("core.policy.act_ms", ms(r.act) / n),
        ],
        wall_ms: ms(traced_wall + r.wall) / n,
    };
    report.set("serve.shard.batches", batches as f64 / n);
    report.set(
        "serve.batch_rows_mean",
        batched as f64 / batches.max(1) as f64,
    );
    report.set("serve.epoch_p50_us", median(&mut p50));
    report.set("serve.epoch_p99_us", median(&mut p99));
    report.set(
        "simnet.dispatch_us_per_decision",
        r.dispatch.as_secs_f64() * 1e6 / decisions,
    );
    report.set(
        "core.observe.encode_us_per_decision",
        r.observe.as_secs_f64() * 1e6 / decisions,
    );
    report.set("core.policy.act_us_p50", quantile(&mut act_us, 0.5));
    report.set(
        "core.policy.loop_decisions_per_s",
        untimed_decisions as f64 / untimed_wall.as_secs_f64(),
    );
    report.set_layers(&table, ms(plain_wall + untimed_wall) / n);
    report.note(format!(
        "# per-pass means over {n} passes; {batched} batched decisions in {batches} batches; \
         traced fabric {:.3} ms vs untraced {:.3} ms",
        ms(traced_wall),
        ms(plain_wall)
    ));
    report
}
