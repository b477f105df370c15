//! `train-acktr-abilene`: the paper's centralized ACKTR training.
//!
//! Untraced runs time `dosco_core::train::train_distributed` with the
//! paper configuration (ACKTR, 256×256, 4 envs, 8 checkpoints with 3
//! greedy evaluations each) and one training seed, [`TRAIN_SEED`].
//! The traced run replays the same training through public calls — per
//! checkpoint `set_lr`, then `take_rng` → `RolloutCollector::collect` →
//! `Acktr::update_batch` → `restore_rng` on a fresh collector, then three
//! `evaluate_with_capacity_draw` — with every env wrapped to time
//! `Env::step`/`reset`, and must end on the untraced run's exact weights.

use crate::{measure, ms, union_len, LayerTable, Opts, Report, Scale};
use dosco_core::eval::evaluate_with_capacity_draw;
use dosco_core::policy::{fnv1a64, PolicyMetadata};
use dosco_core::{train_distributed, CoordEnv, CoordinationPolicy, TrainConfig};
use dosco_nn::mlp::Mlp;
use dosco_obs::registry::span_snapshot;
use dosco_obs::SpanKind;
use dosco_rl::acktr::{Acktr, AcktrConfig};
use dosco_rl::env::{Env, StepResult};
use dosco_rl::rollout::RolloutCollector;
use dosco_simnet::ScenarioConfig;
use dosco_traffic::ArrivalPattern;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The training seed. It is fixed rather than taken from the workload
/// seed: at this step budget the selected checkpoint's success ratio
/// ranges from 0 to 0.48 across training seeds, and the checkpoint
/// evaluations' cost with it, so a seed-varied run could hold no bound
/// on either. Every workload seed therefore trains the same run.
pub const TRAIN_SEED: u64 = 0;

/// The Abilene base scenario with 2 ingresses and Poisson traffic (the
/// `dosco train` defaults).
fn scenario(scale: Scale) -> ScenarioConfig {
    let horizon = match scale {
        Scale::Full => 5_000.0,
        Scale::Tiny => 300.0,
    };
    ScenarioConfig::paper_base(2)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(horizon)
}

/// `TrainConfig::default()` with one training seed and the benchmark's
/// step budget.
fn config(seed: u64, scale: Scale) -> TrainConfig {
    let base = TrainConfig::default();
    match scale {
        Scale::Full => TrainConfig {
            total_steps: 8_192,
            seeds: vec![seed],
            ..base
        },
        Scale::Tiny => TrainConfig {
            total_steps: 256,
            seeds: vec![seed],
            checkpoints: 2,
            eval_horizon: 200.0,
            acktr: AcktrConfig {
                hidden: [32, 32],
                ..base.acktr
            },
            ..base
        },
    }
}

/// Env steps one `train_distributed` seed performs: every checkpoint
/// chunk runs whole updates of `n_steps × n_envs` transitions.
fn env_steps(cfg: &TrainConfig) -> usize {
    let checkpoints = cfg.checkpoints.max(1);
    let chunk = (cfg.total_steps / checkpoints).max(1);
    let per_update = cfg.acktr.n_steps * cfg.n_envs;
    checkpoints * chunk.div_ceil(per_update) * per_update
}

/// Digest of a network's parameters (bit-exact weight identity).
fn weights_fnv(actor: &Mlp) -> u64 {
    let bytes: Vec<u8> = actor
        .flat_params()
        .iter()
        .flat_map(|p| p.to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

fn finite(actor: &Mlp) -> bool {
    actor.flat_params().iter().all(|p| p.is_finite())
}

/// Wall intervals of one env's `step`/`reset` calls.
type SpanLog = Arc<Mutex<Vec<(Instant, Instant)>>>;

/// An env that records the wall interval of every `step`/`reset`.
struct TimedEnv {
    inner: CoordEnv,
    spans: SpanLog,
}

impl TimedEnv {
    fn record<T>(&mut self, f: impl FnOnce(&mut CoordEnv) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut self.inner);
        let span = (t, Instant::now());
        self.spans.lock().expect("env span log poisoned").push(span);
        out
    }
}

impl Env for TimedEnv {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn reset(&mut self) -> Vec<f32> {
        self.record(Env::reset)
    }

    fn step(&mut self, action: usize) -> StepResult {
        self.record(|e| e.step(action))
    }
}

/// The training state `train_distributed` builds before its first
/// update: the agent and the timed envs.
struct Prepared {
    agent: Acktr,
    envs: Vec<Box<dyn Env>>,
    spans: Vec<SpanLog>,
}

/// Builds the agent and envs exactly as `train_distributed` does for
/// `seed` (same construction order, seeds and config adjustments).
fn prepare(scenario: &ScenarioConfig, cfg: &TrainConfig, seed: u64) -> Prepared {
    let degree = scenario.topology.network_degree();
    let mut spans = Vec::new();
    let envs = (0..cfg.n_envs)
        .map(|i| {
            let log = Arc::new(Mutex::new(Vec::new()));
            spans.push(Arc::clone(&log));
            let inner = CoordEnv::new(
                scenario.clone(),
                cfg.reward,
                seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
                None,
            );
            Box::new(TimedEnv { inner, spans: log }) as Box<dyn Env>
        })
        .collect();
    let acktr = AcktrConfig {
        lr_decay: false,
        ..cfg.acktr
    };
    let agent = Acktr::new(4 * degree + 4, degree + 1, acktr, seed);
    Prepared { agent, envs, spans }
}

/// Result of one replayed training.
struct Replay {
    table: LayerTable,
    score: f32,
    fnv: u64,
    finite: bool,
    inversions: u64,
    gemm_per_update: f64,
}

/// `train_distributed` for one seed, rebuilt from public calls and timed
/// call by call.
fn replay(scenario: &ScenarioConfig, cfg: &TrainConfig, seed: u64) -> Replay {
    dosco_obs::reset();
    dosco_obs::set_spans_enabled(true);
    let start = Instant::now();

    let Prepared {
        mut agent,
        mut envs,
        spans,
    } = prepare(scenario, cfg, seed);
    let degree = scenario.topology.network_degree();
    let eval_scenario = scenario.clone().with_horizon(cfg.eval_horizon);
    let checkpoints = cfg.checkpoints.max(1);
    let chunk = (cfg.total_steps / checkpoints).max(1);
    let a = cfg.acktr;
    let updates_per_chunk = chunk.div_ceil(a.n_steps * envs.len());

    let (mut collect_ns, mut update_ns, mut eval_ns) = (0u128, 0u128, 0u128);
    let mut gemm_in_updates = 0u64;
    let mut updates = 0u64;
    let mut best: Option<(f32, CoordinationPolicy)> = None;
    for ck in 0..checkpoints {
        let frac = ck as f32 / checkpoints as f32;
        agent.set_lr(a.lr * (1.0 - 0.9 * frac));
        let t = Instant::now();
        let mut collector = RolloutCollector::new(&mut envs);
        collect_ns += t.elapsed().as_nanos();
        for _ in 0..updates_per_chunk {
            let mut rng = agent.take_rng();
            let t = Instant::now();
            let mut rollout = collector.collect(
                &mut envs,
                agent.actor(),
                agent.critic(),
                a.n_steps,
                a.gamma,
                a.gae_lambda,
                &mut rng,
            );
            collect_ns += t.elapsed().as_nanos();
            let gemm_before = span_snapshot(SpanKind::Gemm).0;
            let t = Instant::now();
            agent.update_batch(&mut rollout, &mut rng);
            update_ns += t.elapsed().as_nanos();
            gemm_in_updates += span_snapshot(SpanKind::Gemm).0 - gemm_before;
            updates += 1;
            agent.restore_rng(rng);
        }
        let policy =
            CoordinationPolicy::new(agent.actor().clone(), degree, PolicyMetadata::default());
        let t = Instant::now();
        let score = (0..3)
            .map(|i| {
                evaluate_with_capacity_draw(&policy, &eval_scenario, cfg.eval_seed + i)
                    .success_ratio() as f32
            })
            .sum::<f32>()
            / 3.0;
        eval_ns += t.elapsed().as_nanos();
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, policy));
        }
    }
    let wall = start.elapsed();
    dosco_obs::set_spans_enabled(false);

    let step = union_len(
        spans
            .iter()
            .flat_map(|s| s.lock().expect("env span log poisoned").clone())
            .collect(),
    );
    let (inversions, inversion_ns, _) = span_snapshot(SpanKind::KfacInversion);
    let (_, stats_ns, _) = span_snapshot(SpanKind::KfacStats);
    let ns_ms = |ns: u128| ns as f64 / 1e6;
    let table = LayerTable {
        rows: vec![
            ("rl.rollout.collect_self_ms", ns_ms(collect_ns) - ms(step)),
            ("core.gymenv.step_ms", ms(step)),
            (
                "rl.acktr.update_self_ms",
                ns_ms(update_ns) - ns_ms(u128::from(stats_ns + inversion_ns)),
            ),
            ("nn.kfac.stats_ms", ns_ms(u128::from(stats_ns))),
            ("nn.kfac.inversion_ms", ns_ms(u128::from(inversion_ns))),
            ("core.eval.checkpoint_ms", ns_ms(eval_ns)),
        ],
        wall_ms: ms(wall),
    };
    let (score, policy) = best.expect("at least one checkpoint");
    Replay {
        table,
        score,
        fnv: weights_fnv(policy.actor()),
        finite: finite(policy.actor()),
        inversions,
        gemm_per_update: gemm_in_updates as f64 / updates.max(1) as f64,
    }
}

/// One untraced `train_distributed`: wall seconds, selected score, and
/// the selected policy's weight digest and finiteness.
fn untraced(scenario: &ScenarioConfig, cfg: &TrainConfig) -> (f64, f32, u64, bool) {
    let t = Instant::now();
    let trained = train_distributed(scenario, cfg);
    let secs = t.elapsed().as_secs_f64();
    let actor = trained.policy.actor();
    (
        secs,
        trained.seed_scores[0].1,
        weights_fnv(actor),
        finite(actor),
    )
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let seed = TRAIN_SEED;
    let setup = || {
        let scenario = scenario(opts.scale);
        scenario.validate().expect("training scenario is valid");
        let cfg = config(seed, opts.scale);
        // The state the first update starts from, as train_distributed
        // builds it.
        let mut state = prepare(&scenario, &cfg, seed);
        let _ = RolloutCollector::new(&mut state.envs);
        (scenario, cfg)
    };

    if !opts.trace {
        let (setup_s, reps) = measure(opts.seconds, setup, |(scenario, cfg)| {
            untraced(scenario, cfg)
        });
        report.set("setup_s", setup_s);
        let steps = env_steps(&config(seed, opts.scale));
        let (_, score0, fnv0, _) = reps[0];
        for &(_, score, fnv, fin) in &reps {
            report.checks.op(fin && fnv == fnv0 && score == score0, || {
                format!("training is not deterministic or not finite (fnv {fnv:016x} vs {fnv0:016x}, score {score} vs {score0}, finite {fin})")
            });
        }
        let rates: Vec<f64> = reps.iter().map(|r| steps as f64 / r.0).collect();
        report.note(crate::spread_note("throughput_per_s", &rates));
        let rate = crate::throughput(&rates);
        report.set("throughput_per_s", rate);
        report.set("success_ratio", f64::from(score0));
        report.note(format!(
            "# train.env_steps_per_s = {rate:.3} 1/s (first quartile of {} train_distributed runs of {steps} env steps)",
            reps.len()
        ));
        report.note(format!(
            "# success_ratio = {score0} (selected checkpoint score)"
        ));
        report.note(format!("# weights fnv1a64 = {fnv0:016x}"));
        return report;
    }

    let (scenario, cfg) = setup();
    let (secs, score, fnv, fin) = untraced(&scenario, &cfg);
    let r = replay(&scenario, &cfg, seed);
    report
        .checks
        .op(fin, || "untraced weights are not finite".to_string());
    report.checks.op(r.finite && r.fnv == fnv && r.score == score, || {
        format!(
            "traced replay diverged from train_distributed: fnv {:016x} vs {fnv:016x}, score {} vs {score}",
            r.fnv, r.score
        )
    });
    report.set("nn.kfac.inversions", r.inversions as f64);
    report.set("nn.gemm.calls_per_update", r.gemm_per_update);
    report.set_layers(&r.table, secs * 1e3);
    report.note(format!(
        "# replay weights fnv1a64 {:016x} == train_distributed {fnv:016x}: {}",
        r.fnv,
        r.fnv == fnv
    ));
    report
}
