//! Bit-identity regression goldens for the simulation core.
//!
//! The goldens in `tests/goldens/simcore.json` were captured from the
//! pre-refactor (HashMap + `BinaryHeap`) core on the fig6/fig7 scenario
//! family, under both greedy (GCASP, SP) and stochastic (random policy)
//! coordinators. The slab/indexed-queue core must reproduce them exactly:
//! the same seed must yield the exact same [`Metrics`] and the identical
//! `SimEvent` stream, event for event, byte for byte.
//!
//! Regenerate (only when a behavior change is *intended* and documented):
//!
//! ```text
//! DOSCO_CAPTURE_GOLDENS=1 cargo test --test simcore_goldens
//! ```

use dosco::baselines::{Gcasp, ShortestPath};
use dosco::core::policy::fnv1a64;
use dosco::simnet::coordinator::RandomCoordinator;
use dosco::simnet::{Coordinator, Metrics, ScenarioConfig, SimEvent, Simulation};
use dosco::traffic::ArrivalPattern;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

#[derive(Debug, Serialize, Deserialize, PartialEq)]
struct GoldenCase {
    /// Scenario + coordinator label.
    name: String,
    /// Simulation seed.
    seed: u64,
    /// Total `SimEvent`s emitted over the episode.
    events: u64,
    /// FNV-1a over the concatenated JSON serialization of every event,
    /// in emission order (newline-separated).
    event_hash: String,
    /// Exact final metrics.
    metrics: Metrics,
}

#[derive(Debug, Serialize, Deserialize, PartialEq)]
struct Goldens {
    version: u32,
    cases: Vec<GoldenCase>,
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/simcore.json")
}

/// Runs one episode step-wise, hashing the full event stream as it is
/// drained (the streaming path the refactor must keep byte-compatible).
fn run_case(name: &str, cfg: ScenarioConfig, seed: u64, c: &mut dyn Coordinator) -> GoldenCase {
    let mut sim = Simulation::new(cfg, seed);
    let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    let mut count = 0u64;
    let absorb = |events: &[SimEvent], hash: &mut u64, count: &mut u64| {
        for ev in events {
            let line = serde_json::to_string(ev).expect("event serializes");
            *hash = fnv_step(*hash, line.as_bytes());
            *hash = fnv_step(*hash, b"\n");
            *count += 1;
        }
    };
    loop {
        let events = sim.drain_events();
        absorb(&events, &mut hash, &mut count);
        let Some(dp) = sim.next_decision() else {
            break;
        };
        let a = c.decide(&sim, &dp);
        sim.apply(a);
    }
    let events = sim.drain_events();
    absorb(&events, &mut hash, &mut count);
    GoldenCase {
        name: name.to_string(),
        seed,
        events: count,
        event_hash: format!("{:016x}", hash),
        metrics: sim.metrics().clone(),
    }
}

/// Continues an FNV-1a hash over `bytes` (same constants as
/// [`fnv1a64`], but resumable so the stream never has to be collected).
fn fnv_step(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn capture() -> Goldens {
    let mut cases = Vec::new();
    // Fig. 6 family: success ratio over ingress counts, fixed + Poisson
    // arrivals. Greedy (GCASP) and stochastic (random) coordination.
    for &ingress in &[1usize, 3, 5] {
        for (pat_name, pattern) in [
            ("fixed", ArrivalPattern::paper_fixed()),
            ("poisson", ArrivalPattern::paper_poisson()),
        ] {
            let cfg = ScenarioConfig::paper_base(ingress)
                .with_pattern(pattern)
                .with_horizon(2_000.0);
            cases.push(run_case(
                &format!("fig6-{pat_name}-i{ingress}-gcasp"),
                cfg.clone(),
                40 + ingress as u64,
                &mut Gcasp::new(),
            ));
            cases.push(run_case(
                &format!("fig6-{pat_name}-i{ingress}-random"),
                cfg,
                40 + ingress as u64,
                &mut RandomCoordinator::new(7 + ingress as u64),
            ));
        }
    }
    // DOSCO_TRACE byte-identity: one traced episode, hashing the JSONL
    // recorder's output bytes (the requirement is byte-identical trace
    // output across the storage/scheduling refactor).
    {
        let cfg = ScenarioConfig::paper_base(3)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_horizon(2_000.0);
        let recorder =
            std::sync::Arc::new(dosco::obs::JsonlRecorder::new("/tmp/unused-golden.jsonl"));
        dosco::obs::install_recorder(recorder.clone());
        let mut case = run_case("trace-poisson-i3-gcasp", cfg, 60, &mut Gcasp::new());
        dosco::obs::uninstall_recorder();
        let bytes = recorder.render();
        case.event_hash = format!("{:016x}", fnv1a64(bytes.as_bytes()));
        case.events = bytes.len() as u64; // trace case: byte count, not events
        cases.push(case);
    }
    // Fig. 7 family: tight vs paper-default deadlines, SP + GCASP.
    for &deadline in &[30.0f64, 100.0] {
        let cfg = ScenarioConfig::paper_base(3)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_deadline(deadline)
            .with_horizon(2_000.0);
        cases.push(run_case(
            &format!("fig7-d{deadline}-sp"),
            cfg.clone(),
            90,
            &mut ShortestPath::new(),
        ));
        cases.push(run_case(
            &format!("fig7-d{deadline}-gcasp"),
            cfg,
            90,
            &mut Gcasp::new(),
        ));
    }
    Goldens { version: 1, cases }
}

/// `fnv1a64` (the one-shot helper) and the resumable [`fnv_step`] agree,
/// so the golden hashes are reproducible from a collected stream too.
#[test]
fn fnv_step_matches_one_shot() {
    let data = b"dosco simcore goldens";
    assert_eq!(fnv_step(0xcbf2_9ce4_8422_2325, data), fnv1a64(data));
}

#[test]
fn simcore_matches_pre_refactor_goldens() {
    let path = golden_path();
    let fresh = capture();
    if std::env::var("DOSCO_CAPTURE_GOLDENS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir goldens");
        let json = serde_json::to_string_pretty(&fresh).expect("serialize goldens");
        std::fs::write(&path, json).expect("write goldens");
        eprintln!("captured {} golden cases to {}", fresh.cases.len(), path.display());
        return;
    }
    let json = std::fs::read_to_string(&path)
        .expect("goldens missing: run with DOSCO_CAPTURE_GOLDENS=1 first");
    let pinned: Goldens = serde_json::from_str(&json).expect("parse goldens");
    assert_eq!(pinned.version, 1);
    assert_eq!(pinned.cases.len(), fresh.cases.len(), "case set changed");
    for (p, f) in pinned.cases.iter().zip(&fresh.cases) {
        assert_eq!(p.name, f.name, "case order changed");
        assert_eq!(p.metrics, f.metrics, "{}: Metrics diverged", p.name);
        assert_eq!(
            p.events, f.events,
            "{}: event count diverged",
            p.name
        );
        assert_eq!(
            p.event_hash, f.event_hash,
            "{}: SimEvent stream diverged",
            p.name
        );
    }
}
