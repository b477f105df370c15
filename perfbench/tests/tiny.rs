//! A tiny-size run of every workload, untraced and traced: every named
//! metric is emitted with its unit, every correctness check passes, and
//! the metric lists agree with `BENCHMARK.json`.

use dosco_perfbench::{run, Opts, Scale, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        Value::UInt(u) => *u as f64,
        Value::Int(i) => *i as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc: Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");
    field(&doc, list)
        .as_array()
        .expect("metric list is an array")
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_emitted_metrics() {
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("readable")).expect("parses");
    let names: Vec<&str> = field(&doc, "workloads")
        .as_array()
        .expect("workloads array")
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    assert_eq!(names, WORKLOADS);
}

/// The layer rows each workload's traced run must fill in.
fn own_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "train-acktr-abilene" => &[
            "rl.rollout.collect_self_ms",
            "core.gymenv.step_ms",
            "rl.acktr.update_self_ms",
            "nn.kfac.stats_ms",
            "nn.kfac.inversion_ms",
            "nn.kfac.inversions",
            "nn.gemm.calls_per_update",
            "core.eval.checkpoint_ms",
        ],
        "serve-fabric-abilene" => &[
            "serve.shard.batch_forward_ms",
            "serve.shard.batches",
            "serve.batch_rows_mean",
            "serve.epoch_p50_us",
            "serve.epoch_p99_us",
            "core.observe.encode_ms",
            "core.policy.act_ms",
            "simnet.dispatch_us_per_decision",
            "core.observe.encode_us_per_decision",
            "core.policy.act_us_p50",
            "core.policy.loop_decisions_per_s",
            "simnet.dispatch_ms",
            "simnet.apply_ms",
        ],
        "sim-grid-churn" => &[
            "simnet.dispatch_ms",
            "simnet.churn_epoch_ms",
            "simnet.churn_epochs",
            "baselines.sp.decide_ms",
            "simnet.apply_ms",
            "chaos.sp_recomputes",
            "topology.paths.compute_masked_us",
            "simnet.peak_live_flows",
            "sim.static_events_per_s",
            "sim.churn_slowdown",
        ],
        other => panic!("unknown workload {other}"),
    }
}

fn tiny(workload: &str, trace: bool) {
    let opts = Opts {
        seed: 7,
        seconds: 0.01,
        trace,
        scale: Scale::Tiny,
    };
    let report = run(workload, &opts).expect("known workload");
    assert!(
        report.correct(),
        "{workload} (trace {trace}) failed checks: {:?}",
        report.checks.failures
    );
    let line = report.result_line(trace);
    let doc: Value = serde_json::from_str(&line).expect("result line is JSON");
    assert_eq!(field(&doc, "correct"), &Value::Bool(true));
    assert!(number(field(&doc, "attempted")) >= 1.0);
    assert_eq!(number(field(&doc, "failed")), 0.0);
    let metrics = field(&doc, "metrics").as_object().expect("metrics object");
    let expected = if trace {
        owned(&PER_LAYER)
    } else {
        owned(&END_TO_END)
    };
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(k, m)| (k.clone(), text(field(m, "unit")).to_string()))
        .collect();
    assert_eq!(emitted, expected, "{workload}: metric names/units");
    let value = |name: &str| number(field(field(field(&doc, "metrics"), name), "value"));
    let required: Vec<&str> = if trace {
        let mut own = own_layers(workload).to_vec();
        own.extend(["layers.traced_wall_ms", "layers.untraced_wall_ms"]);
        own
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    for name in required {
        // A tiny training run is too short to complete any flow, so only
        // the quality metric may read 0 here.
        let floor_ok = if name == "success_ratio" {
            (0.0..=1.0).contains(&value(name))
        } else {
            value(name) > 0.0
        };
        assert!(
            report.values.contains_key(name) && floor_ok,
            "{workload}: {name} not measured (reads {})",
            value(name)
        );
    }
}

#[test]
fn train_tiny() {
    tiny("train-acktr-abilene", false);
    tiny("train-acktr-abilene", true);
}

#[test]
fn serve_tiny() {
    tiny("serve-fabric-abilene", false);
    tiny("serve-fabric-abilene", true);
}

#[test]
fn sim_churn_tiny() {
    tiny("sim-grid-churn", false);
    tiny("sim-grid-churn", true);
}

#[test]
fn unknown_workload_is_an_error() {
    let opts = Opts {
        seed: 0,
        seconds: 0.01,
        trace: false,
        scale: Scale::Tiny,
    };
    assert!(run("no-such-workload", &opts).is_err());
}
