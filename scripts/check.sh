#!/usr/bin/env bash
# Full local gate: release build, tests, lints, and the benchmark self-test.
# Usage: scripts/check.sh   (run from anywhere; cd's to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== cargo test (actor-learner runtime) =="
cargo test -q -p dosco-runtime

echo "== cargo test (observability layer) =="
cargo test -q -p dosco-obs

echo "== cargo test (nn + serve, DOSCO_SIMD=off: scalar reference kernels) =="
DOSCO_SIMD=off cargo test -q -p dosco-nn -p dosco-serve

echo "== cargo test (nn + serve, DOSCO_SIMD unset: auto SIMD dispatch) =="
cargo test -q -p dosco-nn -p dosco-serve

echo "== cargo test (control plane) =="
cargo test -q -p dosco-ctl

echo "== cargo test (transport layer) =="
cargo test -q -p dosco-net

echo "== net frame codec hardening (proptest round-trip + corruption) =="
cargo test --release -p dosco-net --test frame_props

echo "== runtime loopback-socket equivalence (bit-identical to in-process) =="
cargo test --release -p dosco-runtime --test socket_equivalence

echo "== serve loopback-socket equivalence (local + remote shard planes) =="
cargo test --release -p dosco-serve --test socket_serve

echo "== ctl canary end-to-end (promote/rollback, exact accounting) =="
cargo test --release -p dosco-ctl --test canary_e2e

echo "== ctl ops HTTP surface (live queries, deterministic /metrics) =="
cargo test --release -p dosco-ctl --test ops_http

echo "== serve bit-identity (1 shard == N shards == in-process) =="
cargo test --release -p dosco-serve --test bit_identity

echo "== serve fault injection (SP fallback + hot-swap accounting) =="
cargo test --release -p dosco-serve --test fault_injection

echo "== simcore 100k- and 1M-flow churn smoke (release, bounded time + flat memory) =="
cargo test --release -p dosco-bench --test churn_smoke -- --include-ignored

echo "== obs disabled-path overhead (release, <1% contract) =="
cargo test --release -p dosco-bench --test obs_overhead -- --include-ignored

echo "== obs trace determinism (byte-identical same-seed runs) =="
cargo test -q --test obs_trace

echo "== chaos: no-churn bit-identity (goldens incl. DOSCO_TRACE hash) =="
cargo test -q --test simcore_goldens
cargo test -q -p dosco-simnet --lib empty_timeline_is_identical_to_plain_new
cargo test -q -p dosco-core --lib empty_churn_schedule_is_identical

echo "== chaos: same-seed churn trace byte-identity =="
cargo test -q --test chaos_trace

echo "== chaos: train-under-churn + pinned-fault resilience e2e =="
cargo test -q --test chaos_e2e

echo "== chaos: substrate churn smoke (release, bounded time + conservation) =="
cargo test --release -p dosco-bench --test chaos_smoke -- --include-ignored

echo "== chaos: ctl /metrics churn surface (drop causes + windowed ratio) =="
cargo test --release -p dosco-ctl --test churn_metrics

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (runtime crate, deny missing docs) =="
cargo doc --no-deps -p dosco-runtime

echo "== benchmark self-test (perfbench, tiny scale) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "All checks passed."
