#!/usr/bin/env sh
# CI gates: .github/workflows/ci.yml runs exactly this script; run it
# locally (offline) to reproduce CI.
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check" && cargo fmt --all -- --check
echo "== cargo clippy -D warnings" && cargo clippy --workspace --all-targets -- -D warnings
echo "== cargo build --release" && cargo build --release
echo "== cargo build --release --examples" && cargo build --release --examples
# Hard wall-clock ceiling on the whole suite: a hang (e.g. a partition
# plan that never heals slipping past validation) fails CI instead of
# stalling it. Generous — the suite normally finishes in a fraction.
echo "== cargo test -q (20 min timeout)" && timeout 1200 cargo test -q
echo "== sweep determinism gate"
cargo run --release -p carat-bench --bin exp -- bench --emit --threads 4 --out "${TMPDIR:-/tmp}/sweep_par.json"
cargo run --release -p carat-bench --bin exp -- bench --emit --sequential --out "${TMPDIR:-/tmp}/sweep_seq.json"
cmp "${TMPDIR:-/tmp}/sweep_par.json" "${TMPDIR:-/tmp}/sweep_seq.json"
echo "== sweep determinism gate (acceleration on)"
# Accelerated solves must also be byte-identical across thread counts.
cargo run --release -p carat-bench --bin exp -- bench --emit --accel anderson --threads 4 --out "${TMPDIR:-/tmp}/sweep_acc_par.json"
cargo run --release -p carat-bench --bin exp -- bench --emit --accel anderson --sequential --out "${TMPDIR:-/tmp}/sweep_acc_seq.json"
cmp "${TMPDIR:-/tmp}/sweep_acc_par.json" "${TMPDIR:-/tmp}/sweep_acc_seq.json"
echo "== solver iteration regression gate"
# Plain per-point counts within +10% of the pinned reference; accelerated
# totals at most 70% of the plain total (DESIGN.md §12).
cargo run --release -p carat-bench --bin exp -- bench --check-iters
echo "== sim determinism gate"
cargo run --release -p carat-bench --bin exp -- bench --emit-sim --threads 4 --out "${TMPDIR:-/tmp}/sim_par.json"
cargo run --release -p carat-bench --bin exp -- bench --emit-sim --sequential --out "${TMPDIR:-/tmp}/sim_seq.json"
cmp "${TMPDIR:-/tmp}/sim_par.json" "${TMPDIR:-/tmp}/sim_seq.json"
# Shard determinism: the per-site conservative engine must produce
# byte-identical reports for every worker-thread count (DESIGN.md §14:
# shards is purely a parallelism knob). $1 names the gate and its scratch
# files; the remaining arguments are the `carat-cli sim` flags.
shard_gate() {
  name=$1
  shift
  echo "== $name determinism gate"
  for k in 1 2 4; do
    cargo run --release -p carat-cli -- sim "$@" --shards "$k" > "${TMPDIR:-/tmp}/${name}_$k.txt"
  done
  cmp "${TMPDIR:-/tmp}/${name}_1.txt" "${TMPDIR:-/tmp}/${name}_2.txt"
  cmp "${TMPDIR:-/tmp}/${name}_1.txt" "${TMPDIR:-/tmp}/${name}_4.txt"
}
# Site-separable LB8 (lookahead ∞, no messages).
shard_gate shard --workload lb8 --sites 8 --n 8 --measure-s 60
# Cross-site MB4 (lookahead α, DRO/DU traffic, probe-based deadlock
# detection), including the traffic and deadlock counters.
shard_gate xshard --workload mb4 --sites 8 --n 8 --alpha 5 --probes --measure-s 60
echo "== partition determinism gate"
# The partition experiment (availability counters, catch-up replay, and
# the model-vs-sim divergence gate) must be byte-identical across thread
# counts, like every other sweep.
CARAT_MEASURE_MS=120000 cargo run --release -p carat-bench --bin exp -- partition --threads 4 > "${TMPDIR:-/tmp}/part_par.json"
CARAT_MEASURE_MS=120000 cargo run --release -p carat-bench --bin exp -- partition --sequential > "${TMPDIR:-/tmp}/part_seq.json"
cmp "${TMPDIR:-/tmp}/part_par.json" "${TMPDIR:-/tmp}/part_seq.json"
echo "== trace neutrality gate"
# Tracing must not change a single report byte, and two traced runs of one
# configuration must produce byte-identical trace files (DESIGN.md §10.1).
cargo run --release -p carat-cli -- sim --workload lb8 --n 8 --measure-s 60 > "${TMPDIR:-/tmp}/report_off.txt"
cargo run --release -p carat-cli -- sim --workload lb8 --n 8 --measure-s 60 --trace "${TMPDIR:-/tmp}/trace_a.json" > "${TMPDIR:-/tmp}/report_on.txt"
cmp "${TMPDIR:-/tmp}/report_off.txt" "${TMPDIR:-/tmp}/report_on.txt"
cargo run --release -p carat-cli -- sim --workload lb8 --n 8 --measure-s 60 --trace "${TMPDIR:-/tmp}/trace_b.json" > /dev/null
cmp "${TMPDIR:-/tmp}/trace_a.json" "${TMPDIR:-/tmp}/trace_b.json"
echo "== metrics neutrality gate"
# The metrics recorder must not change a single stdout report byte, and
# the sampled series must be byte-identical for every shard count on the
# coupled cross-site engine (DESIGN.md §15).
cargo run --release -p carat-cli -- sim --workload lb8 --n 8 --measure-s 60 --metrics 10 > "${TMPDIR:-/tmp}/report_metrics_on.txt" 2> /dev/null
cmp "${TMPDIR:-/tmp}/report_off.txt" "${TMPDIR:-/tmp}/report_metrics_on.txt"
cargo run --release -p carat-cli -- sim --workload mb4 --sites 8 --n 8 --alpha 5 --probes --measure-s 60 --shards 1 --metrics 10 --metrics-out "${TMPDIR:-/tmp}/metrics_s1.jsonl" > /dev/null 2>&1
cargo run --release -p carat-cli -- sim --workload mb4 --sites 8 --n 8 --alpha 5 --probes --measure-s 60 --shards 4 --metrics 10 --metrics-out "${TMPDIR:-/tmp}/metrics_s4.jsonl" > /dev/null 2>&1
cmp "${TMPDIR:-/tmp}/metrics_s1.jsonl" "${TMPDIR:-/tmp}/metrics_s4.jsonl"
echo "== CI green"
