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
# The benchmark is a workspace of its own, so the step above does not
# build it. Its tests compile its calls into the library and smoke-run
# every workload, untraced and traced, against BENCHMARK.json.
echo "== benchmark tests" && cargo test --manifest-path benchmark/Cargo.toml
echo "== sweep determinism gate"
cargo run --release -p carat-bench --bin exp -- bench --emit --threads 4 --out "${TMPDIR:-/tmp}/sweep_par.json"
cargo run --release -p carat-bench --bin exp -- bench --emit --sequential --out "${TMPDIR:-/tmp}/sweep_seq.json"
cmp "${TMPDIR:-/tmp}/sweep_par.json" "${TMPDIR:-/tmp}/sweep_seq.json"
echo "== sweep determinism gate (oracle, acceleration off)"
# The default solve is Anderson-accelerated; the plain damped iteration it
# is checked against must also be byte-identical across thread counts.
cargo run --release -p carat-bench --bin exp -- bench --emit --accel off --threads 4 --out "${TMPDIR:-/tmp}/sweep_off_par.json"
cargo run --release -p carat-bench --bin exp -- bench --emit --accel off --sequential --out "${TMPDIR:-/tmp}/sweep_off_seq.json"
cmp "${TMPDIR:-/tmp}/sweep_off_par.json" "${TMPDIR:-/tmp}/sweep_off_seq.json"
echo "== sweep determinism gate (cold starts)"
# Cold sweeps put every point in its own task, so the pool interleaves
# them differently from the warm chains above.
cargo run --release -p carat-bench --bin exp -- bench --emit --no-warm --threads 4 --out "${TMPDIR:-/tmp}/sweep_cold_par.json"
cargo run --release -p carat-bench --bin exp -- bench --emit --no-warm --sequential --out "${TMPDIR:-/tmp}/sweep_cold_seq.json"
cmp "${TMPDIR:-/tmp}/sweep_cold_par.json" "${TMPDIR:-/tmp}/sweep_cold_seq.json"
echo "== solver iteration regression gate"
# Plain per-point counts within +10% of the pinned reference; accelerated
# totals at most 70% of the plain total (DESIGN.md §12).
cargo run --release -p carat-bench --bin exp -- bench --check-iters
echo "== model thread-count gate"
# The model solves its distinct per-site networks on threads once a site's
# lattice reaches PARALLEL_LATTICE_MIN (4,096 states), and a site whose
# network repeats an earlier one bit for bit copies its solution on either
# path. MB8 at n = 24 has 6,561-state lattices at 5 sites and 18,225 at 8,
# with such twins at both: the report and the iteration log must not depend
# on the thread count.
for sites in 5 8; do
  for t in 1 2; do
    cargo run --release -p carat-cli -- model --workload mb8 --n 24 --sites "$sites" --threads "$t" --iter-log "${TMPDIR:-/tmp}/model_${sites}_t$t.csv" > "${TMPDIR:-/tmp}/model_${sites}_t$t.txt"
  done
  cmp "${TMPDIR:-/tmp}/model_${sites}_t1.txt" "${TMPDIR:-/tmp}/model_${sites}_t2.txt"
  cmp "${TMPDIR:-/tmp}/model_${sites}_t1.csv" "${TMPDIR:-/tmp}/model_${sites}_t2.csv"
done
echo "== ablations gate"
# exp ablations asserts its two qualitative claims and exits non-zero if
# either fails: without deadlock modelling the model predicts less
# throughput than the full model at n = 20, and with every lock exclusive
# less at n = 8. Its table must also be byte-identical across thread
# counts.
cargo run --release -p carat-bench --bin exp -- ablations --threads 4 > "${TMPDIR:-/tmp}/ablations_par.txt"
cargo run --release -p carat-bench --bin exp -- ablations --sequential > "${TMPDIR:-/tmp}/ablations_seq.txt"
cmp "${TMPDIR:-/tmp}/ablations_par.txt" "${TMPDIR:-/tmp}/ablations_seq.txt"
echo "== sim determinism gate"
cargo run --release -p carat-bench --bin exp -- bench --emit-sim --threads 4 --out "${TMPDIR:-/tmp}/sim_par.json"
cargo run --release -p carat-bench --bin exp -- bench --emit-sim --sequential --out "${TMPDIR:-/tmp}/sim_seq.json"
cmp "${TMPDIR:-/tmp}/sim_par.json" "${TMPDIR:-/tmp}/sim_seq.json"
# Shard determinism: the per-site conservative engine must produce
# byte-identical reports for every worker-thread count (DESIGN.md §14:
# shards is purely a parallelism knob). With 8 sites, 3 threads give
# uneven blocks (3+3+2) and 8 give one LP per thread, so one-block and
# all-cross-thread layouts are both compared. $1 names the gate and its
# scratch files; the remaining arguments are the `carat-cli sim` flags.
shard_gate() {
  name=$1
  shift
  echo "== $name determinism gate"
  for k in 1 2 3 4 8; do
    cargo run --release -p carat-cli -- sim "$@" --shards "$k" > "${TMPDIR:-/tmp}/${name}_$k.txt"
  done
  for k in 2 3 4 8; do
    cmp "${TMPDIR:-/tmp}/${name}_1.txt" "${TMPDIR:-/tmp}/${name}_$k.txt"
  done
}
# Site-separable LB8 (lookahead ∞, no messages).
shard_gate shard --workload lb8 --sites 8 --n 8 --measure-s 60
# Cross-site MB4 (lookahead α, DRO/DU traffic, probe-based deadlock
# detection), including the traffic and deadlock counters.
shard_gate xshard --workload mb4 --sites 8 --n 8 --alpha 5 --probes --measure-s 60
echo "== partition determinism gate"
# The partition experiment (availability counters, catch-up replay, and
# its audit and no-hang gates) must be byte-identical across thread counts,
# like every other sweep. It runs at its default window.
cargo run --release -p carat-bench --bin exp -- partition --threads 4 > "${TMPDIR:-/tmp}/part_par.json"
cargo run --release -p carat-bench --bin exp -- partition --sequential > "${TMPDIR:-/tmp}/part_seq.json"
cmp "${TMPDIR:-/tmp}/part_par.json" "${TMPDIR:-/tmp}/part_seq.json"
# Tracing must not change a single report byte, and two traced runs of one
# configuration must produce byte-identical trace files (DESIGN.md §10.1).
# $1 names the gate and its scratch files; the remaining arguments are the
# `carat-cli sim` flags.
trace_gate() {
  name=$1
  shift
  echo "== $name neutrality gate"
  cargo run --release -p carat-cli -- sim "$@" > "${TMPDIR:-/tmp}/${name}_off.txt"
  cargo run --release -p carat-cli -- sim "$@" --trace "${TMPDIR:-/tmp}/${name}_a.json" > "${TMPDIR:-/tmp}/${name}_on.txt"
  cmp "${TMPDIR:-/tmp}/${name}_off.txt" "${TMPDIR:-/tmp}/${name}_on.txt"
  cargo run --release -p carat-cli -- sim "$@" --trace "${TMPDIR:-/tmp}/${name}_b.json" > /dev/null
  cmp "${TMPDIR:-/tmp}/${name}_a.json" "${TMPDIR:-/tmp}/${name}_b.json"
}
# Two-site LB8 runs on the separable sharded engine; MB4 with probes at
# α = 0 runs on the monolithic engine, whose emission sites LB8 never
# reaches.
trace_gate trace --workload lb8 --n 8 --measure-s 60
trace_gate trace_monolithic --workload mb4 --n 8 --probes --measure-s 60
echo "== metrics neutrality gate"
# The metrics recorder must not change a single stdout report byte, and
# every export of the series must be byte-identical for every shard count
# on both sharded paths, the coupled cross-site engine and the separable
# one (DESIGN.md §15).
cargo run --release -p carat-cli -- sim --workload lb8 --n 8 --measure-s 60 --metrics 10 > "${TMPDIR:-/tmp}/report_metrics_on.txt" 2> /dev/null
cmp "${TMPDIR:-/tmp}/trace_off.txt" "${TMPDIR:-/tmp}/report_metrics_on.txt"
# $1 names the scratch files, $2 is the export extension; the remaining
# arguments are the `carat-cli sim` flags.
metrics_gate() {
  name=$1
  ext=$2
  shift 2
  for k in 1 4; do
    cargo run --release -p carat-cli -- sim "$@" --shards "$k" --metrics 10 --metrics-out "${TMPDIR:-/tmp}/${name}_s$k.$ext" > /dev/null 2>&1
  done
  cmp "${TMPDIR:-/tmp}/${name}_s1.$ext" "${TMPDIR:-/tmp}/${name}_s4.$ext"
}
for ext in jsonl csv json; do
  metrics_gate metrics "$ext" --workload mb4 --sites 8 --n 8 --alpha 5 --probes --measure-s 60
done
metrics_gate metrics_lb8 jsonl --workload lb8 --sites 8 --n 8 --measure-s 60
echo "== CI green"
