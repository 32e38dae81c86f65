#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repository
# root; every argument passes through. Examples:
#
#   bash benchmark/run.sh --seed 7                         # every workload, end to end
#   bash benchmark/run.sh --seed 7 --trace 1               # every workload, per layer
#   bash benchmark/run.sh --workload sim-mixed --seed 7 --seconds 15 --trace 0
#   bash benchmark/run.sh --smoke                          # every workload at ~1/50 size
#   bash benchmark/run.sh compare --base a/*.txt --head b/*.txt
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Coupled (`sim-xsite`) runs allocate about 100 MiB each on two fresh
# threads. With glibc's per-thread arenas, each process settled at random
# into reusing that memory (~75 ms a run) or mapping it afresh every run
# (~125 ms), for its whole life. One arena gives every process the first
# behaviour; single-threaded runs use that arena anyway and are unaffected.
export GLIBC_TUNABLES=glibc.malloc.arena_max=1
exec cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- "$@"
