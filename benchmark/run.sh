#!/usr/bin/env bash
# The benchmark's one command: builds the package (release, offline) and runs
# it with the arguments given.  See benchmark/README.md.
#
#   benchmark/run.sh                          every workload once, results file, non-zero on a failed check
#   benchmark/run.sh --runs 5 --traced        medians over five runs plus one traced run per workload
#   benchmark/run.sh --smoke                  the whole path on 2k-node graphs in a few seconds
#   benchmark/run.sh --calibrate 10           ten sets on ten seeds, spread of every end-to-end metric
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                             one run in this process; last line is the JSON result
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/ppr-benchmark" "$@"
