#!/usr/bin/env bash
# The single entry point: build the benchmark package (offline, release) and
# run one workload. Called from the root of a checkout as
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The last line of stdout is the machine-readable result.
set -euo pipefail
exec cargo run --release --offline --quiet \
    --manifest-path "$(dirname "$0")/Cargo.toml" -- "$@"
