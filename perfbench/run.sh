#!/usr/bin/env bash
# The repository benchmark's entry point. Builds the release `camj`
# binary (the daemon the serve workload and the traced run drive) and the
# benchmark itself from this checkout, then runs one workload.
#
#   bash perfbench/run.sh --workload <explore|serve> \
#       --seed N --seconds S --trace <0|1>
#
# Run it from the repository root. Builds honour CARGO_TARGET_DIR
# (default: target). The last line of stdout is the result JSON; build
# output and the metric table go to stderr.
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin camj
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$target/release/camj-perfbench" --camj "$target/release/camj" "$@"
