#!/usr/bin/env bash
# Build the binaries under test and the harness from source (release,
# offline, one shared target dir), then hand every argument to the
# harness. In a directory without the repo's crates the build fails and
# nothing is printed on stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p pg-hive-cli --bin pg-hive >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
