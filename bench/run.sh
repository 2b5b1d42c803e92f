#!/usr/bin/env bash
# Builds the benchmark in release and runs it; every argument goes to the
# binary (see README.md, or run with --help). Run from anywhere.
set -euo pipefail
exec cargo run --release --offline --quiet --manifest-path "$(dirname "$0")/Cargo.toml" -- "$@"
