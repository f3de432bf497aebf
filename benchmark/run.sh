#!/usr/bin/env bash
# The one command: build the benchmark (offline, release, the repository's
# own profile) and run it. Arguments go to optiql-sysbench unchanged; with
# none, all four workloads run once untraced and once traced.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR means relative to where the caller stands.
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
    export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
cd "$here"
# Build chatter goes to stderr; stdout carries results only.
cargo build --release --offline --quiet 1>&2
exec "${CARGO_TARGET_DIR:-$here/../target}/release/optiql-sysbench" "$@"
