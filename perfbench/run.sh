#!/usr/bin/env bash
# Builds the benchmark once per checkout, then runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 30 --trace 0
#
# `cargo run` is not used on every invocation because, outside a git
# work tree, the server crate's build script (which watches .git/HEAD)
# makes cargo rebuild that crate every time. The binary is rebuilt only
# when it is missing or a source file is newer than it.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
bin="$target/release/hyperline-perfbench"

if [ ! -x "$bin" ] ||
    [ -n "$(find crates perfbench Cargo.toml Cargo.lock -type f -newer "$bin" -print -quit 2>/dev/null)" ]; then
    CARGO_TARGET_DIR="$target" cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
fi

exec "$bin" "$@"
