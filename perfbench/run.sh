#!/usr/bin/env bash
# Builds the `streamlink` binary and the benchmark from source, then runs
# one workload:
#   bash perfbench/run.sh --workload <ingest|serve_read|serve_write> \
#        --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); work files go to .perfbench/.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
bin="$CARGO_TARGET_DIR/release"

# The CLI's build script asks to rerun whenever .git/HEAD changes, and a
# checkout without .git counts as always changed, so cargo would rebuild
# on every call. Build only when the sources differ from the last build.
stamp="$CARGO_TARGET_DIR/perfbench.sources"
sources=$(find Cargo.toml Cargo.lock crates vendor perfbench/Cargo.toml \
    perfbench/Cargo.lock perfbench/src -type f -print0 |
    sort -z | xargs -0 sha256sum | sha256sum)
if [[ ! -x "$bin/streamlink" || ! -x "$bin/perfbench" ||
    "$(cat "$stamp" 2>/dev/null)" != "$sources" ]]; then
    cargo build --release --offline --quiet -p streamlink-cli --manifest-path Cargo.toml >&2
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
    printf '%s' "$sources" >"$stamp"
fi
exec "$bin/perfbench" "$@" --server-bin "$bin/streamlink"
