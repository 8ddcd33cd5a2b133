#!/usr/bin/env bash
# Runs the end-to-end benchmark from the repository root:
#
#   bash e2ebench/run.sh --workload json-cold --seed 1 --seconds 12 --trace 0
#
# Builds the benchmark (and the crates it measures) only when the sources
# changed since the last build into the same target directory. A plain
# `cargo run` would relink on every run outside a git checkout, because the
# `mani-serve` build script asks to rerun whenever `.git/HEAD` is missing.
set -euo pipefail

target="${CARGO_TARGET_DIR:-e2ebench/target}"
binary="$target/release/mani-e2ebench"
stamp="$target/e2ebench.sources"

digest=$(
    {
        find crates shims src e2ebench -type f -not -path '*/target/*' \
            \( -name '*.rs' -o -name '*.toml' -o -name '*.lock' \) -print0 |
            sort -z | xargs -0 cat
        for file in Cargo.toml Cargo.lock .cargo/config.toml; do
            if [[ -f "$file" ]]; then cat "$file"; fi
        done
    } | cksum
)

if [[ ! -x "$binary" || "$(cat "$stamp" 2>/dev/null)" != "$digest" ]]; then
    cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml
    echo "$digest" > "$stamp"
fi
exec "$binary" "$@"
