#!/usr/bin/env bash
# Alternating parent/change pairs of `lumen-benchmark run` — the way every
# performance claim in this repository is measured (docs/PERFORMANCE.md,
# "Measuring"). One run can fall wholly into a slow stretch of the host, so
# each side is built once from its own checkout and the two take turns: odd
# pairs run the parent first, even pairs the change first, one seed per pair.
#
#   scripts/pairs.sh [pairs] [seconds]        # defaults: 10 pairs, 20 s
#
# The change is the working tree; the parent is a clone of it at $PARENT
# (a git ref, default HEAD~1 — use PARENT=HEAD before committing), made under
# ${TMPDIR:-/tmp} and removed on exit. Writes lumen-benchmark-set-{parent,
# change}-<pair>.json into the repository root (git-ignored) and nothing
# else: benchmark/Cargo.lock, which a local build rewrites, is restored.
set -euo pipefail

pairs=${1:-10}
seconds=${2:-20}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"

parent=$(mktemp -d "${TMPDIR:-/tmp}/lumen-pairs-parent.XXXXXX")
cleanup() {
  rm -rf "$parent"
  git -C "$root" checkout -q -- benchmark/Cargo.lock
}
trap cleanup EXIT

git clone -q . "$parent"
git -C "$parent" checkout -q "$(git rev-parse "${PARENT:-HEAD~1}")"

bench() {  # <checkout> <args...>
  local tree=$1
  shift
  (cd "$tree" && cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@")
}
for tree in "$root" "$parent"; do
  cargo build --release --offline --manifest-path "$tree/benchmark/Cargo.toml"
done

set_of() {  # <checkout> <side> <pair>
  bench "$1" run --seeds "$3" --seconds "$seconds" --out "$root/lumen-benchmark-set-$2-$3.json"
}
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) = 1 ]; then
    set_of "$parent" parent "$i"
    set_of "$root" change "$i"
  else
    set_of "$root" change "$i"
    set_of "$parent" parent "$i"
  fi
  # A miss against the bounds is the finding, not a failure of this script.
  bench "$root" compare "lumen-benchmark-set-parent-$i.json" "lumen-benchmark-set-change-$i.json" || true
done
