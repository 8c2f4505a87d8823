#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark crate (offline, release),
# then either makes the single run the driver asks for
#   run.sh --workload W --seed N --seconds S --trace 0|1
# or hands the set / repeat / compare forms to suite.py (see its docstring).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# cargo resolves a relative CARGO_TARGET_DIR against the working directory,
# which this script never changes.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/flexlog-benchmark"
for arg in "$@"; do
  if [[ $arg == --trace ]]; then
    exec "$bin" --out-dir "$here/out" "$@"
  fi
done
exec python3 "$here/suite.py" --bin "$bin" "$@"
