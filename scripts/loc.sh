#!/usr/bin/env bash
# Non-test Rust lines per file, per crate and in total: the lines of
# each source file above its `#[cfg(test)] mod tests` block (the whole
# file when it has none). Integration tests are not source files.
#
# Usage: scripts/loc.sh [dir...]    (default: crates src)
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates src
find "$@" -name target -prune -o -name '*.rs' -path '*src/*' -print | sort | xargs awk '
  FNR == 1 { if (f != "") emit(); f = FILENAME; n = 0; prev = ""; cut = 0 }
  !cut && prev ~ /^#\[cfg\(test\)\]$/ && /^mod tests/ { cut = 1 }
  !cut { n++ } { prev = $0 }
  function emit() { printf "%7d %s\n", n, f; k = f; sub(/\/?src\/.*/, "", k); crate[k == "" ? "." : k] += n; total += n }
  END { if (f != "") emit(); for (k in crate) printf "%7d %s (crate)\n", crate[k], k | "sort -k2"; close("sort -k2"); printf "%7d total\n", total }'
