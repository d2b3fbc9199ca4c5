#!/usr/bin/env bash
# Net line count of a change, per area: lines added, removed and net in
# src/, tests/, tools/, bench/ and examples/, in the Markdown docs, and in
# everything else, from `git diff --numstat BASE` (the working tree against
# BASE, so staged new files count). Binary files count as zero lines.
#
# Usage: scripts/net_lines.sh [BASE]     (default BASE: HEAD~1)
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -gt 1 ]]; then
  echo "usage: scripts/net_lines.sh [BASE]" >&2
  exit 2
fi
BASE="${1:-HEAD~1}"

git diff --numstat "$BASE" | awk -F '\t' '
  BEGIN {
    n = split("src/ tests/ tools/ bench/ examples/ docs other", order, " ")
  }
  {
    # Renames print "old => new" or "dir/{old => new}"; the new path decides.
    path = $3
    sub(/\{[^}]* => /, "", path); sub(/\}/, "", path); sub(/.* => /, "", path)
    area = "other"
    for (i = 1; i <= 5; ++i) {
      if (index(path, order[i]) == 1) { area = order[i]; break }
    }
    if (area == "other" && path ~ /\.md$/) area = "docs"
    if ($1 != "-") { added[area] += $1; removed[area] += $2 }
  }
  END {
    printf "%-10s %8s %8s %8s\n", "area", "added", "removed", "net"
    for (i = 1; i <= n; ++i) {
      a = order[i]
      printf "%-10s %8d %8d %+8d\n", a, added[a], removed[a], added[a] - removed[a]
      ta += added[a]; tr += removed[a]
    }
    printf "%-10s %8d %8d %+8d\n", "total", ta, tr, ta - tr
  }'
