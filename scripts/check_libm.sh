#!/usr/bin/env bash
# libm guard (CI `tier1` job; runnable locally from anywhere).
#
# Every number that reaches a golden must be a function of this repository's source alone, so
# src/ may not call the platform libm's transcendentals: std::exp, std::log, std::cos, std::sin
# and std::pow results differ across libm versions. Use fmoe::Exp / Log / CosTwoPi
# (src/util/math.h, DESIGN.md §5g) instead. std::sqrt is IEEE correctly rounded and allowed.
#
# A call that only feeds human-facing summaries may stay on libm if it is listed below as
# "path|line substring|reason" (an empty substring allows the whole file). Every entry must
# carry a reason.
set -u
cd "$(dirname "$0")/.."

allowlist=(
  "src/util/math.cc|h -= p * std::log(p)|Entropy: report-only (Fig. 3 and table summaries); no policy, cache or gate decision reads it"
  "src/util/math.cc|return Entropy(probs) / std::log(|NormalizedEntropy: report-only, as Entropy"
  "src/util/histogram.cc||latency histogram bucket edges: report-only percentile summaries"
)

fail=0
for entry in "${allowlist[@]}"; do
  IFS='|' read -r path _ reason <<< "$entry"
  if [ -z "$reason" ]; then
    echo "ALLOWLIST ENTRY WITHOUT A REASON: $entry"
    fail=1
  fi
  if [ ! -e "$path" ]; then
    echo "STALE ALLOWLIST ENTRY (no such file): $path"
    fail=1
  fi
done

while IFS= read -r hit; do
  [ -z "$hit" ] && continue
  file="${hit%%:*}"
  line="${hit#*:}"
  line="${line#*:}"
  allowed=0
  for entry in "${allowlist[@]}"; do
    IFS='|' read -r path substring _ <<< "$entry"
    if [ "$file" = "$path" ] && { [ -z "$substring" ] || [[ "$line" == *"$substring"* ]]; }; then
      allowed=1
      break
    fi
  done
  if [ "$allowed" -eq 0 ]; then
    echo "LIBM CALL: $hit"
    fail=1
  fi
done < <(grep -rnE 'std::(exp|log|cos|sin|pow)\(' src/)

if [ "$fail" -ne 0 ]; then
  echo "libm check FAILED: use fmoe::Exp/Log/CosTwoPi, or allowlist a report-only call with a reason"
  exit 1
fi
echo "libm check OK"
