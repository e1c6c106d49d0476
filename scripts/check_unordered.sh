#!/usr/bin/env bash
# Unordered-iteration guard (CI `tier1` job; runnable locally from anywhere).
#
# Iterating a std::unordered_{map,set,multimap,multiset} visits entries in an order set by the
# standard library's hash table, so a result that depends on it differs between libraries.
# src/ may therefore not loop over an unordered container, by range-for or by iterator, unless
# the loop's result cannot depend on the visiting order. Such loops are listed below as
# "path|line substring|reason" (an empty substring allows the whole file); every entry must
# carry a reason and must still match a loop.
#
# A container is recognised by its declaration (a member, local or parameter) in the file or,
# for a .cc file, in the header of the same name. Loops over a container reached only through
# `auto` or an accessor are not seen; keep such code out of src/, or name the type.
set -u
cd "$(dirname "$0")/.."

allowlist=(
  "src/oracle/oracle.cc|for (const auto& [key, use] : resident)|find_victim: ties already go to the larger key, so any visiting order picks the same victim"
  "src/cache/tiered_store.cc|for (const auto& [tag, info] : stage_by_tag_)|BookkeepingConsistent: only returns a bool"
  "src/cache/tiered_store.cc|for (const auto& [tag, fill] : fill_by_tag_)|BookkeepingConsistent (every GPU fill, all routes): only returns a bool"
)

decl_re='std::unordered_(map|set|multimap|multiset)<.*>[&*[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*[;={(),]'

# Names of the unordered containers declared in the given files, one per line.
container_names() {
  grep -ohE "$decl_re" "$@" 2>/dev/null |
    sed -E 's/.*>[&*[:space:]]+([A-Za-z_][A-Za-z0-9_]*)[[:space:]]*[;={(),]$/\1/' | sort -u
}

fail=0
declare -A matched=()
for entry in "${allowlist[@]}"; do
  IFS='|' read -r _ _ reason <<< "$entry"
  if [ -z "$reason" ]; then
    echo "ALLOWLIST ENTRY WITHOUT A REASON: $entry"
    fail=1
  fi
done

while IFS= read -r file; do
  decl_files=("$file")
  if [[ "$file" == *.cc ]] && [ -e "${file%.cc}.h" ]; then
    decl_files+=("${file%.cc}.h")
  fi
  names=$(container_names "${decl_files[@]}" | paste -sd'|')
  [ -z "$names" ] && continue
  loop_re="for[[:space:]]*\(.*[^:]:[[:space:]]*(std::as_const\()?($names)\)"
  iter_re="(^|[^A-Za-z0-9_])($names)(\.|->)c?begin\("
  while IFS= read -r hit; do
    [ -z "$hit" ] && continue
    line="${hit#*:}"
    allowed=0
    for entry in "${allowlist[@]}"; do
      IFS='|' read -r path substring _ <<< "$entry"
      if [ "$file" = "$path" ] && [[ "$line" == *"$substring"* ]]; then
        allowed=1
        matched["$entry"]=1
        break
      fi
    done
    if [ "$allowed" -eq 0 ]; then
      echo "UNORDERED ITERATION: $file:$hit"
      fail=1
    fi
  done < <(grep -nE "$loop_re|$iter_re" "$file")
done < <(find src -name '*.cc' -o -name '*.h' | sort)

for entry in "${allowlist[@]}"; do
  if [ -z "${matched[$entry]+x}" ]; then
    echo "STALE ALLOWLIST ENTRY (matches no loop): $entry"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "unordered check FAILED: use an ordered container or sort first, or allowlist an" \
       "order-independent loop with a reason"
  exit 1
fi
echo "unordered check OK"
