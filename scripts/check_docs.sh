#!/usr/bin/env bash
# Documentation consistency checks (CI `docs-check` job; runnable locally from anywhere).
#
# 1. Link check: every relative markdown link and bare file reference in *.md must point at a
#    file that exists in the tree (external http(s) links are not fetched).
# 2. Layout guard: every src/*/ module directory must be mentioned in README.md's
#    "Repository layout" section, so the module table cannot silently drift from the tree.
set -u
cd "$(dirname "$0")/.."

fail=0

# --- 1. Relative markdown links: [text](path) where path is not a URL or #anchor. ---------
for doc in *.md; do
  # Extract link targets; strip trailing #fragment.
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    path="${target%%#*}"
    [ -z "$path" ] && continue  # Pure in-page anchor.
    if [ ! -e "$path" ]; then
      echo "BROKEN LINK: $doc -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//' |
           grep -vE '^(https?|mailto):')
done

# --- 2. Backtick file references: `path/with/slash.ext` must exist. -----------------------
# Only plain existing-file-shaped refs are checked: paths with directory slashes and a file
# extension, no wildcards/placeholders/flags. `.*` globs (e.g. `tests/golden/*.json`) and
# command lines are skipped.
for doc in *.md; do
  case "$doc" in ISSUE.md) continue ;; esac  # Transient work item, module-relative paths.
  case "$doc" in ROADMAP.md) continue ;; esac  # Names planned files that do not exist yet.
  while IFS= read -r ref; do
    [ -z "$ref" ] && continue
    case "$ref" in
      *'*'*|*'<'*|*'$'*|*' '*|-*|http*|*..*) continue ;;
      /*) continue ;;  # Absolute paths point outside the repo (e.g. /root/related/ notes).
    esac
    # Trailing .* shorthand (`src/cache/expert_cache.*`) means "both .h and .cc".
    if [[ "$ref" == *.\* ]]; then
      stem="${ref%.*}"
      if ! compgen -G "${stem}.*" > /dev/null; then
        echo "BROKEN FILE REF: $doc -> $ref"
        fail=1
      fi
      continue
    fi
    if [ ! -e "$ref" ]; then
      echo "BROKEN FILE REF: $doc -> $ref"
      fail=1
    fi
  done < <(grep -oE '`[A-Za-z0-9_./*-]+/[A-Za-z0-9_.*-]+\.[A-Za-z*]+`' "$doc" |
           tr -d '`' | sort -u)
done

# --- 2b. Benchmark baseline guard: every BENCH_*.json at the repo root must be named in ---
# HACKING.md's baseline table, so committed baselines cannot drift undocumented.
for bench in BENCH_*.json; do
  [ -e "$bench" ] || continue  # No baselines committed (fresh checkout of a subset).
  if ! grep -qF "$bench" HACKING.md; then
    echo "UNDOCUMENTED BASELINE: $bench (add it to HACKING.md's baseline list)"
    fail=1
  fi
done

# --- 2c. Tool guard: every command-line binary built from src/tools/ must be named in -----
# HACKING.md, so shipping a tool without documenting its workflow fails CI.
while IFS= read -r tool; do
  [ -z "$tool" ] && continue
  if ! grep -qE "(^|[^A-Za-z0-9_])${tool}([^A-Za-z0-9_]|$)" HACKING.md; then
    echo "UNDOCUMENTED TOOL: $tool (built from src/tools/; document it in HACKING.md)"
    fail=1
  fi
done < <(grep -oE '^add_executable\([A-Za-z0-9_]+' src/tools/CMakeLists.txt |
         sed 's/^add_executable(//')

# --- 3. README layout guard: every src/<module>/ appears in the layout section. -----------
layout="$(awk '/^## Repository layout/{flag=1; next} /^## /{flag=0} flag' README.md)"
if [ -z "$layout" ]; then
  echo "README.md has no '## Repository layout' section"
  fail=1
fi
for dir in src/*/; do
  module="${dir%/}"
  if ! grep -qF "$module/" <<< "$layout"; then
    echo "MISSING FROM README LAYOUT: $module/ (add a row to 'Repository layout')"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK"
