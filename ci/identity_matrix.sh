#!/usr/bin/env bash
# ci/identity_matrix.sh — bit-identity of the distributed engine between two
# builds of the CLI (say, a parent commit's and a change's).
#
#   ci/identity_matrix.sh PARENT_CLI CHANGE_CLI [WORKDIR]
#
# Generates an R-MAT and an LFR input with the CLI's `generate`, packs each
# with graphpack for the blocks backend, and runs
# `cluster --algo dist --report` with both CLIs over
#   p ∈ {1,2,3,4} × {sync, --async} × {inproc, socket} × {resident, blocks},
# plus one socket run per input under a fault plan
# (drop=0.01,dup=0.01,reorder=0.01,corrupt=0.01, --seed 7). For every
# configuration it compares the two `.clu` files with cmp, and from the two
# reports the codelength, the level rows, the stage-1 round codelengths and
# every rank's arcs_scanned / delta_evals / messages per phase. Comm bytes
# and module_updates are not compared: a change may move them.
#
# Prints one row per configuration and exits 1 if any differ (2 on a usage
# error). GRAPHPACK overrides the packer (default: the graphpack of
# CHANGE_CLI's build tree). Not part of ci/check.sh: it needs two builds.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 PARENT_CLI CHANGE_CLI [WORKDIR]" >&2
  exit 2
fi
parent_cli="$(realpath "$1")"
change_cli="$(realpath "$2")"
for cli in "$parent_cli" "$change_cli"; do
  [ -x "$cli" ] || { echo "not an executable: $cli" >&2; exit 2; }
done
graphpack="${GRAPHPACK:-$(dirname "$change_cli")/../tools/graphpack/graphpack}"
[ -x "$graphpack" ] || { echo "graphpack not found: $graphpack (set GRAPHPACK)" >&2; exit 2; }
work="${3:-$(mktemp -d)}"
mkdir -p "$work"
echo "work dir: $work"

faults="drop=0.01,dup=0.01,reorder=0.01,corrupt=0.01"

# The report fields that must agree, as one canonical JSON line.
digest() {
  python3 - "$1" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
keep = {
    "codelength": r["codelength"],
    "levels": r["levels"],
    "round_codelengths": r["round_codelengths"],
    "phases": [
        [ph["name"]] + [[w["arcs_scanned"], w["delta_evals"], w["messages"]]
                        for w in ph["work"]]
        for ph in r["phases"]
    ],
}
print(json.dumps(keep, sort_keys=True))
EOF
}

# run_cli <cli> <input> <out-prefix> <args...>: one clustering run; the
# fault plan's socket recovery occasionally times out on a loaded machine,
# so a failed run is retried twice before it counts as a failure.
run_cli() {
  local cli="$1" input="$2" out="$3"
  shift 3
  local attempt
  for attempt in 1 2 3; do
    if "$cli" cluster "$input" "$out.clu" --algo dist --report "$out.json" \
         "$@" >"$out.log" 2>&1; then
      return 0
    fi
  done
  return 1
}

for family in rmat lfr; do
  "$change_cli" generate "$family" "$work/$family.txt" 1 >/dev/null
  "$graphpack" "$work/$family.txt" "$work/$family.blockgraph" >/dev/null
done

failures=0
total=0
printf '%-6s %-2s %-6s %-7s %-8s %-6s %s\n' graph p engine trans backend faults verdict

# check <graph> <p> <engine> <transport> <backend> <faults|-> <args...>
check() {
  local family="$1" p="$2" engine="$3" transport="$4" backend="$5" plan="$6"
  shift 6
  local tag="${family}_p${p}_${engine}_${transport}_${backend}"
  [ "$plan" != - ] && tag+="_faults"
  local input="$work/$family.txt"
  [ "$backend" = blocks ] && input="$work/$family.blockgraph"
  local args=(--ranks "$p" --transport "$transport" --graph-backend "$backend" "$@")
  [ "$engine" = async ] && args+=(--async)
  [ "$plan" != - ] && args+=(--faults "$plan" --seed 7)
  local verdict=same
  total=$((total + 1))
  if ! run_cli "$parent_cli" "$input" "$work/parent_$tag" "${args[@]}"; then
    verdict="parent run failed (see $work/parent_$tag.log)"
  elif ! run_cli "$change_cli" "$input" "$work/change_$tag" "${args[@]}"; then
    verdict="change run failed (see $work/change_$tag.log)"
  elif ! cmp -s "$work/parent_$tag.clu" "$work/change_$tag.clu"; then
    verdict="DIFF: .clu"
  elif [ "$(digest "$work/parent_$tag.json")" != "$(digest "$work/change_$tag.json")" ]; then
    verdict="DIFF: report"
  fi
  [ "$verdict" = same ] || failures=$((failures + 1))
  printf '%-6s %-2s %-6s %-7s %-8s %-6s %s\n' "$family" "$p" "$engine" \
    "$transport" "$backend" "$([ "$plan" = - ] && echo none || echo on)" "$verdict"
}

for family in rmat lfr; do
  for p in 1 2 3 4; do
    for engine in sync async; do
      for transport in inproc socket; do
        for backend in resident blocks; do
          check "$family" "$p" "$engine" "$transport" "$backend" -
        done
      done
    done
  done
  check "$family" 4 sync socket resident "$faults"
done

echo "$((total - failures))/$total configurations identical"
[ "$failures" -eq 0 ]
