#!/usr/bin/env bash
# ci/identity_matrix.sh — bit-identity of the distributed engine, either
# between two builds of the CLI (say, a parent commit's and a change's) or
# across the transports, backends and fault plans of one build.
#
#   ci/identity_matrix.sh PARENT_CLI CHANGE_CLI [WORKDIR]
#   ci/identity_matrix.sh --self CLI [WORKDIR]
#
# Generates an R-MAT and an LFR input with the CLI's `generate`, packs each
# with graphpack for the blocks backend, and runs
# `cluster --algo dist --report` over
#   p ∈ {1,2,3,4} × {sync, --async} × {inproc, socket} × {resident, blocks},
# plus one socket run per input under a fault plan
# (drop=0.01,dup=0.01,reorder=0.01,corrupt=0.01, --seed 7).
#
# Two-CLI mode runs every configuration with both CLIs and compares the two
# results. --self mode runs every configuration with one CLI and compares it
# with the same (input, p, engine, seed) run inproc on the resident backend:
# socket, blocks and the fault plan must each reproduce it bit for bit.
#
# A comparison cmps the two `.clu` files and compares, from the two reports,
# the codelength, the level rows, the stage-1 round codelengths and every
# rank's arcs_scanned / delta_evals / messages per phase. Level rows are
# compared on the keys both reports carry, so a report that gained a key
# still compares with one that lacks it. Comm bytes and module_updates are
# not compared: a change may move them.
#
# Prints one row per comparison and exits 1 if any differ (2 on a usage
# error). GRAPHPACK overrides the packer (default: the graphpack of the
# build tree of CHANGE_CLI, or of CLI with --self). Not part of
# ci/check.sh: it takes minutes.
set -euo pipefail

usage() {
  echo "usage: $0 PARENT_CLI CHANGE_CLI [WORKDIR]" >&2
  echo "       $0 --self CLI [WORKDIR]" >&2
  exit 2
}

if [ "${1:-}" = --self ]; then
  shift
  { [ $# -ge 1 ] && [ $# -le 2 ]; } || usage
  parent_cli=""
  change_cli="$(realpath "$1")"
  workdir_arg="${2:-}"
else
  { [ $# -ge 2 ] && [ $# -le 3 ]; } || usage
  parent_cli="$(realpath "$1")"
  change_cli="$(realpath "$2")"
  workdir_arg="${3:-}"
fi
clis=("$change_cli")
[ -n "$parent_cli" ] && clis+=("$parent_cli")
for cli in "${clis[@]}"; do
  [ -x "$cli" ] || { echo "not an executable: $cli" >&2; exit 2; }
done
graphpack="${GRAPHPACK:-$(dirname "$change_cli")/../tools/graphpack/graphpack}"
[ -x "$graphpack" ] || { echo "graphpack not found: $graphpack (set GRAPHPACK)" >&2; exit 2; }
work="${workdir_arg:-$(mktemp -d)}"
mkdir -p "$work"
echo "work dir: $work"

faults="drop=0.01,dup=0.01,reorder=0.01,corrupt=0.01"

# same_report <a.json> <b.json>: exit 0 iff the compared fields agree.
same_report() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
a, b = (json.load(open(path)) for path in sys.argv[1:3])

def row_keys(r):
    keys = None
    for row in r["levels"]:
        keys = set(row) if keys is None else keys & set(row)
    return keys or set()

common = row_keys(a) & row_keys(b)

def digest(r):
    return {
        "codelength": r["codelength"],
        "levels": [{k: row[k] for k in common} for row in r["levels"]],
        "round_codelengths": r["round_codelengths"],
        "phases": [
            [ph["name"]] + [[w["arcs_scanned"], w["delta_evals"], w["messages"]]
                            for w in ph["work"]]
            for ph in r["phases"]
        ],
    }

sys.exit(0 if digest(a) == digest(b) else 1)
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

# verdict <a-prefix> <b-prefix>: "same" or what differs.
verdict() {
  if ! cmp -s "$1.clu" "$2.clu"; then
    echo "DIFF: .clu"
  elif ! same_report "$1.json" "$2.json"; then
    echo "DIFF: report"
  else
    echo same
  fi
}

for family in rmat lfr; do
  "$change_cli" generate "$family" "$work/$family.txt" 1 >/dev/null
  "$graphpack" "$work/$family.txt" "$work/$family.blockgraph" >/dev/null
done

failures=0
total=0
declare -A ref_made  # --self: reference run -> ok | failed
printf '%-6s %-2s %-6s %-7s %-8s %-6s %s\n' graph p engine trans backend faults verdict

# check <graph> <p> <engine> <transport> <backend> <faults|->: run one
# configuration and compare it (with the parent CLI's run of it, or with
# --self, with the inproc-resident run of the same graph, p, engine and
# seed, made once and reused).
check() {
  local family="$1" p="$2" engine="$3" transport="$4" backend="$5" plan="$6"
  local tag="${family}_p${p}_${engine}_${transport}_${backend}"
  [ "$plan" != - ] && tag+="_faults"
  local input="$work/$family.txt"
  [ "$backend" = blocks ] && input="$work/$family.blockgraph"
  local common=(--ranks "$p")
  [ "$engine" = async ] && common+=(--async)
  [ "$plan" != - ] && common+=(--seed 7)
  local args=("${common[@]}" --transport "$transport" --graph-backend "$backend")
  [ "$plan" != - ] && args+=(--faults "$plan")
  local result
  total=$((total + 1))
  if [ -n "$parent_cli" ]; then
    if ! run_cli "$parent_cli" "$input" "$work/parent_$tag" "${args[@]}"; then
      result="parent run failed (see $work/parent_$tag.log)"
    elif ! run_cli "$change_cli" "$input" "$work/change_$tag" "${args[@]}"; then
      result="change run failed (see $work/change_$tag.log)"
    else
      result="$(verdict "$work/parent_$tag" "$work/change_$tag")"
    fi
  else
    local ref="${family}_p${p}_${engine}_inproc_resident"
    [ "$plan" != - ] && ref+="_seed7"
    if [ -z "${ref_made[$ref]:-}" ]; then
      if run_cli "$change_cli" "$work/$family.txt" "$work/ref_$ref" \
           "${common[@]}" --transport inproc --graph-backend resident; then
        ref_made[$ref]=ok
      else
        ref_made[$ref]=failed
      fi
    fi
    if [ "${ref_made[$ref]}" = failed ]; then
      result="reference run failed (see $work/ref_$ref.log)"
    elif ! run_cli "$change_cli" "$input" "$work/self_$tag" "${args[@]}"; then
      result="run failed (see $work/self_$tag.log)"
    else
      result="$(verdict "$work/ref_$ref" "$work/self_$tag")"
    fi
  fi
  [ "$result" = same ] || failures=$((failures + 1))
  printf '%-6s %-2s %-6s %-7s %-8s %-6s %s\n' "$family" "$p" "$engine" \
    "$transport" "$backend" "$([ "$plan" = - ] && echo none || echo on)" "$result"
}

for family in rmat lfr; do
  for p in 1 2 3 4; do
    for engine in sync async; do
      for transport in inproc socket; do
        for backend in resident blocks; do
          # --self: the inproc-resident run is the reference itself.
          [ -z "$parent_cli" ] && [ "$transport" = inproc ] &&
            [ "$backend" = resident ] && continue
          check "$family" "$p" "$engine" "$transport" "$backend" -
        done
      done
    done
  done
  check "$family" 4 sync socket resident "$faults"
done

echo "$((total - failures))/$total configurations identical"
[ "$failures" -eq 0 ]
