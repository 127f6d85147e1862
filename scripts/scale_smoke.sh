#!/usr/bin/env bash
# Tier-1 scale smoke: run the solver scale sweep at one bounded point
# (12 DCs x 24 slots under a wall-clock budget) and check the dual-first
# path end to end against the two-phase referee — the bench itself fails
# loudly when no slot was solved on the dual path, when a dual-first
# solve failed, or when the solvers disagree on feasibility; the smoke
# additionally checks the emitted JSON (every slot on the dual path, zero
# phase-1 pivots, a zero objective gap over refereed slots, no dual
# failures, and the point's pinned pivot counts: 3691 dual first and
# 20754 for the referee, with no slot cut by the budget), pins the
# first slot of 32 DCs x 72 slots (the referee solves it in 16292
# pivots against 1143 dual first, with a zero objective gap) and
# cross-checks a traced simulation run through
# trace-summary (strict validation + per-slot reconciliation), demanding
# that the trace, too, records every solve on the dual path.
set -euo pipefail

bench=$1 sim=$2
dir=$(mktemp -d)
cleanup() { rm -rf "$dir"; }
trap cleanup EXIT

"$bench" --scale-only --scale-sizes 12x24 --scale-budget-ms 10000 \
  --json-scale "$dir/scale.json" >"$dir/scale.out"

field() { sed -n "s/.*\"$1\": \([0-9][0-9]*\).*/\1/p" "${2:-$dir/scale.json}"; }
dual_slots=$(field dual_slots)
dual_solves=$(field dual_solves)
referee_slots=$(field referee_slots)
if [ -z "$dual_solves" ] || [ "$dual_solves" -eq 0 ] \
  || [ "$dual_solves" -ne "$dual_slots" ]; then
  echo "scale smoke: not every slot was solved on the dual path" >&2
  cat "$dir/scale.out" >&2
  exit 1
fi
if ! grep -q '"dual_phase1_pivots": 0,' "$dir/scale.json"; then
  echo "scale smoke: dual-first solves spent phase-1 pivots" >&2
  cat "$dir/scale.json" >&2
  exit 1
fi
if [ -z "$referee_slots" ] || [ "$referee_slots" -eq 0 ] \
  || ! grep -q '"max_objective_gap": 0.0}' "$dir/scale.json"; then
  echo "scale smoke: dual first and the referee disagree on the objective" >&2
  cat "$dir/scale.json" >&2
  exit 1
fi
if ! grep -q '"dual_failures": 0,' "$dir/scale.json"; then
  echo "scale smoke: a dual-first solve failed at smoke scale" >&2
  cat "$dir/scale.json" >&2
  exit 1
fi
# Pivot counts are deterministic, so the whole point (754 rows) is
# pinned: a kernel change that moves one pivot of either solver here
# fails, at a size the unit tests' regression gate does not reach.
referee_iterations=$(field referee_iterations)
if ! grep -q '"truncated": false,' "$dir/scale.json" \
  || [ "$(field dual_iterations)" != 3691 ] \
  || [ "$referee_iterations" != 20754 ]; then
  echo "scale smoke: 12x24 no longer runs all slots in 3691 dual-first" \
    "and 20754 referee pivots" >&2
  cat "$dir/scale.json" >&2
  exit 1
fi

# One slot of 32x72: a 1-ms budget stops each curve after its first
# solve. A phase of the two-phase referee stalls more than ten times on
# this program, so the point pins that every stall takes a fresh
# cost-perturbation round until the optimum.
s32="$dir/scale32.json"
"$bench" --scale-only --scale-sizes 32x72 --scale-budget-ms 1 \
  --json-scale "$s32" >"$dir/scale32.out"
if [ "$(field referee_slots "$s32")" != 1 ] \
  || [ "$(field referee_failures "$s32")" != 0 ] \
  || ! grep -q '"max_objective_gap": 0.0}' "$s32" \
  || [ "$(field dual_iterations "$s32")" != 1143 ] \
  || [ "$(field referee_iterations "$s32")" != 16292 ]; then
  echo "scale smoke: the referee no longer solves the first 32x72 slot" \
    "in 16292 pivots (1143 dual first) with a zero objective gap" >&2
  cat "$s32" >&2
  exit 1
fi

# The same tally must surface through the trace pipeline: a traced
# online run, strictly validated and reconciled by trace-summary, has to
# report every solve on the dual path and no phase-1 pivot in its
# machine-readable report (the run's "totals" tally precedes the
# per-slot rows, so the first occurrence is the aggregate).
"$sim" --figure 6 --nodes 8 --slots 10 --runs 1 --schedulers postcard \
  --trace "$dir/scale_smoke.jsonl" >/dev/null
"$sim" trace-summary "$dir/scale_smoke.jsonl" --json >"$dir/summary.json"
if ! grep -q '"reconciliation":"ok"' "$dir/summary.json"; then
  echo "scale smoke: trace-summary --json reports a reconciliation failure" >&2
  cat "$dir/summary.json" >&2
  exit 1
fi
traced() { grep -o "\"$1\":[0-9]*" "$dir/summary.json" | head -1 | cut -d: -f2; }
traced_solves=$(traced solves)
traced_dual=$(traced dual_solves)
traced_phase1=$(traced phase1_pivots)
if [ -z "$traced_dual" ] || [ "$traced_dual" -eq 0 ] \
  || [ "$traced_dual" -ne "$traced_solves" ] || [ "$traced_phase1" -ne 0 ]; then
  echo "scale smoke: trace-summary reports solves off the dual path" >&2
  cat "$dir/summary.json" >&2
  exit 1
fi
echo "scale smoke: OK (${dual_solves} of ${dual_slots} sweep slots and ${traced_dual} traced solves on the dual path)"
