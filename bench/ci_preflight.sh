#!/bin/sh
# Baseline preflight: every report a workflow passes to `--baseline`
# must exist and must carry every experiment id `fmmlab bench --list`
# prints, or the bench gates that use it cannot mean anything.
#
#   sh bench/ci_preflight.sh [WORKFLOW]    (default .github/workflows/ci.yml)
#
# Run from the repository root; exits 1 naming each missing file or id.
set -eu
workflow=${1:-.github/workflows/ci.yml}
baselines=$(grep -o -- '--baseline [^ ]*\.json' "$workflow" | awk '{print $2}' | sort -u)
if [ -z "$baselines" ]; then
  echo "preflight: $workflow names no --baseline"
  exit 1
fi
ids=$(dune exec bin/fmmlab.exe -- bench --list | awk '{print $1}')
status=0
for b in $baselines; do
  if [ ! -f "$b" ]; then
    echo "preflight: $b (a --baseline in $workflow) is missing"
    status=1
    continue
  fi
  for id in $ids; do
    if ! grep -q "\"id\": \"$id\"" "$b"; then
      echo "preflight: $b lacks experiment $id"
      status=1
    fi
  done
  [ "$status" -ne 0 ] || echo "preflight: $b covers all $(echo "$ids" | wc -l) experiments"
done
exit $status
