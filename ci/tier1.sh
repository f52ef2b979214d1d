#!/usr/bin/env bash
# Every tier-1 check after the install step, as the CI workflow runs it:
#
#   python -m pip install -e '.[test]'   # or: put a `latfield` command on PATH
#   bash ci/tier1.sh
#
# Run it from the root of a checkout.  It writes experiment-threads{1,2}/,
# chaos-blas{1,2}/ and chaos-ladder.out there (all git-ignored), and clears
# them first, so a second run diffs only its own output.
set -euo pipefail

step() { printf '\n== %s\n' "$1"; }

rm -rf experiment-threads1 experiment-threads2 chaos-blas1 chaos-blas2 chaos-ladder.out

step "Tier-1 tests"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

step "The installed latfield command on every frozen config"
for cfg in configs/*.yaml; do
  latfield validate --config "$cfg"
  latfield chaos --config "$cfg"
  latfield classify --config "$cfg"
done

step "No frozen experiment depends on the thread count"
# every rung of more than one block of replicate pairs opens its own
# worker pool at 2 threads and runs inline at 1; the frozen configs
# hold such rungs on every path (separable, additive, Gneiting,
# isotropic), and the result JSON and CSV must not differ (the
# manifest records the thread count and the run's times)
for threads in 1 2; do
  for cfg in configs/*.yaml; do
    latfield experiment --config "$cfg" --threads $threads \
      --out "experiment-threads$threads/$(basename "$cfg" .yaml)"
  done
done
diff -r -x '*.manifest.json' experiment-threads1 experiment-threads2

step "Exact diagnostics do not depend on the BLAS thread count"
# the frozen configs are all q = 2; q = 3, 4 and 25 copies of the
# smoke config reach the clique diagrams of the exact fourth
# cumulant at low and high orders, q = 3 copies of the Gneiting
# and isotropic configs reach them on 2-D full lattices, q = 3
# copies of the two additive crit10 configs reach the additive
# dense fourth cumulant at a clique order, and a
# copy whose [128] rung is [12000] takes 4-cycle rows longer than
# the dot products OpenBLAS keeps on one thread (about 10 000
# elements)
copies="$(mktemp -d)"
trap 'rm -rf "$copies"' EXIT
for q in 3 4 25; do
  sed "s/^  q: 2$/  q: $q/" configs/smoke.yaml > "$copies/smoke-q$q.yaml"
  grep -qx "  q: $q" "$copies/smoke-q$q.yaml"
done
for name in gneiting-growing sepmatters-isotropic crit10-path-a crit10-path-b; do
  sed "s/^  q: 2$/  q: 3/" "configs/$name.yaml" > "$copies/$name-q3.yaml"
  grep -qx "  q: 3" "$copies/$name-q3.yaml"
done
sed "s/^    - \[128\]$/    - [12000]/" configs/smoke.yaml > "$copies/smoke-n12000.yaml"
grep -qx "    - \[12000\]" "$copies/smoke-n12000.yaml"
for threads in 1 2; do
  for cfg in configs/*.yaml "$copies"/*.yaml; do
    OPENBLAS_NUM_THREADS=$threads latfield chaos --config "$cfg" \
      --out "chaos-blas$threads/$(basename "$cfg" .yaml)"
  done
done
diff -r chaos-blas1 chaos-blas2

step "Benchmark references and one chaos-ladder round"
python3 perfbench/refs.py
python3 perfbench/run.py --workload chaos-ladder --seed 1 --seconds 1 > chaos-ladder.out
tail -n 1 chaos-ladder.out | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'

step "tier-1 checks passed"
