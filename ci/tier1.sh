#!/usr/bin/env bash
# Every tier-1 check after the install step, as the CI workflow runs it:
#
#   python -m pip install -e '.[test]'   # or: put a `latfield` command on PATH
#   bash ci/tier1.sh
#
# Run it from the root of a checkout.  It writes experiment-threads{1,2}/,
# chaos-blas{1,2}/, validate-blas{1,2}/, chaos-ladder.out, mc-additive.out
# and the traced round's trace files in .perfbench/ there (all git-ignored),
# and clears all but the trace files first, so a second run diffs only its
# own output.
set -euo pipefail

# each step first prints the wall seconds the step before it took (bash SECONDS)
last=""
step() {
  [ -z "$last" ] || printf '\n-- %s: %d s\n' "$last" $((SECONDS - started))
  last="$1" started=$SECONDS
  printf '\n== %s\n' "$1"
}

rm -rf experiment-threads1 experiment-threads2 chaos-blas1 chaos-blas2 validate-blas1 validate-blas2 \
  chaos-ladder.out mc-additive.out

step "Tier-1 tests"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

step "The installed latfield command on every frozen config"
for cfg in configs/*.yaml; do
  latfield validate --config "$cfg"
  latfield chaos --config "$cfg"
  latfield classify --config "$cfg"
done

step "The installed latfield rates command reads the classifier's boundary"
# one ulp either side of 1 - 1/(2q) = 5/6 at q = 3 is inside the marginal
# rule's tie, as classify holds it: the command exits 0 and its three rows
# print one g, the boundary's (log N)^-1/2
rates="$(latfield rates --q 3 --hurst 0.8333333333333333,0.8333333333333334,0.8333333333333335 \
  --alpha 0.8333333333333335 --beta 0.3)"
printf '%s\n' "$rates"
[ "$(grep -c '^q=3 H=' <<< "$rates")" -eq 3 ]
[ "$(grep '^q=3 H=' <<< "$rates" | sed 's/^[^:]*: //' | sort -u | wc -l)" -eq 1 ]

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
# elements), and a copy of the isotropic config whose [32, 32] rung is
# [1, 6000] takes them on a whole-lattice block past the dense cap, as a
# Toeplitz block of one axis longer than one point; every frozen
# config's validate report must not differ either
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
sed "s/^    - \[32, 32\]$/    - [1, 6000]/" configs/sepmatters-isotropic.yaml \
  > "$copies/sepmatters-isotropic-1x6000.yaml"
grep -qx "    - \[1, 6000\]" "$copies/sepmatters-isotropic-1x6000.yaml"
for threads in 1 2; do
  for cfg in configs/*.yaml "$copies"/*.yaml; do
    OPENBLAS_NUM_THREADS=$threads latfield chaos --config "$cfg" \
      --out "chaos-blas$threads/$(basename "$cfg" .yaml)"
  done
  for cfg in configs/*.yaml; do
    OPENBLAS_NUM_THREADS=$threads latfield validate --config "$cfg" \
      --out "validate-blas$threads/$(basename "$cfg" .yaml)"
  done
done
diff -r chaos-blas1 chaos-blas2
diff -r validate-blas1 validate-blas2

step "Benchmark references, one chaos-ladder round and one traced Monte Carlo round"
python3 perfbench/refs.py
python3 perfbench/run.py --workload chaos-ladder --seed 1 --seconds 1 > chaos-ladder.out
tail -n 1 chaos-ladder.out | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'
# the only step that runs the benchmark's worker on a Monte Carlo workload
# and its tracer, which wraps harness and reads Sampler's attributes
python3 perfbench/run.py --workload mc-additive --seed 1 --seconds 1 --trace 1 > mc-additive.out
tail -n 1 mc-additive.out | python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)'

step "tier-1 checks passed"
