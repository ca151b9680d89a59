#!/usr/bin/env bash
# Run every bench_fig* binary (plus bench_recovery, bench_loadgen and the
# pairing/CP-ABE and OPRF/key-regression layer rows of
# bench_ablation_primitives) at --smoke scale
# with --json output and merge the results into one document, suitable for
# diffing against
# BENCH_baseline.json (see tools/ci/bench_compare.py) or for regenerating
# that baseline (see EXPERIMENTS.md):
#
#   tools/ci/bench_smoke.sh <build-dir> <out.json>
#
# Each bench runs REPS times (default 3) and bench_compare.py --merge folds
# the repetitions into an element-wise median — single smoke-scale timings
# swing well past the default 25% comparison band, medians stay inside it.
# CI still widens the band (--tolerance 0.60) for shared-runner noise; the
# shape/scale/row-count checks are exact regardless.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <out.json>" >&2
  exit 2
fi

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
BUILD_DIR="$1"
OUT_JSON="$2"
REPS="${REPS:-3}"

BENCHES=(bench_fig5_keygen bench_fig6_encryption bench_fig7_updown
         bench_fig8_rekeying bench_fig9_storage bench_fig10_trace
         bench_recovery bench_loadgen bench_ablation_primitives)

# Per-bench extra arguments: the ablation suite runs only the layer rows its
# --json output reports (layers_pairing, layers_oprf).
declare -A EXTRA_ARGS=(
  [bench_ablation_primitives]='--benchmark_filter=^BM_(TatePairing|G1ScalarMul|AbeEncrypt/1|AbeDecrypt/1|OprfClientBlind|OprfManagerSign|OprfClientUnblind|KeyRegressionWind|KeyRegressionUnwind)$'
)

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT

PARTS=()
for bench in "${BENCHES[@]}"; do
  bin="${BUILD_DIR}/bench/${bench}"
  if [[ ! -x "${bin}" ]]; then
    echo "bench_smoke: ${bin} not built" >&2
    exit 1
  fi
  for rep in $(seq 1 "${REPS}"); do
    echo "=== bench_smoke: ${bench} (${rep}/${REPS}) ==="
    "${bin}" --smoke --json "${TMP_DIR}/${bench}.${rep}.json" \
        ${EXTRA_ARGS[${bench}]:-} > "${TMP_DIR}/${bench}.${rep}.log"
    tail -n 2 "${TMP_DIR}/${bench}.${rep}.log"
    PARTS+=("${TMP_DIR}/${bench}.${rep}.json")
  done
done

python3 "${REPO_ROOT}/tools/ci/bench_compare.py" --merge "${OUT_JSON}" "${PARTS[@]}"
