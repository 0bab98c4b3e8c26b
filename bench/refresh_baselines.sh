#!/usr/bin/env bash
# Regenerate the committed perf-gate baselines in bench/baselines/.
#
# The CI perf gate diffs each bench's fresh BENCH_*.json against the file
# committed here (wgtt-report diff), so the baselines must be refreshed —
# via this script, never by hand — whenever a simulation change legitimately
# moves the deterministic outputs (goodput, switch counts) or the report
# schema (run labels, metrics keys).
#
# Usage:  bench/refresh_baselines.sh [BUILD_DIR] [BENCH_ID...]
#
# With no BENCH_IDs every baseline is refreshed; otherwise only the named
# ones (ids are the first column of the table below, plus `soak`), e.g.
#   bench/refresh_baselines.sh build-baseline hotpath
# when a change legitimately moves only the hot-path microbench rows.
#
# Runs each baseline bench single-job for stable wall_ms numbers; expect a
# few minutes.  Run on an otherwise idle machine, then review the printed
# wgtt-report diff before committing the updated baselines.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-baseline}"
if [[ $# -gt 0 ]]; then shift; fi
requested=("$@")
baseline_dir="${repo_root}/bench/baselines"

# Bench id -> committed baseline file -> bench args.  Sweep benches run
# --jobs 1 for stable wall_ms; the hot-path microbench sets its own rep
# count.  Add a line per gated bench.
benches=(
  "fig13_speed_sweep fig13.json --jobs 1"
  "chaos_sweep chaos.json --jobs 1"
  "control_chaos control_chaos.json --jobs 1"
  "policy_tournament tournament.json --jobs 1"
  "hotpath hotpath.json --reps 5"
)

# wanted ID: true when no ids were given or ID is among them.
wanted() {
  [[ ${#requested[@]} -eq 0 ]] && return 0
  local id
  for id in "${requested[@]}"; do
    [[ "${id}" == "$1" ]] && return 0
  done
  return 1
}

known=(soak)
for entry in "${benches[@]}"; do
  read -r bench_id _ <<<"${entry}"
  known+=("${bench_id}")
done
for id in "${requested[@]}"; do
  if [[ " ${known[*]} " != *" ${id} "* ]]; then
    echo "unknown bench id '${id}' (known: ${known[*]})" >&2
    exit 2
  fi
done

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
targets=(wgtt-report)
for id in "${known[@]}"; do
  if wanted "${id}"; then targets+=("bench_${id}"); fi
done
cmake --build "${build_dir}" -j "$(nproc)" --target "${targets[@]}"

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

for entry in "${benches[@]}"; do
  read -r bench_id baseline_file bench_args <<<"${entry}"
  wanted "${bench_id}" || continue
  echo "== ${bench_id} -> baselines/${baseline_file}"
  # shellcheck disable=SC2086  # bench_args is intentionally word-split
  (cd "${workdir}" && "${build_dir}/bench/bench_${bench_id}" ${bench_args} --force)
  report="${workdir}/BENCH_${bench_id}.json"
  if [[ -f "${baseline_dir}/${baseline_file}" ]]; then
    # Show what the refresh changes; the diff warning about wall_ms drift
    # between machines is expected and fine.
    "${build_dir}/src/wgtt-report" diff \
      "${baseline_dir}/${baseline_file}" "${report}" --soft || true
  fi
  cp "${report}" "${baseline_dir}/${baseline_file}"
done

# The soak baseline is different in kind: CI gates the *health stream*
# (window/check/violation counts, packet ledger, drift slopes), not the
# BENCH json, so it is emitted by the analyzer rather than copied.  Keep
# --sim-minutes in lockstep with the soak-health job in ci.yml.
if wanted soak; then
  echo "== soak -> baselines/soak.json (health-stream baseline)"
  (cd "${workdir}" && "${build_dir}/bench/bench_soak" --sim-minutes 12 --health-strict --force)
  "${build_dir}/src/wgtt-report" health "${workdir}/HEALTH_soak.jsonl" \
    --strict --emit-baseline "${baseline_dir}/soak.json"
fi

echo "baselines refreshed; review with git diff before committing"
