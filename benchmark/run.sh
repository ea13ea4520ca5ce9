#!/usr/bin/env bash
# Build nora_bench (benchmark/CMakeLists.txt, into .bench_build/) and run it.
#
#   bash benchmark/run.sh --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
#       one workload in one process; the last stdout line is its JSON result
#       (results file: .bench_build/results/<name>-trace<0|1>.json)
#   bash benchmark/run.sh [--seed <n>] [--seconds <s>]
#       every workload, untraced then traced, each in its own process;
#       all results are collected in .bench_build/results.json
#
# Options may be written "--key value" or "--key=value". Exits nonzero if a
# build fails or any run reports a wrong output.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
if [[ ! -f "${root}/src/CMakeLists.txt" ]]; then
  echo "run.sh: ${root}/src is missing; run from a full checkout" >&2
  exit 2
fi

args=()
workload=""
trace=0
while (($#)); do
  case "$1" in
    --smoke | --print-digests) args+=("$1") ;;
    --*=*) args+=("$1") ;;
    --*)
      if (($# < 2)); then
        echo "run.sh: $1 needs a value" >&2
        exit 2
      fi
      args+=("$1=$2")
      shift
      ;;
    *)
      echo "run.sh: unexpected argument '$1'" >&2
      exit 2
      ;;
  esac
  shift
done
for a in ${args[@]+"${args[@]}"}; do
  case "$a" in
    --workload=*) workload="${a#--workload=}" ;;
    --trace=*) trace="${a#--trace=}" ;;
  esac
done

mkdir -p "${build}/results"
if ! {
  [[ -f "${build}/CMakeCache.txt" ]] ||
    cmake -S "${root}/benchmark" -B "${build}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${build}" -j "$(nproc)" --target nora_bench
} >"${build}/build.log" 2>&1; then
  tail -n 40 "${build}/build.log" >&2
  echo "run.sh: build failed (full log: ${build}/build.log)" >&2
  exit 2
fi

bin="${build}/nora_bench"
common=(--digests="${root}/benchmark/digests.json"
        --spec="${root}/BENCHMARK.json")

if [[ -n "${workload}" ]]; then
  out=(--out="${build}/results/${workload}-trace${trace}.json")
  if [[ "${trace}" != 0 ]]; then
    out+=(--trace-out="${build}/results/${workload}.trace.json")
  fi
  exec "${bin}" "${common[@]}" "${out[@]}" ${args[@]+"${args[@]}"}
fi

status=0
parts=()
for w in $("${bin}" --list); do
  for t in 0 1; do
    res="${build}/results/${w}-trace${t}.json"
    rm -f "${res}"
    extra=()
    if ((t == 1)); then
      extra=(--trace-out="${build}/results/${w}.trace.json")
    fi
    "${bin}" "${common[@]}" --workload="${w}" --trace="${t}" --out="${res}" \
      ${extra[@]+"${extra[@]}"} ${args[@]+"${args[@]}"} || status=1
    if [[ -s "${res}" ]]; then parts+=("${res}"); fi
  done
done
{
  printf '{"runs":['
  sep=""
  for p in ${parts[@]+"${parts[@]}"}; do
    printf '%s' "${sep}"
    tr -d '\n' <"${p}"
    sep=","
  done
  printf ']}\n'
} >"${build}/results.json"
echo "results: ${build}/results.json"
exit "${status}"
