#!/usr/bin/env bash
# Exit-code contract of the shipped CLIs: `tgcrn_obs` (show | stacks | diff
# | watch | slow), plus the strict flag parsing of `train_model` and
# `export_dataset`. Exit codes are 0 ok, 1 regression or server error,
# 2 usage or parse error; a bad number or a flag without its value is a
# usage error, never a crash.
#
# Usage: tests/obs_cli_test.sh <tgcrn_obs> <train_model> <export_dataset>
#   (registered as the ctest `obs_cli`; temp files go under $TMPDIR)
set -u

obs=$1
train=$2
export_dataset=$3
baselines="$(cd "$(dirname "$0")/.." && pwd)/bench_results/baselines"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/obs_cli.XXXXXX")" || exit 1
trap 'rm -rf "$tmp"' EXIT
failures=0

fail() {
  echo "FAIL: $*"
  sed 's/^/  | /' "$tmp/err" | head -5
  failures=$((failures + 1))
}

# run DESCRIPTION COMMAND...: runs the command, keeping its exit code in
# $code and its output in $tmp/out and $tmp/err.
run() {
  what=$1
  shift
  "$@" > "$tmp/out" 2> "$tmp/err"
  code=$?
}

# expect CODE DESCRIPTION COMMAND...
expect() {
  local want=$1
  shift
  run "$@"
  if [ "$code" -ne "$want" ]; then
    fail "$what: exit $code, want $want"
  else
    echo "ok: $what (exit $code)"
  fi
}

# --- committed baselines: self-diff at 0 passes, a raised MAE regresses ---
for f in "$baselines"/*.jsonl; do
  expect 0 "$(basename "$f") self-diff at 0" \
    "$obs" diff "$f" "$f" --max-regress-pct=0
done

sparse="$baselines/sparse_smoke.jsonl"
mae="$(sed -n 's/.*"test_average":{"mae":\([0-9.eE+-]*\).*/\1/p' "$sparse")"
raised="$(awk -v m="$mae" 'BEGIN { printf "%.6f", m * 1.5 }')"
sed "s/\"test_average\":{\"mae\":$mae/\"test_average\":{\"mae\":$raised/" \
  "$sparse" > "$tmp/raised.jsonl"
if [ -z "$mae" ] || ! grep -q "\"mae\":$raised" "$tmp/raised.jsonl"; then
  echo "FAIL: could not raise the summary test MAE of $sparse"
  failures=$((failures + 1))
fi
expect 1 "summary test MAE +50% at 25%" \
  "$obs" diff "$sparse" "$tmp/raised.jsonl" --max-regress-pct=25

# --- usage and parse errors exit 2 -----------------------------------------
expect 2 "non-numeric --max-regress-pct" \
  "$obs" diff "$sparse" "$sparse" --max-regress-pct=abc
expect 2 "missing file" "$obs" show "$tmp/no-such-file.json"
expect 2 "unknown subcommand" "$obs" frobnicate "$sparse"
expect 2 "non-numeric --port" "$obs" show --port abc
expect 2 "--count without a value" "$obs" watch --port 1 --count
# Port 1 is privileged and unserved: the connection is refused.
expect 1 "unreachable server" "$obs" show --port 1

# --- a fresh profiled run feeds show / stacks / diff -----------------------
expect 0 "export_dataset metro" \
  "$export_dataset" metro "$tmp/metro.csv" --nodes 4 --days 8 --seed 7
model=("$train" "$tmp/metro.csv" --nodes 4 --features 2 --steps-per-day 72
       --input-steps 4 --output-steps 2 --hidden 8 --threads 1 --seed 3)
expect 0 "train_model --prof --report" "${model[@]}" --epochs 1 \
  --prof "$tmp/run.prof.json" --report "$tmp/run.jsonl"

expect 0 "show profile" "$obs" show "$tmp/run.prof.json"
grep -q "kernel cost summary" "$tmp/out" && grep -q "tensor.Matmul" "$tmp/out" \
  || fail "show printed no kernel table"
expect 0 "stacks profile" "$obs" stacks "$tmp/run.prof.json"
[ -s "$tmp/out" ] || fail "stacks printed nothing"
expect 0 "profile self-diff at 0" \
  "$obs" diff "$tmp/run.prof.json" "$tmp/run.prof.json" --max-regress-pct=0
# The profile also holds the final evaluation, so the counts may differ;
# only a usage or parse error is wrong here.
run "report-vs-profile diff" \
  "$obs" diff "$tmp/run.jsonl" "$tmp/run.prof.json"
if [ "$code" -eq 2 ]; then
  fail "$what: exit 2"
else
  echo "ok: $what (exit $code)"
fi

# --- strict flags in train_model: exit 2, no uncaught exception ------------
expect 2 "train_model --epochs abc" "${model[@]}" --epochs abc
! grep -q terminate "$tmp/err" || fail "$what: uncaught exception"
expect 2 "train_model trailing --save" "${model[@]}" --epochs 1 --save
! grep -q terminate "$tmp/err" || fail "$what: uncaught exception"

if [ "$failures" -ne 0 ]; then
  echo "obs_cli: $failures failure(s)"
  exit 1
fi
echo "obs_cli: all checks passed"
