#!/bin/sh
# Minimal CI gate: formatting (when ocamlformat is available), build,
# docs, full test suite, a smoke run of the CLI's error paths, the
# static-verifier self-test, the differential fuzz gate and the
# service chaos-soak gate.
set -eu

cd "$(dirname "$0")/.."

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune fmt =="
  dune build @fmt || {
    echo "formatting drift — run 'dune fmt'" >&2
    exit 1
  }
else
  echo "== dune fmt == (skipped: ocamlformat not installed)"
fi

echo "== dune build =="
dune build @all

echo "== dune build @doc =="
# @doc must always succeed; the odoc-rendered private docs only run
# where odoc is installed (same guard pattern as ocamlformat above).
dune build @doc
if command -v odoc >/dev/null 2>&1; then
  dune build @doc-private
else
  echo "   (odoc not installed: skipping @doc-private rendering)"
fi

echo "== dune runtest =="
dune runtest

echo "== -j determinism reruns =="
# The jobs:1 == jobs:N cases depend on how the domain pool happens to
# schedule tasks, so one green run proves little: rerun each about 20
# times and fail on the first red run.
runs=20
for spec in "obs merge" "explore sweep 2,3" "explore pareto 1" \
    "policy portfolio 0,1" "esim determinism 2"; do
  set -- $spec
  exe="_build/default/test/test_$1.exe"
  shift
  i=1
  while [ "$i" -le "$runs" ]; do
    "$exe" test "$@" >/dev/null 2>&1 || {
      echo "determinism case '$spec' failed on rerun $i of $runs" >&2
      "$exe" test "$@" >&2 || true
      exit 1
    }
    i=$((i + 1))
  done
done

echo "== CLI smoke =="
dune exec -- bin/mhla_cli.exe list >/dev/null
dune exec -- bin/mhla_cli.exe robustness motion_estimation --trials 2 \
  >/dev/null
dune exec -- bin/mhla_cli.exe sweep motion_estimation -j 2 --min 256 \
  --max 1024 >/dev/null
dune exec -- bin/mhla_cli.exe run motion_estimation --search annealing \
  >/dev/null
rc=0
dune exec -- bin/mhla_cli.exe run no_such_app >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "expected exit 2 for an unknown application, got $rc" >&2
  exit 1
fi

echo "== check gate =="
# The static verifier must accept every bundled application...
for app in $(dune exec -- bin/mhla_cli.exe list 2>/dev/null \
    | tail -n +3 | awk '{print $1}'); do
  dune exec -- bin/mhla_cli.exe check "$app" -q || {
    echo "mhla check $app reported errors" >&2
    exit 1
  }
done
# ...emit well-formed JSON...
if command -v python3 >/dev/null 2>&1; then
  dune exec -- bin/mhla_cli.exe check motion_estimation --json \
    | python3 -m json.tool >/dev/null || {
    echo "mhla check --json is not well-formed JSON" >&2
    exit 1
  }
else
  echo "   (python3 not installed: skipping JSON validation)"
fi
# ...and catch a seeded corruption: a TE extension pushed across a data
# dependency must fail the gate with exit 1 (a silent checker is worse
# than none).
rc=0
dune exec -- bin/mhla_cli.exe check motion_estimation --mutate te -q \
  >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 for the seeded TE race, got $rc" >&2
  exit 1
fi
# ...export well-formed SARIF 2.1.0 with a populated rules table and
# one fully-located result per finding...
sarif=/tmp/mhla_ci_check.sarif
dune exec -- bin/mhla_cli.exe check motion_estimation --sarif "$sarif" -q
if command -v python3 >/dev/null 2>&1; then
  python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
if d["version"] != "2.1.0":
    sys.exit("SARIF version is not 2.1.0")
run = d["runs"][0]
for key in ("results", "tool"):
    if key not in run:
        sys.exit(f"SARIF run is missing runs[].{key}")
if not run["tool"]["driver"]["rules"]:
    sys.exit("SARIF rules table is empty")
for r in run["results"]:
    for key in ("ruleId", "level", "message"):
        if key not in r:
            sys.exit(f"SARIF result is missing {key}")
' "$sarif" || exit 1
else
  echo "   (python3 not installed: skipping SARIF validation)"
fi
rm -f "$sarif"
# ...explain any catalogued code on demand...
dune exec -- bin/mhla_cli.exe check --explain MHLA203 \
  | grep -q interference || {
  echo "check --explain MHLA203 did not name its owning pass" >&2
  exit 1
}
# ...catch the interference corruption (a punctured DMA priority
# sequence)...
rc=0
dune exec -- bin/mhla_cli.exe check motion_estimation --mutate interference \
  -q >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 for the seeded priority hole, got $rc" >&2
  exit 1
fi
# ...catch a planted dead array under --Werror, with the application's
# own pre-existing warning suppressed via .mhla-lint syntax so the
# unmutated run stays clean (proving suppression narrows, not blinds)...
lint_cfg=/tmp/mhla_ci_lint.cfg
printf 'MHLA302 array=subband\n' >"$lint_cfg"
dune exec -- bin/mhla_cli.exe check mp3_filterbank --Werror \
  --lint-config "$lint_cfg" -q || {
  echo "suppressed mp3_filterbank check is not clean under --Werror" >&2
  exit 1
}
rc=0
dune exec -- bin/mhla_cli.exe check mp3_filterbank --Werror \
  --lint-config "$lint_cfg" --mutate lints -q >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 for the planted dead array, got $rc" >&2
  exit 1
fi
rm -f "$lint_cfg"
# ...and hold a 100-program generated corpus to zero errors under
# --Werror (the suppression file scopes out the lint classes random
# programs hit by design: dead arrays, non-amortising streams).
corpus_cfg=/tmp/mhla_ci_corpus.cfg
printf 'MHLA301\nMHLA302\nMHLA305\nMHLA306\n' >"$corpus_cfg"
dune exec -- bin/mhla_cli.exe check --corpus 100 --seed 42 --Werror \
  --lint-config "$corpus_cfg" -q || {
  echo "generated-corpus check gate failed" >&2
  exit 1
}
rm -f "$corpus_cfg"

echo "== verify-live gate =="
# In-loop verification must be free of observable effect on the solve:
# a run under --verify-live prints bit-identical stdout to the plain
# run (its report goes to stderr), on an app with and one without TE
# extensions.
for app in motion_estimation qsdpcm; do
  plain=/tmp/mhla_ci_plain.out
  live=/tmp/mhla_ci_live.out
  dune exec -- bin/mhla_cli.exe run "$app" >"$plain" 2>/dev/null
  dune exec -- bin/mhla_cli.exe run "$app" --verify-live >"$live" 2>/dev/null
  cmp -s "$plain" "$live" || {
    echo "run $app --verify-live stdout differs from the plain solve" >&2
    exit 1
  }
  rm -f "$plain" "$live"
done

echo "== pareto gate =="
# A small budget grid that spans SRAM energy saturation (so the
# branch-and-bound pruning path is exercised) must finish cleanly on
# two applications...
pareto_grid="1024,16384,65536,262144"
for app in motion_estimation edge_detection; do
  dune exec -- bin/mhla_cli.exe pareto "$app" --level "$pareto_grid" \
    >/dev/null || {
    echo "mhla pareto $app failed" >&2
    exit 1
  }
done
# ...emit a well-formed JSON document with a non-empty frontier, and
# produce the same frontier regardless of worker count (stats such as
# pruned counts are timing-dependent under -j > 1; the frontier is
# not allowed to be).
if command -v python3 >/dev/null 2>&1; then
  pareto_j1=/tmp/mhla_ci_pareto_j1.json
  pareto_j4=/tmp/mhla_ci_pareto_j4.json
  dune exec -- bin/mhla_cli.exe pareto motion_estimation \
    --level "$pareto_grid" -j 1 --json >"$pareto_j1"
  dune exec -- bin/mhla_cli.exe pareto motion_estimation \
    --level "$pareto_grid" -j 4 --json >"$pareto_j4"
  python3 -c '
import json, sys
j1 = json.load(open(sys.argv[1]))
j4 = json.load(open(sys.argv[2]))
if not j1["frontier"]:
    sys.exit("pareto --json returned an empty frontier")
if j1["partial"] or j4["partial"]:
    sys.exit("an undeadlined pareto run reported partial=true")
if j1["frontier"] != j4["frontier"]:
    sys.exit("-j 1 and -j 4 disagree on the frontier")
' "$pareto_j1" "$pareto_j4" || exit 1
  rm -f "$pareto_j1" "$pareto_j4"
else
  echo "   (python3 not installed: skipping frontier JSON validation)"
fi

echo "== simulate gate =="
# The discrete-event simulator must cross-validate the analytic TE
# gain on real applications: exit 0, agreement reported, and every
# stream's divergence inside its own documented tolerance.
for app in motion_estimation wavelet_2d; do
  dune exec -- bin/mhla_cli.exe simulate "$app" >/dev/null || {
    echo "mhla simulate $app failed" >&2
    exit 1
  }
done
if command -v python3 >/dev/null 2>&1; then
  sim_json=/tmp/mhla_ci_simulate.json
  dune exec -- bin/mhla_cli.exe simulate motion_estimation --json \
    >"$sim_json"
  python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
if not d["checks"]:
    sys.exit("simulate --json reported no streams")
if not d["agreement"]:
    sys.exit("analytic and event-driven TE gains diverged: "
             + json.dumps(d["divergences"]))
for c in d["checks"]:
    dev = abs(c["event_gain_cycles"] - c["analytic_gain_cycles"])
    if dev > c["gain_tolerance_cycles"]:
        sys.exit("%s: divergence %d exceeds tolerance %d"
                 % (c["id"], dev, c["gain_tolerance_cycles"]))
    if not c["neutral_consistent"]:
        sys.exit("neutral event sim drifted from Pipeline.run")
' "$sim_json" || exit 1
  rm -f "$sim_json"
else
  echo "   (python3 not installed: skipping divergence validation)"
fi

echo "== trend page gate =="
# doc/TREND.md is generated from bench/history/ by scripts/trend.py;
# the rendering is deterministic, so re-rendering must reproduce the
# committed page byte for byte (stale or hand-edited pages fail).
if command -v python3 >/dev/null 2>&1; then
  trend_md=/tmp/mhla_ci_trend.md
  trend_html=/tmp/mhla_ci_trend.html
  python3 scripts/trend.py --out "$trend_md" --html "$trend_html" \
    >/dev/null
  cmp -s "$trend_md" doc/TREND.md || {
    echo "doc/TREND.md is stale — run 'python3 scripts/trend.py'" >&2
    exit 1
  }
  grep -q "esim" "$trend_md" || {
    echo "trend page carries no EXT-ESIM metrics" >&2
    exit 1
  }
  grep -q "<table>" "$trend_html" || {
    echo "trend HTML page carries no tables" >&2
    exit 1
  }
  rm -f "$trend_md" "$trend_html"
else
  echo "   (python3 not installed: skipping trend page validation)"
fi

echo "== fuzz gate =="
# 200 seeded random programs through the full differential battery
# (engine, pipeline cross-validation, verifier on both search engines,
# trace interpreter, fault injection) — deterministic in --seed.
dune exec -- bin/mhla_cli.exe fuzz --seed 42 --count 200 --jobs 2 -q
# The gate must be live: a seeded engine drift has to fail with exit 1
# and print a shrunk, replayable counterexample.
rc=0
fuzz_out=$(dune exec -- bin/mhla_cli.exe fuzz --seed 42 --count 3 --jobs 1 \
  --mutate engine 2>&1) || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 for the seeded engine drift, got $rc" >&2
  exit 1
fi
echo "$fuzz_out" | grep -q "replay: mhla fuzz --replay=" || {
  echo "seeded engine drift did not print a replay line" >&2
  exit 1
}
echo "$fuzz_out" | grep -q "shrunk reproducer" || {
  echo "seeded engine drift did not print a shrunk reproducer" >&2
  exit 1
}
# The incremental-verify differential must be live too: a seeded drift
# between the incremental and from-scratch reports has to fail.
rc=0
dune exec -- bin/mhla_cli.exe fuzz --seed 42 --count 2 --jobs 1 \
  --mutate verify -q >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "expected exit 1 for the seeded verify drift, got $rc" >&2
  exit 1
fi

echo "== soak gate =="
# The in-process chaos soak: 200 seeded requests (valid solves, fault
# riders, injected crashes, zero deadlines, malformed JSON, oversized
# payloads) through a live 2-worker service; every isolation invariant
# (exactly one in-order response per request, ok payloads bit-identical
# to direct solves) must hold.
dune exec -- bin/mhla_cli.exe soak --requests 200 --seed 42 --jobs 2 -q
# The same chaos mix must survive the CLI path end to end: one JSONL
# response per request, exit 0, and the hostile classes answered with
# structured errors rather than a dead process.
soak_reqs=/tmp/mhla_ci_soak_reqs.jsonl
soak_resps=/tmp/mhla_ci_soak_resps.jsonl
dune exec -- bin/mhla_cli.exe soak --requests 200 --seed 42 \
  --emit-jsonl >"$soak_reqs"
dune exec -- bin/mhla_cli.exe batch "$soak_reqs" --jobs 2 \
  >"$soak_resps" 2>/dev/null
reqs=$(wc -l <"$soak_reqs")
resps=$(wc -l <"$soak_resps")
if [ "$reqs" -ne "$resps" ]; then
  echo "soak batch: $reqs request(s) but $resps response(s)" >&2
  exit 1
fi
grep -q '"code":"exception"' "$soak_resps" || {
  echo "poisoned request did not yield a structured exception response" >&2
  exit 1
}
grep -q '"code":"json-parse"' "$soak_resps" || {
  echo "malformed request did not yield a structured json-parse response" >&2
  exit 1
}
rm -f "$soak_reqs" "$soak_resps"

echo "== trace smoke =="
trace=/tmp/mhla_ci_trace.json
dune exec -- bin/mhla_cli.exe run motion_estimation --trace "$trace" \
  >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$trace" >/dev/null || {
    echo "trace is not well-formed JSON" >&2
    exit 1
  }
else
  echo "   (python3 not installed: skipping JSON validation)"
fi
for key in '"traceEvents"' '"ph"' '"displayTimeUnit"' '"otherData"'; do
  grep -q "$key" "$trace" || {
    echo "trace is missing required key $key" >&2
    exit 1
  }
done
rm -f "$trace"

echo "== bench smoke + baseline gate (EXT-ENGINE, EXT-TRACE, EXT-CHECK, EXT-GEN, EXT-SERVE, EXT-PARETO, EXT-POLICY) =="
# The bench writes BENCH_<rev>.json into its working directory; run it
# from a scratch dir so CI never litters the checkout. --check fails
# the run when any stable metric drifts >15% from the committed
# bench/baseline.json.
bench_dir=$(mktemp -d /tmp/mhla_ci_bench.XXXXXX)
repo_root=$(pwd)
dune build bench/main.exe
(cd "$bench_dir" && "$repo_root/_build/default/bench/main.exe" \
  --check "$repo_root/bench/baseline.json" \
  EXT-ENGINE EXT-TRACE EXT-CHECK EXT-GEN EXT-SERVE EXT-PARETO \
  EXT-POLICY >/dev/null)
# Every run must leave a machine-readable metrics file with the
# EXT-PARETO and EXT-POLICY keys the experiment log quotes.
if command -v python3 >/dev/null 2>&1; then
  python3 -c '
import json, sys
m = json.load(open(sys.argv[1]))
for key in ("ext_pareto.motion_estimation.points_per_s",
            "ext_pareto.motion_estimation.pruning_ratio",
            "ext_policy.motion_estimation.winner",
            "ext_policy.predictor.precision",
            "ext_check.incremental.median_speedup"):
    if key not in m:
        sys.exit(f"BENCH json is missing {key}")
if m["ext_check.incremental.median_speedup"] <= 5.0:
    sys.exit("incremental verification is not >5x faster per move than "
             "a full suite run")
if m["ext_pareto.motion_estimation.pruning_ratio"] <= 1.0:
    sys.exit("pruning ratio did not exceed 1 on the saturation grid")
for app in ("motion_estimation", "qsdpcm", "cavity_detector"):
    if not m[f"ext_policy.{app}.predictor_clean"]:
        sys.exit(f"predictor-filtered solution for {app} failed the verifier")
    if m[f"ext_policy.{app}.probes_predictor"] >= m[f"ext_policy.{app}.probes_greedy"]:
        sys.exit(f"predictor saved no probes on {app}")
' "$bench_dir/BENCH_dev.json" || exit 1
else
  echo "   (python3 not installed: skipping bench metrics validation)"
fi
rm -rf "$bench_dir"

echo "CI OK"
