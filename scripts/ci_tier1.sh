#!/usr/bin/env bash
# Tier-1 verification with hang protection.
#
# Stages, each under a hard wall-clock ceiling so a wedged simulation
# fails CI instead of stalling it:
#
#   1. the repo's tier-1 test command (see ROADMAP.md);
#   2. parallel campaign smoke: tiny grid, Campaign.run(workers=2) on
#      the campaign service's loopback workers, crash + journal-resume
#      in both directions between serial and workers=2
#      (scripts/parallel_smoke.py);
#   3. hot-path kernel benchmark in --quick mode, which asserts every
#      production kernel stays bit-identical to its in-tree reference
#      oracle (an equivalence check only -- no timing gate), then an
#      *advisory* bench-history regression gate
#      (scripts/bench_regress.py, >15% per kernel);
#   4. stage 2 again with telemetry enabled (the workers=2 runs emit
#      service.* metrics and worker events), validating the emitted
#      manifest + metric snapshots against the schema catalog
#      (scripts/validate_telemetry.py), so instrumentation and catalog
#      cannot drift apart;
#   5. fault-tolerant campaign service smoke: two overlapping tenants,
#      seeded chaos killing the service's own loopback socket workers,
#      exactly-once journal, resume (scripts/service_smoke.py),
#      telemetry validated like stage 4;
#   6. playbook sweep fuzzer smoke: seeded tiny sweep + bisection,
#      exact re-run reproducibility, Rubix-S blind-vs-informed contrast
#      (scripts/fuzz_smoke.py), telemetry schema-validated;
#   7. distributed-service smoke: socket workers under seeded wire
#      chaos plus the zero-worker fallback
#      (scripts/distributed_smoke.py), telemetry and span trees
#      validated;
#   8. benchmark hook guard: the service-grid tests of perfbench/, whose
#      traced run wraps repro.service.scheduler.service_worker_main to
#      collect worker-side spans -- a change that breaks that hook fails
#      here rather than only in a benchmark run;
#   9. paper-number pin: the serial paper suite
#      (scripts/run_paper_suite.py) must reproduce
#      results_paper_suite.txt byte for byte, its "finished in" timing
#      lines aside.  A change meant to move a number updates that file
#      and EXPERIMENTS.md together;
#  10. telemetry-enabled window check: a 1M-line Rubix-D window gives
#      bit-identical stats with telemetry on and off, fires the
#      sim.windows/sim.lines counters, and its snapshot (the nested
#      window spans included) validates against the schema
#      (benchmarks/test_bench_telemetry.py; deterministic, not timed --
#      the timed disabled-overhead gate in that file stays out of CI).
#
# Per-test timeouts come from [tool.pytest.ini_options] in
# pyproject.toml (pytest-timeout, or the conftest SIGALRM fallback);
# this wrapper bounds each whole stage.
#
# Usage: scripts/ci_tier1.sh [extra pytest args...]
#   CI_TIER1_TIMEOUT=seconds   pytest stage budget (default 1800)
#   CI_SMOKE_TIMEOUT=seconds   parallel smoke budget (default 300,
#                              also used by the telemetry stage)
#   CI_BENCH_TIMEOUT=seconds   hot-path equivalence budget (default 300)
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET="${CI_TIER1_TIMEOUT:-1800}"
SMOKE_BUDGET="${CI_SMOKE_TIMEOUT:-300}"
BENCH_BUDGET="${CI_BENCH_TIMEOUT:-300}"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

run_bounded() {
    local budget="$1"
    shift
    if command -v timeout >/dev/null 2>&1; then
        timeout --kill-after=30 "$budget" "$@"
    else
        "$@"
    fi
}

run_bounded "$BUDGET" python -m pytest -x -q "$@"
run_bounded "$SMOKE_BUDGET" python scripts/parallel_smoke.py
run_bounded "$BENCH_BUDGET" python scripts/bench_hotpath.py --quick --out -

# Advisory regression gate over the committed bench history: compares
# the newest entry against the best comparable prior entry per kernel
# (>15% slower fails).  Advisory here because CI timing is noisy; run
# scripts/bench_regress.py directly as a hard gate for perf work.
run_bounded 60 python scripts/bench_regress.py \
    || echo "WARN: bench_regress reported a >15% kernel regression (advisory)"

# Stage 4: telemetry round-trip -- run the same smoke (serial and
# service-backed workers=2 runs) with telemetry enabled, then validate
# every emitted artifact against the schema.
TELEMETRY_DIR="$(mktemp -d -t rubix-telemetry-XXXXXX)"
trap 'rm -rf "$TELEMETRY_DIR"' EXIT
run_bounded "$SMOKE_BUDGET" env REPRO_TELEMETRY_DIR="$TELEMETRY_DIR" \
    python scripts/parallel_smoke.py
run_bounded 60 python scripts/validate_telemetry.py "$TELEMETRY_DIR"

# Stage 5: campaign-service smoke -- overlapping tenants under seeded
# chaos (kills of the service's own loopback socket workers, duplicated
# completions), exactly-once journal, chaos-free resume; telemetry
# validated like stage 4.
SERVICE_TELEMETRY_DIR="$(mktemp -d -t rubix-service-telemetry-XXXXXX)"
trap 'rm -rf "$TELEMETRY_DIR" "$SERVICE_TELEMETRY_DIR"' EXIT
run_bounded "$SMOKE_BUDGET" env REPRO_TELEMETRY_DIR="$SERVICE_TELEMETRY_DIR" \
    python scripts/service_smoke.py
run_bounded 60 python scripts/validate_telemetry.py "$SERVICE_TELEMETRY_DIR"

# Stage 6: sweep-fuzzer smoke -- deterministic playbook sweep, known
# minimal pattern, exact re-run reproducibility.  scheme="none" means
# the mitigation metrics legitimately never fire, so the telemetry gets
# the schema-only check.
FUZZ_TELEMETRY_DIR="$(mktemp -d -t rubix-fuzz-telemetry-XXXXXX)"
trap 'rm -rf "$TELEMETRY_DIR" "$SERVICE_TELEMETRY_DIR" "$FUZZ_TELEMETRY_DIR"' EXIT
run_bounded "$SMOKE_BUDGET" env REPRO_TELEMETRY_DIR="$FUZZ_TELEMETRY_DIR" \
    python scripts/fuzz_smoke.py
run_bounded 60 python scripts/validate_telemetry.py "$FUZZ_TELEMETRY_DIR" --no-required

# Stage 7: distributed-service smoke -- scheduler on an ephemeral
# loopback port, three spawned socket workers, seeded wire chaos
# (dropped/corrupt/torn frames, severed connections), exactly-once
# journal with forced re-dispatch, and the zero-worker degraded-mode
# fallback (scripts/distributed_smoke.py); telemetry validated like
# stage 4 -- the service.transport.* metrics ride along.
DIST_TELEMETRY_DIR="$(mktemp -d -t rubix-dist-telemetry-XXXXXX)"
trap 'rm -rf "$TELEMETRY_DIR" "$SERVICE_TELEMETRY_DIR" "$FUZZ_TELEMETRY_DIR" "$DIST_TELEMETRY_DIR"' EXIT
run_bounded "$SMOKE_BUDGET" env REPRO_TELEMETRY_DIR="$DIST_TELEMETRY_DIR" \
    python scripts/distributed_smoke.py
# --traces: every process in the distributed run exits cleanly, so the
# assembled span trees must be complete -- one root per trace, every
# parent span present (the smoke also hits /metrics//healthz//status
# mid-run and asserts the scheduler+workers share one rooted trace).
run_bounded 60 python scripts/validate_telemetry.py "$DIST_TELEMETRY_DIR" --traces

# Stage 8: benchmark hook guard -- the service-grid benchmark tests,
# including a traced run whose worker-side spans come through the
# service_worker_main wrapper (about 20 s).
run_bounded "$SMOKE_BUDGET" python -m pytest -q perfbench -k service

# Stage 9: paper-number pin -- the whole serial suite (about 80 s on a
# 2-core VM), diffed against the committed results with the timing
# lines dropped.
SUITE_OUT="$(mktemp -t rubix-suite-XXXXXX)"
trap 'rm -rf "$TELEMETRY_DIR" "$SERVICE_TELEMETRY_DIR" "$FUZZ_TELEMETRY_DIR" "$DIST_TELEMETRY_DIR" "$SUITE_OUT"' EXIT
run_bounded 600 python scripts/run_paper_suite.py "$SUITE_OUT" --quiet
diff <(grep -v 'finished in' results_paper_suite.txt) \
    <(grep -v 'finished in' "$SUITE_OUT")

# Stage 10: telemetry-enabled window check -- deterministic, not timed.
run_bounded "$SMOKE_BUDGET" python -m pytest -q \
    benchmarks/test_bench_telemetry.py::test_enabled_mode_matches_disabled_results
