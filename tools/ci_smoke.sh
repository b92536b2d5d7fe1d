#!/usr/bin/env bash
# Tier-1 smoke gate: unit tests + a fast replay-kernel sanity benchmark.
#
# Usage: tools/ci_smoke.sh [extra pytest args...]
#
# 1. Runs the full tier-1 unit suite (tests/), failing fast.
# 2. Re-runs the chaos suites verbosely (worker SIGKILL, hangs past
#    timeout, corrupted cache entries, compile failure) so a resilience
#    regression is named in the CI log, not buried in the dots.
# 3. Runs the workload-frontier smoke: one small server-workload
#    generator per family (kvstore, webserver, compiler) through the
#    fused pipeline with the tolerance-tiered policy, gated on
#    seeded determinism, sparse/array plan parity, and a reliability
#    win over the perf-focused baseline.
# 4. Runs the kill/resume smoke: SIGKILLs a real checkpointed sweep
#    mid-run, resumes it, and asserts bit-identical rows with only the
#    unfinished workloads (one journaled job each) recomputed.  Then
#    the serve chaos smoke: a live placement daemon on a unix socket
#    with a worker SIGKILL'd mid-replay and a poison tenant (survivors
#    must be bit-identical to batch), plus a flooding tenant that must
#    be throttled with retry_after without degrading a polite tenant's
#    p95 latency.
# 5. Runs the replay-kernel, policy-kernel, end-to-end pipeline,
#    config-batched sweep (absolute wall budget, reference-oracle
#    parity), and workload-generator throughput benchmarks at a small
#    scale with relaxed JSON output paths, so CI catches both correctness drift
#    (the benchmarks assert bit-exact parity of replay results,
#    migration plans, residual cache-filter traces, shm handoffs,
#    fault-simulator tallies, and seeded generator determinism) and
#    gross performance regressions without a long wall-clock bill.
# 6. Runs the telemetry smoke: a tiny migration experiment twice with
#    REPRO_TELEMETRY on, asserting the run registry holds both rows
#    with non-empty epoch series, that `report` renders, and that a
#    self-`compare` of the two identical runs exits 0.
# 7. Runs the telemetry-overhead benchmark, asserting the dormant
#    (telemetry-off) instrumentation stays within 2% of the bare
#    engine and that telemetry never perturbs simulation results.
# 8. Runs the fuzz-marked property suites, the full verification
#    ladder (`repro-hma verify --quick`: cross-kernel differential
#    fuzzer, paper-invariant checks, EXPERIMENTS.md shape gate), and
#    the line-coverage gate against tools/coverage_baseline.json.
# 9. Runs the point-table smoke: `run all` at 2,000 accesses/core in
#    one process (one evaluation-point table for the whole run) and
#    with `--jobs 2` (one table per experiment) must print
#    byte-identical output, so a wrong cross-experiment hit is a diff.
# 10. Runs the profile parity smoke: every workload `run all` prepares,
#    at 2,000 accesses/core, must have a page profile bit-identical to
#    the stable-sort np.add.at oracle (tools/profile_parity.py).
#
# Environment:
#   REPRO_SMOKE_ACCESSES  accesses/core for the kernel benchmark (default 4000)

set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "== tier-1 unit tests =="
python -m pytest -x -q "$@"

echo "== chaos / fault-injection tests =="
# The chaos suites are tagged slow+chaos and excluded from tier-1 by
# the default addopts marker filter; the explicit -m here (last -m
# wins) opts back in.
python -m pytest -q -m chaos tests/harness/test_resilience.py \
    tests/sim/test_ckernel_fallback.py tests/serve/test_chaos.py

echo "== fuzz / property suites =="
python -m pytest -q -m fuzz tests

echo "== verification ladder (repro-hma verify --quick) =="
python -m repro.harness.cli verify --quick \
    --artifact-dir "$workdir/artifacts" \
    --json "$workdir/verify.json"

echo "== point table smoke (one table per run vs per experiment) =="
python -m repro.harness.cli run all --accesses 2000 --seed 0 \
    > "$workdir/run_all_one_table.txt"
python -m repro.harness.cli run all --accesses 2000 --seed 0 --jobs 2 \
    > "$workdir/run_all_per_experiment.txt"
diff "$workdir/run_all_one_table.txt" "$workdir/run_all_per_experiment.txt"

echo "== profile parity (page profile vs oracle, every run-all workload) =="
python tools/profile_parity.py

echo "== coverage gate =="
python tools/coverage_gate.py

echo "== kill/resume smoke =="
python tools/kill_resume_smoke.py

echo "== serve chaos smoke =="
python tools/serve_chaos_smoke.py

echo "== workload frontier smoke =="
python tools/frontier_smoke.py

echo "== ecc design-space smoke =="
python tools/ecc_smoke.py

echo "== replay kernel smoke benchmark =="
REPRO_BENCH_ACCESSES="${REPRO_SMOKE_ACCESSES:-4000}" \
REPRO_BENCH_REPLAY_JSON="$workdir/BENCH_replay.json" \
python -m pytest benchmarks/bench_replay_kernel.py -q -s -p no:cacheprovider

echo "== policy kernel smoke benchmark =="
REPRO_BENCH_ACCESSES="${REPRO_SMOKE_ACCESSES:-4000}" \
REPRO_BENCH_FAULT_TRIALS=20000 \
REPRO_BENCH_POLICY_JSON="$workdir/BENCH_policies.json" \
python -m pytest benchmarks/bench_policy_kernels.py -q -s -p no:cacheprovider

echo "== end-to-end pipeline smoke benchmark =="
REPRO_BENCH_ACCESSES="${REPRO_SMOKE_ACCESSES:-4000}" \
REPRO_BENCH_E2E_JSON="$workdir/BENCH_e2e.json" \
python -m pytest benchmarks/bench_e2e_pipeline.py -q -s -p no:cacheprovider

echo "== batched sweep budget benchmark (oracle parity) =="
REPRO_BENCH_ACCESSES="${REPRO_SMOKE_ACCESSES:-4000}" \
REPRO_BENCH_MULTIRUN_JSON="$workdir/BENCH_multirun.json" \
python -m pytest benchmarks/bench_multirun.py -q -s -p no:cacheprovider

echo "== workload generator smoke benchmark =="
REPRO_BENCH_ACCESSES="${REPRO_SMOKE_ACCESSES:-4000}" \
REPRO_BENCH_WORKLOADS_JSON="$workdir/BENCH_workloads.json" \
python -m pytest benchmarks/bench_workloads.py -q -s -p no:cacheprovider

echo "== ecc codec smoke benchmark =="
REPRO_BENCH_ACCESSES="${REPRO_SMOKE_ACCESSES:-4000}" \
REPRO_BENCH_ECC_JSON="$workdir/BENCH_ecc.json" \
python -m pytest benchmarks/bench_ecc.py -q -s -p no:cacheprovider

echo "== telemetry smoke =="
obsdir="$workdir/obs"
for _ in 1 2; do
    REPRO_TELEMETRY=1 REPRO_OBS_DIR="$obsdir" \
    python -m repro.harness.cli run fig12 --accesses 1500 > /dev/null
done
python - "$obsdir" <<'EOF'
import sys
from repro.obs.registry import RunRegistry, registry_path

reg = RunRegistry(registry_path(sys.argv[1]))
runs = reg.list_runs("fig12")
assert len(runs) == 2, f"expected 2 registry rows, got {len(runs)}"
for run in runs:
    assert run.status == "completed", run
    names = reg.series_names(run.run_id)
    assert names, f"{run.run_id} recorded no epoch series"
    assert all(len(reg.series(run.run_id, n)) > 0 for n in names)
print(f"registry OK: {[r.run_id for r in runs]}, "
      f"{len(reg.series_names(runs[0].run_id))} series each")
EOF
python -m repro.harness.cli report fig12 --obs-dir "$obsdir" > /dev/null
python -m repro.harness.cli compare fig12-1 fig12-2 --obs-dir "$obsdir"

echo "== telemetry overhead benchmark =="
REPRO_BENCH_ACCESSES="${REPRO_SMOKE_ACCESSES:-4000}" \
REPRO_BENCH_OBS_JSON="$workdir/BENCH_obs.json" \
python -m pytest benchmarks/bench_obs_overhead.py -q -s -p no:cacheprovider

echo "== smoke OK =="
