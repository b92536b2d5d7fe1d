"""The repository benchmark: ``figures``, ``pipeline`` and ``serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 0 --seconds 20 --trace 0

The program under test is ``src/repro`` at its defaults; this script
only generates inputs, starts program processes, times them from
outside and checks their outputs.  ``BENCHMARK.json`` lists the
metrics: ``--trace 0`` prints every end-to-end metric, ``--trace 1``
every per-layer metric (taken by ``perfbench/layers.py`` wrappers in a
separate traced process).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it give the host and path fingerprint, the output
digests, and the workload's own figures by the names used in
``perfbench/NOTES.md``.  Everything written goes under ``.perfbench/``
in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")

#: Set-up probes per run, half before and half after the measured
#: work, so a run's set-up median spans the host's state during it.
SETUP_PROBES = 4
#: Closed-loop tenants of the serve workload: one connection each.
TENANTS = 2
#: Sessions per serve run, at least: the p90 then has >= 10 beyond it.
MIN_SESSIONS = 100
SESSION_ACCESSES = 10_000
#: Sessions whose shas make up the serve reference digest.
SERVE_DIGEST_SESSIONS = 8
#: Per-layer metrics of one workload only; the others report 0.
SERVE_LAYER_METRICS = (
    "serve.open_ms", "serve.append_p50_ms", "serve.append_p90_ms",
    "serve.commit_to_result_p50_ms", "serve.replay_ms", "serve.dispatch_ms",
    "serve.retry_after", "serve.respawns")
FIGURES_LAYER_METRICS = ("harness.paper_log_err",)
#: Wall-clock guard for any one program process.
PROCESS_TIMEOUT = 170.0


class BenchError(Exception):
    """The benchmark cannot run here (no program, a process died)."""


def child_env(extra: "dict | None" = None) -> dict:
    """The environment of every program process.

    No ``REPRO_*`` variable passes through, so the program runs at its
    defaults; ``TMPDIR`` keeps the kernel cache and spools inside the
    checkout.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    env.update(extra or {})
    return env


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def children_maxrss_mb() -> float:
    """Largest resident set of any reaped program process so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Program processes
# ---------------------------------------------------------------------------

def run_worker(mode: str, *args: str, stdin: "str | None" = None,
               env: "dict | None" = None) -> "tuple[float, dict | None]":
    """Start ``worker.py mode``; return (set-up seconds, result).

    Set-up is process start until the worker's ``ready`` line, which
    it prints once ``repro`` is imported and every kernel is loaded.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, mode, *args], cwd=ROOT,
        env=child_env(env), text=True, stdout=subprocess.PIPE,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL)
    watchdog = threading.Timer(PROCESS_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(input=stdin)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def warm_up() -> None:
    """One discarded probe: it builds missing kernels and bytecode, so
    every measured start sees a warm kernel directory."""
    run_worker("setup")


def setup_samples(count: int) -> "list[float]":
    """Set-up seconds of ``count`` fresh program processes."""
    return [run_worker("setup")[0] for _ in range(count)]


def compile_seconds() -> float:
    """``native.compile_s``: every kernel built into an empty dir."""
    cold = os.path.join(WORK, f"cold-kernels-{os.getpid()}")
    shutil.rmtree(cold, ignore_errors=True)
    try:
        _setup, result = run_worker("compile",
                                    env={"REPRO_CKERNEL_DIR": cold})
    finally:
        shutil.rmtree(cold, ignore_errors=True)
    return result["compile_s"]


# ---------------------------------------------------------------------------
# Host and path fingerprint
# ---------------------------------------------------------------------------

def host_fingerprint() -> dict:
    def command(*argv) -> "str | None":
        try:
            done = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=30, cwd=ROOT)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip().splitlines()[0] if done.returncode == 0 \
            and done.stdout.strip() else None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                src.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    src.update(fh.read())
    git_rev = command("git", "rev-parse", "HEAD") \
        if os.path.isdir(os.path.join(ROOT, ".git")) else None
    return {
        "git_rev": git_rev,
        "src_sha256": src.hexdigest(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cc": command(os.environ.get("CC") or "cc", "--version"),
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def load_reference(workload: str, seed: int):
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def figures_failures(digest: dict, expected: "dict | None",
                     attempted: int) -> int:
    """Figures missing or differing from ``expected``."""
    failed = attempted - len(digest["figures"])
    if expected is None:
        return failed
    bad = sum(1 for exp_id, sha in expected["figures"].items()
              if digest["figures"].get(exp_id, sha) != sha)
    if not bad and digest["stdout_sha256"] != expected["stdout_sha256"]:
        bad = 1
    return failed + bad


def pipeline_failures(passes: list, expected: "str | None") -> int:
    """Passes whose digest differs from ``expected`` or, for a seed
    without a reference, from the run's first pass."""
    reference = expected or passes[0]["digest"]
    return sum(p["digest"] != reference for p in passes)


def session_failures(sessions: list, batch: "list[dict]") -> int:
    """Sessions with an error, a corrupt result, or a result that
    differs from the batch ``run_session`` of the same trace."""
    from repro.serve.engine import digest_sha

    failed = 0
    for session, oracle in zip(sessions, batch):
        if session.get("error") \
                or digest_sha(session["digest"]) != session["sha"] \
                or session["sha"] != oracle["sha"]:
            failed += 1
    return failed


def serve_digest(sessions: list) -> str:
    first = sorted((s["index"], s.get("sha")) for s in sessions
                   if s["index"] < SERVE_DIGEST_SESSIONS)
    return hashlib.sha256(json.dumps(first).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def op_metrics(op_seconds: "list[float]", wall_s: float) -> dict:
    return {
        "op_p50_ms": statistics.median(op_seconds) * 1e3,
        "op_p90_ms": percentile(op_seconds, 90) * 1e3,
        "ops_per_s": len(op_seconds) / wall_s,
    }


def figures(seed: int, seconds: float, trace: bool) -> dict:
    expected = load_reference("figures", seed)
    if trace:
        _setup, plain = run_worker("figures", "--seed", str(seed))
        _setup, traced = run_worker("figures", "--seed", str(seed),
                                    "--trace", "1")
        attempted = 2 * traced["figures_attempted"]
        failed = figures_failures(plain["digest"], expected,
                                  plain["figures_attempted"])
        failed += figures_failures(traced["digest"], plain["digest"],
                                   traced["figures_attempted"])
        layer = dict(traced["layers"])
        layer["bench.trace_overhead"] = traced["wall_s"] / plain["wall_s"] - 1
        layer["harness.paper_log_err"] = traced["paper_log_err"]
        return {"attempted": attempted, "failed": failed,
                "digest": traced["digest"], "layers": layer,
                "program": traced["program"], "errors": [
                    r["error"] for r in (plain, traced) if r["error"]]}

    warm_up()
    setups = setup_samples(SETUP_PROBES // 2)
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        setup_s, result = run_worker("figures", "--seed", str(seed))
        setups.append(setup_s)
        runs.append(result)
    setups += setup_samples(SETUP_PROBES - SETUP_PROBES // 2)
    walls = [r["wall_s"] for r in runs]
    attempted = sum(r["figures_attempted"] for r in runs)
    failed = sum(figures_failures(r["digest"], expected or runs[0]["digest"],
                                  r["figures_attempted"]) for r in runs)
    metrics = {"setup_s": statistics.median(setups),
               "peak_rss_mb": children_maxrss_mb(),
               **op_metrics(walls, sum(walls))}
    return {"attempted": attempted, "failed": failed,
            "digest": runs[0]["digest"], "metrics": metrics,
            "program": runs[0]["program"],
            "errors": [r["error"] for r in runs if r["error"]],
            "details": {"figures_s": statistics.median(walls),
                        "paper_log_err": runs[0]["paper_log_err"],
                        "paper_targets": runs[0]["paper_targets"],
                        "runs": len(runs)}}


def pipeline(seed: int, seconds: float, trace: bool) -> dict:
    expected = load_reference("pipeline", seed)
    if trace:
        # One pass each, so the per-layer numbers describe one pass.
        args = ("--seed", str(seed), "--seconds", "0")
        _setup, plain = run_worker("pipeline", *args)
        _setup, traced = run_worker("pipeline", *args, "--trace", "1")
        passes = plain["passes"] + traced["passes"]
        failed = pipeline_failures(passes, expected)
        layer = dict(traced["layers"])
        layer["bench.trace_overhead"] = (
            statistics.median(p["wall_s"] for p in traced["passes"])
            / statistics.median(p["wall_s"] for p in plain["passes"]) - 1)
        return {"attempted": len(passes), "failed": failed,
                "digest": passes[0]["digest"], "layers": layer,
                "program": traced["program"], "errors": []}

    warm_up()
    setups = setup_samples(SETUP_PROBES // 2)
    setup_s, result = run_worker("pipeline", "--seed", str(seed),
                                 "--seconds", str(seconds))
    setups.append(setup_s)
    setups += setup_samples(SETUP_PROBES - SETUP_PROBES // 2)
    passes = result["passes"]
    walls = [p["wall_s"] for p in passes]
    metrics = {"setup_s": statistics.median(setups),
               "peak_rss_mb": children_maxrss_mb(),
               **op_metrics(walls, sum(walls))}
    return {"attempted": len(passes),
            "failed": pipeline_failures(passes, expected),
            "digest": passes[0]["digest"], "metrics": metrics,
            "program": result["program"], "errors": [],
            "details": {"pipeline_mreq_per_s": passes[0]["requests"]
                        / statistics.median(walls) / 1e6,
                        "requests_per_pass": passes[0]["requests"],
                        "passes": len(passes)}}


class Daemon:
    """One ``repro-hma serve`` process at its defaults."""

    def __init__(self, name: str) -> None:
        base = os.path.relpath(os.path.join(WORK, "serve"), ROOT)
        self.socket = os.path.join(base, f"{os.getpid()}-{name}.sock")
        self.spool = os.path.join(base, f"{os.getpid()}-{name}-spool")
        self.proc = None

    def start(self) -> float:
        """Spawn; return seconds until the first ``stats`` reply."""
        from repro.serve.client import SocketClient

        shutil.rmtree(self.spool, ignore_errors=True)
        os.makedirs(self.spool)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "serve",
             "--socket", self.socket, "--serve-dir", self.spool],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
        deadline = start + 60
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode}")
            try:
                with SocketClient(self.socket, timeout=5) as client:
                    client.stats()
                return time.perf_counter() - start
            except OSError:
                time.sleep(0.005)
        raise BenchError("daemon did not answer within 60 s")

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        shutil.rmtree(self.spool, ignore_errors=True)


def daemon_setups(count: int) -> "list[float]":
    """Set-up seconds of ``count`` daemons, each started and stopped."""
    times = []
    for index in range(count):
        daemon = Daemon(f"probe{index}")
        try:
            times.append(daemon.start())
        finally:
            daemon.stop()
    return times


def tenant_loop(tenant: int, daemon: Daemon, seed: int, seconds: float,
                state: dict) -> None:
    """One closed-loop tenant: the next session opens after the last
    result arrives, as ``SocketClient.run`` is used."""
    from repro.serve.chaos import synth_traffic
    from repro.serve.client import SocketClient
    from repro.serve.protocol import SESSION_MECHANISMS, SessionSpec

    class TimedClient(SocketClient):
        def request(self, msg):
            begin = time.perf_counter()
            try:
                return super().request(msg)
            finally:
                self.log.append((msg["op"], begin, time.perf_counter()))

    client = TimedClient(daemon.socket)
    try:
        while True:
            with state["lock"]:
                if time.perf_counter() - state["start"] >= seconds \
                        and state["next"] >= MIN_SESSIONS:
                    return
                index = state["next"]
                state["next"] += 1
            spec = SessionSpec(
                tenant=f"tenant{tenant}",
                mechanism=SESSION_MECHANISMS[index % len(SESSION_MECHANISMS)])
            traffic = (seed * 1_000_003 + index, SESSION_ACCESSES,
                       spec.num_cores, spec.slow_pages // 2)
            trace, times = synth_traffic(*traffic)
            record = {"index": index, "spec": spec.to_dict(),
                      "traffic": traffic}
            client.log = []
            begin = time.perf_counter()
            try:
                result = client.run(spec, trace, times)
                end = time.perf_counter()
                log = client.log
                commit = next(b for op, b, _e in log if op == "commit")
                record.update(
                    latency_s=end - begin, sha=result.sha,
                    digest=result.digest,
                    open_ms=sum(e - b for op, b, e in log
                                if op == "open") * 1e3,
                    append_ms=[(e - b) * 1e3 for op, b, e in log
                               if op == "append"],
                    commit_to_result_ms=(end - commit) * 1e3)
            except Exception as exc:  # any failure is a failed session
                record["error"] = f"{type(exc).__name__}: {exc}"
                client.close()
            with state["lock"]:
                state["sessions"].append(record)
    finally:
        client.close()


def serve(seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.serve.client import SocketClient

    warm_up()
    setups = [] if trace else daemon_setups(SETUP_PROBES // 2)
    daemon = Daemon("window")
    state = {"lock": threading.Lock(), "next": 0, "sessions": []}
    try:
        setups.append(daemon.start())
        state["start"] = time.perf_counter()
        tenants = [threading.Thread(target=tenant_loop,
                                    args=(t, daemon, seed, seconds, state))
                   for t in range(TENANTS)]
        for thread in tenants:
            thread.start()
        for thread in tenants:
            thread.join()
        window_s = time.perf_counter() - state["start"]
        with SocketClient(daemon.socket) as client:
            counts = client.stats()["counts"]
    finally:
        daemon.stop()
    peak_rss_mb = children_maxrss_mb()
    if not trace:
        setups += daemon_setups(SETUP_PROBES - SETUP_PROBES // 2)

    sessions = sorted(state["sessions"], key=lambda s: s["index"])
    ok = [s for s in sessions if not s.get("error")]
    if not ok:
        raise BenchError("no serve session completed: "
                         + sessions[0]["error"])
    batch_input = json.dumps([{"spec": s["spec"], "traffic": s["traffic"]}
                              for s in sessions])
    _setup, batch = run_worker("batch", stdin=batch_input)
    failed = session_failures(sessions, batch["sessions"])
    attempted = len(sessions)
    digest = serve_digest(sessions)
    expected = load_reference("serve", seed)
    if expected is not None and digest != expected:
        failed = max(failed, 1)
    latencies = [s["latency_s"] for s in ok]
    errors = [s["error"] for s in sessions if s.get("error")]
    replay_ms = statistics.median(s["replay_ms"] for s in batch["sessions"])
    commit_ms = statistics.median(s["commit_to_result_ms"] for s in ok)
    out = {"attempted": attempted, "failed": failed, "digest": digest,
           "program": batch["program"], "errors": errors[:5]}
    if trace:
        _setup, traced = run_worker("batch", "--trace", "1",
                                    stdin=batch_input)
        failed += session_failures(sessions, traced["sessions"])
        appends = [ms for s in ok for ms in s["append_ms"]]
        layer = dict(traced["layers"])
        layer.update({
            "serve.open_ms": statistics.median(s["open_ms"] for s in ok),
            "serve.append_p50_ms": statistics.median(appends),
            "serve.append_p90_ms": percentile(appends, 90),
            "serve.commit_to_result_p50_ms": commit_ms,
            "serve.replay_ms": replay_ms,
            "serve.dispatch_ms": commit_ms - replay_ms,
            "serve.retry_after": float(counts.get("retry_responses", 0)),
            "serve.respawns": float(counts.get("pool_respawns", 0)),
            "bench.trace_overhead": traced["wall_s"] / batch["wall_s"] - 1,
        })
        out.update(failed=failed, attempted=2 * attempted, layers=layer)
        return out
    out["metrics"] = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": percentile(latencies, 90) * 1e3,
        "ops_per_s": len(ok) / window_s,
    }
    out["details"] = {
        "session_p50_ms": out["metrics"]["op_p50_ms"],
        "session_p90_ms": out["metrics"]["op_p90_ms"],
        "sessions_per_s": out["metrics"]["ops_per_s"],
        "sessions": attempted,
        "sessions_beyond_p90": sum(
            1 for x in latencies
            if x * 1e3 > out["metrics"]["op_p90_ms"]),
        "commit_to_result_p50_ms": commit_ms,
        "batch_replay_p50_ms": replay_ms,
    }
    return out


WORKLOADS = {"figures": figures, "pipeline": pipeline, "serve": serve}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under {ROOT}/src; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.chdir(ROOT)
    # Turn SIGTERM into SystemExit so ``finally`` blocks stop the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.makedirs(os.path.join(WORK, "serve"), exist_ok=True)

    fingerprint = host_fingerprint()
    try:
        report = WORKLOADS[args.workload](args.seed, args.seconds,
                                          bool(args.trace))
        if args.trace:
            report["layers"]["native.compile_s"] = compile_seconds()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    fingerprint.update(report["program"])
    fingerprint["comparable"] = all(
        fingerprint["kernels_loaded"].values())
    if not fingerprint["comparable"]:
        print("perfbench: WARNING: a native kernel did not load; the "
              "program ran its slow fallbacks, so this run is not "
              "comparable", file=sys.stderr)
    for error in report["errors"]:
        print(f"perfbench: error: {error}", file=sys.stderr)

    section = "per_layer" if args.trace else "end_to_end"
    values = report["layers"] if args.trace else report["metrics"]
    metrics = {}
    for metric in spec[section]:
        name = metric["name"]
        if args.trace and name not in values and name in (
                SERVE_LAYER_METRICS + FIGURES_LAYER_METRICS):
            value = 0.0  # the layer is not on this workload's path
        else:
            value = values[name]
        metrics[name] = {"value": value, "unit": metric["unit"]}
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print("digest " + json.dumps({"workload": args.workload,
                                  "seed": args.seed,
                                  "digest": report["digest"]},
                                 sort_keys=True))
    if report.get("details"):
        print("details " + json.dumps(report["details"], sort_keys=True))
    failed = int(report["failed"])
    print(json.dumps({"correct": failed == 0,
                      "attempted": int(report["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
