#!/usr/bin/env python
"""Kill/resume smoke: SIGKILL a checkpointed sweep mid-run, then resume.

End-to-end proof of the crash-consistency story that unit tests can
only approximate: a real child process running ``capacity_sweep`` with
a checkpoint directory is SIGKILLed after it has journaled at least one
finished workload (each workload is one job, keyed ``workload-<name>``)
and while later workloads are still in flight, and a ``resume=True``
rerun must

* produce rows identical to an uninterrupted reference run, and
* journal execution ``outcome`` records only for the workloads the
  killed run had NOT finished (finished ones are served from the
  journal, proving they were not recomputed).

Run it standalone (``python tools/kill_resume_smoke.py``) or through
``tools/ci_smoke.sh``.  Exits non-zero with a message on any violation.
"""

import json
import multiprocessing as mp
import os
import signal
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.harness import sweeps  # noqa: E402

SWEEP = dict(workloads=("mcf", "milc", "lbm"), fractions=(0.1, 0.3, 0.6),
             scale=1 / 2048, accesses_per_core=800, seed=4, jobs=1)
#: Per-workload slowdown in the victim child: long enough for the parent
#: to observe the first journal line and land the SIGKILL mid-sweep.
DELAY_SECONDS = 1.5


def _victim(run_dir: str) -> None:
    """Run the checkpointed sweep with every workload slowed down."""
    original = sweeps._capacity_workload

    def slowed(item):
        rows = original(item)
        time.sleep(DELAY_SECONDS)  # finish the job, then dawdle
        return rows

    sweeps._capacity_workload = slowed
    sweeps.capacity_sweep(checkpoint_dir=run_dir, **SWEEP)


def _journal(path: str, record_type: str) -> "list[dict]":
    if not os.path.exists(path):
        return []
    records = []
    for line in open(path, encoding="utf-8"):
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn tail line — exactly what the kill may leave
        if record.get("type") == record_type:
            records.append(record)
    return records


def main() -> int:
    print("== kill/resume smoke ==")
    reference = sweeps.capacity_sweep(**SWEEP)

    with tempfile.TemporaryDirectory(prefix="repro-kill-resume-") as run_dir:
        manifest = os.path.join(run_dir, "manifest.jsonl")
        child = mp.get_context("fork").Process(target=_victim,
                                               args=(run_dir,))
        child.start()
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if _journal(manifest, "done"):
                break
            if not child.is_alive():
                print("FAIL: victim exited before it could be killed",
                      file=sys.stderr)
                return 1
            time.sleep(0.05)
        else:
            print("FAIL: victim never journaled a finished workload",
                  file=sys.stderr)
            return 1

        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=30)
        finished = {r["key"] for r in _journal(manifest, "done")}
        print(f"killed victim pid={child.pid} with "
              f"{len(finished)}/{len(SWEEP['workloads'])} workloads "
              f"journaled: {sorted(finished)}")
        if len(finished) >= len(SWEEP["workloads"]):
            print("FAIL: kill landed too late to interrupt anything",
                  file=sys.stderr)
            return 1
        if _journal(manifest, "outcome"):
            print("FAIL: killed run should not have outcome records",
                  file=sys.stderr)
            return 1

        resumed = sweeps.capacity_sweep(checkpoint_dir=run_dir, resume=True,
                                        **SWEEP)
        if resumed.rows != reference.rows:
            print("FAIL: resumed rows differ from the uninterrupted run:\n"
                  f"  resumed:   {resumed.rows}\n"
                  f"  reference: {reference.rows}", file=sys.stderr)
            return 1
        executed = {r["key"] for r in _journal(manifest, "outcome")}
        expected = {f"workload-{name}" for name in SWEEP["workloads"]} \
            - finished
        if executed != expected:
            print("FAIL: resume executed the wrong jobs "
                  f"(ran {sorted(executed)}, expected {sorted(expected)})",
                  file=sys.stderr)
            return 1
        print(f"resume recomputed only {sorted(executed)}; "
              "rows identical to the uninterrupted run")
    print("== kill/resume smoke OK ==")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
