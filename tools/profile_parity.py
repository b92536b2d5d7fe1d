#!/usr/bin/env python
"""Page-profile parity smoke over every workload ``run all`` prepares.

Prepares each of the paper's workloads and the frontier server
workloads the way ``repro-hma run all --accesses 2000 --seed 0`` does
(one :class:`~repro.harness.experiments.WorkloadCache`) and asserts
that the production page profile ``prep.stats`` is bit-identical —
same dtypes, same bytes, same footprint — to the stable-sort
``np.add.at`` oracle
:func:`~repro.verify.reference.reference_profile_trace`.

Run it standalone (``python tools/profile_parity.py``) or through
``tools/ci_smoke.sh``.  Exits non-zero with a message on any mismatch.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.harness.experiments import (  # noqa: E402
    ALL_WORKLOADS,
    WorkloadCache,
)
from repro.verify.reference import reference_profile_trace  # noqa: E402
from repro.workloads import FRONTIER_WORKLOADS  # noqa: E402

ACCESSES = 2000
FIELDS = ("pages", "reads", "writes", "avf")


def mismatches(prep) -> "list[str]":
    wt = prep.workload_trace
    want = reference_profile_trace(wt.trace, wt.times,
                                   footprint_pages=wt.footprint_pages)
    out = [field for field in FIELDS
           if getattr(prep.stats, field).dtype != getattr(want, field).dtype
           or getattr(prep.stats, field).tobytes()
           != getattr(want, field).tobytes()]
    if prep.stats.footprint_pages != want.footprint_pages:
        out.append("footprint_pages")
    return out


def main() -> int:
    cache = WorkloadCache(accesses_per_core=ACCESSES, seed=0)
    names = ALL_WORKLOADS + FRONTIER_WORKLOADS
    failed = 0
    for name in names:
        bad = mismatches(cache.get(name))
        if bad:
            failed += 1
            print(f"{name}: {', '.join(bad)} differ from the oracle",
                  file=sys.stderr)
    if failed:
        return 1
    print(f"profile parity OK: {len(names)} workloads bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
