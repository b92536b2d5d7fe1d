"""Single-job isolation, seeded retry-backoff jitter, submit breakage.

These resilient_map behaviours back the placement service: each
committed session is one job dispatched with ``isolate=True`` (so a
crash or hang hits only that session), and the backoff jitter is drawn
from a stream seeded by the unified ``seed`` knob so a chaos run
replays with identical timing.  A pool that breaks inside ``submit()``
(a worker died before the parent saw its future fail) must not lose
the job being submitted.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.config import knob_overrides
from repro.harness import resilience
from repro.harness.resilience import (
    FaultPlan,
    _backoff_delay,
    _jitter_rng,
    resilient_map,
)


def _double(x):
    return 2 * x


def _my_pid(_x):
    return os.getpid()


class TestIsolate:
    def test_single_job_runs_out_of_process(self):
        report = resilient_map(_my_pid, [0], jobs=1, isolate=True)
        assert report.outcomes[0].succeeded
        assert report.outcomes[0].result != os.getpid()

    def test_single_job_default_stays_in_process(self):
        report = resilient_map(_my_pid, [0], jobs=1)
        assert report.outcomes[0].result == os.getpid()

    def test_isolated_job_survives_a_kill(self):
        plan = FaultPlan({"0": ["kill"]})
        report = resilient_map(_double, [21], jobs=1, retries=1,
                               backoff=0, fault_plan=plan, isolate=True)
        outcome = report.outcomes[0]
        assert outcome.succeeded and outcome.result == 42
        assert outcome.attempts == 2
        assert report.pool_respawns >= 1


class TestSeededJitter:
    def test_stream_follows_the_seed_knob(self):
        with knob_overrides(seed=7):
            a = [_jitter_rng().random() for _ in range(3)]
            b = [_jitter_rng().random() for _ in range(3)]
        with knob_overrides(seed=8):
            c = [_jitter_rng().random() for _ in range(3)]
        assert a == b      # same seed -> identical jitter stream
        assert a != c      # different seed -> different stream

    def test_backoff_is_jittered_and_bounded(self):
        with knob_overrides(seed=3):
            rng = _jitter_rng()
        delays = [_backoff_delay(0.1, attempts, rng)
                  for attempts in (1, 2, 3)]
        # Exponential base with up to +25% jitter, never negative.
        assert 0.1 <= delays[0] <= 0.125
        assert 0.2 <= delays[1] <= 0.25
        assert 0.4 <= delays[2] <= 0.5
        assert _backoff_delay(0, 5, rng) == 0.0

    def test_replayed_delays_are_identical(self):
        with knob_overrides(seed=11):
            first = [_backoff_delay(0.5, n, _jitter_rng())
                     for n in (1, 2, 3)]
            again = [_backoff_delay(0.5, n, _jitter_rng())
                     for n in (1, 2, 3)]
        assert first == again


class TestSubmitBreakage:
    def test_job_whose_submit_breaks_the_pool_is_not_lost(self,
                                                          monkeypatch):
        class BreaksOnSecondSubmit(ProcessPoolExecutor):
            generations = 0

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                type(self).generations += 1
                self._breaks = type(self).generations == 1
                self._submits = 0

            def submit(self, *args, **kwargs):
                self._submits += 1
                if self._breaks and self._submits == 2:
                    raise BrokenProcessPool("worker died before submit")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(resilience, "ProcessPoolExecutor",
                            BreaksOnSecondSubmit)
        report = resilient_map(_double, range(4), jobs=2, retries=1,
                               backoff=0)
        assert [o.result for o in report.outcomes] == [0, 2, 4, 6]
        assert all(o.succeeded for o in report.outcomes)
        # The job whose submit() raised was never dispatched: no charge.
        assert report.outcomes[1].attempts == 1
        assert report.pool_respawns == 1
