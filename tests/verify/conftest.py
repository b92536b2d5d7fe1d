import pytest

from repro.verify.bundle import EvalBundle


@pytest.fixture(scope="session")
def bundle() -> EvalBundle:
    """One quick evaluation bundle shared by the gate tests.

    Building it replays every bundle workload once; the per-scheme
    results live in its point table, so sharing it across test files keeps
    the invariant + replication suites to a few seconds total.
    """
    return EvalBundle.build(quick=True)
