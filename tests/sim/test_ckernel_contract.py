"""The native kernels' input contracts: bad arrays raise, never reach C.

:class:`~repro.sim._ckernel.MultiCall` and
:func:`~repro.sim._ckernel.run_filter_chunk` hand raw pointers to
compiled code, so every array is checked for dtype, C-contiguity and
size (and every page table for shape and bounds, every core id and
line for range) before the kernel runs.
"""

import numpy as np
import pytest

from repro.sim import _ckernel

pytestmark = pytest.mark.skipif(
    not _ckernel.available(), reason="compiled replay kernel unavailable")

PAGES = 4


def _call(**overrides):
    """A one-config, one-core, two-bank binding over four requests."""
    args = dict(
        core=np.zeros(PAGES, dtype=np.int32),
        dts=np.ones(PAGES),
        page=np.arange(PAGES, dtype=np.int64),
        line=np.zeros(PAGES, dtype=np.int64),
        is_write=np.zeros(PAGES, dtype=np.uint8),
        lines_per_page=64, lines_per_row=32,
        f_nc=1, s_nc=1, f_bpc=1, s_bpc=1, n_fast_banks=1,
        latconst=np.full(8, 1e-9), core_time=np.zeros(1),
        windows=np.full(1, 2, dtype=np.int32), ring=np.zeros(2),
        ring_head=np.zeros(1, dtype=np.int32),
        ring_len=np.zeros(1, dtype=np.int32), ringcap=2, ncores=1,
        bank_busy=np.zeros(2), bank_open=np.full(2, -1, dtype=np.int64),
        bank_hits=np.zeros(2, dtype=np.int64),
        bank_misses=np.zeros(2, dtype=np.int64),
        bank_conflicts=np.zeros(2, dtype=np.int64),
        chan_busy=np.zeros(2), nbanks=2, nchan=2,
        read_lat=np.zeros(2), busy_acc=np.zeros(2), read_total=np.zeros(1),
        dev_counts=np.zeros((1, 4), dtype=np.int64),
    )
    args.update(overrides)
    return _ckernel.MultiCall(_ckernel.load(), **args), args


def _tables(n=PAGES):
    return np.zeros(n, dtype=np.int16), np.arange(n, dtype=np.int64)


def test_valid_call_runs():
    call, args = _call()
    call.run(0, PAGES, *_tables(), PAGES)
    assert int(args["dev_counts"].sum()) == PAGES
    assert args["read_total"][0] > 0


def test_truncated_page_table_raises():
    call, args = _call()
    ptd, ptf = _tables(PAGES - 1)
    with pytest.raises(ValueError, match="pt_len"):
        call.run(0, PAGES, ptd, ptf, PAGES)
    # An honest pt_len for the short table still cannot reach the last
    # request's page.
    with pytest.raises(ValueError, match="beyond pt_len"):
        call.run(0, PAGES, ptd, ptf, PAGES - 1)
    assert int(args["dev_counts"].sum()) == 0  # the kernel never ran


@pytest.mark.parametrize("tables, pt_len, match", [
    ((np.zeros(PAGES, dtype=np.int32), np.arange(PAGES, dtype=np.int64)),
     PAGES, "pt_device must be a int16"),
    ((np.zeros(PAGES, dtype=np.int16), np.arange(PAGES, dtype=np.int32)),
     PAGES, "pt_frame must be a int64"),
    ((np.zeros(2 * PAGES, dtype=np.int16)[::2],
      np.arange(PAGES, dtype=np.int64)), PAGES, "C-contiguous"),
    ((np.zeros(PAGES, dtype=np.int16),
      np.arange(PAGES + 1, dtype=np.int64)), PAGES, "differ in shape"),
    (_tables(), 0, "pt_len 0"),
])
def test_bad_page_tables_raise(tables, pt_len, match):
    call, _ = _call()
    with pytest.raises(ValueError, match=match):
        call.run(0, PAGES, *tables, pt_len)


def test_request_range_checked():
    call, _ = _call()
    with pytest.raises(ValueError, match="request range"):
        call.run(0, PAGES + 1, *_tables(), PAGES)


@pytest.mark.parametrize("overrides, match", [
    ({"core": np.zeros(PAGES, dtype=np.int64)}, "core must be a int32"),
    ({"core": np.full(PAGES, 1, dtype=np.int32)}, "core ids"),
    ({"page": np.full(PAGES, -1, dtype=np.int64)}, "negative page"),
    ({"line": np.zeros(PAGES - 1, dtype=np.int64)}, "line holds 3"),
    ({"bank_busy": np.zeros(1)}, "bank_busy holds 1"),
])
def test_bad_bound_arrays_raise(overrides, match):
    with pytest.raises(ValueError, match=match):
        _call(**overrides)


def _filter_args(n=4, **overrides):
    """One core, a 2x2 L1D and a 4x2 L2 over ``n`` reads."""
    args = dict(
        core=np.zeros(n, dtype=np.int32),
        line=np.arange(n, dtype=np.int64),
        is_write=np.zeros(n, dtype=np.uint8),
        l1_nsets=2, l1_assoc=2,
        l1_tag=np.full(4, -1, dtype=np.int64),
        l1_dirty=np.zeros(4, dtype=np.uint8),
        l1_stamp=np.zeros(4, dtype=np.int64), l1_walloc=1, l1_wback=1,
        l2_nsets=4, l2_assoc=2,
        l2_tag=np.full(8, -1, dtype=np.int64),
        l2_dirty=np.zeros(8, dtype=np.uint8),
        l2_stamp=np.zeros(8, dtype=np.int64), l2_walloc=1, l2_wback=1,
        counter=np.zeros(1, dtype=np.int64),
        l1_stats=np.zeros(4, dtype=np.int64),
        l2_stats=np.zeros(4, dtype=np.int64),
        out_src=np.empty(3 * n, dtype=np.int64),
        out_line=np.empty(3 * n, dtype=np.int64),
        out_write=np.empty(3 * n, dtype=np.uint8),
    )
    args.update(overrides)
    return args


def test_valid_filter_chunk_runs():
    fn = _ckernel.load_filter()
    if fn is None:
        pytest.skip("compiled cache-filter kernel unavailable")
    args = _filter_args()
    assert _ckernel.run_filter_chunk(fn, **args) == 4  # four cold misses
    assert args["out_line"][:4].tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("overrides, match", [
    ({"out_line": np.empty(3 * 4 - 1, dtype=np.int64)},
     "out_line holds 11 slots"),
    ({"core": np.full(4, 1, dtype=np.int32)}, "core ids"),
    ({"line": np.full(4, -1, dtype=np.int64)}, "negative line"),
    ({"l1_tag": np.full(3, -1, dtype=np.int64)}, "l1_tag holds 3"),
    ({"l2_stamp": np.zeros(8, dtype=np.int32)}, "l2_stamp must be a int64"),
    ({"is_write": np.zeros(8, dtype=np.uint8)[::2]}, "C-contiguous"),
    ({"l2_nsets": 0}, "at least one set"),
])
def test_bad_filter_arrays_never_reach_the_kernel(overrides, match):
    calls = []
    with pytest.raises(ValueError, match=match):
        _ckernel.run_filter_chunk(lambda *a: calls.append(a),
                                  **_filter_args(**overrides))
    assert not calls
