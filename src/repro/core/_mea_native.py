"""Optional compiled Misra-Gries chunk kernel for the MEA tracker.

:meth:`repro.core.mea.MeaTracker.record_many` is inherently sequential
— membership changes on every insert and decrement-all step — so after
the leading hit-run batch its cost is pure interpreter dispatch.  This
module compiles the literal textbook update loop over the tracker's
(at most ``capacity``-entry) map to a tiny shared library with the
system C compiler and loads it through :mod:`ctypes`, exactly like
:mod:`repro.sim._ckernel` does for the replay loop.  A linear scan
over <= 32 entries is a handful of cycles in C, so the kernel makes
per-access cost negligible.

The kernel operates on the *residual* counts (textbook semantics);
the Python offset formulation is provably state-equivalent under
normalisation (see the property tests pinning both against each
other), so the tracker converts its state to residual arrays, runs
the chunk, and reloads — same members, same residual counts, same
insertion order.

Everything degrades gracefully: no compiler, a failed build, or
``REPRO_MEA_NATIVE=0`` mean :func:`load` returns ``None`` and the
tracker keeps its tuned pure-Python loop, which is bit-identical.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings

import numpy as np


class NativeMeaUnavailableWarning(RuntimeWarning):
    """The compiled MEA kernel could not be built or loaded.

    Emitted once per process; the tracker transparently falls back to
    the bit-identical pure-Python update loop.
    """


_SOURCE = r"""
#include <stdint.h>

/* Misra-Gries over one chunk.  entry_pages/entry_counts hold the map
 * in insertion order (first *n_entries slots valid, counts are
 * residuals, always >= 1).  Semantics are the literal textbook
 * algorithm: a full-map miss decrements every entry and dead entries
 * compact in place, preserving order — exactly the dict semantics of
 * the Python tracker.
 *
 * Two equivalent realisations (the members, residual counts, and
 * insertion order after any stream are identical):
 *
 * - a plain linear-scan loop, kept for outsized capacities;
 * - the offset formulation behind a linear-probing hash of the member
 *   set (the default): membership is O(1) instead of O(capacity), a
 *   decrement-all is one `off++`, and entries die only at a lazy
 *   compaction scan once `off` can have caught up with the smallest
 *   stored count.  This is the same amortisation the Python tracker
 *   uses, one level lower.
 */

static void mea_chunk_scan(
    int64_t n,
    const int64_t *pages,
    int64_t capacity,
    int64_t *entry_pages,
    int64_t *entry_counts,
    int64_t *n_entries)
{
    int64_t k = *n_entries;
    for (int64_t i = 0; i < n; i++) {
        int64_t p = pages[i];
        int64_t j = -1;
        for (int64_t e = 0; e < k; e++) {
            if (entry_pages[e] == p) { j = e; break; }
        }
        if (j >= 0) {
            entry_counts[j]++;
        } else if (k < capacity) {
            entry_pages[k] = p;
            entry_counts[k] = 1;
            k++;
        } else {
            int64_t w = 0;
            for (int64_t e = 0; e < k; e++) {
                int64_t c = entry_counts[e] - 1;
                if (c > 0) {
                    entry_pages[w] = entry_pages[e];
                    entry_counts[w] = c;
                    w++;
                }
            }
            k = w;
        }
    }
    *n_entries = k;
}

#define MEA_MAX_HASHED_CAPACITY 4096

/* Open-addressing member table with the page key stored inline
 * (tpage) next to its entry index (tidx, -1 = empty) — the probe is a
 * single dependent load per step instead of an index-then-gather
 * pair. */
static inline int64_t mea_probe(const int64_t *tpage,
                                const int32_t *tidx,
                                int64_t mask, int64_t p)
{
    /* Returns the table index holding p, or the first empty table
     * index of its probe chain. */
    uint64_t h = ((uint64_t)p * 0x9E3779B97F4A7C15ULL) & (uint64_t)mask;
    while (tidx[h] >= 0 && tpage[h] != p)
        h = (h + 1) & (uint64_t)mask;
    return (int64_t)h;
}

void repro_mea_chunk(
    int64_t n,
    const int64_t *pages,
    int64_t capacity,
    int64_t *entry_pages,
    int64_t *entry_counts,
    int64_t *n_entries)
{
    if (capacity > MEA_MAX_HASHED_CAPACITY) {
        mea_chunk_scan(n, pages, capacity, entry_pages, entry_counts,
                       n_entries);
        return;
    }
    int64_t tsize = 64;
    while (tsize < capacity * 4)
        tsize <<= 1;
    int64_t mask = tsize - 1;
    int64_t tpage[tsize];
    int32_t tidx[tsize];

    int64_t k = *n_entries;
    int64_t off = 0;
    /* Stored counts are residual + off; minstored is a lower bound on
     * the smallest stored count (exact after inserts and compactions,
     * possibly stale-low after member hits — compaction then finds
     * nothing dead and refreshes it). */
    int64_t minstored = INT64_MAX;
    for (int64_t t = 0; t < tsize; t++)
        tidx[t] = -1;
    for (int64_t e = 0; e < k; e++) {
        int64_t h = mea_probe(tpage, tidx, mask, entry_pages[e]);
        tpage[h] = entry_pages[e];
        tidx[h] = (int32_t)e;
        if (entry_counts[e] < minstored)
            minstored = entry_counts[e];
    }

    for (int64_t i = 0; i < n; i++) {
        int64_t p = pages[i];
        int64_t h = mea_probe(tpage, tidx, mask, p);
        if (tidx[h] >= 0) {
            entry_counts[tidx[h]]++;
        } else if (k < capacity) {
            entry_pages[k] = p;
            entry_counts[k] = off + 1;
            tpage[h] = p;
            tidx[h] = (int32_t)k;
            k++;
            minstored = off + 1;
        } else {
            off++;
            if (off >= minstored) {
                /* Compact dead entries in insertion order and rebuild
                 * the member hash. */
                int64_t w = 0;
                for (int64_t e = 0; e < k; e++) {
                    if (entry_counts[e] > off) {
                        entry_pages[w] = entry_pages[e];
                        entry_counts[w] = entry_counts[e];
                        w++;
                    }
                }
                k = w;
                for (int64_t t = 0; t < tsize; t++)
                    tidx[t] = -1;
                minstored = INT64_MAX;
                for (int64_t e = 0; e < k; e++) {
                    int64_t h2 = mea_probe(tpage, tidx, mask,
                                           entry_pages[e]);
                    tpage[h2] = entry_pages[e];
                    tidx[h2] = (int32_t)e;
                    if (entry_counts[e] < minstored)
                        minstored = entry_counts[e];
                }
                if (k == 0)
                    minstored = off;
            }
        }
    }
    /* Normalise back to residual counts for the caller. */
    if (off)
        for (int64_t e = 0; e < k; e++)
            entry_counts[e] -= off;
    *n_entries = k;
}

/* Fused cross-counters chunk: one pass feeds the MEA map and the
 * full-counter read/write tables together.  The saturating per-access
 * increment is bit-identical to folding a whole-chunk bincount and
 * clipping at max_value (monotone +1 steps commute with the clip).
 * The caller guarantees 0 <= page < table_size for every access. */
void repro_cc_chunk(
    int64_t n,
    const int64_t *pages,
    const uint8_t *is_write,
    int64_t capacity,
    int64_t *entry_pages,
    int64_t *entry_counts,
    int64_t *n_entries,
    int64_t *reads,
    int64_t *writes,
    int64_t max_value)
{
    int64_t *tables[2] = { reads, writes };
    for (int64_t i = 0; i < n; i++) {
        int64_t *t = tables[is_write[i] != 0];
        int64_t p = pages[i];
        if (t[p] < max_value)
            t[p]++;
    }
    repro_mea_chunk(n, pages, capacity, entry_pages, entry_counts,
                    n_entries);
}
"""

_lock = threading.Lock()
#: ``((mea_fn, cc_fn) | None, error)`` once resolved, success or
#: failure alike — the build (and any compiler invocation) happens at
#: most once per process.
_cached: "tuple[object, str | None] | None" = None


def _cache_dir() -> str:
    from repro.config import knob_value

    override = knob_value("ckernel_dir")
    if override:
        return override
    return os.path.join(tempfile.gettempdir(),
                        f"repro-ckernel-{os.getuid()}")


def _build(so_path: str) -> "str | None":
    """Compile the kernel; None on success, else an error detail."""
    compiler = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return "no C compiler found (set CC, or install cc/gcc)"
    directory = os.path.dirname(so_path)
    c_path = so_path[:-3] + ".c"
    tmp_so = so_path + f".tmp{os.getpid()}"
    try:
        os.makedirs(directory, exist_ok=True)
        with open(c_path, "w") as fh:
            fh.write(_SOURCE)
        subprocess.run(
            [compiler, "-O3", "-fPIC", "-shared", "-o", tmp_so, c_path],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp_so, so_path)  # atomic under concurrent builds
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        try:
            os.unlink(tmp_so)
        except OSError:
            pass
        stderr = getattr(exc, "stderr", None)
        detail = f"{compiler}: {exc!r}"
        if stderr:
            detail += "\n" + stderr.decode(errors="replace").strip()
        return detail


def _bind(so_path: str):
    lib = ctypes.CDLL(so_path)
    fn = lib.repro_mea_chunk
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    # Chunk-data pointers are void* so hot callers can pass the raw
    # ``arr.ctypes.data`` address without building a POINTER object
    # per call; POINTER(c_int64) instances are accepted there too.
    fn.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                   p_i64, p_i64, p_i64]
    fn.restype = None
    cc = lib.repro_cc_chunk
    cc.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                   ctypes.c_int64, p_i64, p_i64, p_i64,
                   ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
    cc.restype = None
    return fn, cc


def _load_all():
    """``(mea_fn, cc_fn)`` or ``None`` when unavailable.

    The outcome — success *or* failure — is memoised per process, so a
    broken toolchain costs exactly one ``cc`` invocation and one
    :class:`NativeMeaUnavailableWarning` before every caller silently
    gets the Python fallback.
    """
    global _cached
    if _cached is not None:
        return _cached[0]
    with _lock:
        if _cached is not None:
            return _cached[0]
        from repro.config import knob_value

        fns, error = None, None
        if knob_value("mea_native"):
            digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
            so_path = os.path.join(_cache_dir(), f"mea-{digest}.so")
            try:
                if not os.path.exists(so_path):
                    error = _build(so_path)
                if error is None:
                    fns = _bind(so_path)
            except OSError as exc:
                fns, error = None, repr(exc)
            if fns is None and error is None:
                error = "unknown load failure"
        _cached = (fns, error)
        if error is not None:
            warnings.warn(
                "native MEA kernel unavailable, falling back to the "
                f"pure-Python update loop (bit-identical, slower): "
                f"{error}",
                NativeMeaUnavailableWarning,
                stacklevel=2,
            )
        return fns


def load():
    """The compiled MEA chunk kernel, or ``None`` when unavailable."""
    fns = _load_all()
    return fns[0] if fns is not None else None


def load_cc():
    """The fused cross-counters (MEA+FC) chunk kernel, or ``None``."""
    fns = _load_all()
    return fns[1] if fns is not None else None


def build_error() -> "str | None":
    """The cached build/load failure detail, if any (after :func:`load`)."""
    return _cached[1] if _cached is not None else None


def _reset_for_tests() -> None:
    """Forget the per-process memoised outcome (chaos tests only)."""
    global _cached
    with _lock:
        _cached = None


def available() -> bool:
    return load() is not None


def _pi64(a):
    return a.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))


def _is_i64(arr) -> bool:
    return (type(arr) is np.ndarray and arr.dtype == np.int64
            and arr.flags.c_contiguous)


def check_chunk_args(pages, capacity: int, entry_pages, entry_counts,
                     n_entries: int) -> None:
    """The compiled MEA loops' input contract, checked before C runs.

    The kernels write the map into ``entry_pages``/``entry_counts`` up
    to ``capacity`` slots and read ``pages`` through a raw pointer, so
    both entry arrays must be C-contiguous int64 with at least
    ``capacity`` slots, ``0 <= n_entries <= capacity``, and the chunk a
    C-contiguous one-dimensional int64 array.  Every check is O(1) —
    it runs once per chunk, never per element.
    """
    for name, arr in (("entry_pages", entry_pages),
                      ("entry_counts", entry_counts)):
        if not _is_i64(arr):
            raise ValueError(f"{name} must be a C-contiguous int64 array")
        if arr.size < capacity:
            raise ValueError(f"{name} holds {arr.size} slots, the map "
                             f"needs {capacity}")
    if not 0 <= n_entries <= capacity:
        raise ValueError(f"entry count {n_entries} outside "
                         f"[0, {capacity}]")
    if not (_is_i64(pages) and pages.ndim == 1):
        raise ValueError("chunk pages must be a one-dimensional "
                         "C-contiguous int64 array")


def run_chunk(fn, pages, capacity, entry_pages, entry_counts,
              n_entries: int) -> int:
    """Invoke the compiled loop; returns the new entry count.

    ``entry_pages``/``entry_counts`` are C-contiguous int64 arrays of
    ``capacity`` slots holding the map in insertion order (the first
    ``n_entries`` slots valid), mutated in place.  ``entry_counts``
    carries residual counts on entry and exit.  Arguments that break
    :func:`check_chunk_args` raise before the kernel runs.
    """
    check_chunk_args(pages, capacity, entry_pages, entry_counts, n_entries)
    count = ctypes.c_int64(n_entries)
    fn(len(pages), _pi64(pages), int(capacity),
       _pi64(entry_pages), _pi64(entry_counts), ctypes.byref(count))
    return count.value
