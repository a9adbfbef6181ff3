"""Summary statistics, the machine record, and per-layer sums over spans."""
from __future__ import annotations

import math
import os
import platform
import resource
import statistics
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, int, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). Nearest-rank percentiles:
    percentile p is the sample of rank ceil(p/100 * n). With fewer than 11
    samples no percentile qualifies, and the maximum is returned as p100
    with 0 samples beyond.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100, 0
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return xs[rank - 1], pct, n - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def limit_blas_threads() -> dict[str, str]:
    """Cap the BLAS/OpenMP thread variables at the usable CPU count.

    Must run before numpy is imported. Returns the values in effect.
    """
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= ncpu:
            os.environ[var] = str(ncpu)
    return {var: os.environ[var] for var in THREAD_VARS}


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record(root: Path, seed: int, threads: dict[str, str]) -> dict:
    import numpy as np
    import scipy

    blas = {"name": "unknown", "version": "unknown"}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name", "unknown"), "version": info.get("version", "unknown")}
    except (TypeError, KeyError):
        pass
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas,
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "commit": _git_commit(root),
    }


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def per_unit_sums(spans, units, entry_points=()) -> list[dict]:
    """For each unit (start, end), sums by span name over the spans that
    start inside it: ``{name: [inclusive_s, self_s, calls, flops, bytes,
    layer_s]}``. ``layer_s`` is the time of the outermost layer spans: the
    top-level spans, except that a top-level span named in
    ``entry_points`` counts through its direct children instead."""
    selfs = self_times(spans)
    order = sorted(range(len(spans)), key=lambda i: spans[i][1])
    result = [dict() for _ in units]
    u = 0
    for i in order:
        name, start, end, parent, flops, nbytes = spans[i]
        while u < len(units) and start >= units[u][1]:
            u += 1
        if u == len(units):
            break
        if start < units[u][0]:
            continue
        acc = result[u].setdefault(name, [0.0, 0.0, 0, 0, 0, 0.0])
        acc[0] += end - start
        acc[1] += selfs[i]
        acc[2] += 1
        acc[3] += flops
        acc[4] += nbytes
        if parent < 0:
            outermost = name not in entry_points
        else:
            outermost = spans[parent][3] < 0 and spans[parent][0] in entry_points
        if outermost:
            acc[5] += end - start
    return result
