"""Statistics and run-environment helpers shared by the benchmark scripts."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
from pathlib import Path

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(samples, q: int) -> float:
    """The q-th percentile (inclusive linear interpolation) of the samples.

    Refuses when fewer than MIN_TAIL_SAMPLES samples lie beyond it, so
    p90 needs at least 100 samples and p50 at least 20.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    n = len(samples)
    if n * (100 - q) < MIN_TAIL_SAMPLES * 100:
        raise ValueError(
            f"p{q} needs at least {MIN_TAIL_SAMPLES} samples beyond it, "
            f"got {n} samples in all"
        )
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit(root: Path) -> str | None:
    # Read .git directly: the benchmark may run in a plain export of the tree,
    # and it must not read outside its checkout looking for a repository.
    head_file = root / ".git" / "HEAD"
    try:
        head = head_file.read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (root / ".git" / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(package_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def env_info(root: Path, package_dir: Path) -> dict:
    """What a result depends on besides the code: machine, versions, BLAS, commit."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "commit": _git_commit(root),
        "wsol_sha256": _source_digest(package_dir),
    }
