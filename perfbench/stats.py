"""Order statistics, digests and machine provenance for the benchmark."""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
from pathlib import Path
from typing import Iterable, Sequence

MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q < 100).

    Refuses (ValueError) when fewer than MIN_BEYOND samples lie beyond the
    percentile's rank, because such a tail is one or two samples of noise.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; need {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def digest_lines(lines: Iterable[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _blas() -> dict:
    """BLAS name, version and the thread count OpenBLAS will use."""
    import numpy as np

    info: dict = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def provenance() -> dict:
    import numpy as np

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
    }
