"""The environment record printed with every result set.

A noisy or misconfigured machine must be visible next to the numbers it
produced: ``sweep_asha`` alone swings by about a quarter with the BLAS
thread count.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional, Tuple


def blas_info() -> Tuple[Optional[str], Optional[int]]:
    """The OpenBLAS library numpy bundles and the thread count it reports."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for library in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(library))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return library.name, int(getter())
        return library.name, None
    return None, None


def git_commit(root: Path) -> str:
    """The checked-out commit, or ``unknown`` outside a git work tree."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def environment(root: Path) -> Dict[str, Any]:
    import numpy

    library, threads = blas_info()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(root),
        "blas_library": library,
        "blas_threads": threads,
        "loadavg_start": list(os.getloadavg()),
    }
