"""The environment a result was measured in: commit, interpreter, numpy,
cores, BLAS library and its thread setting."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git;
    ``unknown`` outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        packed = git / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas_threads(numpy_dir: str) -> int | None:
    """Effective OpenBLAS thread count from the library numpy loaded."""
    for lib in glob.glob(os.path.join(numpy_dir, "..", "numpy.libs", "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def describe(root: Path) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '')}".strip()
    except (TypeError, AttributeError):
        pass
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV_VARS},
        "blas_threads_effective": _openblas_threads(os.path.dirname(np.__file__)),
    }
