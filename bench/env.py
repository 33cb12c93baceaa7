"""Process environment for the benchmark: one BLAS thread, the package
imported from the checkout's ``src/``, and the record of what ran.

Import this module before numpy: the thread pin only takes effect if it is
in the environment when OpenBLAS loads.
"""

from __future__ import annotations

import glob
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREADS = 1
BLAS_ENV = {
    name: str(BLAS_THREADS)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}


def prepare() -> None:
    """Pin BLAS threads and put the checkout's package first on the path.
    Exits with status 2, printing no result, when the checkout holds no
    package source."""
    os.environ.update(BLAS_ENV)
    if not (SRC / "cavityphase" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cavityphase'}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _blas_runtime_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it exposes one."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unavailable (not a git checkout)"
    return lines[1]


def source_digest() -> str:
    """SHA-256 over the package sources, an identity that survives
    checkouts without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "cavityphase").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "nproc": os.cpu_count(),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_runtime": _blas_runtime_threads(),
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
    }
