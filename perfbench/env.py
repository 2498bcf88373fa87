"""Process set-up shared by the benchmark's entry points.

``bootstrap`` pins BLAS/OpenMP threads to one (before numpy is
imported) and puts the checkout's ``src`` first on ``sys.path``, so the
benchmark always runs the library built from the files next to it.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def bootstrap() -> None:
    os.environ.update(THREAD_PINS)
    if not (SRC / "mscrn" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no mscrn package under {SRC}; run from a "
                         "checkout of the repository\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_info() -> dict:
    import numpy as np

    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }
