"""Facts about the machine and the numeric stack a run measured on."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (
                Path(index, name).read_text().strip() for name in ("level", "type", "size")
            )
        except OSError:
            continue
        out[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return out


def _openblas(numpy) -> dict[str, object]:
    """Thread count and build string of the OpenBLAS that numpy loaded, if found."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                return {"threads": threads(), "config": config().decode()}
    return {}


def facts() -> dict[str, object]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": _openblas(numpy),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
    }
