"""The machine and software a benchmark run measured.

Run as a script to print the record as JSON:

    python3 avebench/machine.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Keep BLAS threads at most nproc. Call before numpy is imported."""
    n = nproc()
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= n:
            os.environ[var] = str(n)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _ram_gib() -> float | None:
    try:
        return round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2)
    except (ValueError, OSError):
        return None


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():  # do not let git find an enclosing repository
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def _blas(module) -> dict:
    """BLAS name and version from numpy's or scipy's build configuration.

    Read from show_config, since threadpoolctl is not a dependency.
    """
    try:
        config = module.show_config(mode="dicts")
    except TypeError:  # releases before numpy 1.25 / scipy 1.11 only print it
        return {"name": "unknown"}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "openblas_configuration": blas.get("openblas configuration"),
    }


def describe(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc(),
        "ram_gib": _ram_gib(),
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),  # scipy's LAPACK runs the band factorizations
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


if __name__ == "__main__":
    cap_blas_threads()
    print(json.dumps(describe(Path(__file__).resolve().parent.parent), indent=2))
