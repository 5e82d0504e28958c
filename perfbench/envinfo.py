"""Machine and environment record written with every benchmark result.

Thread-count variables are only read: BLAS threading moves these timings by
a factor of two or more, so both sides of a comparison must run under the
same record.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

import numpy as np
import scipy

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SITETRANSPORT_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src" / "sitetransport"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
    }


def one_line(env: dict) -> str:
    threads = " ".join(f"{k}={v if v is not None else 'unset'}" for k, v in env["thread_env"].items())
    blas = env["blas"]
    return (
        f"nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} blas={blas['name']} {blas['version']} "
        f"commit={env['git_commit'] or 'none'} {threads}"
    )
