"""Where a run may read and write, what its processes see, and the stamp.

A run touches nothing outside its checkout: scratch space lives under
``<checkout>/.bench_work`` (``TMPDIR`` included, so the C compiler's
temporaries land there too), and every system under test gets

* a fresh ``REPRO_NATIVE_DIR``, so native artifacts are always cold at
  set-up;
* an empty ``REPRO_OPTDB_PATH``, so no tuned configuration leaks in;
* no ``REPRO_CACHE_DIR``, ``REPRO_TRACE*`` or ``REPRO_LOG*``.

``OMP_NUM_THREADS`` is left as the user has it; it is part of the stamp.

This module imports nothing from the library at import time: the
harness process must scrub its own environment before ``repro`` reads
it.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

_SCRUBBED = ("REPRO_CACHE_DIR", "REPRO_TRACE", "REPRO_TRACE_OUT",
             "REPRO_LOG", "REPRO_LOG_OUT", "REPRO_NATIVE_DIR",
             "REPRO_OPTDB_PATH")


def load_spec() -> Dict[str, Any]:
    """The benchmark's contract: workloads, metrics, units, bounds."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


class Workdir:
    """Scratch space of one harness process, removed by :meth:`close`."""

    def __init__(self) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
        self.tmp = os.path.join(self.path, "tmp")
        os.mkdir(self.tmp)

    def fresh(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.path)

    def native_env(self) -> Dict[str, str]:
        """The per-process cold-start variables."""
        return {"REPRO_NATIVE_DIR": self.fresh("native-"),
                "REPRO_OPTDB_PATH": os.path.join(self.fresh("optdb-"),
                                                 "tuned.json")}

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def isolate(work: Workdir) -> None:
    """Make this process hermetic; call before importing ``repro``."""
    for key in _SCRUBBED:
        os.environ.pop(key, None)
    os.environ["TMPDIR"] = work.tmp
    tempfile.tempdir = work.tmp
    os.environ.update(work.native_env())
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def child_env(work: Workdir) -> Dict[str, str]:
    """Environment of a system-under-test process (this process must
    already be :func:`isolate`\\ d)."""
    env = dict(os.environ)
    env.update(work.native_env())
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(ROOT)))
    return env


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` outside a git checkout."""
    git = ROOT / ".git"
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
    return "unknown"


def stamp(seed: int) -> Dict[str, Any]:
    """What a result depends on besides the code.  Two results may be
    compared only when their stamps agree on everything but the commit."""
    import numpy as np
    from repro.runtime.native import compiler_signature, find_c_compiler

    cc = find_c_compiler()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cc": compiler_signature(cc) if cc else "none",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS", ""),
        "commit": git_commit(),
        "seed": seed,
    }


def comparable(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    strip = ("commit",)
    return ({k: v for k, v in a.items() if k not in strip}
            == {k: v for k, v in b.items() if k not in strip})
