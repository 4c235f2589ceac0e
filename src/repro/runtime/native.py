"""C toolchain probes for the native tier.

:mod:`repro.runtime.native_graph` compiles the CPU backend's generated C
with the system C compiler and runs it through ``ctypes``; this module
finds that compiler, identifies its version for content-addressed
artifacts, and names the scratch directory compiled objects live in.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
from typing import Dict, Optional

_CC_CANDIDATES = ("cc", "gcc", "clang")

# Memoized probe results.  ``find_c_compiler()`` used to spawn up to
# three subprocesses on *every* call (the test suite calls it once per
# skip check); probing once per process is both faster and what makes
# monkeypatching ``subprocess.run`` in cache tests safe — the probe has
# already happened by then.
_PROBE_CACHE: Dict[str, Optional[str]] = {}


def find_c_compiler() -> Optional[str]:
    """First working C compiler on PATH, or None (cached per process)."""
    if "cc" in _PROBE_CACHE:
        return _PROBE_CACHE["cc"]
    found = None
    for cc in _CC_CANDIDATES:
        try:
            result = subprocess.run([cc, "--version"],
                                    capture_output=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if result.returncode == 0:
            found = cc
            break
    _PROBE_CACHE["cc"] = found
    return found


def compiler_signature(cc: str) -> str:
    """First line of ``cc --version`` — identifies the toolchain for
    content-addressed native artifacts (cached per process)."""
    key = f"sig:{cc}"
    if key in _PROBE_CACHE:
        return _PROBE_CACHE[key]
    try:
        result = subprocess.run([cc, "--version"],
                                capture_output=True, text=True,
                                timeout=10)
        first = result.stdout.splitlines()[0].strip() \
            if result.returncode == 0 and result.stdout else cc
    except (OSError, subprocess.TimeoutExpired):
        first = cc
    _PROBE_CACHE[key] = first
    return first


def clear_compiler_cache() -> None:
    """Forget memoized compiler probes (tests that fake the toolchain)."""
    _PROBE_CACHE.clear()


def native_workdir(subdir: str = "hipacc_py_native") -> str:
    """Scratch directory for materialised native artifacts.

    ``$REPRO_NATIVE_DIR`` overrides the base (useful for hermetic
    tests); defaults to the system temp directory.
    """
    base = os.environ.get("REPRO_NATIVE_DIR") or tempfile.gettempdir()
    path = os.path.join(base, subdir)
    os.makedirs(path, exist_ok=True)
    return path
