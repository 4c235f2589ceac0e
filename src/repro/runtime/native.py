"""C toolchain probes for the native tier.

:mod:`repro.runtime.native_graph` compiles the CPU backend's generated C
with the system C compiler and runs it through ``ctypes``; this module
finds that compiler, identifies it (version and, for a given flag set,
the target ISA those flags resolve to) for content-addressed
artifacts, and names the scratch directory compiled objects live in.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
from typing import Dict, Optional, Sequence, Tuple

from ..errors import CodegenError

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


def compiler_signature(cc: str, flags: Sequence[str] = ()) -> str:
    """Identity of the toolchain for content-addressed native artifacts
    (cached per process).

    The first line of ``cc --version``; with *flags*, followed by the
    sha256 of the sorted predefined-macro set ``cc <flags> -dM -E``
    resolves.  That set names the target ISA ``-march=native`` picked
    (``__AVX512F__``, ``__AVX2__``, ...), so a host never loads an
    artifact another host compiled for instructions it lacks.
    Raises :class:`~repro.errors.CodegenError` when *flags* are given
    and that probe fails (the caller stays on the simulator)."""
    version = _version_line(cc)
    if not flags:
        return version
    return f"{version} macros:{_macro_digest(cc, tuple(flags))}"


def _version_line(cc: str) -> str:
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


def _macro_digest(cc: str, flags: Tuple[str, ...]) -> str:
    key = f"macros:{cc}:{' '.join(flags)}"
    if key in _PROBE_CACHE:
        return _PROBE_CACHE[key]
    try:
        result = subprocess.run([cc, *flags, "-dM", "-E", "-x", "c",
                                 os.devnull],
                                capture_output=True, text=True,
                                timeout=10)
        macros = result.stdout if result.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        macros = ""
    lines = sorted(line.strip() for line in macros.splitlines()
                   if line.strip())
    if not lines:
        # without the macro set the key cannot name the target ISA: two
        # hosts whose probes failed would share artifacts.  Not cached,
        # so the next compile probes again.
        raise CodegenError(
            f"cannot resolve the target ISA of {cc} "
            f"{' '.join(flags)}: the -dM -E probe failed")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    _PROBE_CACHE[key] = digest
    return digest


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
