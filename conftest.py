"""Repo-level pytest configuration.

Adds the ``--repro-seed`` determinism knob (see ``tests/helpers.py`` for
the fixture, which also holds the ``native_env`` fixture registered
here) and pins hypothesis to a derandomized profile so property
failures reproduce bit-for-bit in CI.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.abspath(__file__))
for _p in (os.path.join(_ROOT, "src"), _ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)


def pytest_addoption(parser):
    parser.addoption(
        "--repro-seed", type=int, default=20120521,
        help="seed for the randomised tests (numpy + random); the "
             "repro_seed fixture in tests/helpers.py applies it")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "requires_cc: test needs a C compiler on PATH (skipped when "
        "repro.runtime.native.find_c_compiler() finds none)")
    try:
        from hypothesis import settings
    except ImportError:
        return
    settings.register_profile("repro", derandomize=True, deadline=None,
                              print_blob=True)
    settings.load_profile("repro")


def pytest_collection_modifyitems(config, items):
    import pytest

    marked = [it for it in items if it.get_closest_marker("requires_cc")]
    if not marked:
        return
    from repro.runtime.native import find_c_compiler
    if find_c_compiler() is not None:
        return
    skip = pytest.mark.skip(reason="no C compiler on PATH")
    for it in marked:
        it.add_marker(skip)


from tests.helpers import native_env, repro_seed  # noqa: E402,F401
