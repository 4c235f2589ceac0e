"""Script entry of the benchmark: ``python3 benchmarks/suite/run.py ...``.

Equivalent to ``python -m benchmarks.suite`` from the checkout root; see
:mod:`benchmarks.suite.cli` for the options.
"""

import os
import sys

# run as a script, this file's directory heads sys.path; swap it for
# the checkout root so the package imports under its real name
sys.path[0] = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from benchmarks.suite.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
