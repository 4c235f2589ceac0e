"""Generated code against the committed digest snapshot.

``tests/data_codegen_digests.json`` holds the sha256 of the device and
host code of every builtin kernel on the six paper GPU targets, under
one option change each, through the CPU backend, and across a boundary
and resampling-mode sweep (``scripts/codegen_digests.py`` lists the
cases).  A change to any code generator that alters its output fails
here; when the change is intended, refresh the snapshot.
"""

import importlib.util
import json
import pathlib

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
          / "codegen_digests.py")


def _digests_module():
    spec = importlib.util.spec_from_file_location("codegen_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generated_code_matches_snapshot():
    digests = _digests_module()
    pinned = json.loads(digests.SNAPSHOT.read_text())
    current = digests.compute()
    changed = sorted(k for k in pinned.keys() | current.keys()
                     if pinned.get(k) != current.get(k))
    assert not changed, (
        f"{len(changed)} of {len(pinned)} codegen digests changed, "
        f"first: {changed[:5]}.  If the change is intended, run "
        "`PYTHONPATH=src python scripts/codegen_digests.py --write` and "
        "commit tests/data_codegen_digests.json")
