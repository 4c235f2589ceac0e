"""Atomic file publication.

Every file this package publishes — cache entries, the tuned database,
exported traces, native ``.so`` artifacts — is written to a temporary
file beside its destination and renamed into place (``os.replace`` is
atomic on POSIX and Windows), so a reader never sees a partial file and
a crashed writer leaves at most a ``*.tmp`` file behind.  The helpers
raise ``OSError`` like any write; callers that treat their file as
best-effort catch it.  Standard library only, so every subpackage can
import it.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from typing import Iterator, Union


@contextlib.contextmanager
def replacing(path: str) -> Iterator[str]:
    """Yield a temporary path beside *path*; rename it onto *path* when
    the block succeeds, remove it when the block raises."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_atomic(path: str, data: Union[str, bytes]) -> None:
    """Publish *data* (text is UTF-8 encoded) at *path* atomically."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(data)
