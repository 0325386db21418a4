"""Write-then-rename file output, once.

A result-cache entry (``ResultCache.put``) promises that a reader sees
the previous complete file or the new complete file, never a torn mix,
and that a writer that dies or raises leaves nothing behind but (at
worst, on a hard kill) a ``*.tmp`` orphan beside the target, which no
reader ever opens.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable, Union

__all__ = ["atomic_write"]


def atomic_write(path: Union[str, Path], write_fn: Callable[[BinaryIO], object]) -> Path:
    """Create ``path`` atomically from whatever ``write_fn(fh)`` writes.

    The temp file is made in ``path``'s directory (created if missing) so
    the final :func:`os.replace` is a same-filesystem rename.  On *any*
    exception -- ``write_fn`` raising mid-write, ``KeyboardInterrupt``,
    ``os.fdopen`` failing before it owns the descriptor -- the descriptor
    is closed, the temp file removed, ``path`` left untouched, and the
    exception re-raised.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        try:
            fh = os.fdopen(fd, "wb")
        except BaseException:
            os.close(fd)  # fdopen never took ownership of the raw fd
            raise
        with fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
