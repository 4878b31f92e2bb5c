"""Atomic file output: write a temporary file beside the target, then rename it over."""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager


@contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Open a file whose bytes replace ``path`` only once the body has succeeded.

    ``mode`` is ``"w"`` or ``"wb"``.  The target is ``path`` with symlinks
    resolved.  A temporary file in the target's directory is synced to disk
    and renamed over it, taking an existing file's permission bits, and then
    the directory is synced, so a crash leaves the earlier or the new bytes.
    If the body or the rename fails, only the temporary file is removed, so
    an earlier file keeps its bytes.  A target that exists but is no regular
    file (a FIFO, or a device such as /dev/stdout) cannot be renamed over and
    is written in place, unsynced.

    The temporary file is opened with exclusive create rather than through
    ``tempfile.mkstemp``, whose files are private (0600): a new output gets
    the mode the umask gives any other file.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, mode) as fh:
            yield fh
        return
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, mode.replace("w", "x"))  # exclusive: never an existing file
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        if os.path.exists(target):
            os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise
    fd = os.open(os.path.dirname(target), os.O_RDONLY)  # the rename is durable once its directory is
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
