"""The one way dpnet writes a file: all the new bytes, or on failure the old file and no temp file."""

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def write(path):
    """A binary file that replaces path: a temp file beside it, fsynced and renamed over it.

    A symlink at path is replaced, not written through, and the file takes the umask's mode.
    An OSError on the way, the temp file's open included, is raised again naming path.
    """
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise
