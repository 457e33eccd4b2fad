"""Output files that appear whole or not at all."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager, suppress
from typing import IO, Iterator


@contextmanager
def open_atomic(path: str | os.PathLike, newline: str | None = None) -> Iterator[IO[str]]:
    """Open ``path`` for writing UTF-8 text that replaces it only when the
    ``with`` block completes.

    The text goes to a new temporary file in the target's directory, which
    ``os.replace`` moves over the target at the end. If the block raises, the
    temporary file is removed and an existing target is left as it was. The
    new file gets the mode a plain ``open`` gives a new file (0o666 less the
    umask). A symlink is followed and the file it names is replaced. A target
    that exists but is not a regular file (``/dev/null``, a FIFO) cannot be
    replaced, so it is written directly. An error creating the temporary
    file names ``path``. Nothing is fsynced: this guards against a failed or
    killed process, not against a power loss.
    """
    target = os.path.realpath(path) if os.path.islink(path) else os.fspath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        return
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
    # O_EXCL never reuses an existing file; mode 0o666 is filtered by the umask
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:   # the same error, naming the target, not the temporary file
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(temp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(temp)
        raise
