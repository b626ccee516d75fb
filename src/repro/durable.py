"""Crash-safe file writes: the one module that decides durability.

:func:`atomic_write` renames a unique temp file
(``.<name>.<random>.tmp``) over its target: readers and killed
processes see the old bytes or the new, and a failed write leaves no
temp file.  ``durable=True`` adds an fsync of the file before the
rename and of the directory after it, so the write survives a power
cut.  :func:`append_line` appends in one flushed write, first cutting a
torn last line so a new line never merges into it; :func:`read_lines`
skips such a line.

=================================  ============  ==================
Site                               Primitive     Posture
=================================  ============  ==================
``CheckpointManager.save``         atomic_write  ``durable=True``
``save_arrays`` (every archive)    atomic_write  ``durable=True``
``MetricJournal`` compaction       atomic_write  ``durable=True``
``RunCache.put`` (per cell)        atomic_write  ``durable=False``
stream head (per window)           atomic_write  ``durable=False``
``EventLog``, ``MetricJournal``,   append_line   flushed
stream ``records.jsonl``
=================================  ============  ==================

Per-cell and per-window writes skip the fsyncs that would dominate
them; a power cut loses their last commits, which a resume recomputes.
"""

import contextlib
import json
import os
import pathlib
import tempfile

__all__ = ["atomic_write", "append_line", "read_lines", "truncate_to"]

# mkstemp creates 0600 files; give targets the mode open() would.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def atomic_write(path, write_fn, *, durable: bool) -> pathlib.Path:
    """Replace ``path`` with what ``write_fn(binary_fh)`` writes."""
    path = pathlib.Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                               dir=path.parent)
    try:
        os.fchmod(fd, 0o666 & ~_UMASK)
        with os.fdopen(fd, "wb") as fh:
            write_fn(fh)
            fh.flush()
            if durable:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # never mask the error
            os.unlink(tmp)
        raise
    if durable:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    return path


def append_line(path, data: str) -> int:
    """Append ``data`` and a newline; returns the file's new length."""
    payload = (data + "\n").encode()
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        end = os.fstat(fd).st_size
        if end and os.pread(fd, 1, end - 1) != b"\n":
            end = os.pread(fd, end, 0).rfind(b"\n") + 1
            truncate_to(path, end)
        view = memoryview(payload)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)
    return end + len(payload)


def read_lines(path, start: int = 0):
    """Yield ``(line number, JSON value)`` for each line from ``start``."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh):
            if number < start:
                continue
            try:
                value = json.loads(line)
            except ValueError:
                continue  # torn or corrupt: its writer died mid-append
            yield number, value


def truncate_to(path, size: int) -> None:
    """Cut ``path`` back to its first ``size`` (committed) bytes."""
    with open(path, "r+b") as fh:
        actual = fh.seek(0, os.SEEK_END)
        if actual < size:
            raise ValueError(
                f"{path} holds {actual} bytes but {size} were committed; "
                "the file lost committed data")
        fh.truncate(size)
