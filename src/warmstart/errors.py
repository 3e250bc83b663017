"""Shared exception base so the CLI can map failures to one exit path."""

from contextlib import contextmanager


class WarmstartError(Exception):
    """Base class for all errors raised by this package."""


class InputEncodingError(WarmstartError):
    """A text input that is not UTF-8."""


class WorkerError(WarmstartError):
    """A worker process that died, such as one the kernel killed for memory."""


@contextmanager
def utf8_input(path):
    """Decoding `path` as UTF-8 inside this block fails as one
    InputEncodingError that names the file, not as a UnicodeDecodeError."""
    try:
        yield
    except UnicodeDecodeError as e:
        bad = e.object[e.start : e.end].hex(" ")
        raise InputEncodingError(f"{path}: not UTF-8 text ({e.reason}: {bad})") from None
