"""Shared exception base so the CLI can map failures to one exit path, and
the one reader of text inputs."""


class WarmstartError(Exception):
    """Base class for all errors raised by this package."""


class InputEncodingError(WarmstartError):
    """A text input that is not UTF-8."""


class WorkerError(WarmstartError):
    """A worker process that died, such as one the kernel killed for memory."""


class Terminated(BaseException):
    """SIGTERM, raised in the CLI's process. Like KeyboardInterrupt it is no
    Exception, so nothing that handles a failure catches it, and every
    `finally` on the way out runs, removing the temp files of unwritten
    outputs."""


def read_text(path, newline=None) -> str:
    """The whole of `path` decoded as UTF-8, with `newline` as `open` takes
    it and one leading byte-order mark dropped; a byte that is not UTF-8
    fails as one InputEncodingError that names the file, not as a
    UnicodeDecodeError."""
    with open(path, encoding="utf-8-sig", newline=newline) as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            bad = e.object[e.start : e.end].hex(" ")
            raise InputEncodingError(f"{path}: not UTF-8 text ({e.reason}: {bad})") from None
