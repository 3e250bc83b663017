"""Shared exception base so the CLI can map failures to one exit path, and
the one reader of text inputs."""


class WarmstartError(Exception):
    """Base class for all errors raised by this package."""


class InputEncodingError(WarmstartError):
    """A text input that is not UTF-8."""


class WorkerError(WarmstartError):
    """A worker process that died, such as one the kernel killed for memory."""


class Terminated(BaseException):
    """SIGTERM or SIGINT, raised in the CLI's process with the signal, a
    `signal.Signals`. Like KeyboardInterrupt it is no Exception, so nothing
    that handles a failure catches it, and every `finally` on the way out
    runs, removing the temp files of unwritten outputs."""

    def __init__(self, signum):
        super().__init__(f"stopped by {signum.name}")
        self.signum = signum


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
