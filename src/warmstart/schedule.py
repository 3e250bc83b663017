"""Learning-rate schedule: linear warmup to a peak, linear decay to zero.

The decay hits exactly zero at total_steps. An inverse-square-root warmup
tail is available behind the `shape` field for comparison runs; linear is
the default.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .errors import WarmstartError

DEFAULT_PEAK = 4e-3
DEFAULT_WARMUP_STEPS = 5000

SHAPES = ("linear", "rsqrt")


class ScheduleError(WarmstartError):
    pass


def check_curve(peak: float, stride: int = 1) -> None:
    """Fail unless LrSchedule accepts this peak and iter_curve this stride."""
    if not 0 < peak < math.inf:
        raise ScheduleError(f"peak must be finite and positive, got {peak}")
    if stride < 1:
        raise ScheduleError(f"stride must be positive, got {stride}")


class _LrFields(NamedTuple):
    total_steps: int
    peak: float = DEFAULT_PEAK
    warmup_steps: int = DEFAULT_WARMUP_STEPS
    shape: str = "linear"


class LrSchedule(_LrFields):
    """A valid schedule, however it is built.

    The constructor checks the fields, and so do `_make` and `_replace`,
    which a plain NamedTuple would let build an invalid one.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        s = super().__new__(cls, *args, **kwargs)
        check_curve(s.peak)
        if not 0 < s.warmup_steps < s.total_steps:
            raise ScheduleError(
                f"need 0 < warmup_steps < total_steps, got warmup "
                f"{s.warmup_steps} and total {s.total_steps}"
            )
        if s.shape not in SHAPES:
            raise ScheduleError(f"shape must be one of {SHAPES}, got {s.shape!r}")
        return s

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def lr_at(s: LrSchedule, step: int) -> float:
    if not 0 <= step <= s.total_steps:
        raise ScheduleError(
            f"step {step} outside [0, {s.total_steps}]"
        )
    if s.shape == "rsqrt":
        return s.peak * math.sqrt(s.warmup_steps / max(step, s.warmup_steps))
    if step <= s.warmup_steps:
        return s.peak * step / s.warmup_steps
    return s.peak * (s.total_steps - step) / (s.total_steps - s.warmup_steps)


def iter_curve(s: LrSchedule, stride: int = 1) -> Iterator[tuple[int, float]]:
    """(step, rate) pairs at the given stride, always including total_steps."""
    check_curve(s.peak, stride)
    step = 0
    while step < s.total_steps:
        yield step, lr_at(s, step)
        step += stride
    yield s.total_steps, lr_at(s, s.total_steps)
