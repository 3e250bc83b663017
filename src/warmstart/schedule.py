"""Learning-rate schedule: linear warmup to a peak, linear decay to zero.

The decay hits exactly zero at total_steps. An inverse-square-root warmup
tail is available behind the `shape` field for comparison runs; linear is
the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

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


@dataclass(frozen=True)
class LrSchedule:
    total_steps: int
    peak: float = DEFAULT_PEAK
    warmup_steps: int = DEFAULT_WARMUP_STEPS
    shape: str = "linear"

    def __post_init__(self):
        check_curve(self.peak)
        if not 0 < self.warmup_steps < self.total_steps:
            raise ScheduleError(
                f"need 0 < warmup_steps < total_steps, got warmup "
                f"{self.warmup_steps} and total {self.total_steps}"
            )
        if self.shape not in SHAPES:
            raise ScheduleError(f"shape must be one of {SHAPES}, got {self.shape!r}")


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
