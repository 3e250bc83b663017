import math

import pytest

from warmstart.schedule import LrSchedule, ScheduleError, iter_curve, lr_at


def rel_close(a, b, tol=1e-12):
    if b == 0:
        return a == 0
    return abs(a - b) / abs(b) <= tol


class TestAnchors:
    def setup_method(self):
        self.s = LrSchedule(total_steps=100_000)

    def test_origin(self):
        assert lr_at(self.s, 0) == 0.0

    def test_warmup_midpoint(self):
        assert rel_close(lr_at(self.s, 2500), 2.0e-3)

    def test_peak(self):
        assert rel_close(lr_at(self.s, 5000), 4.0e-3)

    def test_terminus(self):
        assert lr_at(self.s, 100_000) == 0.0


class TestValidation:
    def test_peak_positive(self):
        with pytest.raises(ScheduleError):
            LrSchedule(total_steps=10_000, peak=0.0)

    def test_warmup_below_total(self):
        with pytest.raises(ScheduleError):
            LrSchedule(total_steps=5000)
        with pytest.raises(ScheduleError):
            LrSchedule(total_steps=4000, warmup_steps=5000)

    def test_warmup_positive(self):
        with pytest.raises(ScheduleError):
            LrSchedule(total_steps=10, warmup_steps=0)

    def test_step_bounds(self):
        s = LrSchedule(total_steps=10_000)
        with pytest.raises(ScheduleError):
            lr_at(s, -1)
        with pytest.raises(ScheduleError):
            lr_at(s, 10_001)

    def test_unknown_shape(self):
        with pytest.raises(ScheduleError):
            LrSchedule(total_steps=10_000, shape="cosine")

    @pytest.mark.parametrize("build, message", [
        (lambda: LrSchedule(total_steps=5000),
         "need 0 < warmup_steps < total_steps, got warmup 5000 and total 5000"),
        (lambda: LrSchedule._make((5000, 4e-3, 5000, "linear")),
         "need 0 < warmup_steps < total_steps, got warmup 5000 and total 5000"),
        (lambda: LrSchedule(100_000)._replace(peak=-1.0),
         "peak must be finite and positive, got -1.0"),
        (lambda: LrSchedule(100_000)._replace(shape="cosine"),
         "shape must be one of ('linear', 'rsqrt'), got 'cosine'"),
    ], ids=["constructor", "make", "replace-peak", "replace-shape"])
    def test_every_way_of_building_one_validates(self, build, message):
        with pytest.raises(ScheduleError) as e:
            build()
        assert str(e.value) == message

    def test_make_and_replace_build_valid_schedules(self):
        s = LrSchedule(100_000)
        assert LrSchedule._make(s) == s
        assert type(s._replace(peak=1.0)) is LrSchedule
        assert s._replace(peak=1.0) == (100_000, 1.0, 5000, "linear")

    @pytest.mark.parametrize("name", ["peak", "other"])
    def test_fields_cannot_be_set(self, name):
        s = LrSchedule(100_000)
        with pytest.raises(AttributeError):
            setattr(s, name, 1.0)


class TestShape:
    def test_piecewise_monotone(self):
        s = LrSchedule(total_steps=20_000)
        prev = -1.0
        for step in range(0, 5001):
            cur = lr_at(s, step)
            assert cur >= prev
            prev = cur
        for step in range(5000, 20_001):
            cur = lr_at(s, step)
            assert cur <= prev
            assert cur >= 0.0
            prev = cur

    def test_continuity_at_peak(self):
        s = LrSchedule(total_steps=20_000)
        assert rel_close(lr_at(s, 5000), s.peak)
        assert rel_close(lr_at(s, 5001), s.peak * (20_000 - 5001) / 15_000)

    def test_rsqrt_flat_then_decaying(self):
        s = LrSchedule(total_steps=20_000, shape="rsqrt")
        assert lr_at(s, 0) == s.peak
        assert lr_at(s, 5000) == s.peak
        assert rel_close(lr_at(s, 20_000), s.peak * math.sqrt(5000 / 20_000))
        prev = lr_at(s, 5000)
        for step in range(5001, 20_001, 83):
            cur = lr_at(s, step)
            assert cur <= prev
            prev = cur


class TestIterCurve:
    def test_includes_terminus(self):
        s = LrSchedule(total_steps=10_000)
        points = list(iter_curve(s, stride=3000))
        assert points[0][0] == 0
        assert points[-1][0] == 10_000
        assert [p[0] for p in points] == [0, 3000, 6000, 9000, 10_000]

    def test_stride_validation(self):
        s = LrSchedule(total_steps=10_000)
        with pytest.raises(ScheduleError):
            list(iter_curve(s, stride=0))
