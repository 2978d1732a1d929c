"""Unit tests for count paths and the adaptation transform."""

import math

import numpy as np
import pytest

from marcox.errors import ValidationError
from marcox.paths import (
    CountPath,
    ModelParams,
    adapt_path,
    events_csv,
    load_path,
    read_events_csv,
    tune_w,
)
from marcox.intensity import PolyIntensity

from _oracles import loop_adapt_path, piecewise_linear_integral, step_path_integral


def scaled_integral_path(x_star, w):
    """Reference for the transform input: xt(t) = w * int_0^t x*(s) ds."""
    return lambda t: w * step_path_integral(x_star.jumps, t)


def random_path(rng, max_events=12):
    T = rng.uniform(0.5, 3.0)
    m = int(rng.integers(1, max_events + 1))
    times = np.sort(rng.uniform(0.0, T, size=m))
    times = times[times > 0]
    times = np.unique(times)
    return CountPath(T=T, jumps=times)


class TestLoadPath:
    def test_sorts_ascending(self):
        x = load_path([0.5, 0.2], 1.0)
        np.testing.assert_allclose(x.jumps, [0.2, 0.5])

    def test_empty(self):
        assert load_path([], 1.0).count == 0

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError, match="duplicate event time"):
            load_path([0.5, 0.5], 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            load_path([1.5], 1.0)
        with pytest.raises(ValidationError):
            load_path([0.0], 1.0)
        with pytest.raises(ValidationError):
            load_path([-0.2], 1.0)

    def test_two_dimensional_times_rejected(self):
        with pytest.raises(ValidationError, match="one-dimensional"):
            CountPath(1.0, np.array([[0.2, 0.5]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ValidationError, match="must be finite"):
            CountPath(1.0, np.array([0.2, bad]))

    def test_decreasing_times_rejected(self):
        """CountPath takes its times in order; load_path is the one that sorts."""
        with pytest.raises(ValidationError, match="strictly increasing"):
            CountPath(1.0, np.array([0.5, 0.2]))

    def test_boundary_jump_allowed(self):
        assert load_path([1.0], 1.0).count == 1

    def test_step_integral_matches_oracle(self):
        x = load_path([0.25, 0.75], 1.0)
        assert x.integral(0.9) == pytest.approx(step_path_integral(x.jumps, 0.9), abs=1e-12)


class TestModelParams:
    def test_rejects_negative_baseline(self):
        with pytest.raises(ValidationError):
            ModelParams(beta0=-1.0, w=1.0, gamma=PolyIntensity((1.0,)))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValidationError):
            ModelParams(beta0=0.0, w=0.0, gamma=PolyIntensity((1.0,)))

    def test_validate_checks_gamma_support(self):
        params = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((0.1, -1.0)))
        with pytest.raises(ValidationError):
            params.validate(1.0)


class TestAdaptPath:
    def test_single_jump_hand_computed(self):
        """x* jumps at 0.5 with T=1, w=2: the scaled integral is 2 (t-0.5)+,
        reaching 1 at t=1; area matching on [0, 1] puts the jump at 0.75."""
        x_star = load_path([0.5], 1.0)
        adapted = adapt_path(x_star, 2.0)
        np.testing.assert_allclose(adapted.jumps, [0.75], atol=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            adapt_path(load_path([], 1.0), 1.0)

    def test_tiny_scale_rejected(self):
        with pytest.raises(ValidationError, match="no events"):
            adapt_path(load_path([0.5], 1.0), 1e-6)

    @pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_scale_that_is_not_finite_and_positive_rejected(self, w):
        """Refused before any arithmetic: an infinite scale would make the
        crossings NaN, so numpy must not even warn."""
        with np.errstate(all="raise"), pytest.raises(ValidationError, match="finite and positive"):
            adapt_path(load_path([0.5, 0.75], 1.0), w)

    def test_level_and_area_match_at_crossings(self):
        """x(t_i) = i and the adapted area equals the scaled-integral area at
        every crossing, checked against a brute-force integration oracle."""
        rng = np.random.default_rng(21)
        for _ in range(20):
            x_star = random_path(rng)
            w = rng.uniform(0.5, 4.0) * x_star.count / max(
                step_path_integral(x_star.jumps, x_star.T), 1e-9
            )
            try:
                adapted = adapt_path(x_star, w)
            except ValidationError:
                continue
            xt = scaled_integral_path(x_star, w)
            for i in range(1, adapted.count + 1):
                # crossing time of level i, recovered by bisection on xt
                lo, hi = 0.0, x_star.T
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if xt(mid) >= i:
                        hi = mid
                    else:
                        lo = mid
                t_i = hi
                assert np.searchsorted(adapted.jumps, t_i, side="right") == i
                area_adapted = adapted.integral(t_i)
                area_ref = piecewise_linear_integral(xt, x_star.jumps, 0.0, t_i)
                assert area_adapted == pytest.approx(area_ref, abs=1e-10)

    def test_jumps_strictly_increasing(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            x_star = random_path(rng)
            adapted = adapt_path(x_star, tune_w(x_star))
            assert np.all(np.diff(adapted.jumps) > 0)
            assert adapted.jumps[0] > 0
            assert adapted.jumps[-1] <= x_star.T

    def test_commutes_with_time_rescaling(self):
        """Scaling times and T by s and w by 1/s rescales the output by s."""
        rng = np.random.default_rng(55)
        for _ in range(10):
            x_star = random_path(rng)
            w = tune_w(x_star)
            s = rng.uniform(0.3, 4.0)
            scaled = CountPath(T=x_star.T * s, jumps=x_star.jumps * s)
            base = adapt_path(x_star, w)
            resc = adapt_path(scaled, w / s)
            np.testing.assert_allclose(resc.jumps, base.jumps * s, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_level_loop_bit_for_bit(self, seed):
        """Vectorized over the levels, the transform gives the per-level loop's
        jumps exactly: on random paths and on rounded event grids with flat
        stretches (events at T included), at the tuned scale and above it."""
        rng = np.random.default_rng(seed)
        for case in range(100):
            if case % 2:
                x_star = random_path(rng, max_events=40)
            else:
                T = float(rng.integers(5, 50))
                grid = np.round(rng.uniform(0.0, T, int(rng.integers(1, 60))), 1)
                x_star = CountPath(T=T, jumps=np.unique(grid[grid > 0]))
            w = tune_w(x_star) * (1.0 if case % 3 == 0 else rng.uniform(1.0, 20.0))
            np.testing.assert_array_equal(adapt_path(x_star, w).jumps, loop_adapt_path(x_star, w).jumps)

    def test_ten_thousand_levels(self):
        """A path with M* = 100 and a scale giving 10^4 levels stays exact."""
        x_star = load_path(np.linspace(0.05, 5.0, 100), 5.0)
        w = 100.0 * tune_w(x_star)
        adapted = adapt_path(x_star, w)
        assert adapted.count == 10_000
        np.testing.assert_array_equal(adapted.jumps, loop_adapt_path(x_star, w).jumps)


class TestTuneW:
    def test_single_jump_formula(self):
        """One jump at 0.5, T=1: step area is 0.5, so w is 2 (nudged up)."""
        x_star = load_path([0.5], 1.0)
        w = tune_w(x_star)
        assert w == pytest.approx(2.0, rel=1e-8)
        assert adapt_path(x_star, w).count == 1

    def test_two_jump_area(self):
        """Jumps at 0.25 and 0.75, T=1: area = 1*0.5 + 2*0.25 = 1.0, w = 2.

        Verified against the brute-force step-area oracle.
        """
        x_star = load_path([0.25, 0.75], 1.0)
        assert step_path_integral(x_star.jumps, 1.0) == pytest.approx(1.0, abs=1e-12)
        w = tune_w(x_star)
        assert w == pytest.approx(2.0, rel=1e-8)
        assert adapt_path(x_star, w).count == 2

    def test_events_only_at_the_horizon_rejected(self):
        """A lone event at T leaves int_0^T x*(s) ds = 0: no scale exists."""
        with pytest.raises(ValidationError, match="integral is 0"):
            tune_w(load_path([10.0], 10.0))

    def test_event_count_preserved_on_random_paths(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            x_star = random_path(rng)
            adapted = adapt_path(x_star, tune_w(x_star))
            assert adapted.count == x_star.count


class TestEventCsv:
    def test_roundtrip(self, tmp_path):
        """numpy floats, and comment lines ahead of the header, as simulate writes them."""
        text = events_csv(np.array([0.25, 0.5]), comments=["seed=7", "T=1.0"])
        assert text == "# seed=7\n# T=1.0\ntime\n0.25\n0.5\n"
        events = tmp_path / "events.csv"
        events.write_text(text, encoding="utf-8")
        assert read_events_csv(events) == [0.25, 0.5]
        assert read_events_csv(str(events)) == [0.25, 0.5]

    def test_header_and_comments_skipped(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("# anything\ntime\n0.125\n0.25\n", encoding="utf-8")
        assert read_events_csv(events) == [0.125, 0.25]

    def test_bad_line_reported(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("time\nnot-a-number\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2"):
            read_events_csv(events)
