import io

import numpy as np
import pytest

from feedbackq import (
    ModelParams,
    curve_to_csv,
    is_unimodal,
    socially_optimal_threshold,
    welfare_curve,
    welfare_derivative,
    welfare_flow_form,
    welfare_n,
    welfare_r,
)
from feedbackq import welfare
from feedbackq.model import make_threshold
from feedbackq.solver import ConsistencyError
from feedbackq.welfare import (
    FORM_AGREEMENT_TOL,
    _check_forms,
    _marginal_root,
    _welfare_n_closed,
    _welfare_r_closed,
    derivative_sign_core,
)

from conftest import random_params

FIG_PARAMS = ModelParams(1.0, 0.8, 0.8, 18.0)


def draw_params(rng, away_from_balanced=True):
    while True:
        params = random_params(rng, r0_span=(0.5, 25.0))
        if params.r0 * params.mu * params.q <= 1.05:
            continue
        if away_from_balanced and abs(params.rho - 1.0) < 5e-2:
            continue
        return params


class TestWelfareValues:
    def test_zero_threshold_zero_welfare(self, rng):
        params = random_params(rng, r0_span=(1.0, 10.0))
        assert welfare_n(params, 0.0) == 0.0
        assert welfare_r(params, 0.0) == 0.0

    def test_summation_matches_flow_form(self, rng):
        for _ in range(20):
            params = random_params(rng, r0_span=(0.0, 25.0))
            x = rng.uniform(0.0, 7.0)
            assert welfare_n(params, x) == pytest.approx(
                welfare_flow_form(params, x, "n"), abs=1e-9, rel=1e-9
            )
            assert welfare_r(params, x) == pytest.approx(
                welfare_flow_form(params, x, "r"), abs=1e-9, rel=1e-9
            )

    def test_closed_forms_cross_checked_inline(self, rng):
        # welfare_n/welfare_r raise if their closed forms drift from the
        # summation; exercising many draws is the regression
        for _ in range(100):
            params = draw_params(rng)
            x = rng.uniform(0.0, 8.0)
            welfare_n(params, x)
            welfare_r(params, x)

    def test_integer_thresholds_make_modes_equal(self, rng):
        for _ in range(10):
            params = random_params(rng, r0_span=(0.5, 25.0))
            for k in range(0, 7):
                assert welfare_n(params, float(k)) == pytest.approx(
                    welfare_r(params, float(k)), abs=1e-9
                )

    def test_balanced_load_summation_still_works(self):
        params = ModelParams(0.4, 0.8, 0.5, 9.0)  # rho exactly 1
        assert params.rho == 1.0
        for x in (0.5, 1.0, 2.5, 3.0):
            n_val = welfare_n(params, x)
            r_val = welfare_r(params, x)
            assert np.isfinite(n_val) and np.isfinite(r_val)
        near = ModelParams(0.4 * (1 + 1e-6), 0.8, 0.5, 9.0)
        assert welfare_n(near, 2.5) == pytest.approx(welfare_n(params, 2.5), abs=1e-4)


class TestDerivative:
    def test_matches_finite_differences_without_reneging(self, rng):
        h = 1e-5
        for _ in range(15):
            params = draw_params(rng)
            x = rng.uniform(0.1, 6.0)
            if abs(x - round(x)) < 0.05:
                continue
            fd = (welfare_n(params, x + h) - welfare_n(params, x - h)) / (2 * h)
            assert welfare_derivative(params, x, "n") == pytest.approx(fd, abs=1e-6, rel=1e-6)

    def test_matches_finite_differences_with_reneging(self, rng):
        h = 1e-5
        for _ in range(15):
            params = draw_params(rng)
            x = rng.uniform(0.1, 6.0)
            if abs(x - round(x)) < 0.05:
                continue
            fd = (welfare_r(params, x + h) - welfare_r(params, x - h)) / (2 * h)
            assert welfare_derivative(params, x, "r") == pytest.approx(fd, abs=1e-6, rel=1e-6)

    def test_modes_share_the_sign(self, rng):
        for _ in range(30):
            params = draw_params(rng)
            x = rng.uniform(0.05, 8.0)
            if abs(x - round(x)) < 1e-6:
                continue
            dn = welfare_derivative(params, x, "n")
            dr = welfare_derivative(params, x, "r")
            assert np.sign(dn) == np.sign(dr)
            core = derivative_sign_core(params, int(np.floor(x)))
            assert np.sign(dn) == np.sign(core)

    def test_sign_pattern_around_the_optimum(self):
        for x in (2.1, 2.5, 2.9):
            assert welfare_derivative(FIG_PARAMS, x, "n") > 0.0
        for x in (3.1, 3.5, 3.9):
            assert welfare_derivative(FIG_PARAMS, x, "n") < 0.0

    def test_sign_core_increments_are_positive(self, rng):
        # rho f(k+1) - rho f(k) = rho (1 - rho)(1 - rho^(k+2)) > 0 for rho != 1
        for _ in range(20):
            params = draw_params(rng)
            rho = params.rho
            for k in range(6):
                inc = derivative_sign_core(params, k) - derivative_sign_core(params, k + 1)
                assert inc == pytest.approx(rho * (1 - rho) * (1 - rho ** (k + 2)), rel=1e-9)
                assert inc > 0.0

    def test_integer_thresholds_rejected(self):
        with pytest.raises(ValueError):
            welfare_derivative(FIG_PARAMS, 2.0, "n")

    def test_balanced_load_rejected(self):
        with pytest.raises(ValueError):
            welfare_derivative(ModelParams(0.4, 0.8, 0.5, 9.0), 2.5, "n")


class TestOptimalThreshold:
    def test_reference_optimum(self):
        assert socially_optimal_threshold(FIG_PARAMS) == 3

    def test_matches_grid_argmax(self, rng):
        for _ in range(15):
            params = draw_params(rng)
            n_star = socially_optimal_threshold(params)
            values = [welfare_n(params, float(k)) for k in range(max(n_star + 6, 51))]
            assert int(np.argmax(values)) == n_star

    def test_marginal_root_brackets_the_optimum(self, rng):
        for _ in range(10):
            params = draw_params(rng)
            nu = _marginal_root(params)
            assert int(np.floor(nu + 1e-12)) == socially_optimal_threshold(params)

    def test_bare_reward_boundary(self):
        params = ModelParams(1.0, 0.8, 0.8)
        assert socially_optimal_threshold(params.with_r0(1.0 / 0.64)) == 0

    def test_below_bare_reward_rejected(self):
        params = ModelParams(1.0, 0.8, 0.8)
        with pytest.raises(ValueError):
            socially_optimal_threshold(params.with_r0(0.5 / 0.64))

    def test_balanced_load_grid_fallback(self):
        params = ModelParams(0.4, 0.8, 0.5, 9.0)
        n_star = socially_optimal_threshold(params)
        values = [welfare_n(params, float(k)) for k in range(25)]
        assert int(np.argmax(values)) == n_star


class TestCurve:
    def test_unimodal_and_peaked_at_optimum(self):
        curve = welfare_curve(FIG_PARAMS, step=0.01)
        assert curve.n_star == 3
        assert is_unimodal(curve.s_n)
        assert is_unimodal(curve.s_r)
        assert curve.x[int(np.argmax(curve.s_n))] == pytest.approx(3.0, abs=0.02)
        assert curve.s_star == pytest.approx(max(curve.s_n), abs=1e-9)

    def test_mode_comparison_flips_at_the_optimum(self):
        # without reneging welfare is higher below the optimum, lower above
        for x in (0.5, 1.5, 2.5):
            assert welfare_n(FIG_PARAMS, x) > welfare_r(FIG_PARAMS, x)
        for x in (3.5, 4.5, 5.5):
            assert welfare_n(FIG_PARAMS, x) < welfare_r(FIG_PARAMS, x)

    def test_grid_includes_integers(self):
        curve = welfare_curve(FIG_PARAMS, step=0.1, x_max=5.0)
        for k in range(6):
            assert float(k) in curve.x

    def test_csv_round_trip(self):
        curve = welfare_curve(FIG_PARAMS, step=0.5, x_max=4.0)
        buf = io.StringIO()
        curve_to_csv(curve, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "x,S_N,S_R"
        assert len(lines) == 1 + len(curve.x)
        x, sn, sr = (float(v) for v in lines[3].split(","))
        assert (x, sn, sr) == (curve.x[2], curve.s_n[2], curve.s_r[2])

    @pytest.mark.parametrize(
        "kwargs",
        [{"step": 0.0}, {"step": -0.1}, {"step": float("inf")}, {"step": float("nan")},
         {"x_max": -5.0}, {"x_max": float("inf")}, {"x_max": float("nan")}],
    )
    def test_rejects_bad_grids(self, kwargs):
        with pytest.raises(ValueError, match=f"got {next(iter(kwargs.values()))}"):
            welfare_curve(FIG_PARAMS, **kwargs)

    def test_zero_x_max_samples_the_origin(self):
        np.testing.assert_array_equal(welfare_curve(FIG_PARAMS, x_max=0.0).x, [0.0])

    def test_is_unimodal_rejects_a_dip(self):
        assert not is_unimodal(np.array([0.0, 1.0, 0.5, 1.2, 0.3]))


class TestBalancedLoadCurve:
    def test_curve_samples_through_the_degenerate_intensity(self):
        params = ModelParams(0.4, 0.8, 0.5, 9.0)  # rho exactly 1
        curve = welfare_curve(params, step=0.5, x_max=6.0)
        assert np.all(np.isfinite(curve.s_n))
        assert np.all(np.isfinite(curve.s_r))
        values = [welfare_n(params, float(k)) for k in range(10)]
        assert curve.n_star == int(np.argmax(values))


class TestLargeThresholdsAboveBalance:
    # rho = 20: the unscaled closed forms overflowed from x = 236 on.
    PARAMS = ModelParams(20.0, 1.0, 1.0, 5.0)

    @pytest.mark.parametrize("x", [236.5, 240.5, 400.5])
    def test_closed_forms_finite_and_match_flow_form(self, x):
        th = make_threshold(x)
        for mode, closed in (("n", _welfare_n_closed), ("r", _welfare_r_closed)):
            value = closed(self.PARAMS, th)
            flow = welfare_flow_form(self.PARAMS, x, mode)
            assert np.isfinite(value)
            assert abs(value - flow) <= FORM_AGREEMENT_TOL * max(1.0, abs(flow))

    @pytest.mark.parametrize("x", [236.5, 240.5])
    def test_checked_welfare_is_finite(self, x):
        for mode, welfare in (("n", welfare_n), ("r", welfare_r)):
            value = welfare(self.PARAMS, x)
            flow = welfare_flow_form(self.PARAMS, x, mode)
            assert abs(value - flow) <= FORM_AGREEMENT_TOL * max(1.0, abs(flow))

    def test_nan_closed_form_fails_the_check(self, monkeypatch):
        with pytest.raises(ConsistencyError):
            _check_forms(1.0, float("nan"), "n")
        monkeypatch.setattr(welfare, "_welfare_n_closed", lambda params, th: float("nan"))
        with pytest.raises(ConsistencyError, match="disagree"):
            welfare_n(FIG_PARAMS, 2.5)
