import numpy as np
import pytest

from feedbackq import (
    ModelParams,
    critical_values,
    nash_n,
    nash_r,
    paradox1_check,
    paradox2_check,
    sojourn_gap_closed_form,
    sojourn_vector,
)
from feedbackq import paradox
from feedbackq.paradox import BAND_OBSERVED, BAND_PROVED, GAP_TOL, KIND_NO_DIFFERENCE
from feedbackq.solver import ConsistencyError, ValueVector

from conftest import REFERENCE_CASES, params_of, random_params


class TestSojournGap:
    def test_matches_solver_on_both_bands(self, rng):
        for _ in range(15):
            params = random_params(rng)
            for n in (1, 2):
                x = n + rng.uniform(0.02, 0.98)
                gap = sojourn_gap_closed_form(params, x)
                w = sojourn_vector(params, x)
                assert gap == pytest.approx(w.at(n + 1, n + 1) - w.at(n, n), rel=1e-9)

    def test_continuous_at_the_band_edge(self, rng):
        # as the joining probability vanishes the first-band gap approaches
        # the flat-band difference 1/(mu q (2 - q))
        for _ in range(10):
            params = random_params(rng)
            gap = sojourn_gap_closed_form(params, 1.0 + 1e-9)
            flat = 1.0 / (params.mu * params.q * (2.0 - params.q))
            assert gap == pytest.approx(flat, rel=1e-6)

    def test_decreasing_in_the_joining_probability(self, rng):
        for _ in range(15):
            params = random_params(rng)
            for n in (1, 2):
                low = sojourn_gap_closed_form(params, n + 0.2)
                high = sojourn_gap_closed_form(params, n + 0.8)
                assert low > high

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 3.0, 3.5])
    def test_unsupported_thresholds_rejected(self, x):
        with pytest.raises(ValueError):
            sojourn_gap_closed_form(ModelParams(1.0, 0.8, 0.4), x)

    @pytest.mark.parametrize("mu", [1e-150, 1e-50, 1.0, 1e50, 1e300])
    @pytest.mark.parametrize("ratio", [1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("q", [0.05, 0.5, 1.0])
    def test_finite_and_solver_exact_at_extreme_rates(self, mu, ratio, q):
        # mu**2 overflowed from mu = 1.3e154 on, and the (1, 2) gap read 0.0
        params = ModelParams(ratio * mu, mu, q)
        for x in (1.3, 2.6):
            gap = sojourn_gap_closed_form(params, x)
            w = sojourn_vector(params, x)
            n = int(x)
            assert np.isfinite(gap) and gap > 0.0
            assert gap == pytest.approx(w.at(n + 1, n + 1) - w.at(n, n), rel=GAP_TOL, abs=0.0)

    def test_nan_solver_gap_fails_the_check(self, monkeypatch):
        def nan_sojourn(params, x):
            w = sojourn_vector(params, x)
            return ValueVector(w.kind, np.full_like(w.values, np.nan), w.depth)

        monkeypatch.setattr(paradox, "sojourn_vector", nan_sojourn)
        with pytest.raises(ConsistencyError, match="disagrees with the solver"):
            sojourn_gap_closed_form(ModelParams(1.0, 0.8, 0.4), 1.5)


class TestRewardIncrease:
    def test_reference_band_pair(self):
        params = ModelParams(1.0, 0.8, 0.4)
        report = paradox1_check(params, 2, 7.8, 7.9)
        assert report.verdicts["payoff_at_m_decreases"]
        assert report.thresholds[0] < report.thresholds[1]
        assert not report.conjecture

    def test_hard_on_constructed_pairs_first_two_bands(self, rng):
        for m in (1, 2):
            for _ in range(5):
                params = random_params(rng)
                cv = critical_values(params, m)
                nxt = critical_values(params, m + 1)
                r1 = cv.beta + 0.3 * (nxt.alpha - cv.beta)
                r2 = cv.beta + 0.7 * (nxt.alpha - cv.beta)
                report = paradox1_check(params, m, r1, r2)
                assert report.verdicts["payoff_at_m_decreases"]

    def test_degenerate_equal_rewards(self):
        params = ModelParams(1.0, 0.8, 0.4)
        report = paradox1_check(params, 2, 7.8, 7.8)
        assert report.verdicts["payoff_at_m_decreases"]
        assert report.thresholds[0] == report.thresholds[1]
        assert "degenerate" in report.note

    def test_larger_m_flagged_as_extrapolation(self, rng):
        params = ModelParams(1.0, 0.8, 0.4)
        cv = critical_values(params, 3)
        nxt = critical_values(params, 4)
        r1 = cv.beta + 0.3 * (nxt.alpha - cv.beta)
        r2 = cv.beta + 0.7 * (nxt.alpha - cv.beta)
        report = paradox1_check(params, 3, r1, r2)
        assert report.conjecture

    def test_on_the_search_ladder_closes_only_what_the_search_did_not(self, rng, monkeypatch):
        # The nash_n search at r1 leaves the critical values and its root on
        # its ladder; the check on that ladder closes r2's root and the two
        # payoff chains, and gives the report of a fresh ladder.
        from feedbackq import Ladder, solver

        closes = []
        solve = solver.solve_structured
        monkeypatch.setattr(solver, "solve_structured", lambda *args: closes.append(1) or solve(*args))

        def closed(call):
            closes.clear()
            return call(), len(closes)

        for i in range(9):
            params = random_params(rng)
            m = 1 + i % 3
            beta, alpha_next = critical_values(params, m).beta, critical_values(params, m + 1).alpha
            r1, r2 = sorted(rng.uniform(beta, alpha_next, 2))
            params = params.with_r0(r1)
            fresh, fresh_closes = closed(lambda: paradox1_check(params, m, r1, r2))
            ladder = Ladder(params)
            res, search_closes = closed(lambda: nash_n(params, ladder=ladder))
            report, ladder_closes = closed(lambda: paradox1_check(params, m, r1, r2, ladder=ladder))
            assert res.m == m and report == fresh
            assert ladder_closes == fresh_closes - search_closes
            assert ladder_closes == nash_n(params.with_r0(r2)).root_evals + 2

    @pytest.mark.parametrize("m", [True, False, 2.0])
    def test_rejects_bool_and_float_m(self, m):
        with pytest.raises(ValueError):
            paradox1_check(ModelParams(1.0, 0.8, 0.4), m, 7.8, 7.9)

    def test_numpy_integer_m_is_taken_as_int(self):
        params = ModelParams(1.0, 0.8, 0.4)
        report = paradox1_check(params, np.int64(2), 7.8, 7.9)
        assert report == paradox1_check(params, 2, 7.8, 7.9)

    def test_out_of_band_rejected(self):
        params = ModelParams(1.0, 0.8, 0.4)
        with pytest.raises(ValueError):
            paradox1_check(params, 2, 7.0, 7.9)  # 7.0 < beta_2
        with pytest.raises(ValueError):
            paradox1_check(params, 2, 7.9, 7.8)


class TestRenegingOption:
    def test_reference_cases_full_inequality_set(self):
        for case in REFERENCE_CASES:
            report = paradox2_check(params_of(case))
            assert report.band == BAND_OBSERVED  # rewards sit above beta_2
            assert report.all_hold, report.verdicts
            assert report.totals[1] < report.totals[0]
            np.testing.assert_allclose(
                report.payoffs[0], (case["z11"], case["z22"]), atol=5e-4
            )
            np.testing.assert_allclose(
                report.payoffs[1], (case["zh11"], case["zh22"]), atol=5e-4
            )
            np.testing.assert_allclose(report.masses[0], (case["pi0"], case["pi1"]), atol=5e-4)
            np.testing.assert_allclose(report.masses[1], (case["pih0"], case["pih1"]), atol=5e-4)

    def test_hard_inside_the_proved_band(self, rng):
        found = 0
        while found < 10:
            params = random_params(rng)
            if params.q > 0.95:
                continue
            m = int(rng.integers(1, 4))
            cv = critical_values(params, m)
            if cv.gamma >= cv.beta - 1e-9:
                continue
            r0 = cv.gamma + rng.uniform(0.05, 1.0) * (cv.beta - cv.gamma)
            report = paradox2_check(params.with_r0(r0))
            assert report.band == BAND_PROVED
            assert report.all_hold, (params, report.verdicts)
            found += 1

    def test_no_difference_when_the_option_is_unused(self):
        params = ModelParams(1.0, 0.8, 0.4, 7.0)  # inside [alpha_2, gamma_2]
        report = paradox2_check(params)
        assert report.kind == KIND_NO_DIFFERENCE
        assert report.thresholds[0] == report.thresholds[1] == 2.0
        assert report.all_hold  # vacuously: nothing to compare

    def test_report_is_recomputable(self):
        report = paradox2_check(params_of(REFERENCE_CASES[0]))
        for i, (a, b) in enumerate(zip(*report.payoffs), start=1):
            assert report.verdicts[f"payoff_{i}_drops"] == (b < a)
        for i, (a, b) in enumerate(zip(*report.masses)):
            assert report.verdicts[f"mass_{i}_drops"] == (b < a)
        assert report.verdicts["total_drops"] == (report.totals[1] < report.totals[0])

    def test_equilibria_match_the_direct_solvers(self):
        params = params_of(REFERENCE_CASES[0])
        report = paradox2_check(params)
        assert report.thresholds[0] == pytest.approx(nash_n(params).x)
        assert report.thresholds[1] == pytest.approx(nash_r(params).x)
