import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from feedbackq import (
    EssReport,
    Ladder,
    ModelParams,
    best_response_n,
    chi,
    critical_values,
    equilibrium_payoffs_r,
    ess_check,
    nash_n,
    nash_r,
    payoff_vector_n,
    payoff_vector_r_all,
    payoff_vector_r_tagged,
    sojourn_vector,
    total_payoff,
)
import feedbackq.equilibrium as equilibrium
import feedbackq.solver as solver
from feedbackq.equilibrium import (
    CASE_BALK,
    CASE_INDIFFERENCE,
    CASE_MIXED,
    CASE_PURE,
    ROOT_TOL,
    TIE_TOL,
)

import ess_oracle
from conftest import REFERENCE_CASES, params_of, random_params


class TestCriticalValues:
    def test_ordering_and_service_bound(self, rng):
        for _ in range(15):
            params = random_params(rng)
            prev_alpha = 0.0
            for m in range(1, 5):
                cv = critical_values(params, m)
                assert cv.alpha >= m / params.mu - 1e-12
                assert cv.alpha < cv.beta
                assert cv.alpha <= cv.gamma <= cv.beta + 1e-12
                assert cv.alpha > prev_alpha
                prev_alpha = cv.alpha
                nxt = critical_values(params, m + 1)
                assert cv.beta < nxt.alpha

    def test_gamma_strictly_below_beta_with_feedback(self, rng):
        for _ in range(10):
            params = random_params(rng)
            if params.q > 0.95:
                continue
            cv = critical_values(params, 2)
            assert cv.gamma < cv.beta

    def test_no_feedback_collapses_gamma_to_beta(self):
        cv = critical_values(ModelParams(0.7, 0.9, 1.0), 2)
        assert cv.gamma == pytest.approx(cv.beta, rel=1e-12)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            critical_values(ModelParams(1.0, 0.8, 0.4), 0)

    @pytest.mark.parametrize("m", [True, False, 2.0])
    def test_rejects_bool_and_float_m(self, m):
        with pytest.raises(ValueError):
            critical_values(ModelParams(1.0, 0.8, 0.4), m)
        with pytest.raises(ValueError):
            chi(ModelParams(1.0, 0.8, 0.4, 7.8), m)

    def test_numpy_integer_m_is_taken_as_int(self):
        params = ModelParams(1.0, 0.8, 0.4, 7.8)
        cv = critical_values(params, np.int64(2))
        assert type(cv.m) is int and cv.m == 2
        assert cv == critical_values(params, 2)
        assert chi(params, np.int64(2)) == chi(params, 2)


class TestChi:
    def test_reference_roots(self):
        assert chi(ModelParams(1.0, 0.8, 0.4, 7.8), 2) == pytest.approx(2.073038608, abs=1e-6)
        assert chi(ModelParams(0.8, 1.0, 0.2, 13.5), 2) == pytest.approx(2.528649316, abs=1e-6)

    def test_root_solves_indifference(self, rng):
        from feedbackq import sojourn_vector

        for _ in range(5):
            params = random_params(rng)
            cv = critical_values(params, 2)
            nxt = critical_values(params, 3)
            r0 = 0.5 * (cv.beta + nxt.alpha)
            root = chi(params.with_r0(r0), 2)
            assert 2.0 < root < 3.0
            assert sojourn_vector(params, root).at(3, 3) == pytest.approx(r0, abs=1e-9)

    def test_root_approaches_band_edges(self):
        params = ModelParams(1.0, 0.8, 0.4)
        cv = critical_values(params, 2)
        nxt = critical_values(params, 3)
        low = chi(params.with_r0(cv.beta + 1e-7 * (nxt.alpha - cv.beta)), 2)
        high = chi(params.with_r0(nxt.alpha - 1e-7 * (nxt.alpha - cv.beta)), 2)
        assert low == pytest.approx(2.0, abs=1e-5)
        assert high == pytest.approx(3.0, abs=1e-5)

    def test_out_of_band_reward_rejected(self):
        params = ModelParams(1.0, 0.8, 0.4, 7.5)  # inside [alpha_2, beta_2]
        with pytest.raises(ValueError):
            chi(params, 2)


class TestNashN:
    def test_balk_when_reward_too_small(self):
        res = nash_n(ModelParams(1.0, 0.8, 0.4, 0.0))
        assert res.case == CASE_BALK and res.x == 0.0

    def test_indifference_at_lone_customer_tie(self):
        params = ModelParams(1.0, 0.8, 0.4)
        res = nash_n(params.with_r0(1.0 / 0.32))
        assert res.case == CASE_INDIFFERENCE
        assert res.interval == (0.0, 1.0)
        assert res.x == 0.0

    def test_pure_integer_band(self):
        res = nash_n(ModelParams(1.0, 0.8, 0.4, 7.5))
        assert res.case == CASE_PURE and res.x == 2.0 and res.m == 2

    def test_mixed_reference_cases(self):
        for case in REFERENCE_CASES:
            res = nash_n(params_of(case))
            assert res.case == CASE_MIXED
            assert res.m == 2
            assert res.x == pytest.approx(case["x_e"], abs=1e-6)
            assert res.residual < 1e-9

    def test_band_boundaries_give_pure(self):
        params = ModelParams(1.0, 0.8, 0.4)
        cv = critical_values(params, 2)
        assert nash_n(params.with_r0(cv.alpha + 1e-12)).x == 2.0
        assert nash_n(params.with_r0(cv.beta)).x == 2.0
        nxt = critical_values(params, 3)
        assert nash_n(params.with_r0(nxt.alpha)).x == 3.0

    def test_fixed_point_of_best_response(self, rng):
        for _ in range(10):
            params = random_params(rng, r0_span=(0.5, 25.0))
            res = nash_n(params)
            if res.case == CASE_PURE:
                m = res.m
                br = best_response_n(params, float(m))
                assert br == m or (br == m + 1 and best_response_n(params, float(m + 1)) <= m)
            elif res.case == CASE_MIXED:
                z = payoff_vector_n(params, res.x)
                assert z.at(res.m, res.m) > 0.0
                assert z.at(res.m + 1, res.m + 1) == pytest.approx(0.0, abs=1e-9)


class TestNashR:
    def test_mixed_reference_cases(self):
        for case in REFERENCE_CASES:
            res = nash_r(params_of(case))
            assert res.case == CASE_MIXED
            assert res.x == pytest.approx(case["x_hat_e"], abs=1e-6)

    def test_pure_inside_gamma_band(self):
        params = ModelParams(1.0, 0.8, 0.4)
        cv = critical_values(params, 2)
        res = nash_r(params.with_r0(0.5 * (cv.alpha + cv.gamma)))
        assert res.case == CASE_PURE and res.x == 2.0

    def test_mixed_between_gamma_and_beta(self):
        # the independent chain oracle also gives 2.176323198 for this root
        # (the published 2.167 fails the indifference equation; see
        # acceptance criterion 2)
        res = nash_r(ModelParams(1.0, 0.8, 0.4, 7.5))
        assert res.case == CASE_MIXED
        assert res.x == pytest.approx(2.176323198, abs=1e-6)

    def test_reneging_never_lowers_the_threshold(self, rng):
        for _ in range(25):
            params = random_params(rng, r0_span=(0.2, 20.0))
            assert nash_r(params).x >= nash_n(params).x - 1e-9

    def test_strictly_higher_above_gamma(self, rng):
        for _ in range(10):
            params = random_params(rng)
            cv = critical_values(params, 1)
            if cv.gamma >= cv.beta - 1e-9:
                continue
            r0 = 0.5 * (cv.gamma + cv.beta)
            res_n = nash_n(params.with_r0(r0))
            res_r = nash_r(params.with_r0(r0))
            assert res_n.case == CASE_PURE
            assert res_r.case == CASE_MIXED
            assert res_r.x > res_n.x

    def test_case_chain_between_gamma_and_beta(self, rng):
        # payoff ordering that drives the comparison: joining one past the
        # threshold is losing at the next integer, at the old equilibrium, and
        # winning only against reneging others
        for _ in range(8):
            params = random_params(rng)
            if params.q > 0.95:
                continue
            cv = critical_values(params, 2)
            if cv.gamma >= cv.beta - 1e-9:
                continue
            r0 = 0.5 * (cv.gamma + cv.beta)
            p = params.with_r0(r0)
            z_next_int = payoff_vector_r_all(p, 3.0).at(3, 3)
            z_old = payoff_vector_n(p, 2.0).at(3, 3)
            z_vs_reneging = payoff_vector_r_tagged(p, 2.0).at(3, 3)
            assert z_next_int < z_old <= 0.0 < z_vs_reneging


class TestTotalPayoff:
    def test_never_joining_earns_nothing(self, rng):
        params = random_params(rng, r0_span=(0.0, 10.0))
        assert total_payoff(params, 0.0, 2.5) == 0.0

    def test_tie_reward_earns_nothing_on_unit_interval(self):
        params = ModelParams(1.0, 0.8, 0.4)
        tie = params.with_r0(1.0 / 0.32)
        for x_tag in (0.0, 0.3, 1.0):
            for x_pop in (0.0, 0.4, 1.0):
                assert total_payoff(tie, x_tag, x_pop) == pytest.approx(0.0, abs=1e-12)

    def test_equilibrium_is_a_grid_best_response(self):
        for case in REFERENCE_CASES:
            params = params_of(case)
            x_e = case["x_e"]
            u_eq = total_payoff(params, x_e, x_e)
            for x_dev in np.arange(0.0, x_e + 2.0, 0.1):
                assert total_payoff(params, float(x_dev), x_e) <= u_eq + 1e-9

    def test_deep_tagged_threshold_is_capped_by_population(self):
        params = ModelParams(1.0, 0.8, 0.4, 7.8)
        assert total_payoff(params, 50.0, 2.073) == pytest.approx(
            total_payoff(params, 4.0, 2.073)
        )


class TestEss:
    def test_reference_equilibrium_is_ess(self):
        params = params_of(REFERENCE_CASES[0])
        x_e = nash_n(params).x
        report = ess_check(params, x_e, np.arange(0.0, 5.0001, 0.05))
        assert report.is_ess
        assert report.failures == ()
        assert report.strict_best + report.tie_resolved == report.checked

    def test_balking_is_ess_when_reward_small(self):
        params = ModelParams(1.0, 0.8, 0.4, 1.0)
        assert nash_n(params).case == CASE_BALK
        report = ess_check(params, 0.0, np.arange(0.0, 3.0001, 0.25))
        assert report.is_ess
        assert report.strict_best == report.checked

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_deviations_are_rejected(self, bad):
        params = params_of(REFERENCE_CASES[0])
        with pytest.raises(ValueError, match="finite"):
            ess_check(params, nash_n(params).x, [bad, 1.0])

    def test_tie_reward_is_not_ess(self):
        params = ModelParams(1.0, 0.8, 0.4)
        tie = params.with_r0(critical_values(params, 1).alpha)
        report = ess_check(tie, 0.5, np.arange(0.0, 1.0001, 0.1))
        assert not report.is_ess
        assert "tie" in report.note


def _oracle_report(params, x_e, deviations):
    """The verdicts of the exact oracle (``tests/ess_oracle.py``) as a report."""
    verdicts = ess_oracle.verdicts(params.lam, params.mu, params.q, params.r0, x_e, deviations)
    failures = tuple(dx for dx, v in verdicts if v == ess_oracle.FAIL)
    return EssReport(
        x=x_e, is_ess=not failures, checked=len(verdicts),
        strict_best=sum(v == ess_oracle.WORSE for _, v in verdicts),
        tie_resolved=sum(v == ess_oracle.TIE for _, v in verdicts), failures=failures,
    )


class TestEssMatchesPerDeviationCheck:
    """The sign rule against the exact oracle, deviation by deviation."""

    def test_seeded_draws(self, rng):
        resolved = failed = 0
        for i in range(16):
            params = random_params(rng, (0.5, 12.0))
            # Equilibria (mixed ones tie every deviation inside their band)
            # and arbitrary thresholds, which fail the check.  Draw 10 is a
            # pure equilibrium at m = 19 and rho = 0.34, deep enough that the
            # earlier tie tolerance read it as not evolutionarily stable.
            x_e = nash_n(params).x if i % 2 == 0 else float(rng.uniform(0.0, 4.0))
            step = (0.05, 0.1, 0.25)[i % 3]
            grid = np.round(np.arange(0.0, x_e + 2.0 + 1e-9, step), 12)
            report = ess_check(params, x_e, grid)
            assert report == _oracle_report(params, x_e, grid)
            assert report.is_ess or i % 2
            resolved += report.tie_resolved
            failed += len(report.failures)
        assert resolved > 0 and failed > 0

    def test_low_load_equilibria(self):
        # mu in (0.2, 2), q in (0.1, 1), rho log-uniform in [0.05, 0.3] and
        # r0 mu q in (1, 7): equilibria up to m = 7, where a deviation's loss
        # can fall far below any relative tie tolerance
        rng = np.random.default_rng(2021)
        smallest = 1.0
        for _ in range(12):
            mu, q = rng.uniform(0.2, 2.0), rng.uniform(0.1, 1.0)
            rho = np.exp(rng.uniform(np.log(0.05), np.log(0.3)))
            params = ModelParams(rho * mu * q, mu, q, rng.uniform(1.0, 7.0) / (mu * q))
            x_e = nash_n(params).x
            grid = np.round(np.arange(0.0, x_e + 2.0 + 1e-9, 0.05), 12)
            report = ess_check(params, x_e, grid)
            assert report.is_ess
            assert report == _oracle_report(params, x_e, grid)
            # the exact loss of each deviation outside x_e's band [n, n + 1]
            game = ess_oracle.Game(params.lam, params.mu, params.q, params.r0)
            u_ee, n = game.payoff(x_e, x_e), math.floor(x_e)
            for dx in grid[(grid < n) | (grid > n + 1)]:
                smallest = min(smallest, float((u_ee - game.payoff(dx, x_e)) / u_ee))
        assert 0.0 < smallest < TIE_TOL

    def test_roadmap_low_load_example(self):
        # pure at m = 10; the earlier tie tolerance failed all 60 deviations in [9, 12]
        params = ModelParams(0.147075363635155, 1.3181044536113944, 0.7488355221981388, 8.543764654080832)
        res = nash_n(params)
        assert (res.case, res.x) == (CASE_PURE, 10.0)
        grid = np.round(np.arange(0.0, 12.0 + 1e-9, 0.05), 12)
        report = ess_check(params, res.x, grid)
        assert report.is_ess and report.strict_best == report.checked == 240
        assert report == _oracle_report(params, res.x, grid)

    def test_non_equilibria_fail_where_the_oracle_says(self):
        params = params_of(REFERENCE_CASES[0])
        for x in (2.5, 1.3, 3.75):
            grid = np.round(np.arange(0.0, x + 2.0 + 1e-9, 0.05), 12)
            report = ess_check(params, x, grid)
            assert report.failures
            assert report == _oracle_report(params, x, grid)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("edge", ["alpha", "beta"])
    def test_reward_ties_resolve_against_their_own_population(self, m, edge):
        # r0 = alpha_m zeroes the payoff at position m, r0 = beta_m the one
        # at m + 1: the deviations that move only that position tie, and each
        # does strictly worse against its own population
        base = ModelParams(1.0, 0.8, 0.4)
        params = base.with_r0(getattr(critical_values(base, m), edge))
        res = nash_n(params)
        assert (res.case, res.x) == (CASE_PURE, float(m))
        grid = np.round(np.arange(0.0, m + 2.0 + 1e-9, 0.05), 12)
        report = ess_check(params, res.x, grid)
        tied = [dx for dx in grid if (m - 1 <= dx < m if edge == "alpha" else dx > m)]
        assert report.failures == ()
        assert report.tie_resolved == len(tied)
        game = ess_oracle.Game(params.lam, params.mu, params.q, params.r0)
        assert all(game.payoff(res.x, dx) > game.payoff(dx, dx) for dx in tied)

    def test_readme_grid_resolves_ties(self):
        params = params_of(REFERENCE_CASES[0])
        x_e = nash_n(params).x
        grid = np.round(np.arange(0.0, x_e + 2.0 + 1e-9, 0.05), 12)
        report = ess_check(params, x_e, grid)
        assert (report.checked, report.strict_best, report.tie_resolved) == (82, 61, 21)
        assert report == _oracle_report(params, x_e, grid)

    def test_unsorted_grid_with_repeats(self, rng):
        # the report keeps grid order, repeats included
        params = params_of(REFERENCE_CASES[0])
        for x_e in (nash_n(params).x, 1.3):
            grid = np.round(np.arange(0.0, x_e + 2.0 + 1e-9, 0.05), 12)
            grid = np.concatenate((grid, grid[::7]))
            rng.shuffle(grid)
            report = ess_check(params, x_e, grid)
            assert report.tie_resolved > 0 or len(report.failures) > 1
            assert report == _oracle_report(params, x_e, grid)

    def test_lone_customer_tie(self):
        params = ModelParams(1.0, 0.8, 0.4)
        tie = params.with_r0(critical_values(params, 1).alpha)
        grid = np.arange(0.0, 1.0001, 0.1)
        deviations = tuple(float(d) for d in grid if d != 0.5)
        assert ess_check(tie, 0.5, grid) == EssReport(
            x=0.5, is_ess=False, checked=len(deviations), strict_best=0, tie_resolved=0,
            failures=deviations,
            note="reward equals the lone-customer sojourn: all thresholds in [0, 1] tie",
        )


#: The reference cases and one balking case, (lam, mu, q, r0).
_RESCALED_CASES = [(c["lam"], c["mu"], c["q"], c["r0"]) for c in REFERENCE_CASES] + [(1.0, 0.8, 0.4, 2.0)]


class TestEssOnTheSearchLadder:
    def test_reads_the_held_root_and_gives_the_fresh_report(self, rng, monkeypatch):
        # the ladder of nash_n holds its critical values and its mixed root, so
        # ess_check on it closes only the payoff chain at x_e; the report and
        # the certificate are those of a fresh ladder
        mixed = 0
        for i in range(12):
            params = random_params(rng)
            m = int(rng.integers(1, 8))
            beta, alpha_next = critical_values(params, m).beta, critical_values(params, m + 1).alpha
            params = params.with_r0(rng.uniform(beta, alpha_next) if i % 3 else rng.uniform(0.5, 2.0) * beta)
            ladder = Ladder(params)
            res = nash_n(params, ladder=ladder)
            grid = np.round(np.arange(0.0, res.x + 2.0 + 1e-9, 0.05), 12)
            fresh = ess_check(params, res.x, grid)
            if res.case == CASE_MIXED:
                mixed += 1
                assert ladder.roots[res.m, params.r0] == (res.x, res.residual, res.root_evals)
            closes = []
            solve = solver.solve_structured
            monkeypatch.setattr(solver, "solve_structured", lambda *args: closes.append(1) or solve(*args))
            assert ess_check(params, res.x, grid, ladder=ladder) == fresh
            monkeypatch.undo()
            assert len(closes) == 1
            assert nash_n(params, ladder=ladder) == res  # a held root reports its own search
        assert mixed >= 8


def _equilibria_and_ess(params: ModelParams):
    """Both equilibria, and the ESS reports at x_e and at 2.5, which is no
    equilibrium (in the first reference case it lies in x_e's band)."""
    results = [nash_n(params), nash_r(params)]
    reports = []
    for x in (results[0].x, 2.5):
        grid = np.round(np.arange(0.0, x + 2.0 + 1e-9, 0.05), 12)  # the CLI's --ess grid
        reports.append(ess_check(params, x, grid))
    return results, reports


class TestTimeScaleInvariance:
    """Rates times c and the reward over c is the same game in other time
    units.  The reward tie is relative, and the ESS check reads signs and
    exact zeros, which certifies a mixed root by the root search's own
    result: no verdict moves."""

    @pytest.mark.parametrize("c", [1e-4, 1e-2, 1e2, 1e6, 1e10, 1e14])
    @pytest.mark.parametrize("case", _RESCALED_CASES)
    def test_same_equilibria_and_ess_verdict(self, case, c):
        lam, mu, q, r0 = case
        base, base_ess = _equilibria_and_ess(ModelParams(lam, mu, q, r0))
        scaled, scaled_ess = _equilibria_and_ess(ModelParams(lam * c, mu * c, q, r0 / c))
        for want, got in zip(base, scaled):
            assert (got.case, got.m, got.interval) == (want.case, want.m, want.interval)
            assert got.x == pytest.approx(want.x, rel=1e-12, abs=0.0)
        for want, got in zip(base_ess, scaled_ess):
            assert got.is_ess == want.is_ess
            for field in ("checked", "strict_best", "tie_resolved", "failures"):
                assert getattr(got, field) == getattr(want, field)


class TestNanChecks:
    def test_nan_mixed_root_residual_fails(self, monkeypatch):
        monkeypatch.setattr(
            equilibrium, "_brent", lambda objective, lo, hi, f_lo, f_hi: (0.5 * (lo + hi), np.nan, 1)
        )
        with pytest.raises(solver.ConsistencyError, match="mixed-root residual"):
            nash_n(params_of(REFERENCE_CASES[0]))

    def test_nan_tagged_payoffs_fail_the_route_check(self, monkeypatch):
        def nan_tagged(params, x):
            z = payoff_vector_r_tagged(params, x)
            return solver.ValueVector(z.kind, np.full_like(z.values, np.nan), z.depth)

        params = params_of(REFERENCE_CASES[0])
        res = nash_r(params)
        monkeypatch.setattr(equilibrium, "payoff_vector_r_tagged", nan_tagged)
        with pytest.raises(solver.ConsistencyError, match="payoff routes disagree"):
            equilibrium_payoffs_r(params, res)


class TestEquilibriumPayoffsR:
    def test_two_routes_agree_at_mixed_equilibria(self):
        for case in REFERENCE_CASES:
            params = params_of(case)
            res = nash_r(params)
            z_hat = equilibrium_payoffs_r(params, res)
            direct = payoff_vector_r_tagged(params, res.x)
            np.testing.assert_allclose(z_hat.values, direct.values, atol=1e-8)
            assert z_hat.at(res.m + 1, res.m + 1) == pytest.approx(0.0, abs=1e-9)

    def test_integer_equilibrium_matches_no_reneging_payoffs(self):
        params = ModelParams(1.0, 0.8, 0.4, 7.0)  # inside [alpha_2, gamma_2]
        res = nash_r(params)
        assert res.case == CASE_PURE
        z_hat = equilibrium_payoffs_r(params, res)
        z = payoff_vector_n(params, res.x)
        shared = len(z_hat.values) - res.m - 1
        np.testing.assert_allclose(z_hat.values[:shared], z.values[:shared], atol=1e-12)

    def test_mode_mismatch_rejected(self):
        params = ModelParams(1.0, 0.8, 0.4, 7.8)
        with pytest.raises(ValueError):
            equilibrium_payoffs_r(params, nash_n(params))


class TestBestResponse:
    def test_step_function_shape(self):
        params = ModelParams(1.0, 0.8, 0.4, 7.8)
        grid = np.arange(0.0, 6.01, 0.1)
        values = [best_response_n(params, float(x)) for x in grid]
        # once the response falls below the highest allowed position it only
        # steps downward
        crossed = False
        for x, br in zip(grid, values):
            cap = int(np.ceil(x)) + 1
            if br < cap:
                crossed = True
            if crossed:
                assert br <= cap
        dropping = [v for x, v in zip(grid, values) if x >= 2.1]
        assert all(a >= b for a, b in zip(dropping, dropping[1:]))

    def test_zero_when_reward_below_any_wait(self):
        params = ModelParams(1.0, 0.8, 0.4, 0.5)
        for x in (0.0, 1.0, 2.5):
            assert best_response_n(params, x) == 0


class TestIndifferenceFlagging:
    def test_reneging_game_mirrors_the_tie_case(self):
        params = ModelParams(1.0, 0.8, 0.4)
        tie = params.with_r0(critical_values(params, 1).alpha)
        res = nash_r(tie)
        assert res.case == CASE_INDIFFERENCE
        assert res.interval == (0.0, 1.0)
        assert res.x == 0.0


def _bisection_fraction(objective, increasing: bool) -> float:
    """The earlier mixed-root search: 60 halvings of the unit interval."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        value = objective(mid)
        if (value < 0.0) if increasing else (value > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _reference_nash(params: ModelParams, reneging: bool) -> tuple[str, int | None, float]:
    """Case, m and threshold by the earlier search: a linear ascent over
    full critical values, then bisection on the band's fraction."""
    r0 = params.r0
    cv = critical_values(params, 1)
    if abs(r0 - cv.alpha) <= TIE_TOL * max(1.0, cv.alpha):
        return CASE_INDIFFERENCE, None, 0.0
    if r0 < cv.alpha:
        return CASE_BALK, None, 0.0
    m = 1
    while True:
        if r0 <= (cv.gamma if reneging else cv.beta):
            return CASE_PURE, m, float(m)
        nxt = critical_values(params, m + 1)
        if r0 < nxt.alpha:
            break
        m, cv = m + 1, nxt
    if reneging:
        p = _bisection_fraction(
            lambda p: payoff_vector_r_tagged(params, m + p).at(m + 1, m + 1), increasing=False
        )
    else:
        p = _bisection_fraction(
            lambda p: sojourn_vector(params, m + p).at(m + 1, m + 1) - r0, increasing=True
        )
    return CASE_MIXED, m, m + p


class TestMixedRootSearch:
    """The bracketing search against the earlier bisection, reward by reward.

    Rewards lie inside a mixed band (beta_m or gamma_m, alpha_{m+1}): in its
    interior, or within 1e-9 (relative) of either edge.  Success
    probabilities stay at or below 0.95: as q -> 1 the band closes, the
    indifference condition flattens, and any two searches may then disagree
    by the objective's rounding over its slope rather than by their method.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.1, 2.0),
        mu=st.floats(0.1, 2.0),
        q=st.floats(0.1, 0.95),
        m=st.integers(1, 3),
        reneging=st.booleans(),
        where=st.sampled_from(["interior", "lower", "upper"]),
        frac=st.floats(0.001, 0.999),
        digits=st.floats(0.0, 8.0),
    )
    # a reward 1.4e-15 (relative) above beta_2 puts the root inside the
    # 1e-12 band where thresholds snap to integers: the objective is flat
    # there, interpolation stalls, and only the bisection schedule bounds
    # the evaluations
    @example(lam=0.27628042037390205, mu=1.8772111560772204, q=0.4286205982824901,
             m=2, reneging=False, where="lower", frac=0.5, digits=5.85)
    @example(lam=1.0, mu=0.8, q=0.4, m=2, reneging=True, where="upper", frac=0.5, digits=7.0)
    def test_matches_bisection(self, lam, mu, q, m, reneging, where, frac, digits):
        base = ModelParams(lam, mu, q)
        lower = critical_values(base, m)
        lower = lower.gamma if reneging else lower.beta
        alpha_next = critical_values(base, m + 1).alpha
        offset = 1e-9 * 10.0**-digits  # relative distance to the near edge
        if where == "interior":
            r0 = lower + frac * (alpha_next - lower)
        elif where == "lower":
            r0 = lower * (1.0 + offset)
        else:
            r0 = alpha_next * (1.0 - offset)
        assume(lower < r0 < alpha_next)
        params = base.with_r0(r0)

        result = (nash_r if reneging else nash_n)(params)
        case, ref_m, ref_x = _reference_nash(params, reneging)
        assert (result.case, result.m) == (case, ref_m)
        assert result.critical == critical_values(params, result.critical.m)
        if case == CASE_MIXED:
            assert abs(result.x - ref_x) <= 1e-12 * (ref_m + 1)
            assert result.residual <= ROOT_TOL
            assert 1 <= result.root_evals <= 61
        else:
            assert result.root_evals == 0

    @pytest.mark.parametrize("reneging", [False, True])
    @pytest.mark.parametrize("edge", ["beta", "gamma"])
    def test_root_inside_the_snap_band(self, reneging, edge):
        # 1e-11 (relative) above beta_1 the no-reneging root lies 4.2e-13 past
        # m = 1, inside the 1e-12 band where thresholds snap to the integer:
        # the objective is flat at the band's lower value and jumps past it,
        # so no evaluated point met ROOT_TOL ("mixed-root residual 1.118e-09")
        base = ModelParams(2.0, 0.125, 0.109375)
        params = base.with_r0(getattr(critical_values(base, 1), edge) * (1.0 + 1e-11))
        result = (nash_r if reneging else nash_n)(params)
        case, ref_m, ref_x = _reference_nash(params, reneging)
        assert (result.case, result.m) == (case, ref_m)
        if case == CASE_MIXED:
            assert abs(result.x - ref_x) <= 1e-12 * (ref_m + 1)
            assert result.residual <= ROOT_TOL
            assert 1 <= result.root_evals <= 61
        if edge == "beta" and not reneging:
            assert case == CASE_MIXED and 1.0 <= result.x <= 1.0 + 1e-12

    def test_typical_roots_take_a_few_solves(self):
        evals = [nash_n(params_of(case)).root_evals for case in REFERENCE_CASES]
        evals += [nash_r(params_of(case)).root_evals for case in REFERENCE_CASES]
        assert max(evals) <= 15

    def test_no_reneging_result_carries_gamma(self, rng):
        # gamma_m <= beta_m < alpha_{m+1}: both games stop at the same m, with
        # the same critical values, gamma included (D = r0 mu q up to 12: m up to 15)
        draws = [ModelParams(1.0, 0.8, 0.4, r0) for r0 in (0.5, 1.0 / 0.32, 7.5, 7.8)]
        for _ in range(400):
            base = random_params(rng)
            draws.append(base.with_r0(rng.uniform(0.3, 12.0) / (base.mu * base.q)))
        for params in draws:
            ladder = Ladder(params)
            result = nash_n(params, ladder=ladder)
            assert result.critical == critical_values(params, result.m or 1, ladder=ladder)
            assert (result.root_evals > 0) == (result.case == CASE_MIXED)
            other = nash_r(params, ladder=ladder)
            assert (other.m, other.critical) == (result.m, result.critical)

    def test_gamma_can_be_skipped(self):
        # the ascent's reader closes alpha and beta only
        params = ModelParams(1.0, 0.8, 0.4)
        full = critical_values(params, 2)
        bare = equilibrium._alpha_beta(params, 2, Ladder(params))
        assert (bare.alpha, bare.beta) == (full.alpha, full.beta)
        assert np.isnan(bare.gamma)


class TestHeldCriticalValues:
    """A ladder holds the critical values closed on it: a later search at its
    rate point reads them and closes only its own mixed-root chains."""

    @staticmethod
    def count_closes(monkeypatch) -> list:
        closed = []
        solve = solver.solve_structured

        def close(blocks, rhs):
            closed.append(blocks.variant)
            return solve(blocks, rhs)

        monkeypatch.setattr(solver, "solve_structured", close)
        return closed

    def test_held_value_serves_one_rate_point(self):
        params = ModelParams(1.0, 0.8, 0.4)
        ladder = Ladder(params)
        held = critical_values(params, 2, ladder=ladder)
        assert held.alpha == pytest.approx(5.853, abs=5e-4)
        # the same jump ratios at twice the rates halve every sojourn time
        scaled = ModelParams(2.0, 1.6, 0.4)
        assert critical_values(scaled, 2).alpha == pytest.approx(2.927, abs=5e-4)
        with pytest.raises(ValueError, match="another rate point"):
            critical_values(scaled, 2, ladder=ladder)
        with pytest.raises(ValueError, match="another rate point"):
            critical_values(ModelParams(1.0, 0.8, 0.5), 2, ladder=ladder)
        # the reward enters no critical value
        assert critical_values(params.with_r0(7.8), 2, ladder=ladder) is held

    def test_gamma_skipped_after_it_is_held(self, monkeypatch):
        params = ModelParams(1.0, 0.8, 0.4, 7.8)
        ladder = Ladder(params)
        full = critical_values(params, 3, ladder=ladder)
        closed = self.count_closes(monkeypatch)
        bare = equilibrium._alpha_beta(params, 3, ladder)
        assert (bare.m, bare.alpha, bare.beta) == (full.m, full.alpha, full.beta)
        assert not np.isnan(full.gamma)
        assert critical_values(params, 3, ladder=ladder) == full
        assert closed == []

    def test_gamma_filled_on_demand(self, monkeypatch):
        params = ModelParams(1.0, 0.8, 0.4, 7.8)
        ladder = Ladder(params)
        bare = equilibrium._alpha_beta(params, 3, ladder)
        closed = self.count_closes(monkeypatch)
        full = critical_values(params, 3, ladder=ladder)
        assert closed == ["reneging_tagged"]
        assert full == critical_values(params, 3)
        assert (full.alpha, full.beta) == (bare.alpha, bare.beta)

    def test_second_search_closes_only_its_root(self, monkeypatch, rng):
        draws = [params_of(case) for case in REFERENCE_CASES] + [ModelParams(1.0, 1.0, 0.9, 120.3)]
        for _ in range(40):
            base = random_params(rng)
            draws.append(base.with_r0(rng.uniform(0.3, 10.0) / (base.mu * base.q)))
        closed = self.count_closes(monkeypatch)
        for params in draws:
            ladder = Ladder(params)
            res_n = nash_n(params, ladder=ladder)
            closed.clear()
            res_r = nash_r(params, ladder=ladder)
            # alpha_{m+1} is new only where the reneging game alone is mixed
            fresh = res_n.case == CASE_PURE and res_r.case == CASE_MIXED
            assert len(closed) == res_r.root_evals + fresh
            closed.clear()
            assert nash_n(params, ladder=ladder) == res_n
            assert not closed  # the ladder holds the no-reneging root too

    def test_searches_on_one_ladder_equal_fresh_ones(self, rng):
        # either game first, then both again at a second reward, all on one
        # ladder: every result equals the same search made on its own
        for i in range(200):
            base = random_params(rng)
            rewards = rng.uniform(0.3, 10.0, 2) / (base.mu * base.q)
            order = (nash_n, nash_r) if i % 2 else (nash_r, nash_n)
            ladder = Ladder(base)
            for r0 in rewards:
                params = base.with_r0(r0)
                for search in order:
                    assert search(params, ladder=ladder) == search(params)


class TestDeepLadder:
    """A deep ascent on one ladder: pinned to the values of the chain solves
    that rebuilt and re-eliminated every chain from level 1."""

    PARAMS = ModelParams(1.0, 1.0, 0.9, 120.3)
    CRITICAL = (108, 119.27946729058944, 120.27968115951164, 120.27946729058944)

    @pytest.mark.parametrize(
        "search, x, residual, evals",
        [
            (nash_n, 108.1683404938009, 4.263256414560601e-14, 10),
            (nash_r, 108.18521872807104, 5.273292520982706e-15, 7),
        ],
    )
    def test_pinned_equilibrium(self, search, x, residual, evals):
        result = search(self.PARAMS)
        cv = result.critical
        assert (result.case, result.x, result.m) == (CASE_MIXED, x, 108)
        assert (cv.m, cv.alpha, cv.beta, cv.gamma) == self.CRITICAL
        assert (result.residual, result.root_evals) == (residual, evals)

    def test_reneging_ascent_closes_one_gamma_chain(self, monkeypatch):
        # the ascent reads alpha and beta only; gamma is closed where it stops
        closed = []
        solve = equilibrium.sojourn_vector_r_tagged

        def close(params, x, **kwargs):
            closed.append(x)
            return solve(params, x, **kwargs)

        monkeypatch.setattr(equilibrium, "sojourn_vector_r_tagged", close)
        assert nash_r(self.PARAMS).m == 108
        assert closed == [108.0]
