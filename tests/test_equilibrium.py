import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from feedbackq import (
    EssReport,
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
from feedbackq.equilibrium import (
    CASE_BALK,
    CASE_INDIFFERENCE,
    CASE_MIXED,
    CASE_PURE,
    ROOT_TOL,
    TIE_TOL,
)

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

    def test_tie_reward_is_not_ess(self):
        params = ModelParams(1.0, 0.8, 0.4)
        tie = params.with_r0(critical_values(params, 1).alpha)
        report = ess_check(tie, 0.5, np.arange(0.0, 1.0001, 0.1))
        assert not report.is_ess
        assert "tie" in report.note


def _ess_per_deviation(params, x_e, deviations, tie_tol=TIE_TOL):
    """The ESS grid check as it stood before it reused the equilibrium
    population's solve: every payoff through ``total_payoff``."""
    cv = critical_values(params, 1)
    if abs(params.r0 - cv.alpha) <= tie_tol * max(1.0, cv.alpha):
        grid = tuple(float(d) for d in deviations if abs(float(d) - x_e) > 1e-12)
        return EssReport(
            x=x_e, is_ess=False, checked=len(grid), strict_best=0, tie_resolved=0,
            failures=grid,
            note="reward equals the lone-customer sojourn: all thresholds in [0, 1] tie",
        )
    u_ee = total_payoff(params, x_e, x_e)
    scale = max(1.0, abs(u_ee))
    strict = resolved = checked = 0
    failures = []
    for dev in deviations:
        dx = float(dev)
        if abs(dx - x_e) <= 1e-12:
            continue
        checked += 1
        u_de = total_payoff(params, dx, x_e)
        if u_ee > u_de + tie_tol * scale:
            strict += 1
        elif abs(u_ee - u_de) <= tie_tol * scale:
            u_ed = total_payoff(params, x_e, dx)
            u_dd = total_payoff(params, dx, dx)
            if u_ed > u_dd + tie_tol * max(1.0, abs(u_ed)):
                resolved += 1
            else:
                failures.append(dx)
        else:
            failures.append(dx)
    return EssReport(
        x=x_e, is_ess=not failures, checked=checked, strict_best=strict,
        tie_resolved=resolved, failures=tuple(failures),
    )


class TestEssMatchesPerDeviationCheck:
    def test_seeded_draws(self, rng):
        resolved = failed = 0
        for i in range(16):
            params = random_params(rng, (0.5, 12.0))
            # Equilibria (mixed ones tie every deviation inside their band)
            # and arbitrary thresholds, which fail the check.
            x_e = nash_n(params).x if i % 2 == 0 else float(rng.uniform(0.0, 4.0))
            step = (0.05, 0.1, 0.25)[i % 3]
            grid = np.round(np.arange(0.0, x_e + 2.0 + 1e-9, step), 12)
            report = ess_check(params, x_e, grid)
            assert report == _ess_per_deviation(params, x_e, grid)
            resolved += report.tie_resolved
            failed += len(report.failures)
        assert resolved > 0 and failed > 0

    def test_readme_grid_resolves_ties(self):
        params = params_of(REFERENCE_CASES[0])
        x_e = nash_n(params).x
        grid = np.round(np.arange(0.0, x_e + 2.0 + 1e-9, 0.05), 12)
        report = ess_check(params, x_e, grid)
        assert report.tie_resolved > 0
        assert report == _ess_per_deviation(params, x_e, grid)

    def test_lone_customer_tie(self):
        params = ModelParams(1.0, 0.8, 0.4)
        tie = params.with_r0(critical_values(params, 1).alpha)
        grid = np.arange(0.0, 1.0001, 0.1)
        assert ess_check(tie, 0.5, grid) == _ess_per_deviation(tie, 0.5, grid)


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

    def test_typical_roots_take_a_few_solves(self):
        evals = [nash_n(params_of(case)).root_evals for case in REFERENCE_CASES]
        evals += [nash_r(params_of(case)).root_evals for case in REFERENCE_CASES]
        assert max(evals) <= 15

    def test_no_reneging_result_carries_gamma(self):
        for r0 in (0.5, 1.0 / 0.32, 7.5, 7.8):
            params = ModelParams(1.0, 0.8, 0.4, r0)
            result = nash_n(params)
            assert result.critical == critical_values(params, result.m or 1)
            assert (result.root_evals > 0) == (result.case == CASE_MIXED)

    def test_gamma_can_be_skipped(self):
        params = ModelParams(1.0, 0.8, 0.4)
        full = critical_values(params, 2)
        bare = critical_values(params, 2, with_gamma=False)
        assert (bare.alpha, bare.beta) == (full.alpha, full.beta)
        assert np.isnan(bare.gamma)
