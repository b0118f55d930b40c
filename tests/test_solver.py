import numpy as np
import pytest

from feedbackq import (
    ConsistencyError,
    ModelParams,
    assemble_full,
    build_chain,
    build_rhs_payoff,
    build_rhs_sojourn,
    factorize,
    payoff_vector_n,
    payoff_vector_r_all,
    payoff_vector_r_tagged,
    residual_norm,
    sojourn_vector,
    sojourn_vector_r_tagged,
    solve_dense,
    solve_structured,
)

from conftest import REFERENCE_CASES, params_of, random_params


def all_builders(params, x):
    for variant in ("nonreneging", "reneging_tagged", "reneging_all"):
        yield build_chain(params, x, variant)


def neumann_solve(full, rhs, tol=1e-15, max_terms=10**6):
    """Evaluate sum_d P^d rhs term by term until the increment is negligible.

    Converges geometrically because the chains are strictly substochastic.
    Used as an independent check on the elimination routes.
    """
    term = np.array(rhs, dtype=float)
    total = term.copy()
    for _ in range(max_terms):
        term = full.matrix @ term
        total += term
        if np.linalg.norm(term, np.inf) < tol:
            return total
    raise ConsistencyError(f"series did not converge within {max_terms} terms")


class TestFactorize:
    def test_fixed_point_relations(self, rng):
        for _ in range(10):
            params = random_params(rng)
            x = rng.uniform(0.3, 7.0)
            for blocks in all_builders(params, x):
                f = factorize(blocks)
                depth = blocks.depth
                np.testing.assert_allclose(f.u[depth - 1], blocks.local[depth - 1], atol=1e-12)
                for j in range(2, depth + 1):
                    iu = np.eye(j) - f.u[j - 1]
                    np.testing.assert_allclose(iu @ f.g[j - 1], blocks.down[j - 2], atol=1e-12)
                    np.testing.assert_allclose(f.gamma[j - 1] @ iu, blocks.up[j - 2], atol=1e-12)
                    np.testing.assert_allclose(
                        f.u[j - 2], blocks.local[j - 2] + blocks.up[j - 2] @ f.g[j - 1], atol=1e-12
                    )

    def test_first_passage_rows_are_subprobabilities(self, rng):
        for _ in range(15):
            params = random_params(rng)
            blocks = build_chain(params, rng.uniform(0.5, 8.0), "nonreneging")
            f = factorize(blocks)
            for j in range(2, blocks.depth + 1):
                g = f.g[j - 1]
                assert np.all(g >= -1e-15)
                assert np.all(g.sum(axis=1) <= 1.0 + 1e-12)

    def test_single_level_chain(self):
        params = ModelParams(1.0, 0.8, 0.4)
        blocks = build_chain(params, 0.0, "nonreneging")
        f = factorize(blocks)
        assert f.depth == 1
        v = solve_structured(blocks, build_rhs_sojourn(params, 1), f)
        assert v[0] == pytest.approx(1.0 / (0.8 * 0.4))


class TestOracleEquivalence:
    def test_structured_matches_dense_on_random_draws(self, rng):
        worst = 0.0
        for _ in range(100):
            params = random_params(rng, r0_span=(0.0, 20.0))
            x = rng.uniform(0.0, 12.0)
            blocks = build_chain(params, x, "nonreneging")
            rhs = build_rhs_sojourn(params, blocks.depth)
            vs = solve_structured(blocks, rhs)
            vd = solve_dense(assemble_full(blocks), rhs)
            worst = max(worst, np.max(np.abs(vs - vd)) / np.max(np.abs(vd)))
        assert worst < 1e-10

    def test_reneging_variants_match_dense(self, rng):
        for _ in range(30):
            params = random_params(rng, r0_span=(0.0, 20.0))
            x = rng.uniform(0.1, 9.0)
            for variant in ("reneging_tagged", "reneging_all"):
                blocks = build_chain(params, x, variant)
                g = build_rhs_payoff(params, blocks.depth)
                vs = solve_structured(blocks, g)
                vd = solve_dense(assemble_full(blocks), g)
                scale = max(np.max(np.abs(vd)), 1.0)
                assert np.max(np.abs(vs - vd)) / scale < 1e-10

    def test_neumann_series_matches_elimination(self, rng):
        for _ in range(10):
            params = random_params(rng)
            blocks = build_chain(params, rng.uniform(0.2, 6.0), "nonreneging")
            full = assemble_full(blocks)
            rhs = build_rhs_sojourn(params, blocks.depth)
            series = neumann_solve(full, rhs)
            direct = solve_dense(full, rhs)
            np.testing.assert_allclose(series, direct, rtol=1e-8)

    def test_zero_rhs_gives_zero(self):
        params = ModelParams(1.0, 0.8, 0.4)
        blocks = build_chain(params, 2.5, "nonreneging")
        full = assemble_full(blocks)
        np.testing.assert_array_equal(solve_dense(full, np.zeros(blocks.num_states)), 0.0)

    def test_residual_norm_flags_wrong_solution(self):
        params = ModelParams(1.0, 0.8, 0.4)
        blocks = build_chain(params, 2.5, "nonreneging")
        rhs = build_rhs_sojourn(params, blocks.depth)
        good = solve_structured(blocks, rhs)
        assert residual_norm(blocks, good, rhs) < 1e-12
        assert residual_norm(blocks, good + 0.01, rhs) > 1e-4


class TestClosedFormAnchors:
    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("lam,mu,q", [(0.4, 0.6, 0.7), (1.0, 0.8, 0.4), (0.8, 1.0, 0.2)])
    def test_low_threshold_flats(self, lam, mu, q, x):
        w = sojourn_vector(ModelParams(lam, mu, q), x)
        assert w.at(1, 1) == pytest.approx(1.0 / (mu * q), rel=1e-12)
        assert w.at(2, 2) == pytest.approx((3.0 - q) / (mu * q * (2.0 - q)), rel=1e-12)

    def test_always_join_limit_at_large_threshold(self):
        params = ModelParams(0.4, 0.6, 0.7)
        w = sojourn_vector(params, 50.0)
        for j in range(1, 6):
            closed = (j + 1 - 0.7) / ((0.7 - 1) * 0.4 - (0.7 - 2) * 0.7 * 0.6)
            assert abs(w.at(j, j) - closed) < 1e-3


class TestMonotonicity:
    def test_diagonal_increases_in_position(self, rng):
        for _ in range(25):
            params = random_params(rng)
            w = sojourn_vector(params, rng.uniform(0.0, 9.0))
            diag = w.diagonal()
            assert np.all(np.diff(diag) > 0.0)

    def test_sojourn_increases_in_threshold(self, rng):
        # strict once the lower threshold admits joiners behind the tagged
        # customer (x >= 1); below that the 0-and-1 thresholds coincide
        for _ in range(25):
            params = random_params(rng)
            x1 = rng.uniform(1.0, 10.0)
            x2 = rng.uniform(x1 + 1e-3, 11.0)
            w1 = sojourn_vector(params, x1)
            w2 = sojourn_vector(params, x2)
            assert np.all(w2.values[: len(w1.values)] > w1.values)

    def test_flat_band_below_one(self, rng):
        params = random_params(rng)
        w1 = sojourn_vector(params, 0.2)
        w2 = sojourn_vector(params, 0.8)
        np.testing.assert_allclose(w1.values, w2.values, rtol=1e-13)

    def test_reneging_ahead_never_hurts_a_staying_customer(self, rng):
        # diagonal payoffs with reneging others dominate the no-reneging ones;
        # equality at integer thresholds, strict above the flat band
        for _ in range(25):
            params = random_params(rng, r0_span=(0.0, 15.0))
            x = rng.uniform(0.05, 8.0)
            z_hat = payoff_vector_r_tagged(params, x)
            z = payoff_vector_n(params, x)
            dh = z_hat.diagonal()
            dn = z.diagonal()[: len(dh)]
            assert np.all(dh >= dn - 1e-12)
            if abs(x - round(x)) < 1e-9:
                np.testing.assert_allclose(dh, dn, atol=1e-12)
            elif x > 1.0:
                assert np.all(dh > dn)

    def test_integer_threshold_shared_value_equality(self, rng):
        from feedbackq.model import num_states

        for m in (1, 2, 3, 5):
            params = random_params(rng, r0_span=(0.0, 15.0))
            shared = num_states(m)
            z = payoff_vector_n(params, float(m))
            for vec in (payoff_vector_r_tagged(params, float(m)),
                        payoff_vector_r_all(params, float(m))):
                np.testing.assert_allclose(
                    vec.values[:shared], z.values[:shared], atol=1e-12
                )


class TestValueVectors:
    def test_sojourn_positive_and_bounded_below_by_services(self, rng):
        from feedbackq import inverse_index

        for _ in range(15):
            params = random_params(rng)
            x = rng.uniform(0.0, 8.0)
            for vec in (sojourn_vector(params, x), sojourn_vector_r_tagged(params, x)):
                assert np.all(vec.values > 0.0)
                for k in range(1, len(vec.values) + 1):
                    i, _ = inverse_index(k)
                    assert vec.values[k - 1] >= i / params.mu - 1e-12

    def test_payoff_affine_consistency_check_runs(self, rng):
        params = random_params(rng, r0_span=(1.0, 10.0))
        vec = payoff_vector_r_tagged(params, 2.6)
        w = sojourn_vector_r_tagged(params, 2.6)
        np.testing.assert_allclose(vec.values, params.r0 - w.values, atol=1e-10)

    def test_at_rejects_out_of_depth(self):
        w = sojourn_vector(ModelParams(1.0, 0.8, 0.4), 1.5)
        with pytest.raises(ValueError):
            w.at(1, w.depth + 1)

    def test_regression_payoffs_at_equilibrium_thresholds(self):
        for case in REFERENCE_CASES:
            params = params_of(case)
            z = payoff_vector_n(params, case["x_e"])
            assert z.at(1, 1) == pytest.approx(case["z11"], abs=5e-4)
            assert z.at(2, 2) == pytest.approx(case["z22"], abs=5e-4)
            zh = payoff_vector_r_all(params, case["x_hat_e"])
            assert zh.at(1, 1) == pytest.approx(case["zh11"], abs=5e-4)
            assert zh.at(2, 2) == pytest.approx(case["zh22"], abs=5e-4)
            assert zh.at(3, 3) == pytest.approx(0.0, abs=1e-6)

    def test_rhs_shape_validation(self):
        params = ModelParams(1.0, 0.8, 0.4)
        blocks = build_chain(params, 2.5, "nonreneging")
        with pytest.raises(ValueError):
            solve_structured(blocks, np.ones(3))
        with pytest.raises(ValueError):
            solve_dense(assemble_full(blocks), np.ones(3))

    def test_neumann_cap_raises(self):
        params = ModelParams(1.0, 0.8, 0.4)
        full = assemble_full(build_chain(params, 3.0, "nonreneging"))
        with pytest.raises(ConsistencyError):
            neumann_solve(full, build_rhs_sojourn(params, 4), tol=0.0, max_terms=5)
