import sys
import threading
import warnings

import numpy as np
import pytest

from feedbackq import (
    ConsistencyError,
    Ladder,
    ModelParams,
    build_chain,
    build_rhs_payoff,
    build_rhs_sojourn,
    nash_n,
    nash_r,
    payoff_vector_n,
    payoff_vector_r_all,
    payoff_vector_r_tagged,
    residual_norm,
    sojourn_vector,
    sojourn_vector_r_tagged,
    solve_structured,
)
from feedbackq import qbd, solver
from feedbackq.model import chain_depth, level_offset, num_states
from feedbackq.solver import RESIDUAL_TOL, _check_residual, _eliminate, payoff_vectors

from conftest import REFERENCE_CASES, params_of, random_params
from dense_oracle import assemble_full, level_blocks, solve_dense
from residual_oracle import residual_norm_blockwise, residual_norm_reference


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


class TestElimination:
    def test_level_schur_relation(self, rng):
        # S_j k_j = U_j with S_j = I - L_j - D_j k_{j-1}, rebuilt from blocks
        # that the dense oracle expands from the rates
        for _ in range(10):
            params = random_params(rng)
            x = rng.uniform(0.3, 7.0)
            for blocks in all_builders(params, x):
                ks, _ = _eliminate(blocks, build_rhs_sojourn(params, blocks.depth)[:, None])
                assert ks[-1].shape == (blocks.depth, 0)
                for j in range(1, blocks.depth):
                    local, up, down = level_blocks(blocks, j)
                    s = np.eye(j) - local
                    if j > 1:
                        s -= down @ ks[j - 2]
                    np.testing.assert_allclose(s @ ks[j - 1], up, atol=1e-12)

    def test_departures_as_a_row_shift_equal_the_dense_product_bit_for_bit(self, rng):
        # D_j has one nonzero per row, dn at (i, i - 1), so D_j m moves m down one
        # row and scales it by dn: the elimination applies it so, and every
        # entry must equal the dense product's, single chains and stacks alike
        checked = set()
        for _ in range(30):
            params = random_params(rng, r0_span=(0.0, 20.0))
            x = float(rng.uniform(0.0, 10.0))
            for variant in VARIANTS:
                reneging = variant != "nonreneging"
                depth = chain_depth(qbd.as_threshold(x), reneging)
                for th in [x] + ([stack_of_depth(rng, reneging, depth, 3)] if depth > 1 else []):
                    blocks = build_chain(params, th, variant)
                    ks, hs = _eliminate(blocks, layout_rhs(params, "pair", blocks.depth))
                    for j in range(2, blocks.depth + 1):
                        down = level_blocks(blocks, j)[2]
                        dn = blocks.rates[..., j - 1, 4, None, None]
                        for m in (ks[j - 2], hs[j - 2]):
                            dense = down @ m
                            np.testing.assert_array_equal(dense[..., 0, :], 0.0)
                            np.testing.assert_array_equal(dense[..., 1:, :], dn * m)
                    checked.add((variant, np.ndim(th) > 0))
        assert len(checked) == 6

    def test_first_passage_rows_are_subprobabilities(self, rng):
        # k_j holds the chances of reaching level j+1 before the tagged
        # customer's success; with the chances of that success first (the
        # h_j of the deficiency right-hand side) they exhaust every path
        for _ in range(15):
            params = random_params(rng)
            blocks = build_chain(params, rng.uniform(0.5, 8.0), "nonreneging")
            ks, hs = _eliminate(blocks, assemble_full(blocks).deficiency[:, None])
            for j in range(1, blocks.depth):
                k = ks[j - 1]
                assert np.all(k >= -1e-15)
                assert np.all(k.sum(axis=1) <= 1.0 + 1e-12)
                np.testing.assert_allclose(k.sum(axis=1) + hs[j - 1][:, 0], 1.0, atol=1e-12)

    def test_single_level_chain(self):
        params = ModelParams(1.0, 0.8, 0.4)
        blocks = build_chain(params, 0.0, "nonreneging")
        assert blocks.depth == 1
        v = solve_structured(blocks, build_rhs_sojourn(params, 1))
        assert v.shape == (1,)
        assert v[0] == pytest.approx(1.0 / (0.8 * 0.4))
        # two columns on one level: the payoff and sojourn solve of the
        # reneging-tagged chain at x = 0
        z = payoff_vector_r_tagged(params.with_r0(5.0), 0.0)
        assert z.depth == 1
        assert z.at(1, 1) == pytest.approx(5.0 - 1.0 / (0.8 * 0.4))

    @pytest.mark.parametrize("stacked", [False, True])
    def test_a_singular_block_names_its_level(self, monkeypatch, stacked):
        # the last chain's S_3 loses its first row, which D_3 leaves alone: LAPACK reports it through the
        # solve's floating-point hook, as LinAlgError and with no RuntimeWarning,
        # and the elimination names the level
        expand = solver._level_system

        def singular(j, row, c, up):
            s, a = expand(j, row, c, up)
            if j == 3:
                s.reshape(-1, j, j)[-1, 0] = 0.0
            return s, a

        monkeypatch.setattr(solver, "_level_system", singular)
        params = ModelParams(1.0, 0.8, 0.4, 7.8)
        for variant in VARIANTS:
            blocks = build_chain(params, [3.25, 3.5] if stacked else 3.5, variant)
            assert blocks.depth >= 3 and blocks.shared < 3  # level 3 is solved on each chain's rows
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConsistencyError, match="singular elimination block at level 3$"):
                    solve_structured(blocks, build_rhs_sojourn(params, blocks.depth))

    def test_the_solve_helper_returns_numpy_solves_bytes(self, rng, monkeypatch):
        # every block an elimination solves, of all three variants, single
        # chains and stacks, with one to three columns: the helper returns
        # np.linalg.solve's bytes, one column at a time where it splits
        calls = []
        solve = solver._solve

        def record(s, a, split):
            calls.append((s.copy(), a.copy(), split))
            return solve(s, a, split)

        monkeypatch.setattr(solver, "_solve", record)
        kinds = set()
        for _ in range(10):
            params = random_params(rng, r0_span=(0.0, 20.0))
            for variant in VARIANTS:
                reneging = variant != "nonreneging"
                xs = stack_of_depth(rng, reneging, int(rng.integers(2, 9)), 2)
                for th in (xs, xs[-1]):
                    blocks = build_chain(params, th, variant)
                    for width in (1, 2, 3):
                        _eliminate(blocks, rng.uniform(-1.0, 1.0, (blocks.num_states, width)))
                        kinds.add((variant, th is xs, width))
        assert len(kinds) == 18
        assert {a.shape[-1] for _, a, split in calls if split} == {1, 2, 3}
        for s, a, split in calls:
            if split:
                cols = [np.linalg.solve(s, a[..., i : i + 1]) for i in range(a.shape[-1])]
                want = np.concatenate(cols, axis=-1)
            else:
                want = np.linalg.solve(s, a)
            assert solve(s, a, split).tobytes() == want.tobytes()

    def test_multi_column_rhs_matches_single_columns_bit_for_bit(self, rng):
        for _ in range(10):
            params = random_params(rng, r0_span=(0.0, 20.0))
            x = rng.uniform(0.0, 12.0)
            for blocks in all_builders(params, x):
                rhs = np.column_stack((
                    build_rhs_payoff(params, blocks.depth),
                    build_rhs_sojourn(params, blocks.depth),
                    rng.uniform(-1.0, 1.0, blocks.num_states),
                ))
                v = solve_structured(blocks, rhs)
                assert v.shape == rhs.shape
                for col in range(rhs.shape[1]):
                    np.testing.assert_array_equal(v[:, col], solve_structured(blocks, rhs[:, col]))


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
        # with several columns the worst one counts
        both = np.column_stack((rhs, 2.0 * rhs))
        v = solve_structured(blocks, both)
        assert residual_norm(blocks, v, both) < 1e-12
        v[:, 1] += 0.01
        assert residual_norm(blocks, v, both) > 1e-4


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

    def test_nan_payoff_column_fails_the_affine_check(self, monkeypatch):
        solve = solver.solve_structured

        def nan_payoffs(blocks, rhs):
            v = solve(blocks, rhs)
            v[:, 0] = np.nan
            return v

        monkeypatch.setattr(solver, "solve_structured", nan_payoffs)
        with pytest.raises(ConsistencyError, match="reward-minus-sojourn disagree"):
            payoff_vector_r_tagged(ModelParams(1.0, 0.8, 0.4, 7.8), 2.6)

    def test_diagonal_and_joining_mean_read_the_joining_states(self, rng):
        # the per-state reads they replaced are the reference, bit for bit
        for _ in range(10):
            params = random_params(rng, r0_span=(1.0, 10.0))
            vec = payoff_vector_n(params, rng.uniform(0.0, 8.0))
            probs = rng.dirichlet(np.ones(vec.depth + 1))
            assert vec.diagonal().tolist() == [vec.at(j, j) for j in range(1, vec.depth + 1)]
            for x in (0.0, 0.7, rng.uniform(0.0, 10.0), float(vec.depth)):
                n, p = int(x), x - int(x)
                want = sum(probs[i - 1] * vec.at(i, i) for i in range(1, min(n, vec.depth) + 1))
                if p and n < vec.depth:
                    want += p * probs[n] * vec.at(n + 1, n + 1)
                assert vec.joining_mean(probs, x) == float(want)

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

    def test_large_rho_deep_chain_meets_residual_tol(self):
        # rho ~ 584 at depth 109; eliminating from the top level down missed
        # RESIDUAL_TOL here (1.9e-10)
        params = ModelParams(18.100265790226157, 0.5237285832111664, 0.0592260532197372)
        w = sojourn_vector(params, 108.0)
        assert w.depth == 109
        blocks = build_chain(params, 108.0, "nonreneging")
        assert residual_norm(blocks, w.values, build_rhs_sojourn(params, 109)) <= RESIDUAL_TOL
        assert np.all(np.isfinite(w.values)) and np.all(w.values > 0.0)

    def test_rhs_shape_validation(self):
        params = ModelParams(1.0, 0.8, 0.4)
        blocks = build_chain(params, 2.5, "nonreneging")
        with pytest.raises(ValueError):
            solve_structured(blocks, np.ones(3))
        with pytest.raises(ValueError):
            solve_structured(blocks, np.ones((blocks.num_states, 0)))
        with pytest.raises(ValueError):
            solve_structured(blocks, np.ones((blocks.num_states, 2, 1)))
        with pytest.raises(ValueError):
            solve_dense(assemble_full(blocks), np.ones(3))

    def test_neumann_cap_raises(self):
        params = ModelParams(1.0, 0.8, 0.4)
        full = assemble_full(build_chain(params, 3.0, "nonreneging"))
        with pytest.raises(ConsistencyError):
            neumann_solve(full, build_rhs_sojourn(params, 4), tol=0.0, max_terms=5)


VARIANTS = ("nonreneging", "reneging_tagged", "reneging_all")


def stack_of_depth(rng, reneging, depth, size=5):
    """Thresholds of one chain depth in random order: the integer k = depth - 1,
    one 1e-13 above it (it snaps to k) and ``size`` fractional ones, in
    (k - 1, k) without reneging and in (k, k + 1) with it."""
    k = depth - 1
    base = float(k) if reneging else float(k - 1)
    xs = [float(k), k + 1e-13, *(base + rng.uniform(0.01, 0.99, size))]
    rng.shuffle(xs)
    return xs


class TestStackedSolve:
    """Thresholds of one chain depth stacked into one elimination."""

    def test_equals_the_single_threshold_solves(self, rng):
        # the sojourn and payoff columns, and payoff_vector_r_tagged's pair
        for _ in range(20):
            params = random_params(rng, r0_span=(0.0, 20.0))
            for variant in VARIANTS:
                depth = int(rng.integers(2, 13))
                xs = stack_of_depth(rng, variant != "nonreneging", depth)
                blocks = build_chain(params, xs, variant)
                assert (blocks.depth, blocks.stack) == (depth, (len(xs),))
                pay, soj = build_rhs_payoff(params, depth), build_rhs_sojourn(params, depth)
                for rhs in (soj, pay, np.column_stack((pay, soj))):
                    vs = solve_structured(blocks, rhs)
                    assert vs.shape == (len(xs), *rhs.shape)
                    for x, v in zip(xs, vs):
                        single = solve_structured(build_chain(params, x, variant), rhs)
                        np.testing.assert_array_equal(v, single)

    def test_only_the_levels_p_touches_carry_the_stack_axis(self, rng):
        params = random_params(rng)
        for variant in VARIANTS:
            reneging = variant != "nonreneging"
            for depth in (1, 2, 3, 7):
                if depth == 1 and not reneging:
                    continue  # only x = 0 has depth 1
                xs = stack_of_depth(rng, reneging, depth, size=3)
                blocks = build_chain(params, xs, variant)
                singles = [build_chain(params, x, variant) for x in xs]
                varying = {depth - 1, depth} if reneging else {depth - 2}
                # each chain keeps its own rates, which differ across the stack
                # only where p touches; the elimination stacks above the shared levels
                np.testing.assert_array_equal(blocks.rates, [single.rates for single in singles])
                for j in set(range(1, depth + 1)) - varying:
                    assert np.all(blocks.rates[:, j - 1] == blocks.rates[0, j - 1]), (variant, j)
                assert blocks.shared == max(min(varying), 1) - 1
                ks, hs = _eliminate(blocks, build_rhs_sojourn(params, depth)[:, None])
                for j, (k, h) in enumerate(zip(ks, hs), start=1):
                    assert k.ndim == h.ndim == (3 if j >= min(varying) else 2), (variant, j)

    def test_a_stack_of_one(self):
        params = ModelParams(1.0, 0.8, 0.4, 7.5)
        for variant in VARIANTS:
            single = build_chain(params, 2.5, variant)
            rhs = build_rhs_payoff(params, single.depth)
            v = solve_structured(build_chain(params, [2.5], variant), rhs)
            assert v.shape == (1, rhs.size)
            np.testing.assert_array_equal(v[0], solve_structured(single, rhs))

    def test_a_stack_of_one_gives_the_single_chains_bytes(self, rng):
        # a lone chain's levels expand from Python floats, a stack's from its
        # rate rows: the same bytes in every variant, with one to three
        # columns, off a ladder and on one (twice: the rungs, then a close
        # that reads them)
        for _ in range(12):
            params = random_params(rng)
            x = float(rng.integers(0, 9)) if rng.random() < 0.5 else float(rng.uniform(0.0, 9.0))
            for variant in VARIANTS:
                depth = chain_depth(qbd.as_threshold(x), variant != "nonreneging")
                for width in (1, 2, 3):
                    rhs = rng.uniform(-1.0, 1.0, (num_states(depth), width))
                    rhs = rhs[:, 0] if width == 1 else rhs
                    for on_ladder in (False, True):
                        got = []
                        for th in (x, [x]):
                            ladder = Ladder(params) if on_ladder else None
                            for _ in range(1 + on_ladder):
                                v = solve_structured(build_chain(params, th, variant, ladder), rhs)
                                got.append(v.reshape(rhs.shape).tobytes())
                        assert got[: len(got) // 2] == got[len(got) // 2 :], (variant, x, width, on_ladder)

    def test_a_stack_of_repeated_integers(self, rng):
        # [k, k] joins at every level below k, one more shared level than a
        # stack with a fraction; on a ladder or not, each chain is its own solve
        for _ in range(10):
            params = random_params(rng, r0_span=(0.0, 20.0))
            for variant in VARIANTS:
                k = int(rng.integers(1, 10))
                xs = [float(k)] * int(rng.integers(2, 4))
                for layout in ("sojourn", "payoff", "pair"):
                    for ladder in (None, Ladder(params)):
                        blocks = build_chain(params, xs, variant, ladder)
                        assert blocks.shared == k - 1
                        rhs = layout_rhs(params, layout, blocks.depth)
                        single = solve_structured(build_chain(params, float(k), variant), rhs)
                        for v in solve_structured(blocks, rhs):
                            np.testing.assert_array_equal(v, single)

    def test_residual_check_names_the_failing_chain(self):
        params = ModelParams(1.0, 0.8, 0.4, 7.5)
        for variant in VARIANTS:
            xs = [3.0, 3.25, 3.5] if variant != "nonreneging" else [2.25, 2.5, 3.0]
            blocks = build_chain(params, xs, variant)
            rhs = np.column_stack((build_rhs_payoff(params, 4), build_rhs_sojourn(params, 4)))
            v = solve_structured(blocks, rhs)
            res = residual_norm(blocks, v, rhs)
            assert res.shape == (3,) and np.all(res < 1e-12)
            v[1, -2, 1] += 1e-3
            res = residual_norm(blocks, v, rhs)
            assert res[1] > 1e-5 and res[0] < 1e-12 and res[2] < 1e-12
            with pytest.raises(
                ConsistencyError, match=rf"\({variant}, depth 4, x = {xs[1]!r}\)"
            ):
                _check_residual(blocks, v, rhs)

    def test_rejects_mixed_depths_and_empty_stacks(self):
        params = ModelParams(1.0, 0.8, 0.4)
        with pytest.raises(ValueError, match="one chain depth"):
            build_chain(params, [2.5, 3.5], "nonreneging")
        with pytest.raises(ValueError, match="one chain depth"):
            build_chain(params, [2.5, 3.0], "reneging_all")
        with pytest.raises(ValueError, match="one chain depth"):
            build_chain(params, [], "nonreneging")

    def test_payoff_vectors_equal_the_single_chain_solves(self, rng):
        # a grid, unsorted, spans several depths: each run of one depth is a stack
        for _ in range(10):
            params = random_params(rng, r0_span=(1.0, 20.0))
            step = float(rng.choice([0.1, 0.25, 0.5]))
            xs = np.round(np.arange(0.0, rng.uniform(2.0, 7.0), step), 12)
            xs = np.concatenate((xs, rng.permutation(xs)))
            for reneging, variant in ((False, "nonreneging"), (True, "reneging_all")):
                got = list(payoff_vectors(params, xs, reneging))
                assert len(got) == len(xs)
                for x, vec in zip(xs, got):
                    blocks = build_chain(params, x, variant)
                    if reneging:
                        ref = solve_structured(blocks, build_rhs_payoff(params, blocks.depth))
                    else:
                        ref = params.r0 - sojourn_vector(params, x).values
                    assert vec.depth == blocks.depth
                    np.testing.assert_array_equal(vec.values, ref)


def layout_rhs(params, layout, depth):
    """The three right-hand-side layouts the library closes chains with."""
    pay, soj = build_rhs_payoff(params, depth), build_rhs_sojourn(params, depth)
    return {"sojourn": soj, "payoff": pay, "pair": np.column_stack((pay, soj))}[layout]


class TestLadder:
    """Chains closed on a ladder of shared, once-eliminated lower levels."""

    def test_closes_equal_the_full_solves_bit_for_bit(self, rng):
        # one ladder per layout and draw; thresholds come in random order, so
        # the ladder extends and skips back on the way
        kinds = set()
        for _ in range(400):
            params = random_params(rng, r0_span=(0.0, 20.0))
            ladders = {layout: Ladder(params) for layout in ("sojourn", "payoff", "pair")}
            for _ in range(6):
                variant = VARIANTS[rng.integers(3)]
                layout = ("sojourn", "payoff", "pair")[rng.integers(3)]
                shape = ("fraction", "integer", "below one", "stack")[rng.integers(4)]
                if shape == "fraction":
                    x = float(rng.uniform(1.0, 9.0))
                elif shape == "integer":
                    x = float(rng.integers(0, 10))
                elif shape == "below one":
                    x = float(rng.uniform(0.0, 1.0))
                else:
                    reneging = variant != "nonreneging"
                    x = stack_of_depth(rng, reneging, int(rng.integers(1 + (not reneging), 11)))
                blocks = build_chain(params, x, variant, ladders[layout])
                rhs = layout_rhs(params, layout, blocks.depth)
                got = solve_structured(blocks, rhs)
                ref = solve_structured(build_chain(params, x, variant), rhs)
                np.testing.assert_array_equal(got, ref)
                kinds.add((variant, layout, shape))
        assert len(kinds) == 36

    def test_extends_on_demand_and_shares_its_blocks(self):
        # the blocks shared are the rungs' k_j and h_j, appended by the first
        # solve that eliminates their level and never rewritten
        params = ModelParams(1.0, 0.8, 0.4)
        ladder = Ladder(params)
        shallow = build_chain(params, 3.5, "nonreneging", ladder)
        deep = build_chain(params, 7.25, "reneging_all", ladder)
        assert (shallow.shared, deep.shared) == (2, 6) and ladder.joining == []  # nothing eliminated yet
        solve_structured(shallow, build_rhs_sojourn(params, shallow.depth))
        assert len(ladder.joining) == 2  # levels 1-2
        first = list(ladder.joining)
        solve_structured(deep, build_rhs_sojourn(params, deep.depth))
        assert len(ladder.joining) == 6  # levels 1-6
        assert all(rung is old for rung, old in zip(ladder.joining, first))
        assert all(type(rung) is tuple and len(rung) == 2 for rung in ladder.joining)
        # a chain shares its levels 1 .. floor(x) - 1, whatever the variant
        for variant in VARIANTS:
            for x in (0.0, 0.5, 1.0, 2.0, 2.5, 5.0, 6.75, 3.0):
                assert build_chain(params, x, variant, ladder).shared == max(int(x) - 1, 0)
        # a stack shares the levels below its smallest floor(x): without
        # reneging, depth 6 holds x in (4, 5], and only [5, 5] joins at level 4
        assert build_chain(params, 5.0, "nonreneging", ladder).shared == 4
        for xs, shared in (([5.0, 5.0], 4), ([5.0, 4.5], 3), ([4.5, 5.0], 3)):
            assert build_chain(params, xs, "nonreneging", ladder).shared == shared
        # with reneging, depth 6 holds x in [5, 6) and only the top two levels differ
        assert build_chain(params, [5.0, 5.5], "reneging_all", ladder).shared == 4
        assert len(ladder.joining) == 6  # building eliminates nothing

    def test_gamma_chain_reuses_the_levels_below_m(self):
        # at an integer m both chains share the all-joining levels 1 .. m - 1;
        # the reneging-tagged close eliminates levels m and m + 1 itself
        params = ModelParams(1.0, 0.8, 0.4)
        ladder = Ladder(params)
        for m in (1, 2, 5):
            plain = build_chain(params, float(m), "nonreneging", ladder)
            solve_structured(plain, build_rhs_sojourn(params, m + 1))
            tagged = build_chain(params, float(m), "reneging_tagged", ladder)
            assert tagged.shared == plain.shared == len(ladder.joining) == m - 1
            ks, hs = _eliminate(tagged, build_rhs_sojourn(params, m + 1)[:, None])
            assert all(k is rung[0] and h is rung[1] for k, h, rung in zip(ks, hs, ladder.joining))
            assert len(ks) == m + 1
            assert not any(k is rung[0] for k in ks[m - 1 :] for rung in ladder.joining)

    @pytest.mark.parametrize("fault", ["perturbed k", "dropped D h"])
    def test_a_corrupted_rung_fails_every_close_above_it(self, fault):
        params = ModelParams(1.0, 0.8, 0.4, 7.8)
        ladder = Ladder(params)
        deep = build_chain(params, 8.5, "nonreneging", ladder)
        solve_structured(deep, build_rhs_sojourn(params, deep.depth))
        j = 4
        k, h = ladder.joining[j - 1]
        if fault == "perturbed k":
            k = k * (1.0 + 1e-6)
        else:
            local, up, down = level_blocks(deep, j)
            s = np.eye(j) - local - down @ ladder.joining[j - 2][0]
            h = np.linalg.solve(s, build_rhs_sojourn(params, j)[level_offset(j) :, None])
        ladder.joining[j - 1] = k, h
        for variant in VARIANTS:
            for x in (5.0, 5.5, 6.25, 8.5):  # floor(x) > j: level j is a joining rung
                blocks = build_chain(params, x, variant, ladder)
                with pytest.raises(ConsistencyError, match="residual"):
                    solve_structured(blocks, build_rhs_sojourn(params, blocks.depth))
            for x in (2.5, 4.0, 4.75):  # floor(x) <= j: level j is on no rung
                blocks = build_chain(params, x, variant, ladder)
                solve_structured(blocks, build_rhs_sojourn(params, blocks.depth))

    def test_rate_points_interleaved_keep_their_own_answers(self, rng):
        # two rate points, each with its own ladders, take turns in one call
        # sequence; every answer equals the same call made with no ladder
        pa, pb = random_params(rng, r0_span=(1.0, 20.0)), random_params(rng, r0_span=(1.0, 20.0))
        sojourn = {pa: Ladder(pa), pb: Ladder(pb)}
        payoff = {pa: Ladder(pa), pb: Ladder(pb)}
        for x in rng.uniform(0.0, 8.0, 20):
            for params in (pa, pb, pa):
                got = sojourn_vector(params, x, ladder=sojourn[params])
                np.testing.assert_array_equal(got.values, sojourn_vector(params, x).values)
                got = payoff_vectors(params, [x, x + 1.0], True, payoff[params])
                for vec, y in zip(got, (x, x + 1.0)):
                    np.testing.assert_array_equal(vec.values, payoff_vector_r_all(params, y).values)
        for params in (pa, pb, pa):
            assert nash_n(params, ladder=sojourn[params]) == nash_n(params)
            assert nash_r(params, ladder=sojourn[params]) == nash_r(params)

    def test_rejects_another_rate_point_or_layout(self):
        params = ModelParams(1.0, 0.8, 0.4, 7.8)
        ladder = Ladder(params)
        sojourn_vector(params, 4.5, ladder=ladder)
        with pytest.raises(ValueError, match="another rate point"):
            build_chain(ModelParams(1.0, 0.8, 0.5), 4.5, "nonreneging", ladder)
        with pytest.raises(ValueError, match="one right-hand-side layout"):
            payoff_vector_r_tagged(params, 5.5, ladder=ladder)
        with pytest.raises(ValueError, match="one right-hand-side layout"):
            next(payoff_vectors(params, [5.5], True, ladder))
        # the reward enters no block and no sojourn row
        other = params.with_r0(3.0)
        np.testing.assert_array_equal(
            sojourn_vector(other, 6.5, ladder=ladder).values, sojourn_vector(other, 6.5).values
        )


class TestStencilResidual:
    """``residual_norm`` reads each state's jump rates through one stencil;
    the blockwise residual in ``tests/residual_oracle.py`` is its oracle."""

    def test_agrees_with_the_blockwise_residual(self, rng):
        # solved and random vectors, one and two columns, single chains and stacks
        for _ in range(400):
            params = random_params(rng, r0_span=(0.0, 20.0))
            x = float(rng.uniform(0.0, 14.0))
            for variant in VARIANTS:
                reneging = variant != "nonreneging"
                depth = chain_depth(qbd.as_threshold(x), reneging)
                pair = layout_rhs(params, "pair", depth)
                stacks = [x] + ([stack_of_depth(rng, reneging, depth, 2)] if depth > 1 else [])
                for th in stacks:
                    blocks = build_chain(params, th, variant)
                    v = solve_structured(blocks, pair)
                    noise = rng.uniform(-1.0, 1.0, v.shape)
                    for u, rhs in ((v, pair), (v[..., 0], pair[:, 0]), (noise, pair)):
                        got, want = residual_norm(blocks, u, rhs), residual_norm_blockwise(blocks, u, rhs)
                        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_equals_the_earlier_form_byte_for_byte(self, rng, monkeypatch):
        # solved, perturbed and nonfinite vectors, single chains and stacks,
        # one and two columns, at lam/mu up to 1e6, where the measure sits at
        # its rounding floor and a verdict would follow any change of order
        monkeypatch.setattr(solver, "_check_residual", lambda *args: None)
        for _ in range(150):
            mu, q = rng.uniform(0.2, 2.0), rng.uniform(0.05, 1.0)
            params = ModelParams(mu * 10.0 ** rng.uniform(-3.0, 6.0), mu, q, rng.uniform(1.0, 60.0) / (mu * q))
            x = float(rng.uniform(0.0, 14.0))
            for variant in VARIANTS:
                reneging = variant != "nonreneging"
                depth = chain_depth(qbd.as_threshold(x), reneging)
                pair = layout_rhs(params, "pair", depth)
                for th in [x] + ([stack_of_depth(rng, reneging, depth, 2)] if depth > 1 else []):
                    blocks = build_chain(params, th, variant)
                    v = solve_structured(blocks, pair)
                    bad = v.copy()
                    bad.reshape(-1)[rng.integers(bad.size)] = (np.nan, np.inf, -np.inf)[rng.integers(3)]
                    nudged = v * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0, v.shape))
                    for u, rhs in ((v, pair), (v[..., 0], pair[:, 0]), (bad, pair), (nudged, pair)):
                        got, want = residual_norm(blocks, u, rhs), residual_norm_reference(blocks, u, rhs)
                        assert type(got) is type(want)
                        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_an_expansion_fault_fails_the_solve(self, monkeypatch):
        # the check reads the level rates, not the blocks the solve expanded
        # from them, so a fault in that expansion does not pass
        expand = solver._level_system

        def shifted(j, row, c, up):
            s, a = expand(j, row, c, up)
            flat = s.reshape(-1)  # a view of I - L_j
            flat[j :: j + 1] += row[1]  # take the feedback shifts off the sub-diagonal
            flat[j :: j] -= row[1]  # stride j, not j + 1: off the sub-diagonal from level 3
            return s, a

        params = ModelParams(1.0, 0.8, 0.4, 7.8)
        monkeypatch.setattr(solver, "_level_system", shifted)
        for variant in VARIANTS:
            blocks = build_chain(params, 4.5, variant)
            rhs = build_rhs_sojourn(params, blocks.depth)
            with pytest.raises(ConsistencyError, match="residual"):
                solve_structured(blocks, rhs)
        # levels 1 and 2 expand correctly under the shifted stride
        solve_structured(build_chain(params, 1.0, "nonreneging"), build_rhs_sojourn(params, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_nonfinite_value_fails_the_check(self, bad):
        params = ModelParams(1.0, 0.8, 0.4, 7.8)
        for th in (3.5, [3.25, 3.5]):
            blocks = build_chain(params, th, "reneging_tagged")
            rhs = layout_rhs(params, "pair", blocks.depth)
            v = solve_structured(blocks, rhs)
            for k in (0, 4, blocks.num_states - 1):
                u = v.copy()
                u[..., k, 1] = bad
                with pytest.raises(ConsistencyError, match="residual"):
                    _check_residual(blocks, u, rhs)

    def test_one_table_grows_to_the_deepest_chain(self, monkeypatch):
        monkeypatch.setattr(solver, "_stencil", np.empty((6, 0), dtype=np.intp))
        params = ModelParams(0.9, 1.0, 0.6)
        chains = [build_chain(params, x, "reneging_tagged") for x in (119.5, 5.5)]
        assert [b.depth for b in chains] == [120, 6]
        rhs = [build_rhs_sojourn(params, b.depth) for b in chains]
        vs = [solve_structured(b, r) for b, r in zip(chains, rhs)]
        table = solver._stencil
        assert table.shape == (6, num_states(120)) and not table.flags.writeable
        grown = [residual_norm(b, v, r) for b, v, r in zip(chains, vs, rhs)]
        assert solver._stencil is table
        for b, v, r, res in zip(chains, vs, rhs, grown):
            monkeypatch.setattr(solver, "_stencil", np.empty((6, 0), dtype=np.intp))
            assert residual_norm(b, v, r) == res
            assert solver._stencil.shape == (6, num_states(b.depth))

    def test_threads_growing_the_table_keep_their_answers(self, monkeypatch):
        # more threads than cores close chains of rising and falling depth while
        # the table grows under them; every residual equals a one-thread one
        params = ModelParams(0.9, 1.0, 0.6)
        xs = [0.5 + (7 * k) % 41 for k in range(24)]
        chains = [build_chain(params, x, "reneging_all") for x in xs]
        rhs = [build_rhs_sojourn(params, b.depth) for b in chains]
        vs = [solve_structured(b, r) for b, r in zip(chains, rhs)]
        want = [residual_norm(b, v, r) for b, v, r in zip(chains, vs, rhs)]
        monkeypatch.setattr(solver, "_stencil", np.empty((6, 0), dtype=np.intp))
        got = [[] for _ in range(6)]

        def work(out, offset):
            for k in range(len(chains)):
                i = (k + offset) % len(chains)
                out.append((i, residual_norm(chains[i], vs[i], rhs[i])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out, 4 * t)) for t, out in enumerate(got)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for out in got:
            assert len(out) == len(chains) and all(res == want[i] for i, res in out)
        assert solver._stencil.shape == (6, num_states(max(b.depth for b in chains)))

    def test_verdicts_match_the_blockwise_ones_below_ratio_1e3(self, rng, monkeypatch):
        # at larger lam/mu the measure sits at its rounding floor, about
        # eps * lam / mu, and a verdict there may follow the order of summation
        monkeypatch.setattr(solver, "_check_residual", lambda *args: None)
        for _ in range(300):
            mu, q = rng.uniform(0.2, 2.0), rng.uniform(0.05, 1.0)
            params = ModelParams(mu * 10.0 ** rng.uniform(-3.0, 3.0), mu, q, rng.uniform(1.0, 60.0) / (mu * q))
            x = float(rng.uniform(0.5, 40.0))
            for variant, layout in zip(VARIANTS, ("sojourn", "pair", "payoff")):
                blocks = build_chain(params, x, variant)
                rhs = layout_rhs(params, layout, blocks.depth)
                v = solve_structured(blocks, rhs)
                got, want = residual_norm(blocks, v, rhs), residual_norm_blockwise(blocks, v, rhs)
                assert (got <= RESIDUAL_TOL) == (want <= RESIDUAL_TOL), (params, x, variant, got, want)
