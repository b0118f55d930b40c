import numpy as np
import pytest

from feedbackq import (
    Ladder,
    ModelParams,
    build_chain,
    build_rhs_payoff,
)
from feedbackq.model import inverse_index, level_offset, num_states

from feedbackq.solver import _level_system

from chain_oracle import oracle_generator
from conftest import random_params
from dense_oracle import assemble_full, level_blocks


def phase_one_rows(depth):
    return [level_offset(j) for j in range(1, depth + 1)]


class TestShapes:
    @pytest.mark.parametrize("x,depth", [(0.0, 1), (0.5, 2), (1.0, 2), (2.0, 3), (2.073, 4), (7.3, 9)])
    def test_nonreneging_depth(self, x, depth):
        blocks = build_chain(ModelParams(1.0, 0.8, 0.4), x, "nonreneging")
        assert blocks.depth == depth

    @pytest.mark.parametrize("x,depth", [(0.5, 1), (1.0, 2), (2.073, 3), (2.0, 3), (7.3, 8)])
    def test_reneging_depth(self, x, depth):
        blocks = build_chain(ModelParams(1.0, 0.8, 0.4), x, "reneging_tagged")
        assert blocks.depth == depth

    def test_block_dimensions(self, rng):
        for _ in range(5):
            params = random_params(rng)
            x = rng.uniform(0.1, 8.0)
            for blocks in (
                build_chain(params, x, "nonreneging"),
                build_chain(params, x, "reneging_tagged"),
                build_chain(params, x, "reneging_all"),
            ):
                assert blocks.rates.shape == (blocks.depth, 5)
                for j in range(1, blocks.depth + 1):
                    # the solver's expansion: I - L_j, and [U_j | c] below the top
                    s, a = _level_system(j, blocks.rates[j - 1], np.zeros((j, 1)), j < blocks.depth)
                    assert s.shape == (j, j)
                    assert a.shape == (j, j + 2 if j < blocks.depth else 1)
                    local, up, down = level_blocks(blocks, j)
                    assert (local.shape, up.shape, down.shape) == ((j, j), (j, j + 1), (j, j - 1))


class TestOracleGenerator:
    def test_every_variant_is_the_embedded_oracle_generator(self, rng):
        # P = I + Q/(lam + mu) on the chain's states, and no oracle rate from
        # those states reaches past the chain's depth
        worst = 0.0
        for k in range(60):
            params = random_params(rng)
            x = (float(rng.integers(0, 8)), rng.uniform(0.0, 1.0), rng.uniform(0.0, 8.0))[k % 3]
            for variant, name in (("nonreneging", "n"), ("reneging_tagged", "r_tagged"),
                                  ("reneging_all", "r_all")):
                full = assemble_full(build_chain(params, x, variant))
                states, gen = oracle_generator(params.lam, params.mu, params.q, x, name)
                size = full.matrix.shape[0]
                assert states[:size] == [inverse_index(s) for s in range(1, size + 1)]
                assert np.all(gen[:size, size:] == 0.0)
                embedded = np.eye(size) + gen[:size, :size] / (params.lam + params.mu)
                worst = max(worst, float(np.max(np.abs(full.matrix - embedded))))
        assert worst <= 1e-15

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            build_chain(ModelParams(1.0, 0.8, 0.4), 2.5, "reneging")


class TestRowSums:
    def test_nonreneging_exact_accounting(self, rng):
        # rows where the tagged customer is in service lose exactly the
        # success mass; every other row conserves probability
        for _ in range(20):
            params = random_params(rng)
            x = rng.uniform(0.0, 9.0)
            full = assemble_full(build_chain(params, x, "nonreneging"))
            leak = params.mu * params.q / (params.lam + params.mu)
            expected = np.zeros(full.matrix.shape[0])
            expected[phase_one_rows(full.depth)] = leak
            np.testing.assert_allclose(full.deficiency, expected, atol=1e-14)

    def test_reneging_all_top_row_accounting(self, rng):
        for _ in range(20):
            params = random_params(rng)
            x = rng.uniform(0.05, 9.0)
            if abs(x - round(x)) < 1e-9:
                continue
            blocks = build_chain(params, x, "reneging_all")
            full = assemble_full(blocks)
            p = blocks.threshold.p
            leak = params.mu * params.q / (params.lam + params.mu)
            extra = params.mu * (1 - params.q) * (1 - p) / (params.lam + params.mu)
            expected = np.zeros(full.matrix.shape[0])
            expected[phase_one_rows(full.depth)] = leak
            expected[level_offset(full.depth)] = leak + extra
            np.testing.assert_allclose(full.deficiency, expected, atol=1e-14)

    def test_row_sums_never_exceed_one(self, rng):
        for _ in range(20):
            params = random_params(rng)
            x = rng.uniform(0.0, 9.0)
            for variant in ("nonreneging", "reneging_tagged", "reneging_all"):
                full = assemble_full(build_chain(params, x, variant))
                assert np.all(full.matrix.sum(axis=1) <= 1.0 + 1e-14)
                assert np.all(full.matrix >= 0.0)


class TestStructure:
    def test_small_chain_entries(self):
        # x in (0, 1): two levels, arrivals balk everywhere, services feed back
        params = ModelParams(1.0, 0.8, 0.4)
        blocks = build_chain(params, 0.5, "nonreneging")
        denom = 1.8
        (local1, up1, _), (local2, _, down2) = (level_blocks(blocks, j) for j in (1, 2))
        np.testing.assert_allclose(local1, [[(1.0 + 0.48) / denom]])
        np.testing.assert_allclose(
            local2,
            [[1.0 / denom, 0.48 / denom], [0.48 / denom, 1.0 / denom]],
        )
        np.testing.assert_allclose(up1, [[0.0, 0.0]])
        np.testing.assert_allclose(down2, [[0.0], [0.32 / denom]])
        full = assemble_full(blocks)
        assert full.matrix[0, 0] == pytest.approx(1.0 - 0.32 / denom)

    def test_integer_threshold_top_level_unreachable(self):
        blocks = build_chain(ModelParams(0.7, 1.1, 0.6), 2.0, "nonreneging")
        assert blocks.depth == 3
        np.testing.assert_array_equal(level_blocks(blocks, 2)[1], np.zeros((2, 3)))
        # interior up-blocks still feed upward
        assert np.any(level_blocks(blocks, 1)[1] > 0)

    def test_fractional_up_block_carries_join_probability(self):
        params = ModelParams(1.0, 0.8, 0.4)
        blocks = build_chain(params, 2.6, "nonreneging")
        np.testing.assert_allclose(np.diag(level_blocks(blocks, 2)[1][:, :2]), np.full(2, 1.0 * 0.6 / 1.8))
        np.testing.assert_array_equal(level_blocks(blocks, 3)[1], np.zeros((3, 4)))

    def test_reneging_top_blocks(self):
        params = ModelParams(1.0, 0.8, 0.4)
        p = 0.327
        tagged = build_chain(params, 2.327, "reneging_tagged")
        everyone = build_chain(params, 2.327, "reneging_all")
        denom = 1.8
        fb = 0.8 * 0.6 / denom
        down_rate = (0.32 + 0.48 * (1 - p)) / denom
        for blocks in (tagged, everyone):
            local, _, down = level_blocks(blocks, blocks.depth)
            np.testing.assert_allclose(down[1:, :], np.diag(np.full(2, down_rate)), atol=1e-15)
            np.testing.assert_allclose(down[0, :], 0.0)
            sub = np.diag(local[1:, :-1])
            np.testing.assert_allclose(sub, np.full(2, fb * p))
        assert level_blocks(tagged, tagged.depth)[0][0, -1] == pytest.approx(fb)
        assert level_blocks(everyone, everyone.depth)[0][0, -1] == pytest.approx(fb * p)

    def test_integer_threshold_shared_levels_match_nonreneging(self, rng):
        # below the top level the three chains are identical when x is integer
        for m in (1, 2, 4):
            params = random_params(rng)
            base = build_chain(params, float(m), "nonreneging")
            for blocks in (build_chain(params, float(m), "reneging_tagged"),
                           build_chain(params, float(m), "reneging_all")):
                shared = num_states(m)
                fb_full = assemble_full(base).matrix[:shared, :shared]
                rn_full = assemble_full(blocks).matrix[:shared, :shared]
                np.testing.assert_allclose(fb_full, rn_full, atol=1e-15)

    def test_rank_limited_correction_between_chains(self, rng):
        # restricted to shared states, the no-reneging chain differs from the
        # tagged-never-reneges chain only on the top level's non-head rows:
        # mass mu(1-q)(1-p) moves from the level below back to the top level
        for _ in range(10):
            params = random_params(rng)
            x = rng.uniform(1.05, 7.0)
            if abs(x - round(x)) < 1e-9:
                continue
            n = int(np.floor(x))
            p = x - n
            shared = num_states(n + 1)
            full_n = assemble_full(build_chain(params, x, "nonreneging")).matrix
            full_r = assemble_full(build_chain(params, x, "reneging_tagged")).matrix
            assert np.all(full_n[:shared, shared:] == 0.0)
            c = params.mu * (1 - params.q) * (1 - p) / (params.lam + params.mu)
            correction = np.zeros((shared, shared))
            for i in range(2, n + 2):
                row = level_offset(n + 1) + i - 1
                correction[row, level_offset(n) + i - 2] = -c
                correction[row, level_offset(n + 1) + i - 2] = c
            np.testing.assert_allclose(full_n[:shared, :shared], full_r + correction, atol=1e-15)

    def test_power_iteration_decays_geometrically(self, rng):
        # the late-stage ratio of successive sup norms estimates the spectral
        # radius, which must sit strictly below one
        for _ in range(5):
            params = random_params(rng)
            full = assemble_full(build_chain(params, rng.uniform(0.5, 6.0), "nonreneging"))
            v = np.ones(full.matrix.shape[0])
            for _ in range(200):
                v = full.matrix @ v
            before = np.max(np.abs(v))
            v = full.matrix @ v
            after = np.max(np.abs(v))
            assert 0.0 < after < before
            assert after / before < 1.0 - 1e-9


class TestRates:
    """Each level's five jump rates, the chain's only stored form; the solver
    expands a level's blocks from them when it eliminates the level."""

    def test_blocks_hold_the_rates_and_nothing_else(self, rng):
        for _ in range(20):
            params = random_params(rng)
            x = rng.uniform(0.0, 9.0)
            for variant in ("nonreneging", "reneging_tagged", "reneging_all"):
                blocks = build_chain(params, x, variant)
                assert blocks.rates.shape == (blocks.depth, 5)
                for j, (balk, shift, tail, join, dep) in enumerate(blocks.rates, start=1):
                    local = np.diag(np.full(j, balk)) + np.diag(np.full(j - 1, shift), -1)
                    local[0, -1] += tail
                    c = np.arange(2.0 * j).reshape(j, 2)
                    s, a = _level_system(j, blocks.rates[j - 1], c, j < blocks.depth)
                    np.testing.assert_array_equal(s, np.eye(j) - local)
                    if j < blocks.depth:
                        np.testing.assert_array_equal(a, np.hstack((np.eye(j, j + 1) * join, c)))
                    else:
                        np.testing.assert_array_equal(a, c)
                    np.testing.assert_array_equal(level_blocks(blocks, j)[0], local)
                    if j > 1:  # the solver applies D_j as a row shift (TestElimination)
                        np.testing.assert_array_equal(level_blocks(blocks, j)[2], np.eye(j, j - 1, -1) * dep)

    def test_stacks_and_rungs_keep_each_chains_rates(self):
        params = ModelParams(1.0, 0.8, 0.4)
        ladder = Ladder(params)
        for variant, xs in (("nonreneging", [5.5, 6.0, 5.25]), ("reneging_all", [6.0, 6.5, 6.75])):
            singles = [build_chain(params, x, variant).rates for x in xs]
            assert build_chain(params, xs, variant).rates.shape == (3, 7, 5)
            np.testing.assert_array_equal(build_chain(params, xs, variant, ladder).rates, singles)
            for x, rates in zip(xs, singles):
                on_ladder = build_chain(params, x, variant, ladder)
                np.testing.assert_array_equal(on_ladder.rates, rates)
                # every rung level has the joining row: no balking, no reneging
                rungs = on_ladder.rates[: on_ladder.shared]
                assert len(rungs) == int(x) - 1 and np.all(rungs == rungs[0])
                assert rungs[0, 0] == 0.0 and rungs[0, 1] == rungs[0, 2]


class TestPayoffRhs:
    def test_entries(self):
        params = ModelParams(1.0, 0.8, 0.4, 7.8)
        g = build_rhs_payoff(params, 3)
        denom = 1.8
        reward = 0.8 * 0.4 * 7.8 / denom
        expected = np.full(6, -1.0 / denom)
        expected[[0, 1, 3]] += reward
        np.testing.assert_allclose(g, expected)

