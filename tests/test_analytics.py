import numpy as np
import pytest

from feedbackq import (
    ModelParams,
    as_threshold,
    feedback_observed_dist,
    renege_probability,
    sojourn_always_join,
    stationary_always_join,
    stationary_threshold,
)

from chain_oracle import oracle_stationary
from conftest import REFERENCE_CASES, params_of, random_params


def renege_probability_sequence(params, x, kmax):
    """P(abandon at exactly the k-th feedback), k = 1..kmax.

    Summing this sequence to infinity reproduces :func:`renege_probability`;
    the truncated series serves as an independent oracle for the closed form.
    """
    th = as_threshold(x)
    if th.is_integer or params.q == 1.0:
        return np.zeros(kmax)
    seen_full = feedback_observed_dist(params, th).probs[th.n]
    once = (1.0 - params.q) * (1.0 - th.p) * seen_full
    again = (1.0 - params.q) * (1.0 - (1.0 - th.p) * seen_full)
    return once * again ** np.arange(kmax, dtype=float)


class TestAlwaysJoin:
    def test_sojourn_closed_form_value(self):
        value = sojourn_always_join(ModelParams(0.4, 0.6, 0.7), 1)
        assert value == pytest.approx(1.3 / 0.426)

    def test_sojourn_affine_in_position(self, rng):
        for _ in range(10):
            params = random_params(rng)
            if params.rho >= 1.0:
                continue
            q, lam, mu = params.q, params.lam, params.mu
            slope = 1.0 / ((q - 1) * lam - (q - 2) * q * mu)
            for i in range(1, 6):
                diff = sojourn_always_join(params, i + 1) - sojourn_always_join(params, i)
                assert diff == pytest.approx(slope)

    def test_no_feedback_reduces_to_plain_queue(self):
        # with sure success a position-i joiner waits for exactly i services;
        # later arrivals queue behind her and never matter
        params = ModelParams(0.4, 0.9, 1.0)
        for i in (1, 2, 5):
            assert sojourn_always_join(params, i) == pytest.approx(i / 0.9)

    def test_position_average_recovers_unconditional_sojourn(self):
        # averaging over the law seen at arrival recovers the classical
        # unconditional mean 1/(mu q - lam)
        params = ModelParams(0.4, 0.9, 1.0)
        mean = sum(
            stationary_always_join(params, i - 1) * sojourn_always_join(params, i)
            for i in range(1, 400)
        )
        assert mean == pytest.approx(1.0 / (0.9 - 0.4), rel=1e-9)

    def test_unstable_regime_rejected(self):
        with pytest.raises(ValueError):
            sojourn_always_join(ModelParams(1.0, 0.8, 0.4), 1)
        with pytest.raises(ValueError):
            stationary_always_join(ModelParams(1.0, 0.8, 0.4), 0)

    def test_geometric_law(self):
        params = ModelParams(0.4, 0.6, 0.7)
        rho = params.rho
        assert stationary_always_join(params, 0) == pytest.approx(1 - rho)
        total = sum(stationary_always_join(params, i) for i in range(1500))
        assert total == pytest.approx(1.0, abs=1e-12)
        for i in range(5):
            ratio = stationary_always_join(params, i + 1) / stationary_always_join(params, i)
            assert ratio == pytest.approx(rho)


class TestStationaryThreshold:
    def test_zero_threshold_point_mass(self):
        dist = stationary_threshold(ModelParams(1.0, 0.8, 0.4), 0.0)
        np.testing.assert_array_equal(dist.probs, [1.0])

    def test_support_and_normalisation(self, rng):
        for _ in range(20):
            params = random_params(rng)
            x = rng.uniform(0.0, 9.0)
            for mode in ("n", "r"):
                dist = stationary_threshold(params, x, mode)
                n = int(np.floor(x))
                expected = n if abs(x - round(x)) < 1e-9 else n + 1
                assert dist.support == max(expected, 0)
                assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(dist.probs >= 0.0)

    def test_cut_equations(self, rng):
        # flow balance across every level cut of the birth-death diagram
        for _ in range(20):
            params = random_params(rng)
            x = rng.uniform(0.05, 9.0)
            if abs(x - round(x)) < 1e-6:
                continue
            n = int(np.floor(x))
            p = x - n
            lam, mu, q = params.lam, params.mu, params.q
            for mode in ("n", "r"):
                probs = stationary_threshold(params, x, mode).probs
                for k in range(n):
                    assert lam * probs[k] == pytest.approx(mu * q * probs[k + 1], abs=1e-12)
                out = mu * q if mode == "n" else mu * q + mu * (1 - q) * (1 - p)
                assert lam * p * probs[n] == pytest.approx(out * probs[n + 1], abs=1e-12)

    def test_integer_threshold_modes_coincide(self, rng):
        for m in (1, 2, 5):
            params = random_params(rng)
            a = stationary_threshold(params, float(m), "n").probs
            b = stationary_threshold(params, float(m), "r").probs
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_regression_masses_at_equilibria(self):
        for case in REFERENCE_CASES:
            params = params_of(case)
            pi = stationary_threshold(params, case["x_e"], "n").probs
            assert pi[0] == pytest.approx(case["pi0"], abs=5e-4)
            assert pi[1] == pytest.approx(case["pi1"], abs=5e-4)
            pih = stationary_threshold(params, case["x_hat_e"], "r").probs
            assert pih[0] == pytest.approx(case["pih0"], abs=5e-4)
            assert pih[1] == pytest.approx(case["pih1"], abs=5e-4)

    def test_balanced_load_limit_continuity(self):
        # lam = mu q makes the geometric weights flat; the law must vary
        # continuously through that point
        mu, q = 0.8, 0.5
        lam = mu * q
        x = 3.4
        center = stationary_threshold(ModelParams(lam, mu, q), x, "n").probs
        np.testing.assert_allclose(center[:4], np.full(4, center[0]), rtol=1e-12)
        for eps in (1e-6, -1e-6):
            nearby = stationary_threshold(ModelParams(lam * (1 + eps), mu, q), x, "n").probs
            np.testing.assert_allclose(nearby, center, atol=1e-5)

    def test_raising_threshold_within_band_drains_low_states(self, rng):
        # against an integer threshold m, any reneging threshold in (m, m+1)
        # opens the boundary level and strictly lowers every other mass
        for m in (1, 2, 4):
            params = random_params(rng)
            base = stationary_threshold(params, float(m), "n").probs
            higher = stationary_threshold(params, m + rng.uniform(0.05, 0.95), "r").probs
            assert np.all(higher[: m + 1] < base)
            assert higher[m + 1] > 0.0

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            stationary_threshold(ModelParams(1.0, 0.8, 0.4), 2.0, "x")

    @pytest.mark.parametrize("mode", ["n", "r"])
    @pytest.mark.parametrize("x", [500.0, 500.5])
    def test_finite_above_unit_load_at_large_thresholds(self, x, mode):
        # rho = 5: the unscaled weight rho^500 overflows a float
        probs = stationary_threshold(ModelParams(1.0, 0.2, 1.0), x, mode).probs
        assert np.all(np.isfinite(probs))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle_on_both_sides_of_unit_load(self, rng):
        loads = set()
        for k in range(60):
            params = random_params(rng)
            x = float(rng.integers(0, 61)) if k % 3 == 0 else rng.uniform(0.0, 60.0)
            loads.add(params.rho > 1.0)
            for mode in ("n", "r"):
                np.testing.assert_allclose(
                    stationary_threshold(params, x, mode).probs,
                    oracle_stationary(params.lam, params.mu, params.q, x, mode),
                    rtol=1e-12, atol=0.0,
                )
        assert loads == {False, True}


class TestFeedbackObserved:
    def test_matches_shifted_renormalised_law(self, rng):
        for _ in range(10):
            params = random_params(rng)
            x = rng.uniform(0.1, 8.0)
            base = stationary_threshold(params, x, "r").probs
            seen = feedback_observed_dist(params, x).probs
            n = int(np.floor(x))
            assert len(seen) == n + 1
            assert seen.sum() == pytest.approx(1.0, abs=1e-12)
            expect = base[1:]
            np.testing.assert_allclose(seen[: len(expect)], expect / expect.sum(), atol=1e-13)

    def test_integer_threshold_top_observation_impossible(self):
        seen = feedback_observed_dist(ModelParams(1.0, 0.8, 0.8), 3.0).probs
        assert seen[-1] == 0.0

    def test_requires_positive_threshold(self):
        with pytest.raises(ValueError):
            feedback_observed_dist(ModelParams(1.0, 0.8, 0.8), 0.0)


class TestRenegeProbability:
    def test_integer_threshold_never_reneges(self):
        assert renege_probability(ModelParams(1.0, 0.8, 0.8), 3.0) == 0.0

    def test_no_feedback_never_reneges(self):
        assert renege_probability(ModelParams(0.4, 0.9, 1.0), 2.5) == 0.0

    def test_lies_in_unit_interval(self, rng):
        for _ in range(20):
            params = random_params(rng)
            value = renege_probability(params, rng.uniform(0.05, 8.0))
            assert 0.0 <= value < 1.0

    def test_closed_form_matches_truncated_series(self, rng):
        for _ in range(10):
            params = random_params(rng)
            x = rng.uniform(0.1, 6.0)
            closed = renege_probability(params, x)
            series = renege_probability_sequence(params, x, 10_000).sum()
            assert series == pytest.approx(closed, abs=1e-12)

    def test_sequence_is_geometric(self):
        params = ModelParams(1.0, 0.8, 0.8)
        seq = renege_probability_sequence(params, 2.5, 50)
        ratios = seq[1:] / seq[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_requires_positive_threshold(self):
        with pytest.raises(ValueError):
            renege_probability(ModelParams(1.0, 0.8, 0.8), 0.0)
