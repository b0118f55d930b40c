import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import feedbackq
from feedbackq import (
    ModelParams,
    SimConfig,
    inverse_index,
    make_threshold,
    simulate_tagged,
    sojourn_always_join,
    sojourn_vector,
    state_index,
    stationary_always_join,
)
from feedbackq.model import branch_parts, level_offset, num_states, positive_int


class TestModelParams:
    def test_valid_construction(self):
        p = ModelParams(1.0, 0.8, 0.4, 7.8)
        assert p.rho == pytest.approx(1.0 / 0.32)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=0.0, mu=1.0, q=0.5),
            dict(lam=-1.0, mu=1.0, q=0.5),
            dict(lam=1.0, mu=0.0, q=0.5),
            dict(lam=1.0, mu=1.0, q=0.0),
            dict(lam=1.0, mu=1.0, q=1.1),
            dict(lam=1.0, mu=1.0, q=0.5, r0=-0.1),
            dict(lam=math.inf, mu=1.0, q=0.5),
            dict(lam=math.nan, mu=1.0, q=0.5),
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
    def test_bools_are_not_rates(self, flag):
        with pytest.raises(ValueError):
            ModelParams(flag, 1.0, 0.5)
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, 0.5, r0=flag)

    @pytest.mark.parametrize("bad", ["1", 1j, None, 10**400])
    def test_non_reals_are_rejected(self, bad):
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, 0.5, r0=bad)

    def test_numpy_scalars_become_floats(self):
        p = ModelParams(np.float32(0.5), np.int64(1), np.float64(0.25), np.int32(3))
        assert (p.lam, p.mu, p.q, p.r0) == (0.5, 1.0, 0.25, 3.0)
        assert all(type(v) is float for v in (p.lam, p.mu, p.q, p.r0))

    def test_rho_above_one_is_allowed(self):
        assert ModelParams(0.8, 1.0, 0.2).rho == pytest.approx(4.0)

    def test_with_r0(self):
        p = ModelParams(1.0, 0.8, 0.4).with_r0(7.5)
        assert p.r0 == 7.5


class TestThreshold:
    def test_fractional(self):
        th = make_threshold(2.073)
        assert th.n == 2
        assert th.p == pytest.approx(0.073)
        assert not th.is_integer

    def test_zero_always_balk(self):
        th = make_threshold(0.0)
        assert (th.n, th.p) == (0, 0.0)
        assert th.is_integer

    def test_pure_integer(self):
        th = make_threshold(3.0)
        assert (th.n, th.p) == (3, 0.0)
        assert th.is_integer

    @pytest.mark.parametrize("bad", [-0.5, math.inf, math.nan])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            make_threshold(bad)

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
    def test_rejects_bools(self, flag):
        with pytest.raises(ValueError):
            make_threshold(flag)

    def test_numpy_scalars_become_floats(self):
        th = make_threshold(np.float32(2.5))
        assert (th.x, th.n, th.p) == (2.5, 2, 0.5) and type(th.x) is float
        th = make_threshold(np.int64(3))
        assert (th.x, th.n, th.p) == (3.0, 3, 0.0) and type(th.x) is float

    def test_near_integer_snaps_in_branch_parts(self):
        th = make_threshold(2.0 + 1e-13)
        assert th.is_integer
        assert branch_parts(th) == (2, 0.0)

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_parts_reconstruct_input(self, x):
        th = make_threshold(x)
        assert th.n + th.p == x
        assert th.n >= 0
        assert 0.0 <= th.p < 1.0


class TestStateIndex:
    @pytest.mark.parametrize("i,j,k", [(1, 1, 1), (1, 2, 2), (2, 2, 3), (3, 3, 6), (1, 4, 7)])
    def test_known_values(self, i, j, k):
        assert state_index(i, j) == k
        assert inverse_index(k) == (i, j)

    def test_round_trip_to_depth_50(self):
        seen = set()
        for j in range(1, 51):
            for i in range(1, j + 1):
                k = state_index(i, j)
                assert inverse_index(k) == (i, j)
                seen.add(k)
        assert seen == set(range(1, num_states(50) + 1))

    def test_strictly_increasing_in_level_major_order(self):
        ordered = [state_index(i, j) for j in range(1, 30) for i in range(1, j + 1)]
        assert ordered == sorted(ordered)

    @pytest.mark.parametrize("i,j", [(0, 1), (2, 1), (-1, 3)])
    def test_rejects_out_of_region(self, i, j):
        with pytest.raises(ValueError):
            state_index(i, j)

    def test_inverse_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            inverse_index(0)

    def test_level_offset_matches_index(self):
        for j in range(1, 20):
            assert level_offset(j) == state_index(1, j) - 1


class TestPositiveInt:
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.0, 0, -1, np.int64(0), "2"])
    def test_rejects(self, value):
        with pytest.raises(ValueError):
            positive_int(value, "m")

    @pytest.mark.parametrize("value", [1, 2, np.int64(2), np.int32(3), np.uint8(4)])
    def test_accepts_integrals_as_python_int(self, value):
        out = positive_int(value, "m")
        assert type(out) is int and out == value


STABLE = ModelParams(0.4, 0.6, 0.7)
REFERENCE = ModelParams(1.0, 0.8, 0.4, 7.8)

#: Every public site that takes an integer state, position or length.
INTEGER_SITES = {
    "state_index": lambda v: state_index(v, v),
    "inverse_index": inverse_index,
    "ValueVector.at": lambda v: sojourn_vector(REFERENCE, 2.5).at(v, v),
    "simulate_tagged": lambda v: simulate_tagged(
        SimConfig(params=REFERENCE, x=2.5, reps=50, seed=1), (v, v)
    ).estimates,
    "sojourn_always_join": lambda v: sojourn_always_join(STABLE, v),
    "stationary_always_join": lambda v: stationary_always_join(STABLE, v),
}


class TestIntegerRule:
    @pytest.mark.parametrize("site", INTEGER_SITES)
    def test_accepts_numpy_integers(self, site):
        call = INTEGER_SITES[site]
        assert call(np.int64(2)) == call(2)

    @pytest.mark.parametrize("value", [True, False, 2.0])
    @pytest.mark.parametrize("site", INTEGER_SITES)
    def test_rejects_bools_and_floats(self, site, value):
        with pytest.raises(ValueError):
            INTEGER_SITES[site](value)

    def test_stationary_always_join_accepts_zero(self):
        empty = stationary_always_join(STABLE, 0)
        assert empty == stationary_always_join(STABLE, np.int64(0)) == 1.0 - STABLE.rho


class TestPackageSurface:
    def test_every_export_resolves_once(self):
        missing = [name for name in feedbackq.__all__ if not hasattr(feedbackq, name)]
        assert missing == []
        assert len(set(feedbackq.__all__)) == len(feedbackq.__all__)

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from feedbackq import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(feedbackq.__all__)
