import dataclasses

import numpy as np
import pytest
import scipy.stats

from feedbackq import (
    ModelParams,
    SimConfig,
    payoff_vector_n,
    payoff_vector_r_all,
    renege_probability,
    simulate_renege_fraction,
    simulate_stationary,
    simulate_tagged,
    sojourn_vector,
    stationary_threshold,
    total_payoff,
)
from feedbackq import simulate
from feedbackq.model import as_threshold, chain_depth
from feedbackq.simulate import (
    BATCH_SIZE,
    SCAN_BLOCK,
    STEP_TABLE_MAX,
    _population_run,
    _Stepper,
    _transition_table,
)

from population_oracle import population_run_oracle
from tagged_oracle import simulate_tagged_oracle


def within(estimate, target, k=3.0):
    return abs(estimate.mean - target) <= k * estimate.se


class TestDeterminism:
    def test_tagged_runs_bit_identical_under_a_seed(self):
        cfg = SimConfig(params=ModelParams(1.0, 0.8, 0.4, 7.8), x=2.073, reps=20_000, seed=99)
        a = simulate_tagged(cfg, (2, 2))
        b = simulate_tagged(cfg, (2, 2))
        assert a.estimates["sojourn"] == b.estimates["sojourn"]
        assert a.estimates["payoff"] == b.estimates["payoff"]

    def test_stationary_runs_bit_identical_under_a_seed(self):
        cfg = SimConfig(params=ModelParams(1.0, 0.8, 0.8), x=2.5, mode="r", events=100_000, seed=7)
        a = simulate_stationary(cfg)
        b = simulate_stationary(cfg)
        np.testing.assert_array_equal(a.histogram, b.histogram)

    def test_seeds_differ(self):
        base = dict(params=ModelParams(1.0, 0.8, 0.4, 7.8), x=2.073, reps=5_000)
        a = simulate_tagged(SimConfig(seed=1, **base), (1, 1))
        b = simulate_tagged(SimConfig(seed=2, **base), (1, 1))
        assert a.estimates["sojourn"].mean != b.estimates["sojourn"].mean


class TestTagged:
    def test_lone_customer_sojourn(self):
        cfg = SimConfig(params=ModelParams(0.4, 0.6, 0.7), x=0.5, reps=60_000, seed=3)
        res = simulate_tagged(cfg, (1, 1))
        assert within(res.estimates["sojourn"], 1.0 / 0.42)

    def test_no_feedback_single_service(self):
        cfg = SimConfig(params=ModelParams(0.4, 0.9, 1.0), x=2.0, reps=60_000, seed=5)
        res = simulate_tagged(cfg, (1, 1))
        assert within(res.estimates["sojourn"], 1.0 / 0.9)
        assert res.estimates["success"].mean == 1.0

    def test_payoff_matches_solver_at_equilibrium(self):
        params = ModelParams(1.0, 0.8, 0.4, 7.8)
        cfg = SimConfig(params=params, x=2.073038608, reps=60_000, seed=11)
        res = simulate_tagged(cfg, (2, 2))
        assert within(res.estimates["payoff"], payoff_vector_n(params, 2.073038608).at(2, 2))

    def test_reneging_payoff_matches_solver(self):
        params = ModelParams(1.0, 0.8, 0.4, 7.8)
        cfg = SimConfig(params=params, x=2.326937720, mode="r", reps=60_000, seed=13)
        res = simulate_tagged(cfg, (3, 3))
        target = payoff_vector_r_all(params, 2.326937720).at(3, 3)
        assert target == pytest.approx(0.0, abs=1e-6)
        assert within(res.estimates["payoff"], target)

    def test_never_reneging_tagged_threshold(self):
        params = ModelParams(1.0, 0.8, 0.4, 7.5)
        cfg = SimConfig(params=params, x=2.5, x_tag=3.0, mode="r", reps=60_000, seed=17)
        res = simulate_tagged(cfg, (3, 3))
        assert res.estimates["success"].mean == 1.0  # she always stays until success
        from feedbackq import sojourn_vector_r_tagged

        assert within(res.estimates["sojourn"], sojourn_vector_r_tagged(params, 2.5).at(3, 3))

    def test_start_state_validation(self):
        cfg = SimConfig(params=ModelParams(1.0, 0.8, 0.4), x=2.5, mode="r", reps=10)
        with pytest.raises(ValueError):
            simulate_tagged(cfg, (1, 4))  # beyond the reneging depth
        with pytest.raises(ValueError):
            simulate_tagged(cfg, (2, 1))
        cfg = SimConfig(params=ModelParams(1.0, 0.8, 0.4), x=2.5, reps=10)
        assert simulate_tagged(cfg, (4, 4)).estimates["sojourn"].count == 10  # the deepest level
        with pytest.raises(ValueError, match="depth-4"):
            simulate_tagged(cfg, (1, 5))


class TestStationary:
    def test_histogram_matches_analytic_law(self):
        params = ModelParams(1.0, 0.8, 0.4)
        cfg = SimConfig(params=params, x=2.073, events=400_000, seed=19)
        res = simulate_stationary(cfg)
        ana = stationary_threshold(params, 2.073, "n").probs
        assert res.histogram.shape == ana.shape
        np.testing.assert_array_less(np.abs(res.histogram - ana), 3.0 * res.histogram_se + 1e-12)

    def test_integer_threshold_reneging_mode_matches_plain_mode(self):
        params = ModelParams(1.0, 0.8, 0.8)
        a = simulate_stationary(SimConfig(params=params, x=3.0, mode="n", events=200_000, seed=23))
        b = simulate_stationary(SimConfig(params=params, x=3.0, mode="r", events=200_000, seed=23))
        np.testing.assert_array_equal(a.histogram, b.histogram)

    def test_large_threshold_approaches_geometric_law(self):
        params = ModelParams(0.4, 0.6, 0.7)  # rho < 1
        cfg = SimConfig(params=params, x=50.0, events=400_000, seed=29)
        res = simulate_stationary(cfg)
        rho = params.rho
        geo = (1 - rho) * rho ** np.arange(len(res.histogram))
        np.testing.assert_array_less(
            np.abs(res.histogram - geo)[:10], 3.0 * res.histogram_se[:10] + 1e-3
        )

    def test_payoff_per_arrival_matches_population_payoff(self):
        params = ModelParams(1.0, 0.8, 0.4, 7.8)
        cfg = SimConfig(params=params, x=2.073038608, events=400_000, seed=31)
        res = simulate_stationary(cfg, track_payoffs=True)
        target = total_payoff(params, 2.073038608, 2.073038608)
        assert within(res.estimates["payoff_per_arrival"], target)


class TestRenege:
    def test_fraction_matches_closed_form(self):
        params = ModelParams(1.0, 0.8, 0.8)
        cfg = SimConfig(params=params, x=2.5, mode="r", events=400_000, seed=37)
        res = simulate_renege_fraction(cfg)
        assert within(res.estimates["renege_fraction"], renege_probability(params, 2.5))

    def test_integer_threshold_exactly_zero(self):
        cfg = SimConfig(params=ModelParams(1.0, 0.8, 0.8), x=3.0, mode="r", events=100_000, seed=41)
        res = simulate_renege_fraction(cfg)
        assert res.estimates["renege_fraction"].mean == 0.0

    def test_no_feedback_exactly_zero(self):
        cfg = SimConfig(params=ModelParams(0.5, 0.9, 1.0), x=2.5, mode="r", events=100_000, seed=43)
        res = simulate_renege_fraction(cfg)
        assert res.estimates["renege_fraction"].mean == 0.0

    def test_mode_validation(self):
        cfg = SimConfig(params=ModelParams(1.0, 0.8, 0.8), x=2.5, mode="n", events=1_000)
        with pytest.raises(ValueError):
            simulate_renege_fraction(cfg)


class TestEventStream:
    def test_event_type_proportions(self):
        # among busy-period events, arrivals and services split the race in
        # proportion to their rates
        params = ModelParams(1.0, 0.8, 0.4)
        rng = np.random.default_rng(47)
        lam, mu = params.lam, params.mu
        n_events = 500_000
        draws = rng.random(n_events)
        arrivals = int((draws < lam / (lam + mu)).sum())
        observed = [arrivals, n_events - arrivals]
        expected = [n_events * lam / (lam + mu), n_events * mu / (lam + mu)]
        assert scipy.stats.chisquare(observed, expected).pvalue > 0.001

    def test_busy_holding_times_are_exponential(self):
        params = ModelParams(1.0, 0.8, 0.4)
        rng = np.random.default_rng(53)
        sample = rng.exponential(1.0 / (params.lam + params.mu), 200_000)
        stat = scipy.stats.kstest(sample, "expon", args=(0.0, 1.0 / 1.8))
        assert stat.pvalue > 0.001

    def test_config_validation(self):
        params = ModelParams(1.0, 0.8, 0.4)
        with pytest.raises(ValueError):
            SimConfig(params=params, x=2.0, mode="x")
        with pytest.raises(ValueError):
            SimConfig(params=params, x=2.0, reps=0)
        with pytest.raises(ValueError):
            SimConfig(params=params, x=2.0, warmup=1.0)
        with pytest.raises(ValueError):
            SimConfig(params=params, x=-1.0)

    @pytest.mark.parametrize(
        "field,value",
        [("reps", 2.5), ("reps", True), ("reps", 10.0), ("events", 1000.0), ("events", False),
         ("events", 0), ("seed", -1), ("seed", 1.5), ("seed", True)],
    )
    def test_counts_and_seed_follow_the_integer_rule(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(params=ModelParams(1.0, 0.8, 0.4), x=2.0, **{field: value})

    def test_numpy_integers_accepted(self):
        params = ModelParams(1.0, 0.8, 0.4)
        cfg = SimConfig(params=params, x=2.5, reps=np.int64(50), events=np.int64(500),
                        seed=np.uint32(3))
        assert (type(cfg.reps), type(cfg.events), type(cfg.seed)) == (int, int, int)
        plain = SimConfig(params=params, x=2.5, reps=50, events=500, seed=3)
        assert simulate_tagged(cfg, (1, 2)) == simulate_tagged(plain, (1, 2))

    @pytest.mark.parametrize("events,warmup", [(1, 0.1), (10, 0.9)])
    def test_one_measured_batch_gives_nan_errors_quietly(self, events, warmup):
        # Runs under error::RuntimeWarning: one batch has no spread to measure.
        cfg = SimConfig(params=ModelParams(1.0, 0.8, 0.8), x=2.5, events=events,
                        warmup=warmup, seed=3)
        res = simulate_stationary(cfg)
        assert res.histogram.sum() == pytest.approx(1.0)
        assert np.isnan(res.histogram_se).all() and len(res.histogram_se) == len(res.histogram)
        assert np.isnan(res.estimates["mean_queue"].se)


class TestEstimateFields:
    def test_mean_queue_counts_measured_events(self):
        # The mean queue is a time-weighted ratio: its denominator is time,
        # its sample count the events after warmup.
        params = ModelParams(1.0, 0.8, 0.4)
        res = simulate_stationary(SimConfig(params=params, x=2.073, events=1000, seed=3))
        assert res.estimates["mean_queue"].count == 900
        res = simulate_stationary(
            SimConfig(params=params, x=2.073, events=5, warmup=0.5, seed=3)
        )
        assert res.estimates["mean_queue"].count == 3

    def test_fields_are_python_scalars(self):
        params = ModelParams(1.0, 0.8, 0.8, 7.8)
        results = (
            simulate_tagged(SimConfig(params=params, x=2.5, reps=500, seed=5), (1, 2)),
            simulate_stationary(
                SimConfig(params=params, x=2.5, events=5_000, seed=5), track_payoffs=True
            ),
            simulate_renege_fraction(SimConfig(params=params, x=2.5, mode="r", events=5_000)),
        )
        for res in results:
            for est in res.estimates.values():
                assert (type(est.mean), type(est.se), type(est.count)) == (float, float, int)


def _engine_configs():
    """64 seeded ergodic configurations: both modes, integer thresholds,
    thresholds below one, q = 1, warmup 0 / 0.1 / 0.5, tiny runs, runs past
    one 65,536-draw chunk with a partial last chunk, and x = 50."""
    rng = np.random.default_rng(20261018)
    configs = []
    for i in range(64):
        lam, mu = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.3, 2.0))
        q = 1.0 if i % 5 == 0 else float(rng.uniform(0.1, 1.0))
        x = (
            float(rng.integers(0, 7)),  # integer, zero included
            float(rng.uniform(0.0, 1.0)),  # below one
            float(rng.uniform(1.0, 7.0)),
        )[i % 3]
        events = int(rng.integers(1_000, 6_000))
        if i % 16 == 7:
            events = 65_536 + int(rng.integers(1, 65_536))
        if i in (10, 41):
            lam, mu, q, x, events = 0.95, 1.0, 1.0, 50.0 + 0.5 * (i == 41), 70_001
        if i == 20:
            events = 3
        configs.append(
            SimConfig(
                params=ModelParams(lam, mu, q, float(rng.uniform(0.5, 10.0)) / (mu * q)),
                x=x,
                mode="r" if i % 2 else "n",
                events=events,
                seed=int(rng.integers(2**32)),
                warmup=(0.0, 0.1, 0.5)[(i // 2) % 3],
            )
        )
    return configs


class TestErgodicEngine:
    @pytest.mark.parametrize("config", _engine_configs(), ids=lambda c: f"seed{c.seed}")
    def test_matches_per_event_loop_bit_for_bit(self, config):
        for track_payoffs in (False, True):
            got = _population_run(config, track_payoffs)
            want = population_run_oracle(config, track_payoffs)
            assert len(got) == len(want) == 5
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b, strict=True)
        # The count-only run simulate_renege_fraction makes skips the clock
        # but counts joins and reneges exactly as the loop did.
        _, joins, reneges, _, _ = _population_run(config, False, clock=False)
        np.testing.assert_array_equal(joins, want[1], strict=True)
        np.testing.assert_array_equal(reneges, want[2], strict=True)

    def test_configs_cover_the_edge_cases(self):
        configs = _engine_configs()
        xs = [c.x for c in configs]
        assert {c.mode for c in configs} == {"n", "r"}
        assert any(x == int(x) for x in xs) and any(0.0 < x < 1.0 for x in xs)
        assert 50.0 in xs and 50.5 in xs
        assert any(c.params.q == 1.0 for c in configs)
        assert {c.warmup for c in configs} == {0.0, 0.1, 0.5}
        assert any(c.events > 65_536 and c.events % 65_536 for c in configs)

    def test_exceeding_the_reachable_level_raises(self, monkeypatch):
        # Understate the depth so that joins can outgrow the table.
        monkeypatch.setattr(simulate, "chain_depth", lambda th, reneging: th.n)
        cfg = SimConfig(params=ModelParams(1.0, 0.8, 0.8), x=2.5, events=10_000, seed=3)
        with pytest.raises(RuntimeError, match="exceeded its reachable level"):
            _population_run(cfg, False)
        with pytest.raises(RuntimeError, match="exceeded its reachable level"):
            _population_run(cfg, False, clock=False)
        with pytest.raises(RuntimeError, match="exceeded its reachable level"):
            simulate_renege_fraction(dataclasses.replace(cfg, mode="r"))


def _step_cases():
    """Seeded transition tables: both modes, kmax 0 and 1, x = 50's kmax
    (50) and kmaxes whose composed tables outgrow STEP_TABLE_MAX for three
    and for two events per lookup; n from 0 to one past kmax."""
    rng = np.random.default_rng(20261019)
    cases = []
    for i, kmax in enumerate((0, 1, 0, 1, 2, 3, 5, 8, 50, 50, 63, 120, 1100)):
        n = int(rng.integers(0, kmax + 2))
        p = 0.0 if i % 4 == 0 else float(rng.uniform())
        cases.append((n, p, kmax, bool(i % 3)))
    return cases


class TestComposedStepping:
    LENGTHS = (0, 1, 2, 3, 4, 5, 6, 97, 98, 99, 100)
    LONG = (95, 96, 97, 191, 192, 193, 3 * 96 + 1, 65_534, 65_535, 65_536)

    @staticmethod
    def single_steps(table, stride, classes, k):
        ks = [k]
        for c in classes.tolist():
            ks.append(table[stride * c + ks[-1]])
        return ks

    @pytest.mark.parametrize("case", _step_cases(), ids=str)
    def test_composed_steps_equal_single_steps(self, case):
        n, p, kmax, reneging = case
        table, stride = _transition_table(n, p, kmax, reneging)
        step = _Stepper(table, stride)
        assert stride == kmax + 2
        assert 16**step.t * stride <= STEP_TABLE_MAX or step.t == 1
        assert step.t == 3 or 16 ** (step.t + 1) * stride > STEP_TABLE_MAX
        rng = np.random.default_rng(kmax)
        for length in self.LENGTHS:
            classes = rng.integers(0, 16, length)
            for k in (0, kmax, kmax + 1):
                got = step(classes, k)
                assert got.dtype == np.int64 and got.tolist() == self.single_steps(
                    table, stride, classes, k
                )
            # The spare level flags broken dynamics: nothing leaves it.
            assert set(step(classes, kmax + 1).tolist()) == {kmax + 1}

    @pytest.mark.parametrize("case", _step_cases(), ids=str)
    def test_scan_across_blocks_equals_single_steps(self, case):
        # Lengths around one, two and three blocks of SCAN_BLOCK triples and
        # up to a whole chunk, with every remainder of a tuple and a block.
        n, p, kmax, reneging = case
        table, stride = _transition_table(n, p, kmax, reneging)
        step = _Stepper(table, stride)
        assert step.width == (SCAN_BLOCK if step.t == 3 else 1)
        classes = np.random.default_rng(kmax + 1).integers(0, 16, self.LONG[-1])
        for k in (0, kmax, kmax + 1):
            want = self.single_steps(table, stride, classes, k)
            for length in self.LONG:
                got = step(classes[:length], k)
                assert got.dtype == np.int64 and got.tolist() == want[: length + 1]
        # The spare level flags broken dynamics: no block or tuple leaves it.
        assert set(step(classes, kmax + 1).tolist()) == {kmax + 1}

    def test_cases_cover_every_tuple_size(self):
        cases = _step_cases()
        steps = [_Stepper(*_transition_table(n, p, kmax, r)) for n, p, kmax, r in cases]
        assert {s.t for s in steps} == {1, 2, 3}
        assert {s.width for s in steps} == {1, SCAN_BLOCK}
        block = 3 * SCAN_BLOCK
        assert {length % 3 for length in self.LONG} == {0, 1, 2}
        assert {length % 2 for length in self.LONG} == {0, 1}
        assert {length % block for length in self.LONG} >= {0, 1, block - 1}
        assert max(self.LONG) == simulate.CHUNK and max(self.LONG) // block > 1
        assert _Stepper(*_transition_table(50, 0.5, 51, False)).t == 3  # x = 50.5
        assert {kmax for _, _, kmax, _ in cases} >= {0, 1, 50}
        assert {r for *_, r in cases} == {False, True}
        assert {length % 3 for length in self.LENGTHS} == {0, 1, 2}
        assert {length % 2 for length in self.LENGTHS} == {0, 1}

    def test_composed_table_spans_every_class_tuple(self):
        # Walking each three-class tuple through the single table gives the
        # composed entry, at every level including the spare one.
        # The row after them, which pads the last block, is the identity.
        table, stride = _transition_table(2, 0.4, 3, True)
        step = _Stepper(table, stride)
        composed = step.composed.tolist()
        assert step.t == 3 and len(composed) == (16**3 + 1) * stride
        for code in range(16**3):
            c1, c2, c3 = code >> 8, code >> 4 & 15, code & 15
            for k in range(stride):
                walked = table[stride * c3 + table[stride * c2 + table[stride * c1 + k]]]
                assert composed[stride * code + k] == walked
        assert composed[16**3 * stride :] == list(range(stride))


def _tagged_draws():
    """240 seeded tagged experiments: both modes, integer thresholds (zero
    included) and fractional ones, the tagged threshold unset, above and
    below the population's, q = 1, start states at every level of the chain,
    and one run of more than one batch."""
    rng = np.random.default_rng(20261019)
    draws = []
    for k in range(240):
        lam, mu = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.3, 2.0))
        q = 1.0 if k % 7 == 0 else float(rng.uniform(0.25, 1.0))
        x = float(rng.integers(0, 7)) if k % 2 else float(rng.uniform(0.0, 7.0))
        x_tag = (None, x + float(rng.uniform(0.0, 2.0)), x * float(rng.uniform(0.0, 1.0)))[k % 3]
        mode = "r" if k % 4 >= 2 else "n"
        depth = chain_depth(as_threshold(x), mode == "r")
        j0 = depth if k % 5 == 0 else int(rng.integers(1, depth + 1))
        i0 = int(rng.integers(1, j0 + 1))
        reps = BATCH_SIZE + 4_321 if k == 3 else int(rng.integers(2, 600))
        config = SimConfig(
            params=ModelParams(lam, mu, q, float(rng.uniform(0.5, 10.0)) / (mu * q)),
            x=x,
            x_tag=x_tag,
            mode=mode,
            reps=reps,
            seed=int(rng.integers(2**32)),
        )
        draws.append((config, (i0, j0)))
    return draws


class TestTaggedEngine:
    @pytest.mark.parametrize("draw", _tagged_draws(), ids=lambda d: f"seed{d[0].seed}")
    def test_matches_masked_engine_field_by_field(self, draw):
        config, start = draw
        got = simulate_tagged(config, start).estimates
        want = simulate_tagged_oracle(config, start).estimates
        assert got.keys() == want.keys() == {"sojourn", "payoff", "success"}
        for name in got:
            for field in ("mean", "se", "count"):
                assert getattr(got[name], field) == getattr(want[name], field), (name, field)

    def test_draws_cover_the_edge_cases(self):
        draws = _tagged_draws()
        configs = [c for c, _ in draws]
        assert {c.mode for c in configs} == {"n", "r"}
        assert any(c.x == int(c.x) for c in configs) and any(c.x != int(c.x) for c in configs)
        assert 0.0 in {c.x for c in configs}
        assert any(c.x_tag is None for c in configs)
        assert any(c.x_tag is not None and c.x_tag > c.x for c in configs)
        assert any(c.x_tag is not None and c.x_tag < c.x for c in configs)
        assert any(c.params.q == 1.0 for c in configs)
        assert any(c.reps > BATCH_SIZE for c in configs)
        depths = [chain_depth(as_threshold(c.x), c.mode == "r") for c in configs]
        levels = {j for _, (_, j) in draws}
        assert levels == set(range(1, max(depths) + 1))
        for mode in ("n", "r"):
            assert any(
                c.mode == mode and j == d for (c, (_, j)), d in zip(draws, depths)
            )

    @pytest.mark.parametrize("mode", ["n", "r"])
    @pytest.mark.parametrize("x, x_tag", [(3000.0, None), (3000.5, 2999.25)])
    def test_deep_threshold_matches_masked_engine(self, mode, x, x_tag):
        # A stable queue rarely climbs far, so a deep chain must cost no more
        # than the steps the replications take (plus the O(depth) table).
        config = SimConfig(
            params=ModelParams(0.5, 1.0, 0.9, 4.0), x=x, x_tag=x_tag, mode=mode, reps=300, seed=8
        )
        for start in [(1, 1), (2, 3)]:
            got = simulate_tagged(config, start).estimates
            want = simulate_tagged_oracle(config, start).estimates
            assert got == want

    def test_outgrowing_the_chain_raises(self, monkeypatch):
        # Understate the depth so that joins can outgrow the table.
        monkeypatch.setattr(simulate, "chain_depth", lambda th, reneging: th.n)
        cfg = SimConfig(params=ModelParams(1.0, 0.8, 0.8), x=2.5, reps=1_000, seed=3)
        with pytest.raises(RuntimeError, match="exceeded its reachable depth"):
            simulate_tagged(cfg, (1, 1))
