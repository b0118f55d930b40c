"""Acceptance suite: one test per criterion, one printed line per criterion.

Criteria 1 and 2 check the published three-decimal reference values at the
stated 5e-4 tolerance.  A published value stands unless the independent
oracle in chain_oracle.py refutes it (puts it more than 5e-4 away); a
refuted value is replaced by its erratum, and each criterion also checks
that its errata are exactly the values the oracle refutes.  See README.
"""

import time

import numpy as np
import pytest

from feedbackq import (
    ModelParams,
    SimConfig,
    build_chain,
    build_rhs_payoff,
    build_rhs_sojourn,
    critical_values,
    equilibrium_payoffs_r,
    nash_n,
    nash_r,
    paradox1_check,
    paradox2_check,
    payoff_vector_n,
    payoff_vector_r_all,
    payoff_vector_r_tagged,
    renege_probability,
    simulate_renege_fraction,
    simulate_stationary,
    simulate_tagged,
    socially_optimal_threshold,
    sojourn_vector,
    solve_structured,
    stationary_threshold,
    welfare_n,
    welfare_r,
)
from feedbackq.paradox import BAND_PROVED

from chain_oracle import oracle_root, oracle_table
from conftest import ERRATA, REPORTED_CASES, case_key, params_of
from dense_oracle import assemble_full, solve_dense
from welfare_oracle import _grid_argmax


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)


def test_criterion_1_reference_table_regression():
    tol = 5e-4
    failures = []
    slowest = 0.0
    refuted = set()
    for case in REPORTED_CASES:
        params = params_of(case)
        start = time.perf_counter()
        res_n = nash_n(params)
        res_r = nash_r(params)
        z = payoff_vector_n(params, res_n.x)
        z_hat = equilibrium_payoffs_r(params, res_r)
        pi = stationary_threshold(params, res_n.x, "n").probs
        pi_hat = stationary_threshold(params, res_r.x, "r").probs
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        computed = {
            "x_e": res_n.x,
            "x_hat_e": res_r.x,
            "z11": z.at(1, 1),
            "zh11": z_hat.at(1, 1),
            "z22": z.at(2, 2),
            "zh22": z_hat.at(2, 2),
            "pi0": pi[0],
            "pih0": pi_hat[0],
            "pi1": pi[1],
            "pih1": pi_hat[1],
        }
        where = case_key(case)
        errata = ERRATA.get(where, {})
        oracle = oracle_table(case)
        for key, value in computed.items():
            if abs(case[key] - oracle[key]) > tol:
                refuted.add((where, key))
            expected = case[key]
            if key in errata:
                published, expected = errata[key]
                if published != case[key] or abs(expected - oracle[key]) > 5e-7:
                    failures.append(
                        f"{where} {key}: erratum {errata[key]} does not pair published "
                        f"{case[key]:.3f} with oracle {oracle[key]:.6f}"
                    )
            if abs(value - expected) > tol:
                failures.append(
                    f"{where} {key}: computed {value:.6f} vs expected {expected:.6f} "
                    f"(|diff| {abs(value - expected):.2e})"
                )
    listed = {(key, entry) for key, entries in ERRATA.items() for entry in entries}
    ok = not failures and listed == refuted and slowest < 1.0
    report(1, "reference-table regression at 5e-4", ok,
           f"{len(failures)} of 30 entries mismatch; {len(refuted)} published entries "
           f"refuted by the oracle, {len(listed)} errata listed; slowest column {slowest:.2f}s")
    assert slowest < 1.0, f"per-column runtime {slowest:.2f}s exceeds 1s"
    assert listed == refuted, (
        f"errata not refuted by the oracle: {sorted(listed - refuted)}; "
        f"refuted entries missing from the errata: {sorted(refuted - listed)}"
    )
    assert not failures, "reference-table mismatches:\n  " + "\n  ".join(failures)


def test_criterion_2_pure_and_mixed_pair_example():
    params = ModelParams(1.0, 0.8, 0.4, 7.5)
    res_n = nash_n(params)
    res_r = nash_r(params)
    z = payoff_vector_n(params, res_n.x)
    z_hat = equilibrium_payoffs_r(params, res_r)
    orderings = (
        res_n.case == "pure"
        and res_n.x == 2.0
        and z.at(1, 1) > z.at(2, 2) > 0.0 > z.at(3, 3)
        and z_hat.at(1, 1) > z_hat.at(2, 2) > z_hat.at(3, 3) == pytest.approx(0.0, abs=1e-9)
    )
    # erratum of the published reneging root: (published, corrected)
    published, corrected = 2.167, 2.176
    oracle = oracle_root(params.lam, params.mu, params.q, params.r0, "r_tagged")
    erratum_confirmed = abs(oracle - corrected) <= 5e-4 < abs(oracle - published)
    root_matches_pinned = abs(res_r.x - corrected) <= 5e-4
    report(2, "pure/mixed equilibrium pair example",
           orderings and erratum_confirmed and root_matches_pinned,
           f"x_e={res_n.x:g} ok, orderings {'ok' if orderings else 'BROKEN'}, "
           f"x_hat_e={res_r.x:.6f} vs pinned {corrected} "
           f"(published {published}, oracle {oracle:.6f})")
    assert orderings
    assert erratum_confirmed, (
        f"oracle root {oracle:.9f} does not confirm the erratum {published} -> {corrected}"
    )
    assert root_matches_pinned, f"computed x_hat_e={res_r.x:.9f} vs pinned {corrected}"


def test_criterion_3_low_threshold_closed_forms():
    worst = 0.0
    for lam, mu, q in [(0.4, 0.6, 0.7), (1.0, 0.8, 0.4), (0.8, 1.0, 0.2), (1.3, 0.9, 0.85)]:
        params = ModelParams(lam, mu, q)
        for x in (0.1, 0.5, 0.9):
            w = sojourn_vector(params, x)
            w11 = 1.0 / (mu * q)
            w22 = (3.0 - q) / (mu * q * (2.0 - q))
            worst = max(worst, abs(w.at(1, 1) - w11) / w11, abs(w.at(2, 2) - w22) / w22)
    ok = worst < 1e-10
    report(3, "flat-band closed forms at 1e-10 relative", ok, f"worst {worst:.2e}")
    assert ok


def test_criterion_4_always_join_limit():
    params = ModelParams(0.4, 0.6, 0.7)
    w = sojourn_vector(params, 50.0)
    worst = 0.0
    for j in range(1, 6):
        closed = (j + 1 - 0.7) / ((0.7 - 1) * 0.4 - (0.7 - 2) * 0.7 * 0.6)
        worst = max(worst, abs(w.at(j, j) - closed))
    ok = worst < 1e-3
    report(4, "always-join limit at depth 50", ok, f"worst {worst:.2e}")
    assert ok


def test_criterion_5_welfare_optimum():
    params = ModelParams(1.0, 0.8, 0.8, 18.0)
    n_star = socially_optimal_threshold(params)
    grid_star = _grid_argmax(params, 60)
    equal_at_integers = all(
        abs(welfare_n(params, float(k)) - welfare_r(params, float(k))) < 1e-9 for k in range(7)
    )
    n_above = all(welfare_n(params, x) > welfare_r(params, x) for x in (0.5, 1.5, 2.5))
    r_above = all(welfare_n(params, x) < welfare_r(params, x) for x in (3.5, 4.5, 5.5))
    ok = n_star == 3 and grid_star == 3 and equal_at_integers and n_above and r_above
    report(5, "welfare optimum and mode comparison", ok,
           f"n*={n_star}, grid argmax={grid_star}")
    assert ok


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(61)
    start = time.perf_counter()
    worst = 0.0
    for k in range(200):
        params = ModelParams(
            rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0), rng.uniform(0.1, 1.0),
            rng.uniform(0.0, 20.0),
        )
        x = rng.uniform(0.0, 12.0)
        variant = ("nonreneging", "reneging_tagged", "reneging_all")[k % 3]
        blocks = build_chain(params, x, variant)
        build_rhs = build_rhs_sojourn if k % 3 == 0 else build_rhs_payoff
        rhs = build_rhs(params, blocks.depth)
        structured = solve_structured(blocks, rhs)
        dense = solve_dense(assemble_full(blocks), rhs)
        scale = max(float(np.max(np.abs(dense))), 1e-30)
        worst = max(worst, float(np.max(np.abs(structured - dense))) / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    report(6, "structured-vs-dense oracle equivalence", ok,
           f"worst {worst:.2e}, {elapsed:.1f}s for 200 draws")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_7_monotonicity_suites():
    rng = np.random.default_rng(71)

    # positions: the diagonal rises strictly
    for _ in range(200):
        params = ModelParams(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0), rng.uniform(0.1, 1.0))
        diag = sojourn_vector(params, rng.uniform(0.0, 12.0)).diagonal()
        assert np.all(np.diff(diag) > 0.0)

    # thresholds: strictly longer sojourns once joiners can line up behind
    # the tagged customer (x1 >= 1); below one the chains coincide
    for _ in range(200):
        params = ModelParams(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0), rng.uniform(0.1, 1.0))
        x1 = rng.uniform(1.0, 11.0)
        x2 = rng.uniform(x1 + 1e-3, 12.0)
        w1 = sojourn_vector(params, x1).values
        w2 = sojourn_vector(params, x2).values
        assert np.all(w2[: len(w1)] > w1)
    flat_params = ModelParams(1.0, 0.8, 0.4)
    np.testing.assert_allclose(
        sojourn_vector(flat_params, 0.2).values,
        sojourn_vector(flat_params, 0.8).values,
        rtol=1e-13,
    )

    # reneging others never hurt a customer who stays: equality at integers,
    # strict dominance on fractional thresholds above one
    for _ in range(200):
        params = ModelParams(
            rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0), rng.uniform(0.1, 0.999),
            rng.uniform(0.0, 15.0),
        )
        if rng.random() < 0.3:
            m = int(rng.integers(1, 7))
            dh = payoff_vector_r_tagged(params, float(m)).diagonal()
            dn = payoff_vector_n(params, float(m)).diagonal()[: len(dh)]
            np.testing.assert_allclose(dh[:-1], dn[:-1], atol=1e-12)
        else:
            x = rng.uniform(1.001, 11.0)
            if abs(x - round(x)) < 1e-3:
                continue
            dh = payoff_vector_r_tagged(params, x).diagonal()
            dn = payoff_vector_n(params, x).diagonal()[: len(dh)]
            assert np.all(dh > dn)

    # the option to renege never lowers the equilibrium threshold
    for _ in range(200):
        mu = rng.uniform(0.2, 1.8)
        q = rng.uniform(0.15, 1.0)
        params = ModelParams(
            rng.uniform(0.2, 1.8), mu, q, rng.uniform(0.3, 6.0) / (mu * q)
        )
        assert nash_r(params).x >= nash_n(params).x - 1e-9

    report(7, "monotonicity suites (200 draws each)", True)


def test_criterion_8_simulation_concordance():
    rng = np.random.default_rng(81)
    start = time.perf_counter()
    checks = 0

    def draw_params(with_reward=False):
        mu = rng.uniform(0.3, 1.5)
        q = rng.uniform(0.25, 0.95)
        r0 = rng.uniform(2.0, 6.0) / (mu * q) if with_reward else 0.0
        return ModelParams(rng.uniform(0.3, 1.5), mu, q, r0)

    # four tagged sojourn configurations (no reneging)
    for _ in range(4):
        params = draw_params()
        x = rng.uniform(0.5, 4.0)
        blocks_depth = sojourn_vector(params, x).depth
        j = int(rng.integers(1, blocks_depth + 1))
        i = int(rng.integers(1, j + 1))
        cfg = SimConfig(params=params, x=x, mode="n", reps=100_000, seed=int(rng.integers(2**31)))
        est = simulate_tagged(cfg, (i, j)).estimates["sojourn"]
        target = sojourn_vector(params, x).at(i, j)
        assert abs(est.mean - target) <= 3.0 * est.se, (params, x, (i, j), est, target)
        checks += 1

    # two tagged payoff configurations (everyone may renege)
    for _ in range(2):
        params = draw_params(with_reward=True)
        x = rng.uniform(1.2, 3.8)
        if abs(x - round(x)) < 0.05:
            x += 0.07
        z_hat = payoff_vector_r_all(params, x)
        j = z_hat.depth
        cfg = SimConfig(params=params, x=x, mode="r", reps=100_000, seed=int(rng.integers(2**31)))
        est = simulate_tagged(cfg, (j, j)).estimates["payoff"]
        target = z_hat.at(j, j)
        assert abs(est.mean - target) <= 3.0 * est.se, (params, x, est, target)
        checks += 1

    # two stationary-law configurations
    for mode in ("n", "r"):
        params = draw_params()
        x = rng.uniform(1.5, 4.0)
        cfg = SimConfig(
            params=params, x=x, mode=mode, events=1_000_000, seed=int(rng.integers(2**31))
        )
        res = simulate_stationary(cfg)
        ana = stationary_threshold(params, x, mode).probs
        assert np.all(np.abs(res.histogram - ana) <= 3.0 * res.histogram_se + 1e-12)
        checks += 1

    # two abandonment-probability configurations
    for _ in range(2):
        params = draw_params()
        x = rng.uniform(1.2, 3.8)
        if abs(x - round(x)) < 0.05:
            x += 0.07
        cfg = SimConfig(
            params=params, x=x, mode="r", events=1_000_000, seed=int(rng.integers(2**31))
        )
        est = simulate_renege_fraction(cfg).estimates["renege_fraction"]
        target = renege_probability(params, x)
        assert abs(est.mean - target) <= 3.0 * est.se, (params, x, est, target)
        checks += 1

    # determinism under a fixed seed
    params = ModelParams(1.0, 0.8, 0.4, 7.8)
    cfg = SimConfig(params=params, x=2.073, reps=50_000, seed=12345)
    a = simulate_tagged(cfg, (2, 2)).estimates["payoff"]
    b = simulate_tagged(cfg, (2, 2)).estimates["payoff"]
    assert a == b

    elapsed = time.perf_counter() - start
    ok = checks == 10 and elapsed < 120.0
    report(8, "simulation concordance within 3 SE", ok,
           f"10 configurations, {elapsed:.0f}s")
    assert ok


def test_criterion_9_paradox_suites():
    rng = np.random.default_rng(91)

    # hard reward-increase checks on constructed mixed-band pairs
    for m in (1, 2):
        for _ in range(5):
            params = ModelParams(
                rng.uniform(0.2, 1.6), rng.uniform(0.2, 1.6), rng.uniform(0.15, 0.95)
            )
            cv = critical_values(params, m)
            nxt = critical_values(params, m + 1)
            r1 = cv.beta + 0.25 * (nxt.alpha - cv.beta)
            r2 = cv.beta + 0.75 * (nxt.alpha - cv.beta)
            rep = paradox1_check(params, r1, r2)
            assert rep.verdicts["payoff_at_m_decreases"], (params, m, r1, r2)

    # full inequality set on the three reference columns
    for r0, lam, mu, q in [(7.8, 1, 0.8, 0.4), (4.4, 1, 0.8, 0.8), (13.5, 0.8, 1, 0.2)]:
        rep = paradox2_check(ModelParams(lam, mu, q, r0))
        assert rep.all_hold, (r0, rep.verdicts)

    # hard reneging-option checks on draws landing in the proved band
    found = 0
    while found < 10:
        params = ModelParams(
            rng.uniform(0.2, 1.6), rng.uniform(0.2, 1.6), rng.uniform(0.15, 0.9)
        )
        m = int(rng.integers(1, 4))
        cv = critical_values(params, m)
        if cv.gamma >= cv.beta - 1e-9:
            continue
        r0 = cv.gamma + rng.uniform(0.05, 1.0) * (cv.beta - cv.gamma)
        rep = paradox2_check(params.with_r0(r0))
        assert rep.band == BAND_PROVED
        assert rep.all_hold, (params, r0, rep.verdicts)
        found += 1

    report(9, "paradox suites", True)


def test_criterion_10_desk_scale_curve_reproduction(capsys, tmp_path):
    # the figures' data reduce to CLI CSV output at desk scale
    from feedbackq.cli import main

    assert main([
        "sojourn", "--lambda", "0.4", "--mu", "0.6", "--q", "0.7", "--threshold", "10",
    ]) == 0
    sojourn_lines = capsys.readouterr().out.strip().split("\n")
    assert len(sojourn_lines) == 12  # header + the eleven joining positions

    assert main([
        "welfare", "--lambda", "1", "--mu", "0.8", "--q", "0.8", "--r0", "18",
        "--grid-step", "0.1", "--format", "csv",
    ]) == 0
    welfare_lines = capsys.readouterr().out.strip().split("\n")
    assert welfare_lines[0] == "x,S_N,S_R"
    assert len(welfare_lines) >= 80

    assert main([
        "equilibrium", "--lambda", "1", "--mu", "0.8", "--q", "0.4", "--r0", "7.5",
    ]) == 0
    capsys.readouterr()
    report(10, "desk-scale curve reproduction via the CLI", True)
