"""Release acceptance checklist.

Each test covers one numbered criterion end to end and prints a single
PASS/FAIL line with the measured numbers, so a bare ``pytest -s
tests/test_acceptance.py`` doubles as the sign-off record.  Tolerances
and runtime budgets are part of the criteria; every test asserts both.
"""

import math
import time

import numpy as np

from fading_cvqkd import (
    EffectiveChannel,
    Empirical,
    LogNegativeWeibull,
    ProtocolParams,
    TruncatedNormal,
    Uniform,
    aggregate,
    delta_fs,
    estimate_run,
    holevo_bound,
    key_rate,
    optimize,
    simulate_run,
    total_key_rate,
    worst_case,
    worst_case_rectangular,
)
from fading_cvqkd import elementwise as ew
from fading_cvqkd.channel import _draw
from fading_cvqkd.estimation import _estimates
from fading_cvqkd.security import _symplectic_pair

P = ProtocolParams()

FOUR_DISTS = (
    ("uniform", Uniform(0.0, 1.0)),
    ("tnorm", TruncatedNormal(0.5, 0.1)),
    ("weib-wide", LogNegativeWeibull(1.25, 0.8)),
    ("weib-narrow", LogNegativeWeibull(1.47, 0.6)),
)


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")


def _pred_std_sqrtT(T: float, k: int, protocol: ProtocolParams) -> float:
    V_N = 1.0 + protocol.epsilon - T * (1.0 - protocol.V_S)
    return math.sqrt((2.0 * T + V_N / protocol.V) / k)


def _sqrtT_spread(T: float, k: int, m: int, protocol: ProtocolParams,
                  seed: int) -> tuple[float, float]:
    # The spread law is stated in the number of disclosed states k, so
    # estimate on exactly k simulated states rather than going through
    # the package bookkeeping that discloses only a prefix.
    rng = np.random.default_rng(seed)
    hats = np.empty(m)
    for i in range(m):
        M, B = _draw(rng, T, k, protocol)
        hats[i] = _estimates(M[None], B[None], protocol.V, k).sqrtT_hat[0]
    return float(np.std(hats, ddof=1)), _pred_std_sqrtT(T, k, protocol)


def test_criterion_1_sqrt_transmittance_spread_matches_prediction():
    t0 = time.monotonic()
    T = 0.8
    # At k = 10^3 the predicted spread is floored at sqrt(2T/k) ~ 0.04
    # whatever V is, so the literal package sizes run at that level and
    # the ~0.01-spread regime is exercised separately at k = 2*10^4,
    # where solving pred = 0.0096 for V is possible.
    emp_a, pred_a = _sqrtT_spread(T, 1000, 10_000, P, seed=11)
    k_b = 20_000
    target = 0.0096
    V_b = (1.0 + P.epsilon) / (target**2 * k_b - 2.0 * T)
    p_b = ProtocolParams(V=V_b)
    emp_b, pred_b = _sqrtT_spread(T, k_b, 3000, p_b, seed=12)
    elapsed = time.monotonic() - t0

    ok = (abs(emp_a / pred_a - 1.0) <= 0.10
          and abs(emp_b / pred_b - 1.0) <= 0.10
          and 0.009 <= pred_b <= 0.011
          and elapsed < 30.0)
    _verdict("criterion 1", ok,
             f"k=1e3: {emp_a:.5f} vs {pred_a:.5f}, "
             f"k=2e4: {emp_b:.5f} vs {pred_b:.5f}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_closed_form_fluctuation_moments():
    t0 = time.monotonic()
    vals = {name: dist.moments().var_sqrtT for name, dist in FOUR_DISTS}
    elapsed = time.monotonic() - t0

    ok = (abs(vals["uniform"] - 1.0 / 18.0) <= 1e-8
          and abs(vals["tnorm"] - 0.0052) <= 2e-4
          and abs(vals["weib-wide"] - 0.018) <= 2e-3
          and abs(vals["weib-narrow"] - 0.0047) <= 5e-4
          and elapsed < 5.0)
    _verdict("criterion 2", ok,
             "Var(sqrtT) = " + ", ".join(f"{k} {v:.5f}" for k, v in vals.items())
             + f", {elapsed:.1f}s")
    assert ok


def test_criterion_3_pooled_covariance_matches_effective_channel():
    t0 = time.monotonic()
    worst_pull = 0.0
    for i, (name, dist) in enumerate(FOUR_DISTS):
        run = simulate_run(dist, 1000, 1000, P, seed=600 + i)
        mom = dist.moments()
        T_eff = mom.mean_sqrtT**2
        eps_eff = P.epsilon + mom.var_sqrtT * P.V_prime
        preds = np.array([P.V,
                          math.sqrt(T_eff) * P.V,
                          T_eff * P.V_prime + 1.0 + eps_eff])
        # The T_i draws fluctuate package to package, so the standard
        # error of each pooled moment is the between-package spread of
        # the per-package moments, not the iid per-state formula.
        per = np.array([[np.mean(M**2), np.mean(M * B), np.mean(B**2)]
                        for M, B in zip(run.M, run.B)])
        est = per.mean(axis=0)
        se = per.std(axis=0, ddof=1) / math.sqrt(per.shape[0])
        worst_pull = max(worst_pull, float(np.max(np.abs((est - preds) / se))))
    elapsed = time.monotonic() - t0

    ok = worst_pull <= 4.0 and elapsed < 60.0
    _verdict("criterion 3",
             ok, f"worst moment pull {worst_pull:.2f} of 4 SE over "
                 f"{len(FOUR_DISTS)} distributions, {elapsed:.1f}s")
    assert ok


def test_criterion_4_joint_bound_beats_rectangular():
    t0 = time.monotonic()
    run = simulate_run(TruncatedNormal(0.5, 0.1), 1000, 1000, P, seed=701)
    stats = aggregate(estimate_run(run), P)
    joint = worst_case(stats, P).X1_up - stats.X1_hat
    rect = worst_case_rectangular(stats, P).X1_up - stats.X1_hat
    ratio = rect / joint
    elapsed = time.monotonic() - t0

    ok = P.z_conf == 2.0 and ratio >= 5.0 and elapsed < 60.0
    _verdict("criterion 4",
             ok, f"Var(sqrtT) bound margin ratio rect/joint = {ratio:.1f} "
                 f"(need >= 5) at z = {P.z_conf}, {elapsed:.1f}s")
    assert ok


def test_criterion_5_clusterization_gain_and_ordering():
    t0 = time.monotonic()
    ladder = [optimize(Uniform(0.0, 1.0), C, 1000, 1000, P).plan.total_rate
              for C in range(4)]
    c0 = {name: optimize(dist, 0, 1000, 1000, P).plan.total_rate
          for name, dist in FOUR_DISTS}
    c0["uniform"] = ladder[0]
    # Stronger fading (larger Var(sqrtT)) must not give a larger pooled rate.
    order = sorted(FOUR_DISTS, key=lambda nd: -nd[1].moments().var_sqrtT)
    by_strength = [c0[name] for name, _ in order]
    elapsed = time.monotonic() - t0

    ok = (ladder[1] > ladder[0]
          and ladder[2] >= 1.5 * ladder[0]
          and all(b >= a - 1e-12 for a, b in zip(ladder, ladder[1:]))
          and all(b >= a - 1e-12 for a, b in zip(by_strength, by_strength[1:]))
          and c0["uniform"] <= min(c0.values()) + 1e-12
          and elapsed < 600.0)
    _verdict("criterion 5",
             ok, "uniform C=0..3 rates " + ", ".join(f"{r:.4f}" for r in ladder)
                 + "; C=0 by falling Var(sqrtT) "
                 + ", ".join(f"{r:.4f}" for r in by_strength)
                 + f", {elapsed:.0f}s")
    assert ok


def test_criterion_6_finite_size_convergence():
    t0 = time.monotonic()
    p6 = ProtocolParams(V=10.0, r=0.01, epsilon=0.001)
    ch = EffectiveChannel(0.95, 0.001)
    Ns = [int(round(N)) for N in np.geomspace(1e4, 1e8, 13)]
    Ks = [key_rate(ch, N, p6).K for N in Ns]
    K_inf = key_rate(ch, None, p6).K_inf
    K7 = Ks[Ns.index(10**7)]
    halves_exact = all(delta_fs(4 * n, p6) == delta_fs(n, p6) / 2.0
                       for n in (8, 10, 1234, 10**6, 282475249))
    elapsed = time.monotonic() - t0

    ok = (all(b >= a for a, b in zip(Ks, Ks[1:]))
          and abs(K7 - K_inf) <= 0.05 * K_inf
          and halves_exact
          and elapsed < 300.0)
    _verdict("criterion 6",
             ok, f"K non-decreasing over N = 1e4..1e8, K(1e7)/K_inf = "
                 f"{K7 / K_inf:.4f}, delta(4n) == delta(n)/2 exactly: "
                 f"{halves_exact}, {elapsed:.1f}s")
    assert ok


def test_criterion_7_optimal_disclosure_shrinks_with_block_size():
    t0 = time.monotonic()
    dist = TruncatedNormal(0.5, 0.1)
    ms = (400, 630, 1000, 1585, 2512)
    rs = [optimize(dist, 0, 1000, m, P).protocol.r for m in ms]
    # One refined grid step is a factor ~1.11 in r, so count as a
    # violation only an increase beyond that, and allow one.
    violations = sum(b > a * 1.12 for a, b in zip(rs, rs[1:]))
    r_mid = rs[ms.index(1000)]
    elapsed = time.monotonic() - t0

    ok = violations <= 1 and 0.1 <= r_mid <= 0.5 and elapsed < 600.0
    _verdict("criterion 7",
             ok, "optimal r over m = " + ", ".join(f"{r:.3f}" for r in rs)
                 + f"; {violations} upward steps, r(N=1e6) = {r_mid:.3f}, "
                 f"{elapsed:.0f}s")
    assert ok


def test_criterion_8_security_bound_sanity():
    t0 = time.monotonic()
    leak_clean = holevo_bound(EffectiveChannel(1.0, 0.0), P)
    Ts = np.linspace(0.05, 1.0, 20)
    eps = np.linspace(0.0, 0.05, 20)
    K = np.array([[key_rate(EffectiveChannel(t, e), None, P).K_inf for t in Ts]
                  for e in eps])
    mono_T = bool(np.all(np.diff(K, axis=1) >= -1e-12))
    mono_e = bool(np.all(np.diff(K, axis=0) <= 1e-12))
    V_A = P.V_prime + 1.0
    min_nu = math.inf
    for t in Ts:
        for e in eps:
            V_B = t * (V_A - 1.0) + 1.0 + e
            c = math.sqrt(t * (V_A**2 - 1.0))
            nu_p, nu_m = _symplectic_pair(V_A, V_B, c, ew.SCALAR)
            nu_c = math.sqrt(V_A * (V_A - c * c / V_B))
            min_nu = min(min_nu, nu_p, nu_m, nu_c)
    elapsed = time.monotonic() - t0

    ok = (leak_clean <= 1e-9
          and mono_T and mono_e
          and min_nu >= 1.0 - 1e-9
          and elapsed < 30.0)
    _verdict("criterion 8",
             ok, f"S(B:E) at T=1, eps=0 is {leak_clean:.2e}; K_inf monotone "
                 f"on 20x20 grid: {mono_T and mono_e}; min symplectic "
                 f"eigenvalue {min_nu:.12f}, {elapsed:.1f}s")
    assert ok


def test_criterion_9_cluster_selection_bias():
    t0 = time.monotonic()
    # Left-skewed law whose support just clears the cluster floor, so
    # the [0.78, 0.82) cluster is populated mostly by packages that
    # fluctuated upward: T = 0.80 - 0.34 X with X ~ Beta(2, 5).
    rng = np.random.default_rng(909)
    trace = 0.80 - 0.34 * rng.beta(2.0, 5.0, size=4000)
    emp = Empirical(trace)
    k = 5000
    interval = (0.78, 0.82)
    m = 2500
    # the plan's cluster at n = k / r = 50,000 states per package
    quad = total_key_rate(emp, interval, 50_000, m, P).per_cluster[0].cond_moments.mean_T

    true_T = emp.sample(911, m)
    pkg_rng = np.random.default_rng(910)
    T_hat = np.empty(m)
    for i in range(m):
        M, B = _draw(pkg_rng, float(true_T[i]), k, P)
        T_hat[i] = float(_estimates(M[None], B[None], P.V, k).sqrtT_hat[0]) ** 2
    sel = (T_hat >= interval[0]) & (T_hat < interval[1])
    n_sel = int(np.count_nonzero(sel))
    mc = float(np.mean(true_T[sel]))
    se_mc = float(np.std(true_T[sel], ddof=1)) / math.sqrt(n_sel)
    hat_mean = float(np.mean(T_hat[sel]))
    elapsed = time.monotonic() - t0

    ok = (quad < 0.78
          and mc < 0.78
          and abs(quad - mc) <= 4.0 * se_mc
          and abs(hat_mean - 0.80) <= 0.01
          and n_sel >= 30
          and elapsed < 60.0)
    _verdict("criterion 9",
             ok, f"conditional <T> = {quad:.4f} (quadrature) vs {mc:.4f} "
                 f"(MC, {n_sel} packages, {abs(quad - mc) / se_mc:.1f} SE) "
                 f"with <T_hat> = {hat_mean:.3f}, {elapsed:.1f}s")
    assert ok
