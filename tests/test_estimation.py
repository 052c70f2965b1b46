"""Transmittance/noise estimators: exact moments, bias corrections,
worst-case channel bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fading_cvqkd import (
    AggregateStats,
    Empirical,
    Estimates,
    InsufficientDataError,
    NumericalError,
    ParameterError,
    ProtocolParams,
    Run,
    TruncatedNormal,
    Uniform,
    aggregate,
    estimate_flags,
    estimate_run,
    noise_variance,
    simulate_run,
    worst_case,
    worst_case_rectangular,
)
from fading_cvqkd.channel import _draw
from fading_cvqkd.estimation import _estimates

V_DEFAULT = 10.0


def _predicted_var(T, V, vN, k):
    return (2.0 * T + vN / V) / k


def _simulate_estimates(T, k, V, n_pkg, seed, epsilon=0.01):
    """sqrtT_hat draws from full package simulation."""
    p = ProtocolParams(V=V, epsilon=epsilon)
    rng = np.random.default_rng(seed)
    out = np.empty(n_pkg)
    for i in range(n_pkg):
        M, B = _draw(rng, T, k, p)
        out[i] = _estimates(M[None], B[None], V, k).sqrtT_hat[0]
    return out


def _chisq_oracle(T, k, V, vN, n_draw, seed):
    """Independent sampler of the exact estimator law.

    Conditioned on S = sum M_j^2 ~ V chi2_k, the estimator is Gaussian
    with mean sqrt(T) S/(kV) and variance vN S/(kV)^2; no package
    simulation involved.
    """
    rng = np.random.default_rng(seed)
    S = V * rng.chisquare(k, n_draw)
    z = rng.standard_normal(n_draw)
    return (math.sqrt(T) * S + np.sqrt(vN * S) * z) / (k * V)


def test_sqrt_estimator_is_unbiased_and_matches_oracle():
    """Mean and variance of sqrtT_hat agree between the full simulation
    and the conditional chi-square representation."""
    T, k, V = 0.62, 400, 8.0
    vN = noise_variance(T, ProtocolParams(V=V, epsilon=0.01))
    sim = _simulate_estimates(T, k, V, 4000, seed=41)
    orc = _chisq_oracle(T, k, V, vN, 200_000, seed=42)
    se_mean = np.std(sim, ddof=1) / math.sqrt(sim.size)
    assert abs(np.mean(sim) - math.sqrt(T)) < 5.0 * se_mean
    assert abs(np.mean(orc) - math.sqrt(T)) < 5.0 * np.std(orc) / math.sqrt(orc.size)
    var_pred = _predicted_var(T, V, vN, k)
    assert np.var(sim, ddof=1) == pytest.approx(var_pred, rel=0.08)
    assert np.var(orc, ddof=1) == pytest.approx(var_pred, rel=0.02)


@pytest.mark.parametrize("k", [100, 1000, 10_000], ids=["k1e2", "k1e3", "k1e4"])
@pytest.mark.parametrize("T", [0.1, 0.5, 0.9], ids=["T01", "T05", "T09"])
def test_variance_law_grid(T, k):
    """Empirical Var(sqrtT_hat) within 10% of (2T + V_N/V)/k."""
    n_pkg = 2500 if k <= 1000 else 600
    vals = _simulate_estimates(T, k, V_DEFAULT, n_pkg, seed=100 * k + int(10 * T))
    vN = noise_variance(T, ProtocolParams(V=V_DEFAULT, epsilon=0.01))
    assert np.var(vals, ddof=1) == pytest.approx(
        _predicted_var(T, V_DEFAULT, vN, k), rel=0.10)


def _constant_run(T, k, m, p, seed):
    """m packages at transmittance T, each with k disclosed states of
    2k (p.r = 0.5)."""
    return simulate_run(Empirical([T]), 2 * k, m, replace(p, r=0.5), seed=seed)


def test_T_hat_is_the_square_with_its_sigma():
    p = ProtocolParams(V=6.0)
    est = estimate_run(_constant_run(0.7, 500, 4, p, seed=9))
    u, su = est.sqrtT_hat, est.sigma_sqrtT
    assert np.array_equal(est.T_hat, u * u)
    np.testing.assert_allclose(est.sigma_T, np.sqrt(4.0 * est.T_hat * su**2 + 2.0 * su**4),
                               rtol=1e-15)
    assert (est.sigma_T > 0.0).all()


def test_T_variance_prediction():
    """Var(T_hat) ~ 4 T Var(sqrtT_hat) at moderate T, within 10%."""
    est = estimate_run(_constant_run(0.8, 1000, 2000, ProtocolParams(V=V_DEFAULT), seed=77))
    assert np.var(est.T_hat, ddof=1) == pytest.approx(float(np.mean(est.sigma_T**2)),
                                                      rel=0.10)


def test_sigma_T_positive_at_zero_transmittance():
    est = estimate_run(_constant_run(0.0, 2000, 2, ProtocolParams(), seed=3))
    assert (est.sigma_T > 0.0).all()  # second-order term keeps the dark-channel sigma alive


def test_noise_estimator_bias_law():
    """E[vN_hat] = V_N + 2 T V/(k-1): the fixed-denominator slope soaks
    up part of the noise; the pooled aggregate subtracts it back."""
    T, k, V = 0.5, 100, V_DEFAULT
    p = ProtocolParams(V=V, epsilon=0.01)
    vns = estimate_run(_constant_run(T, k, 4000, p, seed=15)).vN_hat
    vn_mean = float(np.mean(vns))
    se = float(np.std(vns, ddof=1)) / math.sqrt(len(vns))
    expected = noise_variance(T, p) + 2.0 * T * V / (k - 1)
    assert abs(vn_mean - expected) < 5.0 * se
    # the uncorrected mean must NOT match the bare V_N: the bias is real
    assert vn_mean - noise_variance(T, p) > 10.0 * se


def test_noise_mismatch_flag():
    """estimate_flags counts a package whose eps_hat = vN_hat - 1 +
    T_hat (1 - V_S) lies more than 4 residual-variance standard errors
    below 0: noiseless data (eps_hat near -1) is flagged, data simulated
    by the model is not."""
    p = ProtocolParams(V=4.0, V_S=0.6)
    run = _constant_run(0.4, 300, 5, p, seed=21)
    assert estimate_flags(estimate_run(run), run.protocol) == \
        {"sign_anomalies": 0, "noise_mismatch": 0}
    B = run.B.copy()
    B[2] = 0.5 * run.M[2]
    noiseless = estimate_run(replace(run, B=B))
    assert estimate_flags(noiseless, run.protocol) == \
        {"sign_anomalies": 0, "noise_mismatch": 1}


def test_estimate_run_uses_disclosed_prefix():
    p = ProtocolParams(V=5.0, r=0.2)
    run = simulate_run(Uniform(0.3, 0.8), 1000, 3, p, seed=8)
    est = estimate_run(run)
    assert est.k == 200
    for i, (M, B) in enumerate(zip(run.M, run.B)):
        alone = _estimates(M[None, :200], B[None, :200], p.V, 200)
        u, su = float(alone.sqrtT_hat[0]), float(alone.sigma_sqrtT[0])
        assert est.sqrtT_hat[i] == u and est.sigma_sqrtT[i] == su
        assert est.T_hat[i] == u * u
    assert not est.sign_anomaly.any()


def test_sign_anomaly_flag():
    rng = np.random.default_rng(5)
    M = rng.normal(0.0, math.sqrt(10.0), 300)
    B = -0.3 * M + rng.normal(0.0, 1.0, 300)
    assert _estimates(M[None], B[None], 10.0, 300).sqrtT_hat[0] < 0.0
    est = estimate_run(simulate_run(Uniform(0.0, 1e-9), 300, 20,
                                    ProtocolParams(r=0.999), seed=2))
    assert np.array_equal(est.sign_anomaly, est.sqrtT_hat < 0.0)
    assert 0 < np.count_nonzero(est.sign_anomaly) < 20


def test_estimate_run_maps_packages():
    """Row i of estimate_run is package i estimated alone, and est[rows]
    selects rows by index array or mask."""
    run = simulate_run(Uniform(0.3, 0.8), 100, 12, ProtocolParams(), seed=6)
    ests = estimate_run(run)
    assert len(ests) == 12
    alone = estimate_run(Run(M=run.M[3:4], B=run.B[3:4], true_T=run.true_T[3:4],
                             dist=run.dist, protocol=run.protocol, seed=0))
    picked = ests[np.array([3])]
    masked = ests[np.arange(12) == 3]
    for name in Estimates.columns:
        assert getattr(picked, name) == getattr(alone, name) == getattr(masked, name)
    assert picked.k == alone.k == ests.k


def test_estimates_refuse_bad_columns():
    """Estimates are finite columns of one length from k >= 2 states, so
    no consumer can receive a NaN or a ragged table."""
    cols = dict(sqrtT_hat=[0.5, 0.6], T_hat=[0.25, 0.36], sigma_sqrtT=[0.01, 0.01],
                sigma_T=[0.01, 0.01], vN_hat=[1.0, 1.0])
    for name in Estimates.columns:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match=f"column {name} holds a non-finite"):
                Estimates(**{**cols, name: [0.5, bad]}, k=100)
    with pytest.raises(ParameterError, match="one length"):
        Estimates(**{**cols, "vN_hat": [1.0]}, k=100)
    with pytest.raises(ParameterError, match="1-d"):
        Estimates(**{**cols, "T_hat": [[0.25, 0.36]]}, k=100)
    with pytest.raises(InsufficientDataError, match="k >= 2"):
        Estimates(**cols, k=1)


def test_aggregate_zero_noise_synthetic():
    """With exact per-package values (sigma = 0), X1 is the sample
    variance of sqrt(T) and a constant channel gives X1 = 0, X2 = 2T."""
    p = ProtocolParams()
    T = 0.64
    zeros = np.zeros(50)
    const = Estimates(np.full(50, math.sqrt(T)), np.full(50, T), zeros, zeros, zeros, 100)
    stats = aggregate(const, p)
    assert stats.X1_hat == pytest.approx(0.0, abs=1e-15)
    assert stats.X2_hat == pytest.approx(2.0 * T, abs=1e-12)
    rng = np.random.default_rng(30)
    u = rng.uniform(0.4, 0.9, 200)
    zeros = np.zeros(200)
    stats = aggregate(Estimates(u, u * u, zeros, zeros, zeros, 100), p)
    assert stats.X1_hat == pytest.approx(float(np.var(u, ddof=1)), rel=1e-10)
    expect_X2 = float(np.mean(u**2) + np.mean(u) ** 2 - np.var(u, ddof=1) / 200)
    assert stats.X2_hat == pytest.approx(expect_X2, rel=1e-10)


def test_aggregate_centering_on_fading_run():
    """Bias-corrected X1/X2 center on Var(sqrtT) and <T> + <sqrtT>^2."""
    dist = TruncatedNormal(0.5, 0.1)
    mo = dist.moments()
    run = simulate_run(dist, 1000, 3000, ProtocolParams(), seed=97)
    stats = aggregate(estimate_run(run), run.protocol)
    assert abs(stats.X1_hat - mo.var_sqrtT) < 5.0 * stats.se_X1
    X2_true = mo.mean_T + mo.mean_sqrtT**2
    assert abs(stats.X2_hat - X2_true) < 5.0 * stats.se_X2
    assert abs(stats.mean_sqrtT_hat - mo.mean_sqrtT) < 5.0 * stats.se_mean_sqrtT


def test_pooled_noise_bias_removed():
    T, k = 0.5, 100
    p = ProtocolParams(V=V_DEFAULT, epsilon=0.01, r=0.1)
    run = simulate_run(Uniform(T - 1e-9, T + 1e-9), 1000, 2000, p, seed=55)
    stats = aggregate(estimate_run(run), p)
    vN_true = noise_variance(T, p)
    per_pkg_sd = math.sqrt(2.0 / (k - 1)) * vN_true
    se = per_pkg_sd / math.sqrt(2000)
    assert abs(stats.vN_pooled - vN_true) < 6.0 * se
    assert abs(stats.eps_hat - p.epsilon) < 6.0 * se
    # the raw per-package average sits 2 T V/(k-1) higher
    raw = float(np.mean(estimate_run(run).vN_hat))
    assert raw - vN_true > 10.0 * se


def test_worst_case_closed_form_at_zero_se():
    """With no sampling uncertainty the bounds collapse onto the exact
    fluctuation statistics: T_eff = <sqrtT>^2, eps_eff = eps + X1 V'."""
    p = ProtocolParams(V=5.0)
    mean_T, mean_sqrt = 0.5, 0.69
    X1 = mean_T - mean_sqrt**2
    X2 = mean_T + mean_sqrt**2
    stats = AggregateStats(
        mean_sqrtT_hat=mean_sqrt, mean_T_hat=mean_T, X1_hat=X1, X2_hat=X2,
        se_X1=0.0, se_X2=0.0, m_used=1000, se_mean_sqrtT=0.0, se_mean_T=0.0,
        eps_hat=0.01, vN_pooled=0.0, k_total=1e12)
    wc = worst_case(stats, p)
    assert wc.T_eff_low == pytest.approx(mean_sqrt**2, abs=1e-12)
    assert wc.eps_eff_up == pytest.approx(0.01 + X1 * p.V_prime, abs=1e-12)
    assert not wc.unusable
    rect = worst_case_rectangular(stats, p)
    assert rect.T_eff_low == pytest.approx(wc.T_eff_low, abs=1e-12)


def test_worst_case_is_conservative():
    """The bounds cover the true effective channel in almost all runs."""
    dist = TruncatedNormal(0.5, 0.1)
    mo = dist.moments()
    p = ProtocolParams()
    T_eff = mo.mean_sqrtT**2
    eps_eff = p.epsilon + mo.var_sqrtT * p.V_prime
    hits = 0
    reps = 120
    for rep in range(reps):
        run = simulate_run(dist, 500, 200, p, seed=10_000 + rep)
        stats = aggregate(estimate_run(run), p)
        wc = worst_case(stats, p)
        hits += (wc.T_eff_low <= T_eff) and (wc.eps_eff_up >= eps_eff)
    assert hits / reps >= 0.90


def test_joint_bound_tighter_than_rectangular():
    dist = TruncatedNormal(0.5, 0.1)
    p = ProtocolParams()
    run = simulate_run(dist, 1000, 300, p, seed=123)
    stats = aggregate(estimate_run(run), p)
    wc = worst_case(stats, p)
    rect = worst_case_rectangular(stats, p)
    width_joint = wc.X1_up - stats.X1_hat
    width_rect = rect.X1_up - stats.X1_hat
    assert width_rect > 3.0 * width_joint
    assert wc.T_eff_low >= rect.T_eff_low
    # conservatism ordering holds up to the quadratic remainder
    slack = (1.0 + p.z_conf**2) * stats.se_mean_sqrtT**2
    assert rect.X1_up - wc.X1_up >= -slack


def test_unusable_flag_on_crossed_bounds():
    p = ProtocolParams()
    stats = AggregateStats(
        mean_sqrtT_hat=0.05, mean_T_hat=0.01, X1_hat=0.0075, X2_hat=0.0125,
        se_X1=0.05, se_X2=0.05, m_used=10, se_mean_sqrtT=0.05, se_mean_T=0.05,
        eps_hat=0.01, vN_pooled=1.0, k_total=1000.0)
    wc = worst_case(stats, p)
    assert wc.unusable
    assert wc.T_eff_low == 0.0


def test_estimate_run_is_bit_equal_to_the_per_package_formula():
    """The vectorized pass over the disclosed prefix reproduces the
    1-d per-package sums bit for bit, and so does the tail, whose
    squares are correctly rounded products (not libm pow)."""
    p = ProtocolParams(V=5.0, r=0.5)
    run = simulate_run(Uniform(0.0, 1.0), 40, 500, p, seed=31)
    ests = estimate_run(run)
    k = 20
    assert ests.k == k
    for i, (M, B) in enumerate(zip(run.M[:, :k], run.B[:, :k])):
        u = float(np.sum(M * B) / (p.V * k))
        vN = float(np.sum((B - u * M)**2) / (k - 1))
        v_u = max((2.0 * (u * u) + max(vN, 0.0) / p.V) / k, 1e-30)
        assert (ests.sqrtT_hat[i], ests.T_hat[i], ests.vN_hat[i]) == (u, u * u, vN)
        assert ests.sigma_sqrtT[i] == math.sqrt(v_u)
        assert ests.sigma_T[i] == math.sqrt(4.0 * (u * u) * v_u + 2.0 * (v_u * v_u))


@pytest.mark.parametrize("field", ["eps_hat", "vN_pooled"])
@pytest.mark.parametrize("bound", [worst_case, worst_case_rectangular])
def test_worst_case_refuses_nan_noise_statistics(field, bound):
    """A NaN noise statistic raises instead of clamping into a
    plausible (optimistic) noise bound."""
    fields = dict(mean_sqrtT_hat=0.7, mean_T_hat=0.5, X1_hat=0.01,
                  X2_hat=0.99, se_X1=0.001, se_X2=0.001, m_used=1000,
                  se_mean_sqrtT=0.001, se_mean_T=0.001, eps_hat=0.01,
                  vN_pooled=1.0, k_total=1e5)
    fields[field] = math.nan
    with pytest.raises(NumericalError, match="NaN"):
        bound(AggregateStats(**fields), ProtocolParams())


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("field", ["eps_hat", "vN_pooled"])
def test_worst_case_refuses_infinite_noise_statistics(field, value):
    """-inf would otherwise clamp the noise bound to a plausible 0."""
    fields = dict(mean_sqrtT_hat=0.7, mean_T_hat=0.5, X1_hat=0.01,
                  X2_hat=0.99, se_X1=0.001, se_X2=0.001, m_used=1000,
                  eps_hat=0.01, vN_pooled=1.0, k_total=1e5)
    fields[field] = value
    with pytest.raises(NumericalError, match="infinite"):
        worst_case(AggregateStats(**fields), ProtocolParams())


def test_worst_case_refuses_nan_fluctuation_bounds():
    stats = AggregateStats(
        mean_sqrtT_hat=0.7, mean_T_hat=0.5, X1_hat=math.nan, X2_hat=0.99,
        se_X1=0.001, se_X2=0.001, m_used=1000, eps_hat=0.01,
        vN_pooled=1.0, k_total=1e5)
    with pytest.raises(NumericalError, match="X1_up"):
        worst_case(stats, ProtocolParams())


def test_estimation_validation_errors():
    with pytest.raises(InsufficientDataError):
        aggregate(Estimates([0.5], [0.25], [0.01], [0.01], [1.0], 100),
                  ProtocolParams())
    M, B = _draw(np.random.default_rng(1), 0.5, 100, ProtocolParams())
    run = Run(M=M[None], B=B[None], true_T=[0.5], dist=Uniform(0.4, 0.6),
              protocol=ProtocolParams(r=0.001), seed=1)
    with pytest.raises(InsufficientDataError):
        estimate_run(run)
