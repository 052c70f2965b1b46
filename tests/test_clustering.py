"""Estimate-axis clustering: conditional moments, plan evaluation,
empirical/analytic agreement, and the boundary optimizer."""

import itertools
import math
from dataclasses import fields, replace
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import ndtr
from scipy.stats import norm

from fading_cvqkd import clustering
from fading_cvqkd.channel import V_MAX, noise_variance
from fading_cvqkd import (
    ClusterTooSmallError,
    EffectiveChannel,
    Empirical,
    Estimates,
    InsufficientDataError,
    LogNegativeWeibull,
    NumericalError,
    ParameterError,
    ProtocolParams,
    TruncatedNormal,
    Uniform,
    WorstCaseChannel,
    aggregate,
    cluster_assign,
    estimate_run,
    key_rate,
    optimize,
    optimize_each,
    simulate_run,
    total_key_rate,
    total_key_rate_from_estimates,
    worst_case,
)

P = ProtocolParams()
UNI = Uniform(0.0, 1.0)
TN = TruncatedNormal(0.5, 0.1)

# conditional mean of Uniform(0,1) estimates landing in [0.4, 0.6] at
# k = 10^3; pinned from the quadrature oracle below
MEAN_UNIFORM_MID_K1000 = 0.5087707345


def _oracle_conditional_mean(dist, lo, hi, k, p):
    """Adaptive-quadrature route to E[s | T_hat in [lo, hi]]: weights
    f(s) by the Gaussian kernel mass with variance 4 s v_u + 2 v_u^2."""

    def weight(s):
        vN = 1.0 + p.epsilon - s * (1.0 - p.V_S)
        v_u = (2.0 * s + vN / p.V) / k
        sig = math.sqrt(4.0 * s * v_u + 2.0 * v_u**2)
        return float(dist.density(s)) * (
            norm.cdf((hi - s) / sig) - norm.cdf((lo - s) / sig))

    Z, _ = integrate.quad(weight, 0.0, 1.0, limit=200)
    M, _ = integrate.quad(lambda s: s * weight(s), 0.0, 1.0, limit=200)
    return M / Z


def _restricted_mean(dist, lo, hi):
    Z, _ = integrate.quad(lambda s: float(dist.density(s)), lo, hi)
    M, _ = integrate.quad(lambda s: s * float(dist.density(s)), lo, hi)
    return M / Z


def _cond_moments(dist, interval, k):
    """The plan's conditional moments of the true transmittance for
    packages whose estimate landed in the interval, k = r n disclosed
    states per package setting the estimator noise."""
    plan = total_key_rate(dist, interval, round(k / P.r), 1000, P)
    return plan.per_cluster[0].cond_moments


# ---- conditional moments -----------------------------------------------

@pytest.mark.parametrize(
    "dist, interval, k",
    [
        (UNI, (0.4, 0.6), 1000),
        (UNI, (0.4, 0.6), 10_000),
        (TN, (0.6, 0.7), 1000),
        (TN, (0.35, 0.45), 2000),
    ],
    ids=["uniform-k1e3", "uniform-k1e4", "tnorm-high", "tnorm-low"],
)
def test_conditional_mean_matches_quadrature_oracle(dist, interval, k):
    ref = _oracle_conditional_mean(dist, *interval, k, P)
    assert _cond_moments(dist, interval, k).mean_T == pytest.approx(ref, abs=1e-7)


def test_conditional_mean_uniform_anchor():
    # kernel width ~0.065 at k = 10^3 leaks mass in from both sides of
    # [0.4, 0.6]; sigma(s) grows with s, so the pull is upward
    mean = _cond_moments(UNI, (0.4, 0.6), 1000).mean_T
    assert mean == pytest.approx(MEAN_UNIFORM_MID_K1000, abs=1e-6)
    # ten times the disclosed states brings the mean within 0.005
    sharp = _cond_moments(UNI, (0.4, 0.6), 10_000).mean_T
    assert abs(sharp - 0.5) < 0.005
    assert abs(sharp - 0.5) < abs(mean - 0.5)


def test_sharp_kernel_limit_restores_restricted_density():
    # k -> inf collapses the kernel; the conditional law tends to f
    # restricted to the interval (the rule must resolve the kernel
    # width, hence 1600 nodes here where the search takes 160)
    def mean(dist, interval, k):
        s, fw = dist.expectation_rule(1600)
        rule = clustering._Rule(s, fw, clustering._powers(s))
        ev = clustering._Evaluator(rule, P, 1000, round(k / P.r))
        return ev.report(*interval).cond_moments.mean_T

    assert mean(TN, (0.6, 0.7), 10**6) == pytest.approx(_restricted_mean(TN, 0.6, 0.7), abs=5e-4)
    assert mean(UNI, (0.4, 0.6), 10**8) == pytest.approx(0.5, abs=1e-4)


def test_selection_bias_points_at_distribution_bulk():
    # bulk of TN(0.5, 0.1) sits below the interval [0.6, 0.7]: the
    # conditional mean lands between the bulk and the midpoint, below
    # the restricted-density mean
    mean = _cond_moments(TN, (0.6, 0.7), 1000).mean_T
    assert 0.5 < mean < 0.65
    assert mean < _restricted_mean(TN, 0.6, 0.7)


def test_symmetric_interval_bias_nearly_vanishes():
    # f symmetric about the midpoint cancels the leak-in to first
    # order; the residual comes only from sigma(s) growing across the
    # interval, so it is small and upward
    assert 0.0 < _cond_moments(UNI, (0.45, 0.55), 10_000).mean_T - 0.5 < 1.5e-3


def test_conditional_moments_are_consistent():
    """k = r n = 1000 disclosed states: the cluster's moments obey
    Jensen, and its worst case lies below them."""
    rep = total_key_rate(TN, (0.6, 0.7), 10_000, 1000, P).per_cluster[0]
    mom = rep.cond_moments
    assert mom.var_sqrtT == mom.mean_T - mom.mean_sqrtT**2 > 0.0
    assert mom.mean_sqrtT**2 <= mom.mean_T + 1e-15
    assert rep.wc.T_eff_low < mom.mean_T
    assert rep.wc.eps_eff_up > P.epsilon


# ---- estimate marginal -----------------------------------------------

def test_marginal_density_matches_simulated_estimates():
    """The kernel sums the quantile solve runs on: the CDF column of
    _cdf_pdf integrates its density, and both match simulated T_hat."""
    k, m, n = 500, 3000, 5000
    ev = clustering._Evaluator(clustering._rule(UNI, n, P), P, m, n)
    grid = np.linspace(-0.3, 1.3, 2001)
    G, dens = ev._cdf_pdf(grid)
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=2e-3)
    np.testing.assert_allclose(G[:, 0], integrate.cumulative_trapezoid(dens, grid, initial=0.0),
                               rtol=0.0, atol=2e-3)

    run = simulate_run(UNI, n, m, P, seed=4242)
    t_hat = estimate_run(run).T_hat
    x = np.array([0.3, 0.5, 0.7])
    for cdf_model, xi in zip(ev._cdf_pdf(x)[0][:, 0], x):
        cdf_mc = float(np.mean(t_hat <= xi))
        se = math.sqrt(cdf_mc * (1.0 - cdf_mc) / m)
        assert abs(cdf_model - cdf_mc) < 4.0 * se


# ---- one cluster of a plan ----------------------------------------------

def test_degenerate_intervals_carry_no_key():
    """An interval with no mass, or ~1% mass over 10 packages (0.1
    expected members), scores no moments, no channel and K_c = 0."""
    for edges, m in (((2.0, 3.0), 1000), ((0.5, 0.51), 10)):
        rep = total_key_rate(UNI, edges, 10_000, m, P).per_cluster[0]
        assert rep.cond_moments is None and rep.wc is None
        assert rep.N_c == 0 and rep.K_c == 0.0


def test_conditional_pdf_rejects_bad_intervals():
    """A cluster interval with lo >= hi is refused; one outside the
    support holds only a sliver of estimate mass, so its conditional law
    is never formed."""
    for edges in ((0.6, 0.4), (0.5, 0.5)):
        with pytest.raises(ParameterError, match="strictly increasing"):
            total_key_rate(UNI, edges, 1000, 1000, P)
    rep = total_key_rate(UNI, (2.0, 3.0), 1000, 1000, P).per_cluster[0]
    assert rep.mass < 1e-4 and rep.cond_moments is None and rep.N_c == 0


# ---- plan evaluation ---------------------------------------------------

def test_plan_mass_is_conserved_with_open_edges():
    for dist in (UNI, TN):
        plan = total_key_rate(dist, (-math.inf, 0.45, 0.55, math.inf),
                              500, 500, P)
        assert plan.kept_mass == pytest.approx(1.0, abs=1e-8)


def test_trimmed_tails_reduce_kept_mass_and_keep_cluster_rates():
    full = total_key_rate(TN, (-math.inf, 0.5, math.inf), 30_000, 1000, P)
    trim = total_key_rate(TN, (0.5, math.inf), 30_000, 1000, P)
    assert trim.kept_mass < 0.51
    # trimming does not disturb the kept cluster's own statistics
    assert trim.per_cluster[0].K_c == full.per_cluster[1].K_c
    assert trim.per_cluster[0].K_c > 0.0
    # total rate stays per transmitted state: trimmed mass dilutes it
    rep = trim.per_cluster[0]
    assert trim.total_rate == pytest.approx(rep.mass * rep.K_c, rel=1e-12)


def test_plan_edge_validation():
    with pytest.raises(ParameterError, match="strictly increasing"):
        total_key_rate(UNI, (0.6, 0.4), 500, 500, P)
    with pytest.raises(ParameterError):
        total_key_rate(UNI, (0.5,), 500, 500, P)


@pytest.mark.parametrize("edges", [(-math.inf, math.nan, math.inf), (math.nan, 0.5),
                                   (0.2, 0.5, math.nan)], ids=["inner", "lower", "upper"])
def test_nan_edge_fails_closed(edges):
    """A NaN edge compares false both ways, so it must not pass for an
    increasing edge or read as an open tail: Uniform(0, 1) with edges
    (-inf, nan, inf) once gave two clusters of mass 1.0 each."""
    _, ests, _ = _median_split_run(n=2000, m=300)
    with pytest.raises(ParameterError, match="strictly increasing"):
        total_key_rate(UNI, edges, 1000, 1000, replace(P, r=0.26, V=5.0))
    with pytest.raises(ParameterError, match="strictly increasing"):
        cluster_assign(ests, edges)
    with pytest.raises(ParameterError, match="strictly increasing"):
        total_key_rate_from_estimates(ests, edges, 2000, P)


def test_zero_fluctuation_plan_matches_fixed_channel_as_margins_vanish():
    # with no fading and the confidence factor sent to zero the plan
    # machinery collapses onto the plain fixed-channel rate
    T0 = 0.62
    point = Uniform(T0 - 1e-9, T0 + 1e-9)
    p0 = ProtocolParams(z_conf=1e-12)
    plan = total_key_rate(point, (-math.inf, math.inf), 1000, 1000, p0)
    clean = key_rate(EffectiveChannel(T=T0, eps=p0.epsilon), 10**6, p0).K
    assert plan.total_rate == pytest.approx(clean, rel=1e-9)
    # at the default confidence the bound machinery keeps a real
    # safety margin, so the plan rate must sit strictly below
    plan_z = total_key_rate(point, (-math.inf, math.inf), 1000, 1000, P)
    clean_z = key_rate(EffectiveChannel(T=T0, eps=P.epsilon), 10**6, P).K
    assert plan_z.total_rate < clean_z


# ---- empirical clustering ----------------------------------------------

def _median_split_run(seed=777, n=30_000, m=1000):
    run = simulate_run(TN, n, m, P, seed=seed)
    ests = estimate_run(run)
    med = float(np.median(ests.T_hat))
    return run, ests, (-math.inf, med, math.inf)


def test_cluster_assign_partitions_every_package():
    _, ests, edges = _median_split_run(n=2000, m=300)
    labels = cluster_assign(ests, edges)
    assert labels.shape == (len(ests),)
    assert np.array_equal(labels, (ests.T_hat >= edges[1]).astype(int))
    # finite outer edges trim
    trimmed = cluster_assign(ests, (edges[1], math.inf))
    assert np.array_equal(trimmed == -1, labels == 0)


def test_cluster_assign_puts_edge_value_in_upper_cluster():
    _, ests, _ = _median_split_run(n=2000, m=300)
    pivot = ests.T_hat[5]
    labels = cluster_assign(ests, (-math.inf, pivot, math.inf))
    assert labels[5] == 1
    # and the upper outer edge is open: a value on it is trimmed
    assert cluster_assign(ests, (-math.inf, pivot))[5] == -1


def test_nan_estimate_fails_closed():
    """searchsorted puts a NaN T_hat past the last edge, so 20 estimates
    with one NaN and edges (-inf, 0.5, inf) once gave groups of 9 and 10
    and a kept mass of 0.95, and aggregate all-NaN stats.  Estimates now
    refuses the NaN, and its columns are read-only, so aggregate,
    cluster_assign and total_key_rate_from_estimates only see finite data."""
    T = np.linspace(0.3, 0.7, 20)
    cols = dict(sqrtT_hat=np.sqrt(T), T_hat=T, sigma_sqrtT=np.full(20, 0.001),
                sigma_T=np.full(20, 0.001), vN_hat=np.full(20, 1.01))
    edges = (-math.inf, 0.5, math.inf)
    est = Estimates(**cols, k=300)
    plan = total_key_rate_from_estimates(est, edges, 1000, P)
    assert plan.kept_mass == 1.0
    assert np.bincount(cluster_assign(est, edges)).tolist() == [10, 10]
    assert aggregate(est, P).m_used == 20
    T[7] = math.nan
    with pytest.raises(ParameterError, match="non-finite value at package 7"):
        Estimates(**cols, k=300)
    with pytest.raises(ValueError, match="read-only"):
        est.T_hat[7] = math.nan


def test_empirical_plan_matches_hand_composition():
    _, ests, edges = _median_split_run(n=2000, m=300)
    plan = total_key_rate_from_estimates(ests, edges, 2000, P)
    labels = cluster_assign(ests, edges)
    total = 0.0
    for c, rep in enumerate(plan.per_cluster):
        members = ests[labels == c]
        stats = aggregate(members, P)
        wc = worst_case(stats, P)
        K = key_rate(wc, len(members) * 2000, P).K
        assert rep.wc.T_eff_low == wc.T_eff_low
        assert rep.wc.eps_eff_up == wc.eps_eff_up
        assert rep.K_c == K
        total += len(members) / len(ests) * K
    assert plan.total_rate == pytest.approx(total, rel=1e-12)


def test_empirical_plan_needs_one_usable_cluster():
    _, ests, _ = _median_split_run(n=2000, m=300)
    three = ests[np.argsort(ests.T_hat[:3])]
    a = (three.T_hat[0] + three.T_hat[1]) / 2.0
    b = (three.T_hat[1] + three.T_hat[2]) / 2.0
    with pytest.raises(ClusterTooSmallError):
        total_key_rate_from_estimates(three, (-math.inf, a, b, math.inf),
                                      2000, P)


def test_analytic_and_empirical_pipelines_agree_on_shared_run():
    # same packages walked through both routes: total_key_rate on the
    # Empirical law of the estimates vs per-cluster aggregation of the
    # estimates themselves.  The Empirical route convolves the kernel
    # over spread the sample already carries, an O(v_u) systematic, so
    # the tolerance is the combined 4-sigma band of both routes.
    n, m = 30_000, 1000
    _, ests, edges = _median_split_run(seed=777, n=n, m=m)
    emp = Empirical(np.clip(ests.T_hat, 0.0, 1.0))
    Vp = P.V + P.V_S - 1.0
    for plan_edges in (edges, (-math.inf, math.inf)):
        ana = total_key_rate(emp, plan_edges, n, m, P)
        mc = total_key_rate_from_estimates(ests, plan_edges, n, P)
        labels = cluster_assign(ests, plan_edges)
        assert abs(ana.kept_mass - mc.kept_mass) < 0.02
        for c, (ca, cb) in enumerate(zip(ana.per_cluster, mc.per_cluster)):
            stats = aggregate(ests[labels == c], P)
            se_T = 0.5 * math.hypot(stats.se_X1, stats.se_X2)
            se_e = math.hypot(Vp * stats.se_X1,
                              math.sqrt(2.0 / stats.k_total) * stats.vN_pooled)
            tol_T = 4.0 * math.sqrt(2.0) * se_T
            tol_e = 4.0 * math.sqrt(2.0) * se_e
            assert abs(ca.wc.T_eff_low - cb.wc.T_eff_low) < tol_T
            assert abs(ca.wc.eps_eff_up - cb.wc.eps_eff_up) < tol_e
            # and the rates agree once the channel tolerance is pushed
            # through the key-rate map
            lo = key_rate(WorstCaseChannel(
                T_eff_low=max(0.0, cb.wc.T_eff_low - tol_T),
                eps_eff_up=cb.wc.eps_eff_up + tol_e,
                X1_up=cb.wc.X1_up, X2_low=cb.wc.X2_low,
                eps_up=cb.wc.eps_up), cb.N_c, P).K
            hi = key_rate(WorstCaseChannel(
                T_eff_low=cb.wc.T_eff_low + tol_T,
                eps_eff_up=max(0.0, cb.wc.eps_eff_up - tol_e),
                X1_up=cb.wc.X1_up, X2_low=cb.wc.X2_low,
                eps_up=cb.wc.eps_up), cb.N_c, P).K
            assert lo - 1e-12 <= ca.K_c <= hi + 1e-12


# ---- optimizer ----------------------------------------------------------

def test_optimize_desk_check_two_clusters_min_share():
    res = optimize(UNI, 2, 1000, 1000, P)
    assert res.plan.total_rate > 0.0
    assert all(c.mass >= 0.1 for c in res.plan.per_cluster)
    assert 0.01 <= res.protocol.r <= 0.9
    assert 0.5 <= res.protocol.V <= 50.0
    # splitting beats pooling on a flat fading law at this scale
    pooled = optimize(UNI, 0, 1000, 1000, P)
    assert res.plan.total_rate > pooled.plan.total_rate


def test_optimize_zero_fluctuation_degenerates_to_pooled():
    point = Uniform(0.62 - 1e-9, 0.62 + 1e-9)
    res0 = optimize(point, 0, 1000, 1000, P)
    res2 = optimize(point, 2, 1000, 1000, P)
    assert res0.plan.total_rate > 0.0
    assert res2.plan.total_rate == pytest.approx(res0.plan.total_rate, rel=0.02)


def test_optimize_reports_hopeless_channel():
    res = optimize(Uniform(0.001, 0.02), 1, 200, 200, P)
    assert res.plan.total_rate == 0.0
    assert res.diagnostic is not None
    assert "no positive key rate" in res.diagnostic


def test_optimize_result_is_pinned():
    """The search result, bit for bit, as the grid pass, the two
    refinement passes and the evaluator gave it when this was pinned.
    The plan is the one coordinate descent found; the evaluations are
    the interval tables' entries (132 x 2,080 + 9 x 8,256 + 9 x 32,896;
    670,051 before the ceiling pruned 12 grid points) plus one report
    per point scored and one for the final plan.  The edge is level 182
    of 256: the quantile solve returns the point its last
    Newton pass evaluated, whose correction was below _XTOL / 2, three
    floats below the two where the computed marginal CDF meets the level
    exactly."""
    res = optimize(UNI, 1, 400, 400, P)
    assert res.plan.total_rate == 0.002338040097707082
    assert res.protocol.r == 0.5397212245017438
    assert res.protocol.V == 4.999999999999998
    assert res.plan.boundaries == (0.6897817977059989, math.inf)
    assert res.evaluations == 645079
    assert [(p.Q, p.points, p.intervals) for p in res.search] == [
        (64, 144, 132 * 2081), (128, 9, 9 * 8257), (256, 9, 9 * 32897)]
    assert [len(p.pruned) for p in res.search] == [12, 0, 0]


# the pooled (C = 0) searches behind fig6 (TN) and fig7 (LNW, whose rule
# goes through _rayleigh_rule), bit for bit; m = 200 gives no key, so
# the tie-break picks the grid's first point, and m = 1000 a positive rate
@pytest.mark.parametrize("dist, m, rate, r, V, evaluations", [
    (TN, 200, 0.0, 0.01, 0.5, 153),
    (TN, 1000, 0.05166024091796586, 0.19409907786669298, 2.9627654877728387, 163),
    (LogNegativeWeibull(1.47, 0.6), 200, 0.0, 0.01, 0.5, 153),
    (LogNegativeWeibull(1.47, 0.6), 1000, 0.05649864744576674,
     0.17523016489664908, 3.28966612328784, 163),
], ids=["tn-m200", "tn-m1000", "lnw-m200", "lnw-m1000"])
def test_pooled_optimize_result_is_pinned(dist, m, rate, r, V, evaluations):
    res = optimize(dist, 0, 1000, m, P)
    assert res.plan.total_rate == rate
    assert res.protocol.r == r
    assert res.protocol.V == V
    assert res.plan.boundaries == (-math.inf, math.inf)
    assert res.evaluations == evaluations


def test_optimize_builds_the_rule_once(monkeypatch):
    """One quadrature rule per optimize, shared by the grid pass, both
    refinement passes and the final plan, and one per total_key_rate."""
    calls = []
    for cls in (Uniform, TruncatedNormal, LogNegativeWeibull, Empirical):
        def counted(self, order=160, original=cls.expectation_rule):
            calls.append(type(self).__name__)
            return original(self, order)
        monkeypatch.setattr(cls, "expectation_rule", counted)
    # a coarse level grid keeps the C = 1 tables small; the passes that
    # build evaluators are the same at any resolution
    monkeypatch.setattr(clustering, "_LEVELS", 8)
    laws = (UNI, TN, LogNegativeWeibull(1.47, 0.6),
            Empirical(np.linspace(0.2, 0.8, 50)))
    for dist in laws:
        for C in (0, 1):
            calls.clear()
            optimize(dist, C, 400, 400, P)
            assert calls == [type(dist).__name__]
        calls.clear()
        clustering.optimize_pooled(dist, 400, (10, 400), P)
        assert calls == [type(dist).__name__]
        calls.clear()
        total_key_rate(dist, (-math.inf, 0.5, math.inf), 400, 400, P)
        assert calls == [type(dist).__name__]


def test_shared_rule_is_read_only():
    ev = clustering._Evaluator(clustering._rule(TN, 100, P), P, 100, 100)
    for arr in (ev.s, ev.fw, *ev.powers):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_optimize_validates_parameters():
    with pytest.raises(ParameterError):
        optimize(UNI, -1, 400, 400, P)
    with pytest.raises(ParameterError):
        optimize(UNI, 64, 400, 400, P)


# ---- the exact boundary search: quantiles, interval table, dynamic program

SMALL_EMPIRICAL = Empirical(TruncatedNormal(0.5, 0.15).sample(5, 100))
FOUR_LAWS = (UNI, TN, LogNegativeWeibull(1.47, 0.6),
             Empirical(LogNegativeWeibull(1.25, 0.8).sample(9, 400)))
# a measured trace's size: 1,600 quadrature nodes, 10x a parametric law's
TRACE_LAW = Empirical(LogNegativeWeibull(1.47, 0.6).sample(11, 1600))
GRID_CORNERS = [(0.01, 0.5), (0.01, 50.0), (0.9, 0.5), (0.9, 50.0)]


def _evaluator(dist, r=0.26, V=5.0, n=1000, m=1000):
    return clustering._Evaluator(clustering._rule(dist, n, P), replace(P, r=r, V=V),
                                 m, n=n)


def _edges(ev, Q):
    return list(ev._solve(Q)[0])


@pytest.mark.parametrize("dist", [*FOUR_LAWS, TRACE_LAW],
                         ids=["uniform", "tnorm", "lnw", "empirical", "empirical-1600"])
@pytest.mark.parametrize("r, V", [*GRID_CORNERS, (0.26, 5.0)])
def test_vector_quantiles_match_brentq(dist, r, V):
    """At the corners of the (r, V) grid and inside it the level vector
    solved at once matches one tight brentq solve per level of the same
    marginal CDF."""
    _assert_quantiles_match_brentq(_evaluator(dist, r, V), 64)


def _assert_quantiles_match_brentq(ev, Q):
    t = ev._solve(Q)[0][1:-1]
    lo = float(np.min(ev.s - 9.0 * ev.sigma))
    hi = float(np.max(ev.s + 9.0 * ev.sigma))
    cdf = lambda x: float(np.dot(ev.fw, ndtr((x - ev.s) / ev.sigma)))
    ref = [brentq(lambda x: cdf(x) - i / Q, lo, hi, xtol=1e-15, rtol=8.9e-16)
           for i in range(1, Q)]
    assert np.max(np.abs(t - ref)) <= 1e-12


@pytest.mark.parametrize("dist", FOUR_LAWS, ids=["uniform", "tnorm", "lnw", "empirical"])
@pytest.mark.parametrize("r, V", GRID_CORNERS)
@pytest.mark.parametrize("Q", [64, 128, 256])
def test_quantile_span_brackets_every_level(dist, r, V, Q):
    """The closed-form span holds the outer levels: F(lo) < 1 / Q and
    F(hi) > 1 - 1 / Q at every resolution the search uses."""
    ev = _evaluator(dist, r, V)
    lo, hi = ev.span(Q)
    cdf = ndtr((np.array([lo, hi])[:, None] - ev.s) / ev.sigma) @ ev.fw
    assert cdf[0] < 1 / Q and cdf[1] > 1 - 1 / Q


def test_broken_quantile_bracket_raises():
    """A marginal that never reaches the upper levels (here half of the
    weights dropped) fails closed instead of returning an edge."""
    rule = clustering._rule(UNI, 1000, P)
    ev = clustering._Evaluator(rule._replace(fw=0.5 * rule.fw), replace(P, r=0.26, V=5.0),
                               1000, n=1000)
    with pytest.raises(NumericalError, match="quantile bracket failed"):
        ev._solve(64)


def test_quantile_solve_kernel_work(monkeypatch):
    """Kernel work of one interval table at Q = 64 on the 1,600-sample
    trace at (r, V) = (0.26, 5), its quantile solve included, counted as
    ndtr elements rather than timed: at most 3.25 Q N for the N = 82
    nodes of the trace's search rule at n = 1000.  A start grid of
    Q/2 + 1 points, the Hermite start and three fused Newton passes,
    the last of which gives the table its rows, take 14,596 elements
    (2.78 Q N).  With a bisection fallback, two levels whose roots lay
    within rounding of a bracket end took 20 more passes, 17,876
    elements (3.41 Q N); on all 1,600 samples the table took 296,000."""
    count = []

    def counted(x):
        count.append(np.size(x))
        return ndtr(x)
    monkeypatch.setattr(clustering, "ndtr", counted)
    ev = _evaluator(TRACE_LAW)
    assert ev.s.size == 82
    ev.table(64)
    assert sum(count) <= 3.25 * 64 * ev.s.size


@pytest.mark.parametrize("dist, r, V", [
    (TruncatedNormal(0.5, 0.1), 0.26, 5.0), (UNI, 0.01, 0.5), (TRACE_LAW, 0.26, 5.0)],
    ids=["tnorm", "uniform", "empirical-1600"])
@pytest.mark.parametrize("Q", [64, 128, 256])
def test_quantile_solve_ends_in_three_newton_passes(dist, r, V, Q):
    """No level converges linearly: where a Newton step leaves its bracket
    the solve takes the bracket's secant, so every level is done after
    the start grid and three Newton passes.  Bisecting instead took 27,
    42 and 24 kernel passes on these laws at Q = 64, against 4 here."""
    ev = _evaluator(dist, r, V)
    passes = []
    solve = ev._cdf_pdf
    ev._cdf_pdf = lambda t: (passes.append(t.size), solve(t))[1]
    ev._solve(Q)
    assert passes[0] == Q // 2 + 1 and len(passes) <= 4


@pytest.mark.parametrize("zeros", [160, 320], ids=["10%", "20%"])
def test_a_trace_with_dropouts_to_zero_is_searched(zeros):
    """The 1,600-sample trace with its first 10% or 20% of samples set to
    T = 0: the node at 0 puts a step into the estimate marginal, where
    Newton and the bracket's secant took turns landing near either end.
    Before the Illinois rule 10 and 14 of the 144 grid points ran out of
    quantile steps at Q = 64, and every count raised NumericalError.  Now
    each count finds a plan, and at (0.26, 50), a point that failed in
    both, every level matches brentq."""
    samples = LogNegativeWeibull(1.47, 0.6).sample(11, 1600)
    samples[:zeros] = 0.0
    dist = Empirical(samples)
    rates = [res.plan.total_rate for res in optimize_each(dist, (1, 2, 3), 1000, 1000, P)]
    assert rates[0] > 0.0 and rates == sorted(rates)
    _assert_quantiles_match_brentq(_evaluator(dist, clustering._R_GRID[8], 50.0), 64)


@pytest.mark.parametrize("dist", [*FOUR_LAWS, TRACE_LAW],
                         ids=["uniform", "tnorm", "lnw", "empirical", "empirical-1600"])
@pytest.mark.parametrize("r, V", GRID_CORNERS)
def test_interval_table_reads_the_quantile_solve(dist, r, V):
    """The table's edges are those of _solve(Q), and its kernel sums are the
    marginal's at those edges, recomputed there: the CDF and the weighted
    node columns at each finite edge, 0 at -inf and the column sums of
    the weights at +inf."""
    ev = _evaluator(dist, r, V)
    Q = 64
    edges, cdf, _ = ev.table(Q)
    assert list(edges) == _edges(ev, Q)
    F = ndtr((edges[1:-1, None] - ev.s) / ev.sigma)
    np.testing.assert_allclose(cdf[1:-1], F @ ev.fw, rtol=1e-14, atol=0.0)
    W = np.column_stack([ev.fw, *(ev.fw * col for col in ev.columns)])
    solved_edges, G = ev._solve(Q)
    assert np.array_equal(solved_edges, edges) and np.array_equal(G[:, 0], cdf)
    np.testing.assert_allclose(G[1:-1], F @ W, rtol=1e-14, atol=0.0)
    assert np.all(G[0] == 0.0)
    np.testing.assert_allclose(G[-1], W.sum(axis=0), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("block", [None, 20], ids=["blocks", "one-row-blocks"])
@pytest.mark.parametrize("m", [25], ids=["few-packages"])
def test_interval_table_matches_reports(m, block, monkeypatch):
    """Every interval of a Q = 16 table has report's mass and K_c, and
    is masked exactly where report finds it infeasible, however the
    table is cut into blocks."""
    if block is not None:
        monkeypatch.setattr(clustering, "_BLOCK", block)
    ev = _evaluator(UNI, m=m)
    edges, cdf, rate = ev.table(16)
    assert ev.evaluations == 16 * 17 // 2
    assert list(edges) == _edges(ev, 16)
    masked = 0
    for a in range(17):
        for b in range(17):
            if a >= b:
                assert rate[a, b] == -math.inf
                continue
            rep = ev.report(edges[a], edges[b])
            mass = cdf[b] - cdf[a]
            assert mass == pytest.approx(rep.mass, rel=1e-12)
            if rate[a, b] == -math.inf:
                masked += 1
                assert rep.cond_moments is None
            else:
                assert rep.cond_moments is not None
                assert rate[a, b] / mass == pytest.approx(rep.K_c, rel=1e-12)
    assert 0 < masked < 16 * 17 // 2


def _row_block_table(ev, Q):
    """The interval table built as it once was: a block of rows of a at a
    time (about _BLOCK intervals), its pairs from np.triu and np.nonzero
    on the block's feasibility mask and its sums gathered as G[b] - G[a]."""
    edges, G = ev._solve(Q)
    cdf = G[:, 0]
    rate = np.full((Q + 1, Q + 1), -math.inf)
    rows = max(1, clustering._BLOCK // (Q + 1))
    for a0 in range(0, Q, rows):
        mass = cdf - cdf[a0:a0 + rows, None]
        a, b = np.nonzero(np.triu(~clustering._too_small(mass, ev.m), a0 + 1))
        a += a0
        sums = G[b] - G[a]
        rate[a, b] = sums[:, 0] * clustering._rate(sums[:, 0], sums[:, 1:].T, ev.k, ev.m,
                                                   ev.n, ev.protocol)[2]
    return edges, cdf, rate


def _column_chains(table, counts):
    """_chains as it once ran, each stage reducing along axis 0 of the
    table, over the levels a chain's last interval starts at."""
    edges, cdf, rate = table
    levels = np.arange(rate.shape[0])
    total, first, back, chains = np.zeros(levels.size), levels, [], {}
    for c in range(1, max(counts) + 1):
        cand = total[:, None] + rate
        total = cand.max(axis=0)
        prev = np.argmin(np.where(cand == total, first[:, None], levels.size), axis=0)
        first = first[prev]
        back.append(prev)
        if c in counts and total.max() > -math.inf:
            chain = [int(np.argmax(np.where(total == total.max(), cdf - cdf[first],
                                            -math.inf)))]
            for step in reversed(back):
                chain.append(int(step[chain[-1]]))
            chains[c] = tuple(float(edges[lv]) for lv in reversed(chain))
    return chains


# blocks of 20 intervals cut the triangle's first rows and leave a partial
# last block at Q = 16 and 64 already; at Q = 256 only the default runs
@pytest.mark.parametrize("Q, block", [(16, None), (16, 20), (64, None), (64, 20), (256, None)],
                         ids=["16-blocks", "16-20-interval-blocks", "64-blocks",
                              "64-20-interval-blocks", "256-blocks"])
@pytest.mark.parametrize("r, V", [*GRID_CORNERS, (0.26, 5.0)])
@pytest.mark.parametrize("dist", [*FOUR_LAWS, TRACE_LAW],
                         ids=["uniform", "tnorm", "lnw", "empirical", "empirical-1600"])
def test_interval_table_is_bit_for_bit_the_row_block_table(dist, r, V, Q, block, monkeypatch):
    """The table scored off one triangle of level pairs, in blocks of
    _BLOCK feasible intervals, holds every bit of the table built a block
    of rows at a time, and the dynamic program along the rows of its
    transpose picks every chain the program along its columns picked.  At
    the grid's corners most rates are 0, so it runs at (0.26, 5) too."""
    if block is not None:
        monkeypatch.setattr(clustering, "_BLOCK", block)
    ev = _evaluator(dist, r, V)
    table = ev.table(Q)
    assert all(np.array_equal(x, y) for x, y in zip(table, _row_block_table(ev, Q)))
    chains = clustering._chains(table, (1, 2, 3))
    assert {C: chain for C, chain in chains.items()
            if not isinstance(chain, Exception)} == _column_chains(table, (1, 2, 3))


def _brute_force(ev, edges, C, min_mass):
    """Best rate over every level tuple, scored through report, with the
    intervals lighter than min_mass infeasible."""
    reports = {}
    best = -math.inf
    for levels in itertools.combinations(range(len(edges)), C + 1):
        rate = 0.0
        for a, b in zip(levels, levels[1:]):
            if (a, b) not in reports:
                reports[a, b] = ev.report(edges[a], edges[b])
            rep = reports[a, b]
            if rep.cond_moments is None or rep.mass < min_mass:
                break
            rate += rep.mass * rep.K_c
        else:
            best = max(best, rate)
    return best


@pytest.mark.parametrize("dist", [UNI, SMALL_EMPIRICAL], ids=["uniform", "empirical"])
@pytest.mark.parametrize("C", [1, 2, 3])
@pytest.mark.parametrize("min_mass", [0.0, 0.15])
def test_dynamic_program_matches_brute_force(dist, C, min_mass):
    """The dynamic program over a table whose intervals lighter than
    min_mass are also masked finds the best of every chain."""
    ev = _evaluator(dist)
    edges = _edges(ev, 10)
    levels, cdf, rate = ev.table(10)
    rate = np.where(cdf - cdf[:, None] < min_mass, -math.inf, rate)
    best = clustering._raised(clustering._chains((levels, cdf, rate), (C,))[C])
    assert set(best) <= set(edges) and len(best) == C + 1
    plan = ev.plan(best)
    assert all(rep.cond_moments is not None and rep.mass >= min_mass
               for rep in plan.per_cluster)
    assert plan.total_rate > 0.0
    assert plan.total_rate == pytest.approx(_brute_force(ev, edges, C, min_mass),
                                            rel=1e-12)


def test_dynamic_program_reports_no_feasible_chain():
    """With m = 5 an interval needs mass 0.4 for two expected packages,
    so three of them do not fit."""
    ev = _evaluator(UNI, m=5)
    with pytest.raises(ClusterTooSmallError):
        clustering._raised(clustering._chains(ev.table(10), (3,))[3])


def _program_alone(table, C):
    """The dynamic program for C intervals run on its own, C stages and one
    read-off; None where no chain is feasible."""
    edges, cdf, rate = table
    levels = np.arange(rate.shape[0])
    total = np.zeros(levels.size)
    first = levels
    back = []
    for _ in range(C):
        cand = total[:, None] + rate
        total = cand.max(axis=0)
        prev = np.argmin(np.where(cand == total, first[:, None], levels.size), axis=0)
        first = first[prev]
        back.append(prev)
    if total.max() == -math.inf:
        return None
    chain = [int(np.argmax(np.where(total == total.max(), cdf - cdf[first], -math.inf)))]
    for prev in reversed(back):
        chain.append(int(prev[chain[-1]]))
    return tuple(float(edges[lv]) for lv in reversed(chain))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_program_gives_each_count_its_own_chain(data):
    """One dynamic program for several counts gives each count the chain
    that its own program gives, on small tables of few rate and mass
    values (so ties are common) with infeasible intervals; a count of L + 1
    intervals on L + 1 levels has no chain and gets its own error, and the
    other counts still get theirs."""
    L = data.draw(st.integers(1, 8), label="L")
    steps = data.draw(st.lists(st.sampled_from([0.0, 0.125, 0.25]), min_size=L, max_size=L))
    cdf = np.concatenate(([0.0], np.cumsum(steps)))
    values = data.draw(st.lists(st.sampled_from([-math.inf, 0.0, 0.25, 0.5, 1.0]),
                                min_size=(L + 1) ** 2, max_size=(L + 1) ** 2))
    above = np.triu(np.ones((L + 1, L + 1), dtype=bool), 1)
    rate = np.where(above, np.reshape(values, (L + 1, L + 1)), -math.inf)
    counts = data.draw(st.permutations(
        data.draw(st.lists(st.integers(1, L), unique=True)) + [L + 1]), label="counts")
    table = (np.linspace(-1.0, 1.0, L + 1), cdf, rate)
    chains = clustering._chains(table, counts)
    assert sorted(chains) == sorted(counts)
    assert isinstance(chains[L + 1], ClusterTooSmallError)
    for C in counts:
        alone = _program_alone(table, C)
        if alone is None:
            assert isinstance(chains[C], ClusterTooSmallError), C
        else:
            assert chains[C] == alone, C
            assert clustering._raised(clustering._chains(table, (C,))[C]) == alone


def test_an_interval_is_scored_once_per_evaluator():
    """An evaluator asked again for an interval gives the report it scored
    first and still counts the request: the plans of the C = 1..3 chains,
    asked in turn and some twice, equal those of fresh evaluators, and
    evaluations counts every request."""
    ev = _evaluator(UNI, m=25)
    table = ev.table(16)
    chains = clustering._chains(table, (1, 2, 3))
    asked = 0
    for C in (1, 2, 3, 3, 1, 2):
        plan = ev.plan(chains[C])
        fresh = _evaluator(UNI, m=25)
        assert plan == fresh.plan(chains[C])
        assert fresh.evaluations == C
        asked += C
    assert ev.evaluations == 16 * 17 // 2 + asked
    assert len(ev.reports) < asked / 2
    # a level of mass 1/16 holds under 2 of the 25 packages
    light = ev.report(-math.inf, float(table[0][1]))
    assert light.cond_moments is None and ev.report(-math.inf, float(table[0][1])) is light


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("column", [4, 7], ids=["v_u", "V_N"])
def test_non_finite_statistic_raises_in_table_and_report(column, value):
    """A non-finite node value reaches every feasible interval; the table
    raises the scalar path's typed error instead of scoring it 0."""
    ev = _evaluator(UNI)
    cols = list(ev.columns)
    cols[column] = cols[column].copy()
    cols[column][80] = value
    ev.columns = tuple(cols)
    with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
        ev.table(16)
    with pytest.raises(NumericalError):
        ev.report(0.2, 0.6)


# rates coordinate descent found at n = m = 1000 before the exact search
# replaced it (same grid schedule and resolutions)
DESCENT_RATES = {
    "uniform": (0.0, 0.06822522227447626, 0.06822522227447626, 0.06822522227447626),
    "tnorm": (0.05166024091796586, 0.05896579456707759, 0.05896579456707759,
              0.05896579456707759),
    "weib-wide": (0.0, 0.06557518881597409, 0.06557518881597409, 0.06557518881597409),
    "weib-narrow": (0.05649864744576674, 0.07976565810585912, 0.07976565810585912,
                    0.07976565810585912),
}
DESK_LAWS = {"uniform": UNI, "tnorm": TN, "weib-wide": LogNegativeWeibull(1.25, 0.8),
             "weib-narrow": LogNegativeWeibull(1.47, 0.6)}


@pytest.mark.parametrize("C", [0, 1, 2, 3])
@pytest.mark.parametrize("name", list(DESK_LAWS))
def test_exact_search_is_no_worse_than_descent(name, C):
    """The allowance covers edges that moved by about 2e-13 when the
    quantiles went from one brentq per level to the vector solve."""
    res = optimize(DESK_LAWS[name], C, 1000, 1000, P)
    assert res.plan.total_rate >= DESCENT_RATES[name][C] - 1e-12
    assert res.plan.total_rate == total_key_rate(DESK_LAWS[name], res.plan.boundaries,
                                                 1000, 1000, res.protocol).total_rate


def test_optimize_records_its_search():
    res = optimize(UNI, 2, 1000, 1000, P)
    assert [(p.Q, p.points) for p in res.search] == [(64, 144), (128, 9), (256, 9)]
    # plus the final plan's two reports
    assert res.evaluations == sum(p.intervals for p in res.search) + 2
    assert all(p.skipped == () for p in res.search)
    # n = 100 leaves r = 0.01 one disclosed state per package: those 12
    # grid points are skipped, with the reason
    res = optimize(UNI, 1, 100, 400, P)
    skipped = res.search[0].skipped
    assert len(skipped) == 12 and {s["r"] for s in skipped} == {0.01}
    assert all(s["error"] == "InsufficientDataError" and "fewer than 2" in s["message"]
               for s in skipped)
    # the pooled search skips the same 12 points, and they score no interval
    res = optimize(UNI, 0, 100, 400, P)
    assert res.search[0].skipped == skipped
    assert [(p.points, p.intervals, len(p.skipped)) for p in res.search] == [
        (144, 132, 12), (6, 4, 2), (6, 4, 2)]
    assert res.evaluations == 132 + 4 + 4 + 1


def test_pooled_optimize_records_its_refusals():
    """At V_S = 0.5 the 12 grid points at V = 0.5 send no modulated
    signal: each is skipped with the reason and still counts its one
    interval, as the pooled search gave it when this was pinned."""
    res = optimize(TN, 0, 1000, 1000, ProtocolParams(V_S=0.5))
    assert res.plan.total_rate == 0.2165161022771396
    assert res.protocol.r == 0.0948683298050514
    assert res.protocol.V == 3.2896661232878404
    assert [(p.points, p.intervals) for p in res.search] == [(144, 144), (9, 9), (9, 9)]
    skipped = res.search[0].skipped
    assert len(skipped) == 12 and [len(p.skipped) for p in res.search[1:]] == [0, 0]
    assert [s["r"] for s in skipped] == list(clustering._R_GRID)
    assert all(s["V"] == 0.5 and s["error"] == "ParameterError"
               and s["message"] == "V + V_S - 1 = 0 <= 0: no modulated signal survives; "
                                   "increase V or V_S" for s in skipped)


def test_optimize_names_the_clusters_that_carry_no_key(monkeypatch):
    """The C = 2 optimum on Uniform(0, 1) is the C = 1 plan below a
    zero-rate cluster: the diagnostic names that cluster, and the plan
    keeps it."""
    monkeypatch.setattr(clustering, "_LEVELS", 8)
    res = optimize(UNI, 2, 1000, 1000, P)
    low, high = res.plan.per_cluster
    assert low.K_c == 0.0 < high.K_c
    assert f"1 cluster(s) carry no key: 0 [-inf, {low.interval[1]:.4f})" in res.diagnostic
    assert "no positive key rate" not in res.diagnostic
    hopeless = optimize(Uniform(0.001, 0.02), 1, 200, 200, P)
    assert "carry no key" not in hopeless.diagnostic


@pytest.mark.parametrize("n, m", [(1000, 1000), (400, 200)])
@pytest.mark.parametrize("dist", [*FOUR_LAWS, TRACE_LAW],
                         ids=["uniform", "tnorm", "lnw", "empirical", "empirical-1600"])
def test_pooled_pass_matches_one_report_per_point(dist, n, m):
    """The pooled pass scores every grid point at once; each rate is the
    one total_key_rate gives that point's pooled plan, within the 1e-12 of
    test_float_and_array_paths_agree, and the pass picks the same (r, V)."""
    points = list(itertools.product(clustering._R_GRID, clustering._V_GRID))
    keys, skipped, intervals = clustering._pooled(clustering._rule(dist, n, P), P,
                                                  {m: set(points)}, n)[m]
    assert skipped == [] and intervals == len(keys) == len(points)
    rates = dict(((r, V), -rate) for rate, _, r, V, _ in keys)
    reference = {(r, V): total_key_rate(dist, (-math.inf, math.inf), n, m,
                                        replace(P, r=r, V=V)).total_rate
                 for r, V in points}
    for point in points:
        assert abs(rates[point] - reference[point]) <= 1e-12, point
    assert min(keys)[2:4] == min((-rate, point) for point, rate in reference.items())[1]


REFUSED = (ParameterError, InsufficientDataError, ClusterTooSmallError)


def _pooled_one_point_at_a_time(rule, proto, points, n, m):
    """The pooled pass scored one point at a time through the evaluator
    and _rescore: the keys, the refusal records and the intervals scored."""
    keys, skipped, intervals = [], [], 0

    def record(r, V, exc):
        skipped.append({"r": r, "V": V, "error": type(exc).__name__, "message": str(exc)})

    for r, V in points:
        try:
            ev = clustering._Evaluator(rule, replace(proto, r=r, V=V), m, n=n)
        except REFUSED as exc:
            record(r, V, exc)
            continue
        try:
            plan = clustering._rescore(ev, (-math.inf, math.inf))
        except REFUSED as exc:
            record(r, V, exc)
        else:
            keys.append((-plan.total_rate, -plan.kept_mass, r, V, plan.boundaries))
        intervals += ev.evaluations
    return keys, skipped, intervals


# (2, 2): TN's pooled cluster holds under 2 expected packages and Uniform's
# r = 0.9 leaves no key state; (4, 2): r = 0.9 leaves no key state beside
# admitted points; (1000, 1): one package; (100, 400): r = 0.01 discloses
# one state; and at V_S = 0.5 the points at V = 0.5 send no signal
@pytest.mark.parametrize("V_S", [1.0, 0.5])
@pytest.mark.parametrize("n, m", [(2, 2), (4, 2), (1000, 1), (100, 400)])
@pytest.mark.parametrize("dist", [UNI, TN, TRACE_LAW],
                         ids=["uniform", "tnorm", "empirical-1600"])
def test_pooled_pass_equals_scoring_each_point_alone(dist, n, m, V_S):
    """The pooled pass gives the refusal records and interval count of a
    search one point at a time, and each scored point's key, its rate
    within the 1e-12 of test_float_and_array_paths_agree; the pass picks
    the same (r, V)."""
    proto = replace(P, V_S=V_S)
    rule = clustering._rule(dist, n, proto)
    points = list(itertools.product(clustering._R_GRID, clustering._V_GRID))
    keys, skipped, intervals = clustering._pooled(rule, proto, {m: set(points)}, n)[m]
    ref_keys, ref_skipped, ref_intervals = _pooled_one_point_at_a_time(rule, proto, points,
                                                                       n, m)
    in_order = itemgetter("r", "V")
    assert sorted(skipped, key=in_order) == ref_skipped
    assert intervals == ref_intervals
    assert len(keys) == len(ref_keys) == len(points) - len(ref_skipped)
    rates = {key[2:4]: key for key in keys}
    for ref in ref_keys:
        key = rates[ref[2:4]]
        assert key[1:] == ref[1:] and abs(key[0] - ref[0]) <= 1e-12, ref
    if keys:
        assert min(keys)[2:4] == min(ref_keys)[2:4]


def test_optimize_refuses_when_no_plan_is_feasible():
    """Three clusters of two expected packages each need m >= 6."""
    with pytest.raises(ParameterError, match="no feasible"):
        optimize(UNI, 3, 1000, 5, P)


# one joint search for several cluster counts against one search per count;
# at n = 100 the 12 grid points at r = 0.01 are skipped, and the counts
# refine around different points and skip different neighbours; at
# n = 1000 the counts C >= 1 prune 49 grid points each, in best-first order
@pytest.mark.parametrize("dist, n", [
    *[(law, 400) for law in DESK_LAWS.values()],
    (TRACE_LAW, 400),
    (UNI, 100),
    (TN, 1000),
], ids=[*DESK_LAWS, "empirical-1600", "uniform-n100", "tnorm-n1000"])
def test_optimize_each_equals_one_optimize_per_count(dist, n):
    joint = optimize_each(dist, (0, 1, 2, 3), n, 400, P)
    for C, res in enumerate(joint):
        alone = optimize(dist, C, n, 400, P)
        for f in fields(alone):
            assert getattr(res, f.name) == getattr(alone, f.name), (C, f.name)


@pytest.mark.parametrize("clusters", [(), (1, 2, 1), (0, -1), (1, 64)],
                         ids=["empty", "repeated", "negative", "too-many"])
def test_optimize_each_validates_the_counts(clusters):
    with pytest.raises(ParameterError):
        optimize_each(UNI, clusters, 400, 400, P)


# at m = 5 the pooled plan is feasible and no 3 clusters of 2 or more
# packages fit; at m = 2 TN's pooled cluster holds under 2 expected
# packages, and no count is feasible
@pytest.mark.parametrize("dist, clusters, m, C", [
    (UNI, (0, 3), 5, 3),
    (UNI, (3, 0), 5, 3),
    (TN, (0, 3), 2, 0),
], ids=["uniform-0-3", "uniform-3-0", "tnorm-m2"])
def test_optimize_each_raises_the_first_infeasible_counts_error(dist, clusters, m, C):
    """optimize_each raises the ParameterError that optimize raises for
    the first count, in the order given, with no feasible grid point."""
    with pytest.raises(ParameterError) as alone:
        optimize(dist, C, 1000, m, P)
    with pytest.raises(ParameterError) as joint:
        optimize_each(dist, clusters, 1000, m, P)
    assert str(joint.value) == str(alone.value)
    assert f"no feasible (r, V) grid point for {C} cluster(s)" in str(joint.value)


# the package-count ladder of fig6 and fig7 at desk scale
LADDER = (10, 25, 63, 158, 398, 1000)


# one pooled search over a ladder against one optimize per m: the fig6
# ladders (TN at n = 500 and 1000) and fig7's (LNW at n = 1000); Uniform
# and a 1,600-sample trace; at V_S = 0.5 the grid points at V = 0.5 are
# refused; at n = 100 r = 0.01 discloses one state
@pytest.mark.parametrize("dist, n, ms, proto", [
    (TN, 500, LADDER, P),
    (TN, 1000, LADDER, P),
    (LogNegativeWeibull(1.47, 0.6), 1000, LADDER, P),
    (UNI, 400, LADDER, P),
    (TRACE_LAW, 1000, LADDER, P),
    (TN, 1000, LADDER, ProtocolParams(V_S=0.5)),
    (UNI, 100, (400, 10, 1000), P),
], ids=["tnorm-n500", "tnorm-n1000", "lnw-n1000", "uniform-n400", "empirical-1600",
        "tnorm-vs0.5", "uniform-n100"])
def test_optimize_pooled_equals_one_optimize_per_m(dist, n, ms, proto):
    results = clustering.optimize_pooled(dist, n, ms, proto)
    assert len(results) == len(ms)
    for m, res in zip(ms, results):
        alone = optimize(dist, 0, n, m, proto)
        for f in fields(alone):
            assert getattr(res, f.name) == getattr(alone, f.name), (m, f.name)
    if proto.V_S == 0.5:
        assert all(len(res.search[0].skipped) == 12 for res in results)
    if n == 100:
        assert all({s["r"] for s in res.search[0].skipped} == {0.01} for res in results)


# m = 1 holds one package; at (n, m) = (2, 2) TN's pooled cluster holds
# under 2 expected packages, and so it does at m = 2 beside m = 3
@pytest.mark.parametrize("dist, n, ms", [
    (TN, 1000, (10, 1, 1000)),
    (TN, 2, (2,)),
    (TN, 1000, (3, 2, 1000)),
], ids=["m1-in-ladder", "tnorm-n2-m2", "tnorm-m2-in-ladder"])
def test_optimize_pooled_raises_optimizes_own_error(dist, n, ms):
    """A ladder with an m that has no feasible grid point raises the
    ParameterError that optimize raises at the first such m."""
    with pytest.raises(ParameterError) as alone:
        for m in ms:
            optimize(dist, 0, n, m, P)
    with pytest.raises(ParameterError) as pooled:
        clustering.optimize_pooled(dist, n, ms, P)
    assert str(pooled.value) == str(alone.value)
    assert "no feasible (r, V) grid point for 0 cluster(s)" in str(pooled.value)


@pytest.mark.parametrize("ms", [(), (10, 25, 10), (10, 0), (10, 2.5)],
                         ids=["empty", "repeated", "zero", "float"])
def test_optimize_pooled_validates_the_counts(ms):
    with pytest.raises(ParameterError):
        clustering.optimize_pooled(TN, 1000, ms, P)


# the paper-scale ladder: at n = 1000 most of its points carry a positive
# rate, so a noise sum that changed its last bit with its row block shows
PAPER_LADDER = (10, 40, 158, 631, 2512, 10000)


@pytest.mark.parametrize("dist", [TN, LogNegativeWeibull(1.47, 0.6), TRACE_LAW],
                         ids=["tnorm", "lnw", "empirical-1600"])
def test_ladder_pass_keeps_every_key_bit_for_bit(dist):
    """A pass over a ladder gives each m the keys (their rates bit for
    bit, as repr shows), records and interval count of its pass alone:
    in the grid pass every m takes the same 144 points, and in a
    refinement pass each m wants the 9 points around its own best."""
    rule = clustering._rule(dist, 1000, P)
    centres = itertools.product(clustering._R_GRID[2::4], clustering._V_GRID[::5])
    for wanted in ({m: clustering._wanted(0, None) for m in PAPER_LADDER},
                   {m: clustering._wanted(1, (0.0, 0.0, r, V))
                    for m, (r, V) in zip(PAPER_LADDER, centres)}):
        ladder = clustering._pooled(rule, P, wanted, 1000)
        for m, points in wanted.items():
            assert repr(ladder[m]) == repr(clustering._pooled(rule, P, {m: points}, 1000)[m])


def test_pooled_ladder_takes_the_noise_sums_once(monkeypatch):
    """The grid pass of a ladder computes the noise sums of its 144 points
    once for every m, and the ladder's three passes make three array
    evaluations in all; each refinement pass takes them once per distinct
    list of points."""
    sums, rates = [], []
    noise_sums, rate = clustering._noise_sums, clustering._rate

    def counted_sums(rule, vN, taken):
        sums.append(len(taken))
        return noise_sums(rule, vN, taken)

    def counted_rate(mass, *args):
        rates.append(np.size(mass))
        return rate(mass, *args)

    monkeypatch.setattr(clustering, "_noise_sums", counted_sums)
    monkeypatch.setattr(clustering, "_rate", counted_rate)
    results = clustering.optimize_pooled(TN, 1000, LADDER, P)
    assert sums[0] == 144 and max(sums[1:]) <= 9 and len(sums) <= 1 + 2 * len(LADDER)
    assert rates[:3] == [144 * len(LADDER)] + [sum(res.search[p].points for res in results)
                                               for p in (1, 2)]
    # then one float report per m for its final plan
    assert len(rates) == 3 + len(LADDER)


# ---- the known-transmittance ceiling and the pruning it allows ------

CEILING_LAWS = {**DESK_LAWS, "empirical-1600": TRACE_LAW}


@pytest.mark.parametrize("name", list(CEILING_LAWS))
def test_pruning_changes_no_result(name, monkeypatch):
    """With the ceiling at +inf no point is pruned, and every count finds
    the plan, r, V and rate of the pruned search; at n = m = 1000 each
    count C >= 1 prunes dozens of grid points."""
    pruned = optimize_each(CEILING_LAWS[name], (0, 1, 2, 3), 1000, 1000, P)
    assert all(res.search[0].pruned for res in pruned[1:])
    assert not pruned[0].search[0].pruned
    monkeypatch.setattr(clustering, "rate_ceiling", lambda *args: math.inf)
    full = optimize_each(CEILING_LAWS[name], (0, 1, 2, 3), 1000, 1000, P)
    for C, (res, ref) in enumerate(zip(pruned, full)):
        assert not any(p.pruned for p in ref.search)
        for f in ("plan", "protocol"):
            assert getattr(res, f) == getattr(ref, f), (C, f)
        assert res.evaluations <= ref.evaluations


@pytest.mark.parametrize("size", [1000, 400])
@pytest.mark.parametrize("name", list(CEILING_LAWS))
def test_no_plan_beats_the_ceiling(name, size):
    """At every grid point the best chain of C = 1..3 intervals, rescored,
    stays below rate_ceiling, which stays below K_known; each cluster's
    rate stays below (1 - r) K_inf+ at its mean transmittance and the
    true excess noise."""
    rule = clustering._rule(CEILING_LAWS[name], size, P)
    for r, V in itertools.product(clustering._R_GRID, clustering._V_GRID):
        ev = _evaluator(CEILING_LAWS[name], r, V, n=size, m=size)
        ceiling = clustering.rate_ceiling(rule, ev.protocol, size, size)
        assert ceiling <= clustering.rate_ceiling(rule, ev.protocol)
        table = ev.table(clustering._LEVELS)
        for C in (1, 2, 3):
            plan = ev.plan(clustering._raised(clustering._chains(table, (C,))[C]))
            assert plan.total_rate <= ceiling * (1.0 + 1e-12), (r, V, C)
            for rep in plan.per_cluster:
                if rep.cond_moments is None:
                    continue
                known = key_rate(EffectiveChannel(T=rep.cond_moments.mean_T, eps=P.epsilon),
                                 None, ev.protocol).K
                assert rep.K_c <= (1.0 - r) * known * (1.0 + 1e-12), (r, V, C)


# the grid points refused at V_S = 1 and at V_S = 0.5: at n = 100 the 12
# points at r = 0.01 disclose one state, and at V_S = 0.5 the 12 at V = 0.5
# send no signal; at n = 4, m = 2 the 9 lowest r disclose under 2 states,
# and at r = 0.9 the 8 states leave no key state, which _admitted refuses
# before the one call
@pytest.mark.parametrize("n, m, refusals", [(1000, 1000, (0, 12)), (100, 400, (12, 23)),
                                            (4, 2, (120, 122))])
@pytest.mark.parametrize("dist", [*FOUR_LAWS, TRACE_LAW],
                         ids=["uniform", "tnorm", "lnw", "empirical", "empirical-1600"])
def test_ceiling_array_equals_each_point_alone(dist, n, m, refusals):
    """A pass's ceilings, one rate_ceiling call on the columns of the 144
    grid points, are bit for bit what each point gives alone, and a point
    that the protocol refuses keeps +inf."""
    points = list(itertools.product(clustering._R_GRID, clustering._V_GRID))
    for proto, refused_here in zip((P, replace(P, V_S=0.5)), refusals):
        rule = clustering._rule(dist, n, proto)
        ceilings = clustering._ceilings(rule, proto, set(points), n, m)
        assert set(ceilings) == set(points)
        refused = 0
        for r, V in points:
            try:
                alone = clustering.rate_ceiling(rule, replace(proto, r=r, V=V), n, m)
            except (ParameterError, InsufficientDataError):
                alone = math.inf
                refused += 1
            assert type(ceilings[r, V]) is float
            assert ceilings[r, V].hex() == alone.hex(), (r, V)
        assert refused == refused_here


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 64), m=st.integers(1, 8), V_S=st.sampled_from([0.5, 1.0]))
@example(n=4, m=2, V_S=1.0)
@example(n=4, m=2, V_S=1e-17)
def test_admitted_points_are_those_no_path_refuses(n, m, V_S):
    """_admitted takes a grid point, with its disclosed count, exactly where
    neither its rate_ceiling nor its evaluator raises a refusal; so the
    array paths never see a point that they would refuse.  At n = 4, m = 2
    the 8 states leave no key state at r = 0.9; at m = 1 the evaluator
    refuses every point; V_S = 1e-17 is lost against 1 everywhere."""
    proto = replace(P, V_S=V_S)
    rule = clustering._rule(UNI, n, proto)
    points = list(itertools.product(clustering._R_GRID, clustering._V_GRID))
    taken, refused = clustering._admitted(points, n, m, proto)
    assert sorted([*taken, *refused]) == sorted(points)
    for r, V in points:
        try:
            at = replace(proto, r=r, V=V)
            clustering.rate_ceiling(rule, at, n, m)
            clustering._Evaluator(rule, at, m, n=n)
        except REFUSED:
            assert (r, V) in refused, (r, V)
        else:
            assert taken.get((r, V)) == clustering.disclosed_count(n, r), (r, V)


def test_admission_and_ceilings_ask_each_r_once(monkeypatch):
    """_admitted and rate_ceiling on columns ask disclosed_count once per
    distinct r of the 144 grid points, 12 times each, where they once
    asked once per point; at n = 100 the refusal of r = 0.01 is the same."""
    asked = []
    original = clustering.disclosed_count

    def counted(n, r):
        asked.append(r)
        return original(n, r)

    monkeypatch.setattr(clustering, "disclosed_count", counted)
    points = list(itertools.product(clustering._R_GRID, clustering._V_GRID))
    taken, refused = clustering._admitted(points, 100, 400, P)
    assert sorted(asked) == sorted(clustering._R_GRID)
    assert {r for r, _ in refused} == {0.01} and len(taken) == 132
    asked.clear()
    clustering._ceilings(clustering._rule(TN, 1000, P), P, points, 1000, 1000)
    assert sorted(asked) == sorted(2 * clustering._R_GRID)


def test_ceiling_assumptions_hold():
    """rate_ceiling rests on K_inf+ rising in T, falling in eps and being
    convex in T: checked on a 2,001-point T grid over the search's V, for
    coherent and squeezed signal states and three efficiencies."""
    T = np.linspace(0.0, 1.0, 2001)
    for V, V_S, beta in itertools.product(clustering._V_GRID, (1.0, 0.5, 0.05),
                                          (0.8, 0.95, 1.0)):
        if V + V_S - 1.0 <= 0.0:
            continue
        above = None
        for eps in (0.0, 0.01, 0.05):
            proto = ProtocolParams(V=V, V_S=V_S, epsilon=eps, beta=beta)
            K = key_rate(EffectiveChannel(T=T, eps=np.full_like(T, eps)), None, proto).K
            assert np.diff(K).min() >= -1e-12, (V, V_S, beta, eps)
            assert np.diff(K, 2).min() >= -1e-12, (V, V_S, beta, eps)
            if above is not None:
                assert (K - above).max() <= 1e-12, (V, V_S, beta, eps)
            above = K


def test_known_transmittance_ceiling_of_a_point_law():
    """On a single transmittance T the ceiling is (1 - r) K_inf+(T, eps)
    and, with n and m, the same rate at eps* less delta_min."""
    proto = replace(P, r=0.2, V=5.0)
    rule = (np.array([0.6]), np.array([1.0]))
    known = key_rate(EffectiveChannel(T=0.6, eps=P.epsilon), None, proto)
    assert clustering.rate_ceiling(rule, proto) == pytest.approx(0.8 * known.K, rel=1e-15)
    k = clustering.disclosed_count(1000, 0.2)
    eps_star = P.epsilon + P.z_conf * math.sqrt(2.0 / (1000 * k)) * (1.0 + P.epsilon)
    finite = key_rate(EffectiveChannel(T=0.6, eps=eps_star), 1000 * 1000, proto)
    assert clustering.rate_ceiling(rule, proto, 1000, 1000) == \
        pytest.approx(finite.K, rel=1e-12)


# ---- the merged search rule of an empirical law ----------------------

# kappa c^2 / 8 with kappa < 2 (see the clustering module docstring)
MERGE_BOUND = clustering._MERGE ** 2 / 4
DROPOUT_LAW = Empirical(np.where(np.arange(400) == 123, 0.0,
                                 TruncatedNormal(0.6, 0.01).sample(13, 400)))
CONSTANT_LAW = Empirical(np.full(50, 0.4))


def test_merged_rule_keeps_every_power_mean():
    """The merged rule's runs hold adjacent sorted samples, each within
    _MERGE sigma_lo(a) of its run's least sample a, and its weights and
    node means give E[sqrt T], E[T], E[T^(3/2)] and E[T^2] of the samples;
    a constant trace is one node."""
    vals = LogNegativeWeibull(1.47, 0.6).sample(4, 500)
    rule = clustering._rule(Empirical(vals), 1000, P)
    x, w, powers = rule
    assert 20 < x.size < 500 and np.all(np.diff(x) > 0.0)
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-15)
    for p, col in enumerate(powers, start=1):
        assert float(np.dot(w, col)) == pytest.approx(float(np.mean(vals ** (p / 2))),
                                                      rel=1e-14)
    assert np.array_equal(powers[1], x)
    srt = np.sort(vals)
    reach = srt + clustering._MERGE * np.sqrt(
        clustering._sigma_arrays(srt, noise_variance(srt, P), V_MAX, 1000)[1])
    bounds = np.concatenate(([0], np.cumsum(np.rint(w * vals.size).astype(int))))
    for a, b in zip(bounds, bounds[1:]):
        assert srt[b - 1] <= reach[a]
        assert b == vals.size or srt[b] > reach[a]
    x, w, _ = clustering._rule(CONSTANT_LAW, 1000, P)
    assert x.size == 1 and x[0] == pytest.approx(0.4, rel=1e-15) and w.tolist() == [1.0]


def _exact_evaluator(dist, r=0.26, V=5.0, n=1000, m=1000):
    """An evaluator on every sample of an empirical law, each a node."""
    x, w = dist.expectation_rule()
    rule = clustering._Rule(x, w, clustering._powers(x))
    return clustering._Evaluator(rule, replace(P, r=r, V=V), m, n=n)


def _rate_shift_bound(ev, exact, dist, edges):
    """The module docstring's bound on how far merging moves the rate R
    of a plan: the sum over runs of W Var_run sup |Psi''| on the run.
    The runs are the sorted samples cut by ev's node weights.  dR/dS, for
    each cluster's sums S (mass, then the node columns), comes from
    central differences on exact at a fixed state count, with the slope
    of R in the state count added to the mass's; Psi'' comes from second
    differences at five points across each run."""
    k, proto = exact.k, exact.protocol

    def rate(S, N):
        if S[0] < clustering._MASS_FLOOR or S[0] * exact.m < 2.0:
            return 0.0
        wc = worst_case(clustering._stats(S[0], S[1:], k, exact.m, proto.epsilon), proto)
        return S[0] * key_rate(wc, N, proto).K

    grads = []
    for lo, hi in zip(edges, edges[1:]):
        wgt = clustering._membership(exact.s, exact.sigma, lo, hi) * exact.fw
        S = [float(np.sum(wgt)), *(float(np.dot(wgt, col)) for col in exact.columns)]
        N = clustering._states(S[0], exact.m, exact.n)
        grad = []
        for i, value in enumerate(S):
            step = 1e-6 * abs(value) or 1e-12
            up, down = list(S), list(S)
            up[i] += step
            down[i] -= step
            grad.append((rate(up, N) - rate(down, N)) / (2.0 * step))
        grad[0] += (rate(S, N + 1000) - rate(S, N - 1000)) / 2000.0 * exact.m * exact.n
        grads.append(grad)

    def parts(s):
        """Per cluster: the kernel g(s), the rate's weight of the mass
        and power columns at s, and of the noise columns at s."""
        vN = noise_variance(s, proto)
        v_u, v_w, c_uw = clustering._sigma_arrays(s, vN, proto.V, k)
        g = [clustering._membership(s, np.sqrt(v_w), lo, hi)
             for lo, hi in zip(edges, edges[1:])]
        powers = [np.sqrt(s), s, s * np.sqrt(s), s**2]
        psi = [d[0] + sum(dp * col for dp, col in zip(d[1:5], powers)) for d in grads]
        nu = [sum(dq * col for dq, col in zip(d[5:], (v_u, v_w, c_uw, vN))) for d in grads]
        return g, psi, nu

    srt = np.sort(dist.samples)
    bound = 0.0
    for run in np.split(srt, np.cumsum(np.rint(ev.fw * srt.size).astype(int))[:-1]):
        if np.ptp(run) == 0.0:
            continue
        g_bar, _, nu_bar = parts(np.array([np.mean(run)]))

        def Psi(s):
            g, psi, nu = parts(s)
            return sum((g[c] - g_bar[c]) * psi[c] + g[c] * nu[c] - g_bar[c] * nu_bar[c]
                       for c in range(len(g)))

        x = np.linspace(run[0], run[-1], 5)
        h = 1e-3 * np.sqrt(clustering._sigma_arrays(x, noise_variance(x, proto), proto.V, k)[1])
        curv = (Psi(x + h) - 2.0 * Psi(x) + Psi(x - h)) / h**2
        bound += run.size / srt.size * float(np.var(run)) * float(np.max(np.abs(curv)))
    return bound


@pytest.mark.parametrize("dist", [TRACE_LAW, SMALL_EMPIRICAL, DROPOUT_LAW, CONSTANT_LAW],
                         ids=["trace", "small", "dropout", "constant"])
@pytest.mark.parametrize("r, V", [*GRID_CORNERS, (0.26, 5.0)])
def test_merged_rule_stays_within_its_bound(dist, r, V):
    """Against the rule on every sample, the merged rule's marginal CDF at
    its own solved edges moves by at most kappa c^2 / 8, and the rate of
    a fixed plan by at most the module docstring's run bound (plus the
    rounding of summing every sample, for the one-node constant law)."""
    ev, exact = _evaluator(dist, r, V), _exact_evaluator(dist, r, V)
    assert ev.s.size < exact.s.size
    edges, G = ev._solve(64)
    t = edges[1:-1]
    assert np.max(np.abs(exact._cdf_pdf(t)[0][:, 0] - G[1:-1, 0])) <= MERGE_BOUND
    proto = replace(P, r=r, V=V)
    for plan in ((-math.inf, t[31], math.inf), (t[15], t[47]),
                 (-math.inf, t[20], t[40], math.inf)):
        merged = total_key_rate(dist, plan, 1000, 1000, proto).total_rate
        shift = abs(merged - exact.plan(plan).total_rate)
        assert shift <= _rate_shift_bound(ev, exact, dist, plan) + 1e-12, plan


@pytest.mark.parametrize("seed", [1, 2])
def test_one_more_sample_moves_the_search_rule_by_one_node(seed):
    """No cliff in the trace length: a trace and the same draw less its
    last sample (4,097 and 4,096 samples, where a histogram rule once took
    over) merge into node counts at most 1 apart, and on each a fixed
    plan's positive rate stays within the merge's bound of the rule on
    every sample."""
    vals = LogNegativeWeibull(1.47, 0.6).sample(seed, 4097)
    laws = [Empirical(vals[:-1]), Empirical(vals)]
    evs = [_evaluator(law) for law in laws]
    assert abs(evs[0].s.size - evs[1].s.size) <= 1 and max(ev.s.size for ev in evs) < 200
    plan = (-math.inf, 0.45, math.inf)
    for law, ev in zip(laws, evs):
        exact = _exact_evaluator(law)
        merged = total_key_rate(law, plan, 1000, 1000, replace(P, r=0.26, V=5.0)).total_rate
        assert merged > 0.0
        assert abs(merged - exact.plan(plan).total_rate) <= \
            _rate_shift_bound(ev, exact, law, plan)
