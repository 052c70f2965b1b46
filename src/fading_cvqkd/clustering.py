"""Clustering packages by estimated transmittance to recover key rate.

Pooling all packages of a fading channel into one worst-case effective
channel wastes the good sub-channels.  Splitting packages into clusters
by their estimated transmittance, bounding each cluster separately and
adding the mass-weighted rates recovers part of the loss.

The evaluator here is semi-analytic: instead of Monte Carlo it models
the per-package estimate T_hat given true transmittance s as Gaussian
with mean s and the predicted estimator standard deviation sigma(s),
so the T_hat marginal is the fading law convolved with that normal
noise.  Mixing over the fading law with a fixed quadrature rule gives
exact first and second moments of the aggregation statistics, which
feed the same worst-case construction used on simulated data.

Cluster boundaries live on the estimated-transmittance axis.  A plan
with C clusters has C+1 edges; infinite outer edges keep everything,
finite outer edges trim (discard) the tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from .channel import ProtocolParams, noise_variance
from .distributions import Moments, TransmittanceDistribution
from .errors import (ClusterTooSmallError, EmptyClusterError,
                     InsufficientDataError, NumericalError, ParameterError)
from .estimation import AggregateStats, PackageEstimate, T_variance, \
    WorstCaseChannel, aggregate, disclosed_count, sqrtT_variance, worst_case
from .security import key_rate

__all__ = [
    "ClusterReport",
    "ClusterPlan",
    "OptimizeResult",
    "ConditionalDensity",
    "conditional_pdf",
    "marginal_pdf",
    "cluster_stats",
    "total_key_rate",
    "cluster_assign",
    "total_key_rate_from_estimates",
    "optimize",
]

_MASS_FLOOR = 1e-12
_ORDER = 160  # nodes of the fading law's quadrature rule
# the optimizer's geometric (r, V) grid and its quantile-level resolution
_R_GRID = tuple(np.geomspace(0.01, 0.9, 12).tolist())
_V_GRID = tuple(np.geomspace(0.5, 50.0, 12).tolist())
_LEVELS = 64


@dataclass(frozen=True)
class ClusterReport:
    """One cluster: its interval, probability mass, conditional moments
    of the true transmittance, worst-case channel and key rate."""

    interval: tuple[float, float]
    mass: float
    cond_moments: Moments | None
    wc: WorstCaseChannel | None
    N_c: int
    K_c: float


@dataclass(frozen=True)
class ClusterPlan:
    """C clusters described by C+1 edges on the estimate axis.

    With infinite outer edges the interior C-1 values are ordinary cut
    points partitioning the axis; finite outer edges additionally trim
    the tails, whose packages then contribute zero rate.  total_rate is
    bits per transmitted state across all N states, so trimmed mass
    dilutes it.
    """

    boundaries: tuple[float, ...]
    per_cluster: tuple[ClusterReport, ...]
    total_rate: float

    @property
    def kept_mass(self) -> float:
        return sum(c.mass for c in self.per_cluster)


@dataclass(frozen=True)
class OptimizeResult:
    """Best plan found, with the protocol parameters it was scored at.

    Iterates as (plan, r, V) for tuple unpacking.  diagnostic is set
    when the search ended degenerate (no positive rate anywhere).
    """

    plan: ClusterPlan
    r: float
    V: float
    protocol: ProtocolParams
    total_rate: float
    evaluations: int
    diagnostic: str | None = None

    def __iter__(self):
        return iter((self.plan, self.r, self.V))


def _sigma_arrays(s: np.ndarray, k: int, protocol: ProtocolParams):
    """(V_N, v_u, v_w, c_uw) at true transmittance s: the noise
    variance, the variances of the estimator pair (sqrtT_hat, T_hat)
    and their covariance 2 sqrt(s) v_u."""
    vN = noise_variance(s, protocol)
    v_u = sqrtT_variance(s, vN, protocol.V, k)
    v_w = T_variance(s, v_u)
    c_uw = 2.0 * np.sqrt(s) * v_u
    return vN, v_u, v_w, c_uw


def _membership(s: np.ndarray, sigma: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """P(lo <= T_hat < hi) for T_hat ~ N(s, sigma^2); an infinite edge
    keeps its whole tail."""
    upper = ndtr((hi - s) / sigma) if math.isfinite(hi) else np.ones_like(s)
    lower = ndtr((lo - s) / sigma) if math.isfinite(lo) else np.zeros_like(s)
    return upper - lower


def _rule(dist: TransmittanceDistribution, order: int = _ORDER):
    """The fading law's quadrature rule (nodes s, weights fw) as
    read-only copies, so that every evaluator of one call can share it."""
    s, fw = (np.array(a, dtype=float) for a in dist.expectation_rule(order))
    s.flags.writeable = fw.flags.writeable = False
    return s, fw


class _Nodes:
    """A shared read-only quadrature rule (nodes s, weights fw) with the
    estimator moments of k disclosed states at every node."""

    def __init__(self, rule: tuple[np.ndarray, np.ndarray],
                 protocol: ProtocolParams, k: int):
        if int(k) < 2:
            raise InsufficientDataError(f"disclosed count must be >= 2, got {k}")
        self.k = int(k)
        self.s, self.fw = rule
        self.vN, self.v_u, self.v_w, self.c_uw = _sigma_arrays(self.s, self.k, protocol)
        self.sigma = np.sqrt(self.v_w)


def _check_interval(interval: Sequence[float]) -> tuple[float, float]:
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ParameterError(f"interval must have lo < hi, got ({lo}, {hi})")
    return lo, hi


@dataclass(frozen=True, eq=False)
class ConditionalDensity:
    """Density of the true transmittance given that the package estimate
    fell inside an interval: p(s) proportional to f(s) times the kernel
    mass P(T_hat in interval | s), normalized over [0, 1].

    Callable; mass is the prior probability of the interval and
    moments() gives the conditional Moments of the rule nodes.
    """

    dist: TransmittanceDistribution
    interval: tuple[float, float]
    k: int
    protocol: ProtocolParams
    mass: float
    _nodes: np.ndarray = field(repr=False)
    _wgt: np.ndarray = field(repr=False)

    def __call__(self, s):
        arr = np.atleast_1d(np.asarray(s, dtype=float))
        dens = np.array([self.dist.density(float(v)) for v in arr])
        _, _, v_w, _ = _sigma_arrays(arr, self.k, self.protocol)
        out = dens * _membership(arr, np.sqrt(v_w), *self.interval) / self.mass
        return float(out[0]) if np.isscalar(s) or np.ndim(s) == 0 else out

    def moments(self) -> Moments:
        w = self._wgt
        mu_1 = float(np.dot(w, self._nodes)) / self.mass
        mu_h = float(np.dot(w, np.sqrt(self._nodes))) / self.mass
        return Moments(mean_T=mu_1, mean_sqrtT=mu_h,
                       var_sqrtT=max(0.0, mu_1 - mu_h**2))

    def mean(self) -> float:
        return self.moments().mean_T


def conditional_pdf(dist: TransmittanceDistribution, interval: Sequence[float],
                    k: int, protocol: ProtocolParams,
                    order: int = _ORDER) -> ConditionalDensity:
    """Conditional density of the true transmittance for packages whose
    estimate T_hat landed in the interval, with k disclosed states per
    package setting the estimator noise.  As k grows the kernel sharpens
    and the density approaches f restricted to the interval."""
    nodes = _Nodes(_rule(dist, order), protocol, k)
    lo, hi = _check_interval(interval)
    wgt = _membership(nodes.s, nodes.sigma, lo, hi) * nodes.fw
    mass = float(np.sum(wgt))
    if mass < _MASS_FLOOR:
        raise EmptyClusterError(f"interval {interval} carries mass {mass:.3g}")
    return ConditionalDensity(dist=dist, interval=(lo, hi), k=nodes.k,
                              protocol=protocol, mass=mass,
                              _nodes=nodes.s, _wgt=wgt)


def marginal_pdf(t_hat, dist: TransmittanceDistribution, k: int,
                 protocol: ProtocolParams):
    """Density of the package estimate T_hat: the fading law convolved
    with the predicted estimator noise at each true transmittance."""
    nodes = _Nodes(_rule(dist), protocol, k)
    t = np.atleast_1d(np.asarray(t_hat, dtype=float))
    zsq = (t[:, None] - nodes.s[None, :]) / nodes.sigma[None, :]
    dens = np.exp(-0.5 * zsq**2) / (math.sqrt(2.0 * math.pi) * nodes.sigma[None, :])
    acc = dens @ nodes.fw
    return float(acc[0]) if np.isscalar(t_hat) or np.ndim(t_hat) == 0 else acc


class _Evaluator(_Nodes):
    """Node arrays for one (rule, protocol, k, m) configuration, with
    caching of per-interval cluster reports; the rule is shared read-only.

    The kernel (cluster membership) treats T_hat as Gaussian around the
    true value; the within-cluster spread of the aggregation columns
    u = sqrtT_hat and w = T_hat - sigma^2 uses the exact estimator
    moments E[u]=sqrt(s), Var(u)=v_u, E[w]=s, Var(w)=v_w, Cov=c_uw so
    the bounds line up with the estimation pipeline on real data.
    """

    def __init__(self, rule: tuple[np.ndarray, np.ndarray], protocol: ProtocolParams,
                 k: int, m: int, n: int | None = None):
        if int(m) < 2:
            raise InsufficientDataError(f"need at least 2 packages, got {m}")
        super().__init__(rule, protocol, k)
        self.protocol = protocol
        self.m = int(m)
        self.n = None if n is None else int(n)
        self.sq = np.sqrt(self.s)
        self._quantiles: dict[float, float] = {}
        self._reports: dict[tuple[float, float], ClusterReport] = {}
        self.evaluations = 0

    # ---- marginal of the T_hat estimate ------------------------------

    def _cdf(self, t: float) -> float:
        return float(np.dot(self.fw, ndtr((t - self.s) / self.sigma)))

    def quantile(self, q: float) -> float:
        """Inverse CDF of the estimate marginal; q in (0, 1)."""
        key = round(q, 12)
        hit = self._quantiles.get(key)
        if hit is not None:
            return hit
        lo = float(np.min(self.s - 9.0 * self.sigma))
        hi = float(np.max(self.s + 9.0 * self.sigma))
        try:
            t = float(brentq(lambda x: self._cdf(x) - q, lo, hi,
                             xtol=1e-12, rtol=8.9e-16))
        except ValueError as exc:
            raise NumericalError(f"quantile bracket failed at q={q}: {exc}")
        self._quantiles[key] = t
        return t

    # ---- per-cluster statistics -------------------------------------

    def report(self, t_lo: float, t_hi: float) -> ClusterReport:
        key = (t_lo, t_hi)
        hit = self._reports.get(key)
        if hit is not None:
            return hit
        self.evaluations += 1
        interval = (t_lo, t_hi)
        wgt = _membership(self.s, self.sigma, t_lo, t_hi) * self.fw
        mass = float(np.sum(wgt))
        if mass < _MASS_FLOOR or mass * self.m < 2.0:
            rep = ClusterReport(interval=interval, mass=max(mass, 0.0),
                                cond_moments=None, wc=None, N_c=0, K_c=0.0)
            self._reports[key] = rep
            return rep
        mu_h = float(np.dot(wgt, self.sq)) / mass          # E[s^1/2]
        mu_1 = float(np.dot(wgt, self.s)) / mass           # E[s]
        mu_3h = float(np.dot(wgt, self.s * self.sq)) / mass
        mu_2 = float(np.dot(wgt, self.s**2)) / mass
        e_vu = float(np.dot(wgt, self.v_u)) / mass
        e_vw = float(np.dot(wgt, self.v_w)) / mass
        e_cuw = float(np.dot(wgt, self.c_uw)) / mass
        var_u = e_vu + max(0.0, mu_1 - mu_h**2)
        var_w = e_vw + max(0.0, mu_2 - mu_1**2)
        cov_uw = e_cuw + (mu_3h - mu_h * mu_1)
        var_psi1 = max(0.0, var_w + 4.0 * mu_h**2 * var_u - 4.0 * mu_h * cov_uw)
        var_psi2 = var_w + 4.0 * mu_h**2 * var_u + 4.0 * mu_h * cov_uw
        m_c = mass * self.m
        vN_c = float(np.dot(wgt, self.vN)) / mass
        stats = AggregateStats(
            mean_sqrtT_hat=mu_h, mean_T_hat=mu_1,
            X1_hat=mu_1 - mu_h**2, X2_hat=mu_1 + mu_h**2,
            se_X1=math.sqrt(var_psi1 / m_c), se_X2=math.sqrt(var_psi2 / m_c),
            m_used=m_c,
            se_mean_sqrtT=math.sqrt(var_u / m_c),
            se_mean_T=math.sqrt(var_w / m_c),
            eps_hat=self.protocol.epsilon, vN_pooled=vN_c,
            k_total=m_c * self.k)
        wc = worst_case(stats, self.protocol)
        moments = Moments(mu_1, mu_h, mu_1 - mu_h**2)
        if self.n is None:
            rep = ClusterReport(interval=interval, mass=mass,
                                cond_moments=moments, wc=wc, N_c=0, K_c=0.0)
        else:
            N_c = max(2, int(round(mass * self.m * self.n)))
            K_c = key_rate(wc, N_c, self.protocol).K
            rep = ClusterReport(interval=interval, mass=mass,
                                cond_moments=moments, wc=wc, N_c=N_c, K_c=K_c)
        self._reports[key] = rep
        return rep

    def plan(self, edges: Sequence[float]) -> ClusterPlan:
        reports = tuple(self.report(edges[i], edges[i + 1])
                        for i in range(len(edges) - 1))
        total = sum(r.mass * r.K_c for r in reports)
        return ClusterPlan(boundaries=tuple(edges), per_cluster=reports,
                           total_rate=total)


def _check_edges(boundaries: Sequence[float]) -> list[float]:
    edges = [float(b) for b in boundaries]
    if len(edges) < 2:
        raise ParameterError("a plan needs at least two edges")
    if any(edges[i] >= edges[i + 1] for i in range(len(edges) - 1)):
        raise ParameterError(f"edges must be strictly increasing, got {edges}")
    return edges


def cluster_stats(dist: TransmittanceDistribution, interval: Sequence[float],
                  k: int, protocol: ProtocolParams, m: int) -> ClusterReport:
    """Semi-analytic statistics (without key rate) of the packages whose
    estimate falls into one interval, given k disclosed states per
    package and m packages total.  Raises if the interval is (near)
    empty or holds fewer than two expected packages."""
    lo, hi = _check_interval(interval)
    ev = _Evaluator(_rule(dist), protocol, k, m)
    rep = ev.report(lo, hi)
    if rep.mass < _MASS_FLOOR:
        raise EmptyClusterError(f"interval {interval} carries mass {rep.mass:.3g}")
    if rep.cond_moments is None:
        raise ClusterTooSmallError(
            f"interval {interval} holds {rep.mass * m:.2f} expected packages; need >= 2")
    return rep


def total_key_rate(dist: TransmittanceDistribution, boundaries: Sequence[float],
                   n: int, m: int, protocol: ProtocolParams) -> ClusterPlan:
    """Evaluate a full plan: mass-weighted sum of per-cluster rates.

    boundaries: C+1 strictly increasing edges on the estimate axis;
    -inf/+inf outer edges keep every package, finite ones trim tails.
    Clusters expected to hold fewer than two packages contribute zero.
    """
    k = disclosed_count(int(n), protocol.r)
    ev = _Evaluator(_rule(dist), protocol, k, m, n=int(n))
    return ev.plan(_check_edges(boundaries))


# ---- empirical counterpart on simulated/ingested estimates ----------

def cluster_assign(estimates: Sequence[PackageEstimate],
                   boundaries: Sequence[float]) -> list[list[int]]:
    """Assign package indices to clusters by their T_hat estimate.
    Estimates outside the outer edges are left unassigned (trimmed)."""
    edges = _check_edges(boundaries)
    t = np.array([e.T_hat for e in estimates])
    idx = np.searchsorted(np.asarray(edges), t, side="right") - 1
    groups: list[list[int]] = [[] for _ in range(len(edges) - 1)]
    for i, c in enumerate(idx):
        if 0 <= c < len(groups):
            groups[c].append(i)
    return groups


def total_key_rate_from_estimates(estimates: Sequence[PackageEstimate],
                                  boundaries: Sequence[float],
                                  n: int, protocol: ProtocolParams) -> ClusterPlan:
    """Empirical version of total_key_rate, operating on per-package
    estimates from data rather than on the fading law."""
    m_total = len(estimates)
    if m_total < 2:
        raise InsufficientDataError("need at least 2 packages")
    groups = cluster_assign(estimates, boundaries)
    edges = _check_edges(boundaries)
    reports = []
    usable = 0
    for c, members in enumerate(groups):
        interval = (edges[c], edges[c + 1])
        mass = len(members) / m_total
        if len(members) < 2:
            reports.append(ClusterReport(interval=interval, mass=mass,
                                         cond_moments=None, wc=None,
                                         N_c=0, K_c=0.0))
            continue
        sub = [estimates[i] for i in members]
        stats = aggregate(sub, protocol)
        wc = worst_case(stats, protocol)
        N_c = len(members) * int(n)
        K_c = key_rate(wc, N_c, protocol).K
        reports.append(ClusterReport(interval=interval, mass=mass,
                                     cond_moments=None, wc=wc, N_c=N_c, K_c=K_c))
        usable += 1
    if usable == 0:
        raise ClusterTooSmallError("no cluster holds 2 or more packages")
    total = sum(r.mass * r.K_c for r in reports)
    return ClusterPlan(boundaries=tuple(edges), per_cluster=tuple(reports),
                       total_rate=total)


# ---- optimization ----------------------------------------------------

def _levels_to_edges(ev: _Evaluator, levels: Sequence[int], Q: int) -> list[float]:
    out = []
    for lv in levels:
        if lv <= 0:
            out.append(-math.inf)
        elif lv >= Q:
            out.append(math.inf)
        else:
            out.append(ev.quantile(lv / Q))
    return out


def _plan_score(ev: _Evaluator, levels: tuple[int, ...], Q: int,
                min_mass: float = 0.0) -> tuple[float, float]:
    """(rate, kept mass) of a level configuration; the mass breaks rate
    ties toward plans that discard fewer packages.  (-inf, -inf) marks
    configurations with a degenerate (near-empty or below-min-mass)
    cluster."""
    edges = _levels_to_edges(ev, levels, Q)
    rate = 0.0
    mass = 0.0
    for i in range(len(edges) - 1):
        rep = ev.report(edges[i], edges[i + 1])
        if rep.cond_moments is None or rep.mass < min_mass:
            return (-math.inf, -math.inf)
        rate += rep.mass * rep.K_c
        mass += rep.mass
    return (rate, mass)


def _descend(ev: _Evaluator, levels: tuple[int, ...], Q: int,
             window: int | None, min_mass: float = 0.0,
             max_sweeps: int = 10) -> tuple[tuple[int, ...], tuple[float, float]]:
    """Coordinate descent over integer quantile levels of the plan edges.

    Each edge in turn scans its feasible range (clipped to +-window if
    given) and takes the best strictly-improving move; ties keep the
    smaller level for determinism.
    """
    levels = list(levels)
    best = _plan_score(ev, tuple(levels), Q, min_mass)
    for _ in range(max_sweeps):
        moved = False
        for i in range(len(levels)):
            lo_lim = 0 if i == 0 else levels[i - 1] + 1
            hi_lim = Q if i == len(levels) - 1 else levels[i + 1] - 1
            if window is not None:
                lo_lim = max(lo_lim, levels[i] - window)
                hi_lim = min(hi_lim, levels[i] + window)
            cur = levels[i]
            for cand in range(lo_lim, hi_lim + 1):
                if cand == cur:
                    continue
                trial = levels.copy()
                trial[i] = cand
                score = _plan_score(ev, tuple(trial), Q, min_mass)
                if score > best or (score == best and cand < levels[i]):
                    if score > best:
                        moved = True
                    best = score
                    levels = trial
        if not moved:
            break
    return tuple(levels), best


def _initial_levels(C: int, Q: int) -> tuple[int, ...]:
    if C == 0:
        return (0, Q)
    return tuple(round(i * Q / C) for i in range(C + 1))


def _around(x: float, factor: float, grid: Sequence[float]) -> list[float]:
    """x and its neighbours a geometric factor away, clamped to the grid's span."""
    return sorted({min(grid[-1], max(grid[0], v)) for v in (x / factor, x, x * factor)})


def optimize(dist: TransmittanceDistribution, C: int, n: int, m: int,
             protocol: ProtocolParams, *, min_mass: float = 0.0) -> OptimizeResult:
    """Jointly choose the disclosure fraction r, modulation variance V
    and the C cluster boundaries maximizing the total key rate.

    Deterministic nested search: a geometric (r, V) grid outside, then
    coordinate descent over integer quantile levels of the estimate
    marginal inside, then two local refinement passes at halved grid
    steps and doubled level resolution.  The bounds hold at the
    confidence multiplier protocol.z_conf.  C = 0 evaluates the pooled
    (single all-inclusive cluster) protocol.  min_mass rejects plans
    with any cluster lighter than that probability mass.  The result
    unpacks as (plan, r, V).  The law's quadrature rule is built once per
    call and shared read-only by the evaluators of every (r, V) point.
    """
    if C < 0:
        raise ParameterError(f"cluster count must be >= 0, got {C}")
    if not (0.0 <= min_mass < 1.0):
        raise ParameterError(f"min_mass must lie in [0, 1), got {min_mass}")
    if _LEVELS < C + 1:
        raise ParameterError(f"level resolution {_LEVELS} too coarse for {C} clusters")
    n, m = int(n), int(m)
    rule = _rule(dist)

    def search(points, Q: int, start: tuple[int, ...], window: int | None, best=None):
        """Fold the best plan of each (r, V) point, searched from the
        start levels at resolution Q, into best, the lexicographically
        smallest key (-rate, -mass, r, V, levels); infeasible points are
        skipped.  Returns best and the interval reports evaluated."""
        evaluations = 0
        for r, V in points:
            try:
                ev = _Evaluator(rule, replace(protocol, r=r, V=V),
                                disclosed_count(n, r), m, n=n)
                if C == 0:
                    levels, score = start, _plan_score(ev, start, Q, min_mass)
                else:
                    levels, score = _descend(ev, start, Q, window, min_mass)
            except (ParameterError, InsufficientDataError):
                continue
            evaluations += ev.evaluations
            key = (-score[0], -score[1], r, V, levels)
            if best is None or key < best:
                best = key
        return best, evaluations

    Q = _LEVELS
    best, evaluations = search([(r, V) for r in _R_GRID for V in _V_GRID],
                               Q, _initial_levels(C, Q), None)
    if best is None:
        raise ParameterError("no feasible (r, V) grid point; V + V_S - 1 must be positive")

    # local refinement: halve the geometric step around the best point
    # and double the boundary resolution, twice.  Levels are quantile
    # indices, so doubling them with the resolution keeps the edges put;
    # the same fractional edges give the same rate, so the carried-over
    # incumbent stays comparable at the doubled resolution
    r_step = (_R_GRID[-1] / _R_GRID[0]) ** (1.0 / (len(_R_GRID) - 1))
    V_step = (_V_GRID[-1] / _V_GRID[0]) ** (1.0 / (len(_V_GRID) - 1))
    for pass_idx in (1, 2):
        Q *= 2
        neg_rate, neg_mass, r, V, levels = best
        start = tuple(lv * 2 for lv in levels)
        points = [(r_c, V_c) for r_c in _around(r, r_step ** (0.5 ** pass_idx), _R_GRID)
                  for V_c in _around(V, V_step ** (0.5 ** pass_idx), _V_GRID)]
        best, found = search(points, Q, start, 4, (neg_rate, neg_mass, r, V, start))
        evaluations += found

    _, _, best_r, best_V, best_levels = best
    proto = replace(protocol, r=best_r, V=best_V)
    ev = _Evaluator(rule, proto, disclosed_count(n, best_r), m, n=n)
    plan = ev.plan(_levels_to_edges(ev, best_levels, Q))
    evaluations += ev.evaluations
    notes = []
    if plan.total_rate <= 0.0:
        notes.append("no positive key rate anywhere on the search grid; "
                     "the channel statistics or block sizes do not support a key")
    light = [rep.mass for rep in plan.per_cluster if rep.mass < 0.01]
    if light:
        notes.append(f"{len(light)} cluster(s) below 1% mass: "
                     f"{['%.4f' % v for v in light]}")
    return OptimizeResult(plan=plan, r=best_r, V=best_V, protocol=proto,
                          total_rate=plan.total_rate, evaluations=evaluations,
                          diagnostic="; ".join(notes) or None)
