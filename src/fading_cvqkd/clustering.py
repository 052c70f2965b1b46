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

An empirical law's expectation rule puts every sample of a trace into
every kernel pass.  The search merges the sorted samples into runs
instead (_merge): a run starts at its least sample a and spans at most
delta(a) = c sigma_lo(a), c = _MERGE = 1/8, where sigma_lo is the
kernel width at n disclosed states and V = V_MAX, no wider than any
kernel of k <= n states at V <= V_MAX.  A node carries its run's
weight W, the run mean s' of T and the exact run means of sqrt T,
T^(3/2) and T^2; the noise columns are taken at s'.  Merging to s' alone
would drop the within-run spread of sqrt T, which X1 = <T> - <sqrt T>^2
reads, and bias every rate upward.

The marginal CDF's error: for an edge t write g(s) = ndtr((t - s) /
sigma(s)) for one node's kernel.  Merging replaces sum_i w_i g(s_i) over
a run by W g(s'); s' being the run mean, the first-order term cancels
and the remainder is at most W Var_run sup|g''| / 2, with Var_run <=
delta(a)^2 / 4.  So with kappa = sup sigma_lo^2 |g''| the CDF moves by at
most kappa c^2 / 8.  With z = (t - s) / sigma, sigma^2 g'' = ndtr'(z)
[2 sigma' (1 + z sigma') - z sigma sigma'' - z (1 + z sigma')^2]; where
sigma varies slowly that is -z ndtr'(z), at most 0.24, and it peaks near
T = 0, where sigma' reaches sqrt 2 (1 + 2 / k).  As sigma >= sigma_lo,
kappa <= sup sigma^2 |g''|, and a scan of k <= n, V in [0.5, V_MAX] and
V_S >= 0.5 puts kappa below 2 once n >= 10 (1.57 at n = 1000).  So
c = 1/8 keeps the CDF shift below c^2 / 4 = 1/256, the level spacing of
the finest search pass.

A plan's rate R is a smooth function of its clusters' sums S (mass and
column sums), so to first order merging moves it by sum_i w_i Psi(s_i)
over each run.  Psi(s), what a sample at s changes when it takes its
run's kernel, sums over the clusters dR/dS times (g(s) - g(s')) col(s)
for the mass and power columns and (g(s) col(s) - g(s') col(s')) for
the noise columns.  Psi(s') = 0, so the first-order term cancels again
and a run moves R by at most W Var_run sup|Psi''| / 2, of order c^2 like
the CDF.  R is far from linear in S (X1 cancels), so the bound on R is
twice that: the sum over runs of W Var_run sup|Psi''|.

Cluster boundaries live on the estimated-transmittance axis.  A plan
with C clusters has C+1 edges; infinite outer edges keep everything,
finite outer edges trim (discard) the tails.

The optimizer places the edges on Q equal-mass levels of the estimate
marginal, solved together: a span that holds every level in closed
form, a cubic Hermite start on Q/2 + 1 points of it, then Newton steps
that take the kernel sums and the density from one kernel pass.  At each
(r, V) point it scores every interval between two levels at once, from
an interval table read off each level's confirming pass (every edge is
a point the solve evaluated, within _XTOL of the root), then finds the
best chain of C intervals by dynamic programming, so the plan is exact
on that grid.

The table does not depend on C, only the dynamic program does, so
optimize_each searches for several cluster counts at once and shares
each point's table among them; each count still reports its own plan
and search record, the same as optimize gives for it alone.

No plan at an (r, V) point can beat rate_ceiling there, the rate of a
protocol that knew each package's transmittance, less the finite-size
terms every cluster must pay at least.  The search visits the points
best ceiling first, and a count C >= 1 skips the table of a point whose
ceiling lies below its incumbent rate, recording it as pruned; the plan
found stays the same, since a pruned point could only have lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from . import elementwise as ew
from .channel import V_MAX, ProtocolParams, noise_variance
from .distributions import Empirical, Moments, TransmittanceDistribution
from .errors import (ClusterTooSmallError, InsufficientDataError,
                     NumericalError, ParameterError)
from .estimation import AggregateStats, Estimates, T_variance, \
    WorstCaseChannel, aggregate, disclosed_count, sqrtT_variance, worst_case
from .security import EffectiveChannel, delta_fs, key_rate

__all__ = [
    "ClusterReport",
    "ClusterPlan",
    "OptimizeResult",
    "SearchPass",
    "total_key_rate",
    "cluster_assign",
    "total_key_rate_from_estimates",
    "optimize",
    "optimize_each",
    "rate_ceiling",
]

_MASS_FLOOR = 1e-12
_ORDER = 160  # nodes of the fading law's quadrature rule
# the span of a run of an empirical law's search rule, in narrowest kernel
# widths (see the module docstring)
_MERGE = 0.125
# the optimizer's geometric (r, V) grid and its quantile-level resolution
_R_GRID = tuple(np.geomspace(0.01, 0.9, 12).tolist())
_V_GRID = tuple(np.geomspace(0.5, 50.0, 12).tolist())
_LEVELS = 64
# the quantile solve: each edge is a point it evaluated, within _XTOL of the
# root, the xtol of the brentq reference in test_vector_quantiles_match_brentq
# (a level stops at a correction of _XTOL / 2); the step cap is ten times
# the 6 passes the slowest level took on the four laws, a 1,600-sample trace
# and a trace with a dropout to 0, over a 4 x 4 subgrid of (r, V)
_XTOL = 1e-12
_NEWTON_STEPS = 60
# elements per temporary (rows x nodes) array of the mixture sums
_BLOCK = 1 << 13


@dataclass(frozen=True)
class ClusterReport:
    """One cluster: its interval, probability mass, conditional moments
    of the true transmittance given that its estimate fell in the
    interval (None on data and below two packages), worst-case channel
    and key rate."""

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
class SearchPass:
    """One pass of the (r, V) search at Q boundary levels: the points
    tried, the intervals scored, each skipped point as a dict with its
    r, V and the error (type name and message) that ruled it out, and
    each pruned point as a dict with its r, V and the rate_ceiling below
    the incumbent rate that ruled it out; both in (r, V) order."""

    Q: int
    points: int
    intervals: int
    skipped: tuple[dict, ...] = ()
    pruned: tuple[dict, ...] = ()


@dataclass(frozen=True)
class OptimizeResult:
    """Best plan found, with the protocol parameters it was scored at.

    Iterates as (plan, r, V) for tuple unpacking.  evaluations counts
    the intervals scored: the entries of every interval table plus the
    single-interval reports (the rescored plans and the final plan).
    search records the grid pass and the two refinement passes.
    diagnostic notes a search that ended degenerate (no positive rate
    anywhere), the clusters of a positive-rate plan that carry no key
    (K_c = 0; they stay in the plan) and the clusters below 1% mass.
    """

    plan: ClusterPlan
    r: float
    V: float
    protocol: ProtocolParams
    total_rate: float
    evaluations: int
    diagnostic: str | None = None
    search: tuple[SearchPass, ...] = ()

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


def ndtr(x):
    """The standard normal CDF, scipy.special.ndtr, imported when called
    like every scipy import of the package (see distributions._quad)."""
    from scipy.special import ndtr
    return ndtr(x)


def ndtri(p):
    """The inverse of ndtr, scipy.special.ndtri, imported the same way."""
    from scipy.special import ndtri
    return ndtri(p)


def _membership(s: np.ndarray, sigma: np.ndarray, lo: float, hi: float):
    """P(lo <= T_hat < hi) for T_hat ~ N(s, sigma^2); an infinite edge
    keeps its whole tail (two infinite edges give the scalar 1.0)."""
    upper = ndtr((hi - s) / sigma) if math.isfinite(hi) else 1.0
    lower = ndtr((lo - s) / sigma) if math.isfinite(lo) else 0.0
    return upper - lower


class _Rule(NamedTuple):
    """A fading law's search rule: nodes s, weights fw and each node's
    means (sqrt T, T, T^(3/2), T^2) of the transmittance it stands for."""

    s: np.ndarray
    fw: np.ndarray
    powers: tuple[np.ndarray, ...]


def _powers(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """sqrt x, x, x^(3/2) and x^2: the columns whose node means a search reads."""
    sq = np.sqrt(x)
    return sq, x, x * sq, x**2


def _merge(samples: np.ndarray, count: int, protocol: ProtocolParams):
    """An empirical law's samples merged into runs: sorted, each run starts
    at its least sample a and holds every next sample up to a + _MERGE
    sigma_lo(a), sigma_lo the kernel width of count states at V = V_MAX.
    As that span rises with T, this greedy cut has the fewest runs of any
    cut that obeys it, so one sample more or less moves the node count by
    at most 1.  Returns the run means s', the run weights and the run
    means of the powers."""
    x = np.sort(samples)
    sharpest = replace(protocol, V=V_MAX)
    reach = x + _MERGE * np.sqrt(_sigma_arrays(x, count, sharpest)[2])
    starts = [0]
    while (nxt := int(np.searchsorted(x, reach[starts[-1]], side="right"))) < x.size:
        starts.append(nxt)
    counts = np.diff([*starts, x.size])
    means = tuple(np.add.reduceat(col, starts) / counts for col in _powers(x))
    return means[1], counts / x.size, means


def _rule(dist: TransmittanceDistribution, count: int, protocol: ProtocolParams) -> _Rule:
    """The fading law's search rule for kernels of at most count disclosed
    states, as read-only arrays, so that every evaluator of one call can
    share it: a law with a density keeps its expectation rule and the
    powers of its nodes; an empirical law's samples are merged (_merge).
    With epsilon and V_S the rule depends on no field the search varies."""
    s, fw = (np.array(a, dtype=float) for a in dist.expectation_rule(_ORDER))
    s, fw, powers = _merge(s, count, protocol) if isinstance(dist, Empirical) \
        else (s, fw, _powers(s))
    for a in (s, fw, *powers):
        a.flags.writeable = False
    return _Rule(s, fw, powers)


def _hermite_root(g0: np.ndarray, g1: np.ndarray, m0: np.ndarray,
                  m1: np.ndarray) -> np.ndarray:
    """u in [0, 1] where the cubic Hermite interpolant g(u) of the values
    g0 <= 0 < g1 and slopes m0, m1 at u = 0, 1 crosses zero, within
    rounding of the cubic: three Newton steps from the linear root,
    kept inside [0, 1]."""
    c2 = 3.0 * (g1 - g0) - 2.0 * m0 - m1
    c3 = m0 + m1 - 2.0 * (g1 - g0)
    u = -g0 / (g1 - g0)
    for _ in range(3):
        slope = m0 + u * (2.0 * c2 + 3.0 * c3 * u)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = u - (g0 + u * (m0 + u * (c2 + c3 * u))) / slope
        u = np.clip(np.where(slope > 0.0, step, u), 0.0, 1.0)
    return u


class _Evaluator:
    """Node arrays for one (rule, protocol, k, m, n) configuration; the rule
    is shared read-only.  report scores one interval, table every
    interval between Q levels at once; evaluations counts the intervals
    either has scored.

    The kernel (cluster membership) treats T_hat as Gaussian around the
    true value; the within-cluster spread of the aggregation columns
    u = sqrtT_hat and w = T_hat - sigma^2 uses the exact estimator
    moments E[u]=sqrt(s), Var(u)=v_u, E[w]=s, Var(w)=v_w, Cov=c_uw so
    the bounds line up with the estimation pipeline on real data.
    """

    def __init__(self, rule: _Rule, protocol: ProtocolParams, k: int, m: int, n: int):
        if int(m) < 2:
            raise InsufficientDataError(f"need at least 2 packages, got {m}")
        if int(k) < 2:
            raise InsufficientDataError(f"disclosed count must be >= 2, got {k}")
        self.s, self.fw, self.powers = rule
        self.protocol = protocol
        self.k = int(k)
        self.m = int(m)
        self.n = int(n)
        vN, v_u, v_w, c_uw = _sigma_arrays(self.s, self.k, protocol)
        self.sigma = np.sqrt(v_w)
        # the node columns whose cluster means the statistics need, in the
        # order _stats unpacks them
        self.columns = (*self.powers, v_u, v_w, c_uw, vN)
        self.evaluations = 0

    @cached_property
    def pdf_w(self) -> np.ndarray:
        """Node weights of the marginal density, fw / (sigma sqrt(2 pi));
        built on first use, so a C = 0 evaluator never pays for them."""
        return self.fw / (self.sigma * math.sqrt(2.0 * math.pi))

    @cached_property
    def kernel_w(self) -> np.ndarray:
        """Weights fw * [1, columns] of the kernel sums, built on first use."""
        return self.fw[:, None] * np.column_stack((np.ones_like(self.s), *self.columns))

    # ---- per-cluster statistics: floats for one interval, arrays for many

    def _stats(self, mass, sums) -> AggregateStats:
        """Aggregation statistics of a cluster of probability mass `mass`
        from the mass-weighted sums of the node columns."""
        mu_h, mu_1, mu_3h, mu_2, e_vu, e_vw, e_cuw, vN_c = [x / mass for x in sums]
        xp = ew.of(mass)
        var_u = e_vu + xp.maximum(0.0, mu_1 - mu_h**2)
        var_w = e_vw + xp.maximum(0.0, mu_2 - mu_1**2)
        cov_uw = e_cuw + (mu_3h - mu_h * mu_1)
        var_psi1 = xp.maximum(0.0, var_w + 4.0 * mu_h**2 * var_u - 4.0 * mu_h * cov_uw)
        var_psi2 = var_w + 4.0 * mu_h**2 * var_u + 4.0 * mu_h * cov_uw
        m_c = mass * self.m
        return AggregateStats(
            mean_sqrtT_hat=mu_h, mean_T_hat=mu_1,
            X1_hat=mu_1 - mu_h**2, X2_hat=mu_1 + mu_h**2,
            se_X1=xp.sqrt(var_psi1 / m_c), se_X2=xp.sqrt(var_psi2 / m_c),
            m_used=m_c,
            se_mean_sqrtT=xp.sqrt(var_u / m_c),
            se_mean_T=xp.sqrt(var_w / m_c),
            eps_hat=self.protocol.epsilon, vN_pooled=vN_c,
            k_total=m_c * self.k)

    def _states(self, mass):
        """States max(2, round(mass m n)) of a cluster of that mass."""
        x = mass * self.m * self.n
        if isinstance(x, np.ndarray):
            return np.maximum(2, np.rint(x).astype(np.int64))
        return max(2, int(round(x)))

    def report(self, t_lo: float, t_hi: float) -> ClusterReport:
        self.evaluations += 1
        interval = (t_lo, t_hi)
        wgt = _membership(self.s, self.sigma, t_lo, t_hi) * self.fw
        mass = float(np.sum(wgt))
        if mass < _MASS_FLOOR or mass * self.m < 2.0:
            return ClusterReport(interval=interval, mass=max(mass, 0.0),
                                 cond_moments=None, wc=None, N_c=0, K_c=0.0)
        stats = self._stats(mass, [float(np.dot(wgt, col)) for col in self.columns])
        wc = worst_case(stats, self.protocol)
        moments = Moments(stats.mean_T_hat, stats.mean_sqrtT_hat)
        N_c = self._states(mass)
        return ClusterReport(interval=interval, mass=mass, cond_moments=moments,
                             wc=wc, N_c=N_c, K_c=key_rate(wc, N_c, self.protocol).K)

    def plan(self, edges: Sequence[float]) -> ClusterPlan:
        reports = tuple([self.report(edges[i], edges[i + 1])
                         for i in range(len(edges) - 1)])
        total = sum([r.mass * r.K_c for r in reports])
        return ClusterPlan(boundaries=tuple(edges), per_cluster=reports,
                           total_rate=total)

    # ---- every interval between Q levels at once --------------------

    def _z(self, t: np.ndarray):
        """(t_i - s_j) / sigma_j in row blocks of _BLOCK elements, so that
        no (len(t), nodes) array is built."""
        rows = max(1, _BLOCK // self.s.size)
        for i in range(0, t.size, rows):
            yield (t[i:i + rows, None] - self.s) / self.sigma

    def _cdf_pdf(self, t: np.ndarray):
        """Kernel sums G = F @ kernel_w (G[:, 0] the marginal CDF) and the
        marginal density at t, both from one z per row block."""
        G, pdf = zip(*[(ndtr(z) @ self.kernel_w, np.exp(-0.5 * z * z) @ self.pdf_w)
                       for z in self._z(t)])
        return np.concatenate(G), np.concatenate(pdf)

    def span(self, Q: int) -> tuple[float, float]:
        """Points lo < hi with F(lo) <= 1 / (2 Q) and F(hi) >= 1 - 1 / (2 Q)
        for the estimate marginal F, half a level past the outer levels,
        without evaluating F: kernel j puts mass p below s_j + sigma_j
        ndtri(p), so with weights summing to 1, F is at most p at the
        least of these points and at least p at the greatest."""
        z = -float(ndtri(0.5 / Q))
        return (float(np.min(self.s - z * self.sigma)),
                float(np.max(self.s + z * self.sigma)))

    def _solve(self, Q: int) -> tuple[np.ndarray, np.ndarray]:
        """The Q + 1 edges (-inf, the Q - 1 quantiles that split the
        estimate marginal into Q levels of equal mass, +inf) and the kernel
        sums G at each edge: 0 at -inf, the column sums of kernel_w at +inf.

        A grid of Q/2 + 1 points over span(Q), which holds every level
        with half a level to spare at each end, gives each level a bracket
        and the cubic Hermite interpolant of the marginal CDF a start (Q + 1
        points cost more kernel work than the steps they save).  Bracketed
        Newton steps on the whole level vector, one kernel pass each, run
        until a level's correction is at most _XTOL / 2.  A step that
        leaves its bracket [a, b] takes the secant root of the CDF gaps
        at a and b instead, clipped to [a, b]: where the root lies within
        rounding of a, Newton lands on or past a, and bisecting would
        halve the level's gap once per pass; the secant gives a, and
        Newton from a ends the level in one more pass.  A level keeps the point its last pass
        evaluated and its row of G, so every edge is within _XTOL of its
        root.  A level the grid does not bracket raises NumericalError.
        """
        q = np.arange(1, Q) / Q
        grid = np.linspace(*self.span(Q), Q // 2 + 1)
        G, pdf = self._cdf_pdf(grid)
        cdf = G[:, 0]
        j = np.searchsorted(cdf, q, side="right")       # cdf[j - 1] <= q < cdf[j]
        if j[0] < 1 or j[-1] >= grid.size:
            raise NumericalError(f"quantile bracket failed: the estimate marginal "
                                 f"spans [{cdf[0]}, {cdf[-1]}] on "
                                 f"[{grid[0]}, {grid[-1]}]")
        lo, hi = grid[j - 1], grid[j]
        f_lo, f_hi = cdf[j - 1] - q, cdf[j] - q
        width = hi - lo
        t = lo + width * _hermite_root(f_lo, f_hi, width * pdf[j - 1], width * pdf[j])
        edge_G = np.empty((q.size, G.shape[1]))
        live = np.arange(q.size)
        for _ in range(_NEWTON_STEPS):
            tl = t[live]
            G, slope = self._cdf_pdf(tl)
            gap = G[:, 0] - q[live]
            below, above = gap < 0.0, gap > 0.0
            lo[live] = np.where(below, tl, lo[live])
            f_lo[live] = np.where(below, gap, f_lo[live])
            hi[live] = np.where(above, tl, hi[live])
            f_hi[live] = np.where(above, gap, f_hi[live])
            a, b, fa, fb = lo[live], hi[live], f_lo[live], f_hi[live]
            with np.errstate(divide="ignore", invalid="ignore"):
                step = tl - gap / slope
            secant = np.clip(a - fa * (b - a) / (fb - fa), a, b)
            step = np.where((step > a) & (step < b), step, secant)
            done = (gap == 0.0) | (np.abs(step - tl) <= _XTOL / 2)
            edge_G[live[done]] = G[done]
            t[live] = np.where(done, tl, step)
            live = live[~done]
            if live.size == 0:
                return (np.concatenate(([-math.inf], t, [math.inf])),
                        np.vstack((np.zeros(G.shape[1]), edge_G, self.kernel_w.sum(axis=0))))
        raise NumericalError(f"{live.size} of {q.size} quantile levels did not "
                             f"converge in {_NEWTON_STEPS} steps")

    def table(self, Q: int):
        """Score every interval between the Q + 1 edges (-inf, the Q - 1
        quantiles, +inf).  Returns the edges, the marginal CDF at each
        edge (interval (a, b) holds mass cdf[b] - cdf[a]) and the
        (Q+1, Q+1) matrix of rate contributions mass * K_c over (a, b),
        which is -inf unless a < b and the interval is feasible
        (mass >= _MASS_FLOOR and >= 2 expected packages).

        With G = F @ kernel_w, F the kernel CDF at each edge and node, the
        weighted sums of interval (a, b) are G[b] - G[a]; G comes from the
        quantile solve, so the table makes no kernel pass of its own.  The
        feasible intervals go through worst_case and key_rate as arrays, a
        block of rows of a at a time; a non-finite rate raises, unmasked.
        """
        edges, G = self._solve(Q)
        cdf = G[:, 0]
        rate = np.full((Q + 1, Q + 1), -math.inf)
        self.evaluations += Q * (Q + 1) // 2
        rows = max(1, _BLOCK // 2 // (Q + 1))
        for a0 in range(0, Q, rows):
            mass = cdf - cdf[a0:a0 + rows, None]
            keep = ~((mass < _MASS_FLOOR) | (mass * self.m < 2.0))
            a, b = np.nonzero(np.triu(keep, a0 + 1))
            a += a0
            sums = G[b] - G[a]
            stats = self._stats(sums[:, 0], sums[:, 1:].T)
            wc = worst_case(stats, self.protocol)
            K = key_rate(wc, self._states(sums[:, 0]), self.protocol).K
            if not np.isfinite(K).all():
                raise NumericalError(f"key rate is NaN or infinite on "
                                     f"{int(np.sum(~np.isfinite(K)))} interval(s)")
            rate[a, b] = sums[:, 0] * K
        return edges, cdf, rate


def _chain(table: tuple[np.ndarray, np.ndarray, np.ndarray], C: int) -> tuple[float, ...]:
    """Edges at the levels l_0 < ... < l_C of the C chained intervals
    (l_i, l_i+1) of highest total rate, by dynamic programming over the
    interval table (edges, cdf, rate); the outer levels are free, so the
    tails may be trimmed.

    Plans compare on (rate, kept mass), and the kept mass of a chain is
    cdf[l_C] - cdf[l_0].  For each end level the program keeps the chain of
    highest rate, then of lowest first level (most mass), then of lowest
    previous level; of the end levels it takes the highest (rate, kept
    mass), the lowest level on a tie.  Raises ClusterTooSmallError when
    no chain has every interval feasible.
    """
    edges, cdf, rate = table
    levels = np.arange(rate.shape[0])
    total = np.zeros(levels.size)   # best rate of the chains ending at each level
    first = levels                  # and the first level of that chain
    back = []
    for _ in range(C):
        cand = total[:, None] + rate
        total = cand.max(axis=0)
        prev = np.argmin(np.where(cand == total, first[:, None], levels.size), axis=0)
        first = first[prev]
        back.append(prev)
    if total.max() == -math.inf:
        raise ClusterTooSmallError(f"no {C} chained intervals on {levels.size - 1} "
                                   "levels are all feasible")
    chain = [int(np.argmax(np.where(total == total.max(), cdf - cdf[first],
                                    -math.inf)))]
    for prev in reversed(back):
        chain.append(int(prev[chain[-1]]))
    return tuple(float(edges[lv]) for lv in reversed(chain))


def _check_edges(boundaries: Sequence[float]) -> list[float]:
    edges = [float(b) for b in boundaries]
    if len(edges) < 2:
        raise ParameterError("a plan needs at least two edges")
    if not all(a < b for a, b in zip(edges, edges[1:])):   # NaN fails too
        raise ParameterError(f"edges must be strictly increasing, got {edges}")
    return edges


def total_key_rate(dist: TransmittanceDistribution, boundaries: Sequence[float],
                   n: int, m: int, protocol: ProtocolParams) -> ClusterPlan:
    """Evaluate a full plan: mass-weighted sum of per-cluster rates.

    boundaries: C+1 strictly increasing edges on the estimate axis;
    -inf/+inf outer edges keep every package, finite ones trim tails.
    Clusters expected to hold fewer than two packages contribute zero.
    """
    k = disclosed_count(int(n), protocol.r)
    ev = _Evaluator(_rule(dist, int(n), protocol), protocol, k, m, n=int(n))
    return ev.plan(_check_edges(boundaries))


# ---- empirical counterpart on simulated/ingested estimates ----------

def cluster_assign(est: Estimates, boundaries: Sequence[float]) -> np.ndarray:
    """The cluster label of each package by its T_hat estimate: c where
    edges[c] <= T_hat < edges[c + 1], and -1 outside the outer edges
    (trimmed)."""
    edges = _check_edges(boundaries)
    labels = np.searchsorted(edges, est.T_hat, side="right") - 1
    return np.where(labels < len(edges) - 1, labels, -1)


def total_key_rate_from_estimates(est: Estimates, boundaries: Sequence[float],
                                  n: int, protocol: ProtocolParams) -> ClusterPlan:
    """Empirical version of total_key_rate, operating on per-package
    estimates from data rather than on the fading law."""
    m_total = len(est)
    if m_total < 2:
        raise InsufficientDataError("need at least 2 packages")
    labels = cluster_assign(est, boundaries)
    edges = _check_edges(boundaries)
    reports = []
    for c in range(len(edges) - 1):
        interval = (edges[c], edges[c + 1])
        members = est[labels == c]
        mass = len(members) / m_total
        if len(members) < 2:
            reports.append(ClusterReport(interval=interval, mass=mass,
                                         cond_moments=None, wc=None,
                                         N_c=0, K_c=0.0))
            continue
        wc = worst_case(aggregate(members, protocol), protocol)
        N_c = len(members) * int(n)
        K_c = key_rate(wc, N_c, protocol).K
        reports.append(ClusterReport(interval=interval, mass=mass,
                                     cond_moments=None, wc=wc, N_c=N_c, K_c=K_c))
    if all(r.wc is None for r in reports):
        raise ClusterTooSmallError("no cluster holds 2 or more packages")
    total = sum(r.mass * r.K_c for r in reports)
    return ClusterPlan(boundaries=tuple(edges), per_cluster=tuple(reports),
                       total_rate=total)


# ---- optimization ----------------------------------------------------

def _around(x: float, factor: float, grid: Sequence[float]) -> list[float]:
    """x and its neighbours a geometric factor away, clamped to the grid's span."""
    return sorted({min(grid[-1], max(grid[0], v)) for v in (x / factor, x, x * factor)})


def rate_ceiling(rule: Sequence[np.ndarray], protocol: ProtocolParams,
                 n: int | None = None, m: int | None = None) -> float:
    """The most that any plan can reach at the protocol's (r, V) on a
    fading law whose rule starts with nodes s_j and weights fw_j, such as
    dist.expectation_rule() or a search's rule, with m packages of n
    states:

        (1 - r) sum_j fw_j max(0, K_inf(s_j, eps*) - delta_min)

    where delta_min = delta_fs(floor((1 - r) m n)) and eps* = epsilon +
    z_conf sqrt(2 / (m k)) min_j V_N(s_j), k = disclosed_count(n, r): the
    worst case's eps_up at eps_hat = epsilon, k_total = m k and
    vN_pooled = min V_N.  With n = m = None it is K_known = (1 - r)
    E_f[K_inf+(T, epsilon)], the rate of a protocol that knew each
    package's T (eps* = epsilon, delta_min = 0).

    Why no plan beats it, cluster by cluster (mass f_c, <.>_c the mean
    over the nodes with weights fw_j P(T_hat in c | s_j) / f_c):
    - T_eff_low <= <sqrt T>_c^2 <= <T>_c (the bound lies below the exact
      moment, then Jensen), and eps_eff_up >= eps_up >= eps*, since
      k_total = f_c m k <= m k and vN_pooled = <V_N>_c >= min V_N;
    - n_key_c <= floor((1 - r) m n), so the cluster pays delta >= delta_min;
    - K_inf+ rises in T, falls in eps and is convex in T, so with the
      convex g(T) = max(0, K_inf(T, eps*) - delta_min),
      K_c <= (1 - r) g(<T>_c);
    - Jensen over the cluster's conditional measure gives f_c g(<T>_c) <=
      sum_j fw_j P(T_hat in c | s_j) g(s_j), and over disjoint clusters
      those probabilities sum to at most 1 (a trimmed tail drops out), so
      the clusters' masses at each node sum to at most f.
    On an empirical law's merged rule the nodes are run means s'_j, and
    a node's sqrt-T column holds the run mean of sqrt T, which is at most
    sqrt(s'_j) (sqrt is concave).  So <sqrt T>_c <= <sqrt s'>_c and
    T_eff_low <= <sqrt s'>_c^2 <= <s'>_c, and Jensen runs over the nodes
    s'_j with weights fw_j as above.
    """
    s, fw = rule[:2]
    eps, delta = protocol.epsilon, 0.0
    if n is not None:
        n, m = int(n), int(m)
        vN_min = float(np.min(noise_variance(s, protocol)))
        eps += protocol.z_conf * math.sqrt(2.0 / (m * disclosed_count(n, protocol.r))) * vN_min
        delta = delta_fs(math.floor((1.0 - protocol.r) * (m * n)), protocol)
    K_inf = key_rate(EffectiveChannel(T=s, eps=np.full(s.shape, eps)), None, protocol).K_inf
    return (1.0 - protocol.r) * float(np.dot(fw, np.maximum(0.0, K_inf - delta)))


def optimize(dist: TransmittanceDistribution, C: int, n: int, m: int,
             protocol: ProtocolParams) -> OptimizeResult:
    """Jointly choose the disclosure fraction r, modulation variance V
    and the C cluster boundaries maximizing the total key rate.

    Deterministic nested search: a geometric (r, V) grid with the edges
    on Q = 64 equal-mass levels of the estimate marginal, then two local
    refinement passes at halved grid steps and Q = 128, 256.  At each
    point an interval table scores every interval between two levels
    and a dynamic program picks the best C chained intervals, outer
    edges free (see _chain); the winning edges are then rescored
    through the single-interval reports, and points compare on those
    numbers by the key (-rate, -kept mass, r, V, edges); a point whose
    rate_ceiling lies below the best rate found so far builds no table
    (see optimize_each), which changes no result.  C = 0
    evaluates the pooled (single all-inclusive cluster) protocol with
    one report per point and no table.  The bounds hold at the
    confidence multiplier protocol.z_conf.  A plan is feasible when each
    of its clusters holds two or more expected packages.  The result
    unpacks as (plan, r, V); its search field records each pass.  The
    law's quadrature rule is built once per call and shared read-only by
    the evaluators of every (r, V) point.  This is optimize_each of (C,).
    """
    return optimize_each(dist, (C,), n, m, protocol)[0]


_SKIPPED = (ParameterError, InsufficientDataError, ClusterTooSmallError)


def optimize_each(dist: TransmittanceDistribution, clusters: Sequence[int], n: int,
                  m: int, protocol: ProtocolParams) -> tuple[OptimizeResult, ...]:
    """The optimize result of each distinct cluster count in clusters,
    from one search.  Each pass visits the union of the points that the
    counts want best first: in descending rate_ceiling (computed where
    some count C >= 1 wants the point, +inf elsewhere and where it
    fails), ties in (r, V) order, so each count sees its own points in
    the same order as alone.  A count C >= 1 prunes a point whose
    ceiling lies below its incumbent rate; a point that some count
    still wants builds one evaluator and, if a count C >= 1 is among
    them, one interval table, which those counts share.  Each count
    folds into its own best key and refines around its own best point,
    and its record states the intervals its own search scored, so each
    result equals optimize's for that count alone, field for field.
    The key is a minimum over the points and a pruned point's rate lies
    strictly below it, so neither the order nor the pruning changes the
    plan, r or V that a count finds.
    """
    counts = tuple(clusters)
    if not counts or len(set(counts)) < len(counts) or min(counts) < 0:
        raise ParameterError(f"need one or more distinct cluster counts >= 0, "
                             f"got {counts}")
    if _LEVELS < max(counts) + 1:
        raise ParameterError(f"level resolution {_LEVELS} too coarse for "
                             f"{max(counts)} clusters")
    n, m = int(n), int(m)
    rule = _rule(dist, n, protocol)
    passes: dict[int, list[SearchPass]] = {C: [] for C in counts}
    best: dict[int, tuple | None] = dict.fromkeys(counts)

    def ceiling_at(r: float, V: float) -> float:
        """rate_ceiling at (r, V), or +inf (nothing pruned) where it
        fails; the point's own scoring then records why."""
        try:
            return rate_ceiling(rule, replace(protocol, r=r, V=V), n, m)
        except _SKIPPED:
            return math.inf

    def search(wanted: dict[int, list[tuple[float, float]]], Q: int) -> None:
        """Fold the best plan of each point of wanted[C] at resolution Q
        into best[C], the smallest key (-rate, -mass, r, V, edges); the
        points where C has no feasible plan are skipped, those whose
        ceiling lies below C's incumbent rate pruned, and both recorded."""
        want: dict[tuple[float, float], list[int]] = {}
        for C, points in wanted.items():
            for point in points:
                want.setdefault(point, []).append(C)
        ceiling = {point: ceiling_at(*point) if max(here) > 0 else math.inf
                   for point, here in want.items()}
        skipped = {C: [] for C in wanted}
        pruned = {C: [] for C in wanted}
        intervals = dict.fromkeys(wanted, 0)
        for r, V in sorted(want, key=lambda point: (-ceiling[point], point)):
            here = []
            for C in want[r, V]:
                # the 1e-9 covers rounding between the ceiling and a plan's rate
                if C > 0 and best[C] is not None \
                        and ceiling[r, V] * (1.0 + 1e-9) < -best[C][0]:
                    pruned[C].append({"r": r, "V": V, "ceiling": ceiling[r, V]})
                else:
                    here.append(C)
            if not here:
                continue
            table = None  # so that one table is alive at a time
            try:
                ev = _Evaluator(rule, replace(protocol, r=r, V=V),
                                disclosed_count(n, r), m, n=n)
            except _SKIPPED as exc:
                for C in here:
                    skipped[C].append({"r": r, "V": V, "error": type(exc).__name__,
                                       "message": str(exc)})
                continue
            if max(here) > 0:
                try:
                    table = ev.table(Q)
                except _SKIPPED as exc:
                    table = exc
            tabled = ev.evaluations
            for C in here:
                # C's record: the table's entries if C reads it, and its reports
                ev.evaluations = tabled if C > 0 else 0
                try:
                    if C > 0 and isinstance(table, Exception):
                        raise table
                    plan = ev.plan(_chain(table, C) if C > 0 else (-math.inf, math.inf))
                    if any(rep.cond_moments is None for rep in plan.per_cluster):
                        raise ClusterTooSmallError("the rescored plan has a cluster below "
                                                   "2 expected packages")
                except _SKIPPED as exc:
                    skipped[C].append({"r": r, "V": V, "error": type(exc).__name__,
                                       "message": str(exc)})
                    continue
                finally:
                    intervals[C] += ev.evaluations
                key = (-plan.total_rate, -plan.kept_mass, r, V, plan.boundaries)
                if best[C] is None or key < best[C]:
                    best[C] = key
        in_order = itemgetter("r", "V")
        for C, points in wanted.items():
            passes[C].append(SearchPass(Q=Q, points=len(points), intervals=intervals[C],
                                        skipped=tuple(sorted(skipped[C], key=in_order)),
                                        pruned=tuple(sorted(pruned[C], key=in_order))))

    search({C: [(r, V) for r in _R_GRID for V in _V_GRID] for C in counts}, _LEVELS)
    for C in counts:
        if best[C] is None:
            last = passes[C][-1].skipped[-1]
            raise ParameterError(f"no feasible (r, V) grid point for {C} cluster(s); the "
                                 f"last one failed with {last['error']}: {last['message']}")

    # local refinement: halve the geometric step around each count's best
    # point and double the level resolution, twice; an incumbent's key
    # stays comparable because it holds the rescored rate of its own edges
    r_step = (_R_GRID[-1] / _R_GRID[0]) ** (1.0 / (len(_R_GRID) - 1))
    V_step = (_V_GRID[-1] / _V_GRID[0]) ** (1.0 / (len(_V_GRID) - 1))
    for pass_idx in (1, 2):
        search({C: [(r_c, V_c)
                    for r_c in _around(best[C][2], r_step ** (0.5 ** pass_idx), _R_GRID)
                    for V_c in _around(best[C][3], V_step ** (0.5 ** pass_idx), _V_GRID)]
                for C in counts}, _LEVELS * 2 ** pass_idx)

    results = []
    for C in counts:
        _, _, best_r, best_V, best_edges = best[C]
        proto = replace(protocol, r=best_r, V=best_V)
        ev = _Evaluator(rule, proto, disclosed_count(n, best_r), m, n=n)
        plan = ev.plan(best_edges)
        evaluations = sum(p.intervals for p in passes[C]) + ev.evaluations
        notes = []
        if plan.total_rate <= 0.0:
            notes.append("no positive key rate anywhere on the search grid; "
                         "the channel statistics or block sizes do not support a key")
        else:
            idle = [f"{i} [{rep.interval[0]:.4f}, {rep.interval[1]:.4f})"
                    for i, rep in enumerate(plan.per_cluster) if rep.K_c <= 0.0]
            if idle:
                notes.append(f"{len(idle)} cluster(s) carry no key: {', '.join(idle)}")
        light = [rep.mass for rep in plan.per_cluster if rep.mass < 0.01]
        if light:
            notes.append(f"{len(light)} cluster(s) below 1% mass: "
                         f"{['%.4f' % v for v in light]}")
        results.append(OptimizeResult(
            plan=plan, r=best_r, V=best_V, protocol=proto, total_rate=plan.total_rate,
            evaluations=evaluations, diagnostic="; ".join(notes) or None,
            search=tuple(passes[C])))
    return tuple(results)
