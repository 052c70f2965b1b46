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
feed the same worst-case construction used on simulated data.  One
function, _rate, states that chain (statistics, worst case, key rate)
for one interval, a table of intervals and the pooled cluster at many
(r, V) points alike.

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

One search (_search) serves every job (C, m), C clusters among m
packages: optimize_each runs the jobs (C, m) of its counts, and
optimize_pooled the jobs (0, m) of its ladder.  Each job folds its own
best key, refines around its own best point and records its own passes,
the same as optimize gives for it alone.  The table does not depend on
C, so in each pass the jobs C >= 1 of one m share each point's table.
Nor does the dynamic program: its stage c is the whole program for c
intervals, so one program runs to the largest count and reads each
count's chain off at its stage.  Each count's chain is rescored on its
own, and each count records the intervals its search alone asks for.
The pooled plan (C = 0, one cluster with edges -inf and +inf) needs no
table, and its mass and five of its eight column sums are the same at
every (r, V) point and every m; the other three, the noise sums, depend
on (V, k) alone.  So each pass scores the points of every job (0, m) in
one array evaluation (_pooled), m a column beside r and V, and takes the
noise sums once per distinct list of admitted points, in the row blocks
that list gets alone, so that every rate keeps the bits of a search for
its m alone.

No plan at an (r, V) point can beat rate_ceiling there, the rate of a
protocol that knew each package's transmittance, less the finite-size
terms every cluster must pay at least.  Each pass computes the ceilings
of its points in one array call, each still its own dot product; a point
that the protocol refuses keeps +inf.  The search visits the points best
ceiling first, and a count C >= 1 skips the table of a point whose
ceiling lies below its incumbent rate, recording it as pruned; the plan
found stays the same, since a pruned point could only have lost.  After
the table, a count whose best dynamic-program total, widened by
_PRUNE_MARGIN, lies below its incumbent rate is neither traced back nor
rescored, unless some feasible interval of the table sits at the edge of
_too_small's floor, where the float rescore may refuse what the table
admitted.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import product
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from . import elementwise as ew
from .channel import V_MAX, ProtocolParams, _run_size, noise_variance
from .distributions import Empirical, Moments, TransmittanceDistribution, _count, _number
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
    "optimize_pooled",
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
# (a level stops at a step of _XTOL / 2); the step cap is ten times the 6
# passes the slowest level took on the four laws, a 1,600-sample trace and a
# trace with a dropout to 0, over the (r, V) grid.  A trace whose samples
# drop to 0 in bulk puts a step into the estimate marginal; the searches
# (C = 1..3, n = m = 1000) on two 1,600-sample traces with 10% to 90% of
# their samples at 0 took at most 29 passes per solve, where the zeros held
# exactly half the mass
_XTOL = 1e-12
_NEWTON_STEPS = 60
# the relative and absolute margin of the post-table prune (_outranked): on
# the grid (four laws and a 1,600-sample trace, n = m = 1000 and 400) a
# chain's float rescore lay within 3.9e-10 relative and 2.5e-12 absolute
# of its table total, too close to the ceiling prune's 1e-9;
# test_prune_margin_holds_the_rescore_gap keeps that gap 100 times inside
_PRUNE_MARGIN = (1e-6, 1e-9)
# elements per temporary (rows x nodes) array of the mixture sums, and
# intervals per _rate call of an interval table
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
    tried, the intervals the count's search asked for (each table's
    entries and each chain's intervals, rescored or not; see
    _clustered), each skipped point as a dict with its r, V and the
    error (type name and message) that ruled it out, and each pruned
    point as a dict with its r, V and the rate_ceiling below the
    incumbent rate that ruled it out; both in (r, V) order.  A count
    outranked after its table records no point."""

    Q: int
    points: int
    intervals: int
    skipped: tuple[dict, ...] = ()
    pruned: tuple[dict, ...] = ()


@dataclass(frozen=True)
class OptimizeResult:
    """Best plan found, with the protocol it was scored at: protocol.r
    and protocol.V are the chosen (r, V), plan.total_rate the rate.
    search records the grid pass and the two refinement passes.
    diagnostic notes a search that ended degenerate (no positive rate
    anywhere), the clusters of a positive-rate plan that carry no key
    (K_c = 0; they stay in the plan) and the clusters below 1% mass.
    """

    plan: ClusterPlan
    protocol: ProtocolParams
    diagnostic: str | None
    search: tuple[SearchPass, ...]

    @property
    def evaluations(self) -> int:
        """The intervals asked for: those of every pass (each table's
        entries and each count's chain, rescored or not) and the final
        plan's one report per cluster."""
        return sum(p.intervals for p in self.search) + len(self.plan.per_cluster)


def _sigma_arrays(s: np.ndarray, vN: np.ndarray, V, k):
    """(v_u, v_w, c_uw) at true transmittance s and noise variance vN:
    the variances of the estimator pair (sqrtT_hat, T_hat) from k
    disclosed states at modulation variance V, and their covariance
    2 sqrt(s) v_u.  V and k may be columns, one row per (r, V) point."""
    v_u = sqrtT_variance(s, vN, V, k)
    return v_u, T_variance(s, v_u), 2.0 * np.sqrt(s) * v_u


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
    """P(lo <= T_hat < hi) for T_hat ~ N(s, sigma^2), sigma > 0; an
    infinite edge keeps its whole tail, ndtr(+-inf) being exactly 1 and 0."""
    return ndtr((hi - s) / sigma) - ndtr((lo - s) / sigma)


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
    reach = x + _MERGE * np.sqrt(_sigma_arrays(x, noise_variance(x, protocol), V_MAX, count)[1])
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


# ---- per-cluster statistics: floats for one interval, arrays for many

def _stats(mass, sums, k, m: int, epsilon: float) -> AggregateStats:
    """Aggregation statistics of a cluster of probability mass `mass` among
    m packages of k disclosed states from the mass-weighted sums of the
    node columns (_Evaluator.columns)."""
    mu_h, mu_1, mu_3h, mu_2, e_vu, e_vw, e_cuw, vN_c = [x / mass for x in sums]
    xp = ew.of(mass)
    var_u = e_vu + xp.maximum(0.0, mu_1 - mu_h**2)
    var_w = e_vw + xp.maximum(0.0, mu_2 - mu_1**2)
    cov_uw = e_cuw + (mu_3h - mu_h * mu_1)
    var_psi1 = xp.maximum(0.0, var_w + 4.0 * mu_h**2 * var_u - 4.0 * mu_h * cov_uw)
    var_psi2 = var_w + 4.0 * mu_h**2 * var_u + 4.0 * mu_h * cov_uw
    m_c = mass * m
    return AggregateStats(
        mean_sqrtT_hat=mu_h, mean_T_hat=mu_1,
        X1_hat=mu_1 - mu_h**2, X2_hat=mu_1 + mu_h**2,
        se_X1=xp.sqrt(var_psi1 / m_c), se_X2=xp.sqrt(var_psi2 / m_c),
        m_used=m_c,
        se_mean_sqrtT=xp.sqrt(var_u / m_c),
        se_mean_T=xp.sqrt(var_w / m_c),
        eps_hat=epsilon, vN_pooled=vN_c,
        k_total=m_c * k)


def _states(mass, m: int, n: int):
    """States max(2, round(mass m n)) of a cluster of that mass."""
    x = mass * m * n
    if isinstance(x, np.ndarray):
        return np.maximum(2, np.rint(x).astype(np.int64))
    return max(2, int(round(x)))


def _rate(mass, sums, k, m, n: int, protocol: ProtocolParams):
    """The one chain that scores a cluster of probability mass `mass`
    among m packages of n states, k of them disclosed, from the
    mass-weighted sums of the node columns: the worst-case channel of its
    aggregation statistics (_stats), its states N (_states) and its key
    rate K on them.  Floats score one interval; arrays score a block of a
    table or the pooled cluster at many points, whose protocol then holds
    r and V as arrays (_at), and m may then be an array too, one package
    count per point (_stats and _states are elementwise in it).  The
    statistics are dropped once worst_case has read them, so that fewer
    of a table block's arrays are alive while key_rate runs.  A
    non-finite K raises, unmasked."""
    wc = worst_case(_stats(mass, sums, k, m, protocol.epsilon), protocol)
    N = _states(mass, m, n)
    K = key_rate(wc, N, protocol).K
    if not ew.of(K).isfinite(K):
        raise NumericalError(f"key rate is NaN or infinite on "
                             f"{int(np.sum(~np.isfinite(K)))} interval(s)")
    return wc, N, K


def _too_small(mass, m: int):
    """Whether a cluster of that mass holds too little to score: mass below
    _MASS_FLOOR or fewer than 2 expected packages."""
    return (mass < _MASS_FLOOR) | (mass * m < 2.0)


class _Evaluator:
    """Node arrays for one (rule, protocol, m, n) configuration, with k =
    disclosed_count(n, protocol.r) disclosed states per package; the rule
    is shared read-only.  report scores one interval, table every
    interval between Q levels at once.  An evaluator keeps no record of
    what it scored: its only state past the node arrays is the lazy
    pdf_w and kernel_w, so each answer is a function of (rule, protocol,
    m, n) and the interval or Q asked for.

    The kernel (cluster membership) treats T_hat as Gaussian around the
    true value; the within-cluster spread of the aggregation columns
    u = sqrtT_hat and w = T_hat - sigma^2 uses the exact estimator
    moments E[u]=sqrt(s), Var(u)=v_u, E[w]=s, Var(w)=v_w, Cov=c_uw so
    the bounds line up with the estimation pipeline on real data.
    """

    def __init__(self, rule: _Rule, protocol: ProtocolParams, m: int, n: int):
        k = disclosed_count(n, protocol.r)
        if m < 2:
            raise InsufficientDataError(f"need at least 2 packages, got {m}")
        self.s, self.fw, self.powers = rule
        self.protocol = protocol
        self.k, self.m, self.n = k, m, n
        vN = noise_variance(self.s, protocol)
        v_u, v_w, c_uw = _sigma_arrays(self.s, vN, protocol.V, k)
        self.sigma = np.sqrt(v_w)
        # the node columns whose cluster means the statistics need, in the
        # order _stats unpacks them
        self.columns = (*self.powers, v_u, v_w, c_uw, vN)

    @cached_property
    def pdf_w(self) -> np.ndarray:
        """Node weights of the marginal density, fw / (sigma sqrt(2 pi));
        built on first use, so a C = 0 evaluator never pays for them."""
        return self.fw / (self.sigma * math.sqrt(2.0 * math.pi))

    @cached_property
    def kernel_w(self) -> np.ndarray:
        """Weights fw * [1, columns] of the kernel sums, built on first use."""
        return self.fw[:, None] * np.column_stack((np.ones_like(self.s), *self.columns))

    def report(self, t_lo: float, t_hi: float) -> ClusterReport:
        """The report of the cluster [t_lo, t_hi)."""
        interval = (t_lo, t_hi)
        wgt = _membership(self.s, self.sigma, *interval) * self.fw
        mass = float(np.sum(wgt))
        if _too_small(mass, self.m):
            return ClusterReport(interval=interval, mass=max(mass, 0.0),
                                 cond_moments=None, wc=None, N_c=0, K_c=0.0)
        sums = [float(np.dot(wgt, col)) for col in self.columns]
        wc, N_c, K_c = _rate(mass, sums, self.k, self.m, self.n, self.protocol)
        # the cluster means of T and sqrt T, the means _stats takes
        moments = Moments(sums[1] / mass, sums[0] / mass)
        return ClusterReport(interval=interval, mass=mass, cond_moments=moments,
                             wc=wc, N_c=N_c, K_c=K_c)

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
        until a level's step is at most _XTOL / 2.  A step that leaves its
        bracket [a, b] takes the secant root of the CDF gaps at a and b
        instead, clipped to [a, b]: where the root lies within rounding of
        a, Newton lands on or past a, and bisecting would halve the level's
        gap once per pass; the secant gives a, and Newton from a ends the
        level in one more pass.  A step longer than half the level's last
        step bisects [a, b] instead, so that each pass at least halves
        either the level's step or its bracket.  That bounds the passes
        where the marginal has a step (a trace's dropouts to 0): there
        Newton from the flat side lands back near the other end, each
        secant lands a hair inside the same end, and Newton from the steep
        side creeps down the zero node's Gaussian tail.  A level keeps the
        point its last pass evaluated and its row of G, so the table reads
        F(edge) itself, and the guarantee is in mass: a level q that a
        Newton step ends has |F(edge) - q| <= f(edge) _XTOL / 2, f the
        marginal density; where f is all but 0 a short secant step may end
        it far from its root at as small a gap (at 50% zeros, f = 2e-9: 7e-3
        away, at 1.4e-11).  A level the grid does not bracket raises NumericalError.
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
        last = np.full(q.size, math.inf)            # each level's last step length
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
            step = np.where(np.abs(step - tl) > 0.5 * last[live], 0.5 * (a + b), step)
            last[live] = np.abs(step - tl)
            done = (gap == 0.0) | (last[live] <= _XTOL / 2)
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
        level pairs a < b of Q come from one cached triangle (_triangle),
        tested for feasibility all at once; the feasible ones go through
        _rate as arrays, _BLOCK intervals at a time, each block's sums
        gathered as rows, one per kernel column.  _rate is elementwise, so
        the blocks do not move a bit of any rate.
        """
        edges, G = self._solve(Q)
        cdf = G[:, 0]
        rate = np.full((Q + 1, Q + 1), -math.inf)
        a, b = _triangle(Q)
        keep = ~_too_small(cdf[b] - cdf[a], self.m)
        a, b = a[keep], b[keep]
        for i in range(0, a.size, _BLOCK):
            lo, hi = a[i:i + _BLOCK], b[i:i + _BLOCK]
            sums = np.take(G.T, hi, axis=1) - np.take(G.T, lo, axis=1)
            rate[lo, hi] = sums[0] * _rate(sums[0], sums[1:], self.k, self.m, self.n,
                                           self.protocol)[2]
        return edges, cdf, rate


@lru_cache(maxsize=3)
def _triangle(Q: int) -> tuple[np.ndarray, np.ndarray]:
    """The level pairs a < b of Q + 1 edges, np.triu_indices(Q + 1, 1) in
    row-major order, as read-only int32 arrays; the cache holds the three
    Q of a search."""
    pairs = tuple(x.astype(np.int32) for x in np.triu_indices(Q + 1, 1))
    for x in pairs:
        x.flags.writeable = False
    return pairs


def _totals(rate: np.ndarray, top: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The totals sweep of the dynamic program over an interval table's
    rate: the table transposed (row b holds the intervals that end at
    level b, so that every stage reduces along contiguous rows) and, for
    c = 0..top, the best total rate of c chained intervals ending at each
    level (-inf where no chain has every interval feasible)."""
    ends = np.ascontiguousarray(rate.T)     # ends[b, a] = rate[a, b]
    totals = [np.zeros(ends.shape[0])]
    for _ in range(top):
        totals.append((ends + totals[-1]).max(axis=1))
    return ends, totals


def _chains(table: tuple[np.ndarray, np.ndarray, np.ndarray], counts: Sequence[int],
            swept: tuple[np.ndarray, list[np.ndarray]] | None = None,
            ) -> dict[int, tuple[float, ...] | ClusterTooSmallError]:
    """For each count C in counts, the edges at the levels l_0 < ... < l_C
    of the C chained intervals (l_i, l_i+1) of highest total rate, by one
    dynamic program over the interval table (edges, cdf, rate); the outer
    levels are free, so the tails may be trimmed.  Stage c of the program
    is the whole program for c intervals, so it runs to max(counts) and
    reads each count's chain off at its own stage.  swept is the table's
    totals sweep (_totals) to at least that stage, if it has been made;
    this trace-back repeats each stage's sums to break its ties.

    Plans compare on (rate, kept mass), and the kept mass of a chain is
    cdf[l_C] - cdf[l_0].  For each end level the program keeps the chain of
    highest rate, then of lowest first level (most mass), then of lowest
    previous level; of the end levels it takes the highest (rate, kept
    mass), the lowest level on a tie.  A count for which no chain has
    every interval feasible gets a ClusterTooSmallError instead.
    """
    edges, cdf, rate = table
    ends, totals = swept or _totals(rate, max(counts))
    levels = np.arange(ends.shape[0])
    first = levels      # the first level of the best chain ending at each level
    back = []
    chains = {}
    for c in range(1, max(counts) + 1):
        cand = ends + totals[c - 1]
        total = totals[c]
        prev = np.argmin(np.where(cand == total[:, None], first, levels.size), axis=1)
        first = first[prev]
        back.append(prev)
        if c not in counts:
            continue
        if total.max() == -math.inf:
            chains[c] = ClusterTooSmallError(f"no {c} chained intervals on {levels.size - 1} "
                                             "levels are all feasible")
            continue
        chain = [int(np.argmax(np.where(total == total.max(), cdf - cdf[first],
                                        -math.inf)))]
        for step in reversed(back):
            chain.append(int(step[chain[-1]]))
        chains[c] = tuple(float(edges[lv]) for lv in reversed(chain))
    return chains


def _raised(value):
    """value, raised if it is an exception (a count's entry of _chains)."""
    if isinstance(value, Exception):
        raise value
    return value


def _check_edges(boundaries: Sequence[float]) -> list[float]:
    edges = [float(_number(b, "a plan edge")) for b in boundaries]
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
    n, m = _run_size(n, m)
    ev = _Evaluator(_rule(dist, n, protocol), protocol, m, n)
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
    n = _count(n, "package size", 2)
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
        N_c = len(members) * n
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

    The protocol's r and V may be columns, one row per (r, V) point (see
    _at); the result is then an array of each point's ceiling, the same
    float that the point alone gives, as each is still the dot product of
    fw with its own row.
    """
    s, fw = rule[:2]
    xp = ew.of(protocol.r)
    eps, delta = protocol.epsilon, 0.0
    if n is not None:
        n, m = _run_size(n, m)
        rs = np.ravel(protocol.r).tolist()
        ks = _disclosed(n, rs)
        k = np.reshape([_raised(ks[r]) for r in rs], np.shape(protocol.r))
        vN_min = float(np.min(noise_variance(s, protocol)))
        eps += protocol.z_conf * xp.sqrt(2.0 / (m * k)) * vN_min
        delta = delta_fs(xp.floor((1.0 - protocol.r) * (m * n)), protocol)
    K_inf = key_rate(EffectiveChannel(T=s, eps=np.full(np.broadcast(s, eps).shape, eps)),
                     None, protocol).K_inf
    gain = np.maximum(0.0, K_inf - delta)
    if xp is ew.SCALAR:
        return (1.0 - protocol.r) * float(np.dot(fw, gain))
    return np.array([(1.0 - r) * float(np.dot(fw, row))
                     for r, row in zip(protocol.r[:, 0].tolist(), gain)])


def optimize(dist: TransmittanceDistribution, C: int, n: int, m: int,
             protocol: ProtocolParams) -> OptimizeResult:
    """Jointly choose the disclosure fraction r, modulation variance V
    and the C cluster boundaries maximizing the total key rate.

    Deterministic nested search: a geometric (r, V) grid with the edges
    on Q = 64 equal-mass levels of the estimate marginal, then two local
    refinement passes at halved grid steps and Q = 128, 256.  At each
    point an interval table scores every interval between two levels
    and a dynamic program picks the best C chained intervals, outer
    edges free (see _chains); the winning edges are then rescored
    through the single-interval reports, and points compare on those
    numbers by the key (-rate, -kept mass, r, V, edges); a point whose
    rate_ceiling (one array call per pass) lies below the best rate
    found so far builds no table, and a count whose best table total
    lies below it by more than _PRUNE_MARGIN has its chain neither
    traced back nor rescored (see _clustered); neither prune changes a
    result.  C = 0 scores the pooled (single all-inclusive cluster) plan
    at all the points of a pass in one array evaluation (_pooled), with
    no table, and rescores the chosen plan through report.  The bounds
    hold at the confidence multiplier protocol.z_conf.  A plan is
    feasible when each of its clusters holds two or more expected
    packages.  The result's search field records each pass.  The law's
    quadrature rule is built once per call and shared read-only by the
    evaluators of every (r, V) point.  This is optimize_each of (C,),
    the one search (_search) run on the single job (C, m).
    """
    return optimize_each(dist, (C,), n, m, protocol)[0]


_SKIPPED = (ParameterError, InsufficientDataError, ClusterTooSmallError)


def _refusal(r: float, V: float, exc: Exception) -> dict:
    """The search record of a point (r, V) that exc ruled out."""
    return {"r": r, "V": V, "error": type(exc).__name__, "message": str(exc)}


def _rescore(ev: _Evaluator, edges: Sequence[float]) -> ClusterPlan:
    """ev's plan of edges, refused if a cluster holds under 2 expected packages."""
    plan = ev.plan(edges)
    if any(rep.cond_moments is None for rep in plan.per_cluster):
        raise ClusterTooSmallError("the rescored plan has a cluster below "
                                   "2 expected packages")
    return plan


def _disclosed(n: int, rs) -> dict:
    """disclosed_count(n, r) of each distinct r in rs, in the order they
    first appear, or the InsufficientDataError it raises for r: a pass
    asks it once per r (at most 12), not once per (r, V) point."""
    ks = {}
    for r in rs:
        if r not in ks:
            try:
                ks[r] = disclosed_count(n, r)
            except InsufficientDataError as exc:
                ks[r] = exc
    return ks


def _admitted(points, n: int, m: int, protocol: ProtocolParams) -> tuple[dict, list]:
    """The (r, V) points that a protocol takes, each with its disclosed
    count k, and the others.  This is the only place where the array paths
    (_pooled_rates, rate_ceiling on columns) decide which points they may
    take: a refused point is scored alone through the evaluator, only to
    get its search record, and the others stay on the array path.  A
    point is refused where r or V leaves ProtocolParams' ranges, where
    disclosed_count fails, where m < 2, where V' = V + V_S - 1 is not
    positive or V_S is lost against 1 in V_S - 1, or where floor((1 - r)
    m n) < 1, so that no key state remains even with every state.  The
    pooled cluster's size is a condition of the whole pass (_pooled)."""
    if m < 2 or protocol.V_S - 1.0 == -1.0:
        return {}, list(points)
    points = list(points)
    ks = _disclosed(n, [r for r, _ in points])
    taken, refused = {}, []
    for r, V in points:
        if (isinstance(ks[r], int) and 0.0 < r < 1.0 and 0.0 < V <= V_MAX
                and V + protocol.V_S - 1.0 > 0.0
                and (1.0 - r) * (m * n) >= 1.0):     # floor((1 - r) m n) >= 1
            taken[r, V] = ks[r]
        else:
            refused.append((r, V))
    return taken, refused


def _at(protocol: ProtocolParams, r: np.ndarray, V: np.ndarray) -> ProtocolParams:
    """A copy of protocol whose r and V (and so V') are the arrays r and V,
    one entry or row per point; ProtocolParams takes numbers only, so its
    range checks are _admitted's."""
    at = copy.copy(protocol)
    object.__setattr__(at, "r", r)
    object.__setattr__(at, "V", V)
    return at


def _noise_sums(rule: _Rule, vN: np.ndarray, taken: dict) -> np.ndarray:
    """The (3, points) sums over the nodes, weighted by fw, of the noise
    columns v_u, v_w and c_uw at the admitted points of taken ((r, V) ->
    k), in row blocks of _BLOCK elements."""
    s, fw = rule.s, rule.fw
    V = np.array([V for _, V in taken])
    k = np.array(list(taken.values()))
    rows = max(1, _BLOCK // s.size)
    return np.hstack([[col @ fw for col in _sigma_arrays(s, vN, V[i:i + rows, None],
                                                         k[i:i + rows, None])]
                      for i in range(0, V.size, rows)])


def _pooled_rates(rule: _Rule, protocol: ProtocolParams, taken: dict[int, dict],
                  mass: float, n: int) -> dict[int, list[float]]:
    """The rates of the pooled plan (one cluster of mass `mass`, edges -inf
    and +inf) at the admitted points of each package count m (taken maps
    m to {(r, V): k}), from one _rate call on arrays: its protocol holds
    r and V as arrays (_at), and m is an array beside them, since _stats
    and _states are elementwise in m.  The sums of the power and V_N
    columns are the same at every point and every m.  The noise sums
    depend on (V, k) alone, but a row's sum may differ in its last bits
    with the row block it lies in; so they are taken once per distinct
    list of admitted points, in that list's own row blocks (_noise_sums),
    and each m's rates keep the bits they have alone.  In the grid pass
    every m of a ladder admits the same points in the same order, and
    one computation serves them all."""
    taken = {m: points for m, points in taken.items() if points}
    if not taken:
        return {}
    s, fw, powers = rule
    vN = noise_variance(s, protocol)
    lists = {m: tuple(points.items()) for m, points in taken.items()}
    noise = {}
    for m, key in lists.items():
        if key not in noise:
            noise[key] = _noise_sums(rule, vN, taken[m])
    sizes = [len(points) for points in taken.values()]
    r, V = (np.array(x) for x in zip(*[point for points in taken.values() for point in points]))
    k = np.array([k for points in taken.values() for k in points.values()])
    sums = [float(np.dot(fw, col)) for col in powers] + [
        *np.hstack([noise[key] for key in lists.values()]), float(np.dot(fw, vN))]
    rates = mass * _rate(np.full(r.size, mass), sums, k, np.repeat(list(taken), sizes), n,
                         _at(protocol, r, V))[2]
    return {m: part.tolist() for m, part in zip(taken, np.split(rates, np.cumsum(sizes)[:-1]))}


def _pooled(rule: _Rule, protocol: ProtocolParams, wanted: dict[int, set],
            n: int) -> dict[int, tuple[list, list, int]]:
    """The pooled plan at each (r, V) point that each package count m
    wants in a pass (wanted maps m to its points): per m, the keys (-rate,
    -mass, r, V, edges) of the points scored, the records of the points
    skipped and the intervals scored, one per point that reached report.
    The points that _admitted takes for each m are scored at once, every
    m in one array evaluation (_pooled_rates), unless the pooled cluster
    holds fewer than 2 expected packages, which refuses every point of
    that m's pass; the refused points are scored alone through report,
    which raises what the record states."""
    edges = (-math.inf, math.inf)
    mass = float(np.sum(rule.fw))
    taken, alone = {}, {}
    for m, points in wanted.items():
        taken[m], alone[m] = _admitted(points, n, m, protocol)
        if _too_small(mass, m):
            alone[m] += taken.pop(m)
    rates = _pooled_rates(rule, protocol, taken, mass, n)
    scored = {}
    for m in wanted:
        keys = [(-rate, -mass, *point, edges)
                for rate, point in zip(rates.get(m, ()), taken.get(m, ()))]
        skipped, intervals = [], len(keys)
        for r, V in alone[m]:
            try:
                ev = _Evaluator(rule, replace(protocol, r=r, V=V), m, n)
                intervals += 1      # the one report of the rescored plan, even if it raises
                plan = _rescore(ev, edges)
            except _SKIPPED as exc:
                skipped.append(_refusal(r, V, exc))
            else:
                keys.append((-plan.total_rate, -plan.kept_mass, r, V, plan.boundaries))
        scored[m] = keys, skipped, intervals
    return scored


def _ceilings(rule: _Rule, protocol: ProtocolParams, points, n: int, m: int) -> dict:
    """rate_ceiling at each (r, V) point of a pass, +inf (nothing pruned)
    where _admitted refuses it; the point's own scoring then records why.
    The points that _admitted takes go into one call on columns."""
    ceiling = dict.fromkeys(points, math.inf)
    taken = list(_admitted(points, n, m, protocol)[0])
    if taken:
        columns = (np.array(x)[:, None] for x in zip(*taken))
        ceiling.update(zip(taken, rate_ceiling(rule, _at(protocol, *columns), n, m).tolist()))
    return ceiling


# the geometric steps of the (r, V) grid
_R_STEP = (_R_GRID[-1] / _R_GRID[0]) ** (1.0 / (len(_R_GRID) - 1))
_V_STEP = (_V_GRID[-1] / _V_GRID[0]) ** (1.0 / (len(_V_GRID) - 1))


def _wanted(pass_idx: int, best: tuple | None) -> set:
    """The (r, V) points of a pass: pass 0 is the grid; passes 1 and 2
    halve the geometric step around the point of the best key so far."""
    if pass_idx == 0:
        return set(product(_R_GRID, _V_GRID))
    return set(product(_around(best[2], _R_STEP ** (0.5 ** pass_idx), _R_GRID),
                       _around(best[3], _V_STEP ** (0.5 ** pass_idx), _V_GRID)))


def _fold(best: tuple | None, keys: list) -> tuple | None:
    """The least of keys if it is below best, else best: keys (-rate,
    -mass, r, V, edges) compare from pass to pass, as each holds the
    rescored rate of its own edges."""
    key = min(keys, default=None)
    return key if key is not None and (best is None or key < best) else best


def _outranked(total: float, incumbent: tuple | None) -> bool:
    """Whether a count whose best chain at a point has the dynamic-program
    total `total` cannot beat its incumbent key (-rate, ...): the total,
    widened by _PRUNE_MARGIN, lies below the incumbent's rescored rate.
    No count is outranked by a zero rate, nor where no chain is feasible
    (total -inf): its point is then recorded as skipped."""
    rel, floor = _PRUNE_MARGIN
    return (incumbent is not None and total > -math.inf
            and total * (1.0 + rel) + floor < -incumbent[0])


def _near_floor(cdf: np.ndarray, m: int) -> bool:
    """Whether a feasible interval between the Q + 1 edges of a table with
    this cdf holds a mass within a relative 1e-9 of _too_small's floor.
    The float rescore takes such a mass afresh and may find it below the
    floor, refusing a chain that the table admitted (one of exactly 2
    expected packages, say); at a point with such an interval no count is
    outranked, so that each refusal is recorded as it was found."""
    a, b = _triangle(cdf.size - 1)
    mass = cdf[b] - cdf[a]
    return bool(np.any(~_too_small(mass, m) & _too_small(mass * (1.0 - 1e-9), m)))


def _chains_at(ev: _Evaluator, Q: int, counts: list[int],
               incumbent: dict[int, tuple | None],
               ) -> dict[int, tuple[float, ...] | Exception | None]:
    """Each count's entry at ev's point from its table at Q levels: its
    chain (_chains), or None where it is outranked there.  None is
    outranked where a feasible interval lies at the edge of the floor
    (_near_floor), and none is traced back where every one is.  The table
    and its sweep are freed on return, before the next point builds its
    own."""
    table = ev.table(Q)
    swept = _totals(table[2], max(counts))
    lost = [C for C in counts if _outranked(swept[1][C].max(), incumbent[C])]
    if lost and _near_floor(table[1], ev.m):
        lost = []
    rest = [C for C in counts if C not in lost]
    chains = _chains(table, rest, swept) if rest else {}
    return {C: chains.get(C) for C in counts}


def _clustered(rule: _Rule, protocol: ProtocolParams, wanted: dict[int, set],
               best: dict[int, tuple | None], n: int, m: int,
               Q: int) -> dict[int, tuple[list, list, int, list]]:
    """The plans of each cluster count C >= 1 among m packages at the
    (r, V) points it wants in a pass at Q levels (wanted maps C to its
    points, best to its best key before the pass): per C, _pooled's keys,
    skipped records and intervals, and the records of the points pruned.
    The union of the points is visited best first, in descending
    rate_ceiling (_ceilings), ties in (r, V) order, so each count sees
    its own points in the same order as alone.  A count prunes a point
    whose ceiling lies below its incumbent rate; a point that some count
    still wants builds one evaluator, one interval table and one dynamic
    program (_chains_at), which those counts share; a count outranked
    there (_outranked) gets no chain, key or record, and each other
    count's chain is rescored on its own.  Each count records the
    intervals its search alone asks for: the Q(Q + 1)/2 entries of each
    table it asked for, even one that raised, and the C intervals of its
    chain at each point where it was outranked or a chain was found,
    rescored or not.  The key is a minimum over the points, and the rate
    of a point pruned or outranked lies strictly below it, so neither
    the order nor either prune changes the plan, r or V that a count
    finds, nor any record."""
    incumbent = dict(best)
    keys, skipped, pruned = ({C: [] for C in wanted} for _ in range(3))
    intervals = dict.fromkeys(wanted, 0)
    want = {point: [C for C in wanted if point in wanted[C]]
            for point in set().union(*wanted.values())}
    ceiling = _ceilings(rule, protocol, want, n, m)
    for r, V in sorted(want, key=lambda point: (-ceiling[point], point)):
        here = []
        for C in want[r, V]:
            # the 1e-9 covers rounding between the ceiling and a plan's rate
            if incumbent[C] is not None and ceiling[r, V] * (1.0 + 1e-9) < -incumbent[C][0]:
                pruned[C].append({"r": r, "V": V, "ceiling": ceiling[r, V]})
            else:
                here.append(C)
        if not here:
            continue
        try:
            ev = _Evaluator(rule, replace(protocol, r=r, V=V), m, n)
        except _SKIPPED as exc:
            for C in here:
                skipped[C].append(_refusal(r, V, exc))
            continue
        try:
            chains = _chains_at(ev, Q, here, incumbent)
        except _SKIPPED as exc:
            chains = dict.fromkeys(here, exc)
        for C in here:
            # an outranked count (None) asked for its chain's intervals too
            chain = chains[C]
            intervals[C] += Q * (Q + 1) // 2 + (0 if isinstance(chain, Exception) else C)
            if chain is None:
                continue
            try:
                plan = _rescore(ev, _raised(chain))
            except _SKIPPED as exc:
                skipped[C].append(_refusal(r, V, exc))
            else:
                keys[C].append((-plan.total_rate, -plan.kept_mass, r, V, plan.boundaries))
                incumbent[C] = _fold(incumbent[C], keys[C][-1:])
    return {C: (keys[C], skipped[C], intervals[C], pruned[C]) for C in wanted}


def _search(rule: _Rule, jobs: Sequence[tuple[int, int]], n: int,
            protocol: ProtocolParams) -> tuple[OptimizeResult, ...]:
    """The optimize result of each job (C, m), C clusters among m packages,
    in the order given, from one search on one rule.  Each of its three
    passes works out the points every job wants (_wanted), scores the
    pooled jobs (C = 0) of every m in one _pooled call and the clustered
    jobs of each m in one _clustered call, and folds each job's keys into
    its own best key, around which the job refines, so each job's record
    and plan are those of its search alone.  After the grid pass the first
    job with no key raises; no later pass can give it one."""
    best = dict.fromkeys(jobs)
    passes = {job: [] for job in jobs}
    in_order = itemgetter("r", "V")
    for pass_idx in range(3):
        Q = _LEVELS * 2 ** pass_idx
        wanted = {job: _wanted(pass_idx, best[job]) for job in jobs}
        scored = {(0, m): (*out, []) for m, out in _pooled(
            rule, protocol, {m: wanted[C, m] for C, m in jobs if C == 0}, n).items()}
        for m in dict.fromkeys(m for C, m in jobs if C > 0):
            counts = [C for C, job_m in jobs if C > 0 and job_m == m]
            scored.update(((C, m), out) for C, out in _clustered(
                rule, protocol, {C: wanted[C, m] for C in counts},
                {C: best[C, m] for C in counts}, n, m, Q).items())
        for job in jobs:
            keys, skipped, intervals, pruned = scored[job]
            best[job] = _fold(best[job], keys)
            passes[job].append(SearchPass(Q=Q, points=len(wanted[job]), intervals=intervals,
                                          skipped=tuple(sorted(skipped, key=in_order)),
                                          pruned=tuple(sorted(pruned, key=in_order))))
            if best[job] is None:
                last = passes[job][0].skipped[-1]
                raise ParameterError(f"no feasible (r, V) grid point for {job[0]} cluster(s); "
                                     f"the last one failed with {last['error']}: "
                                     f"{last['message']}")
    return tuple(_result(rule, n, m, protocol, best[C, m], passes[C, m]) for C, m in jobs)


def _result(rule: _Rule, n: int, m: int, protocol: ProtocolParams, best: tuple,
            passes: list[SearchPass]) -> OptimizeResult:
    """The result of a job's search: its best plan rescored on floats, with
    the diagnostic and the passes."""
    _, _, best_r, best_V, best_edges = best
    proto = replace(protocol, r=best_r, V=best_V)
    plan = _Evaluator(rule, proto, m, n).plan(best_edges)
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
    return OptimizeResult(plan=plan, protocol=proto, diagnostic="; ".join(notes) or None,
                          search=tuple(passes))


def optimize_each(dist: TransmittanceDistribution, clusters: Sequence[int], n: int,
                  m: int, protocol: ProtocolParams) -> tuple[OptimizeResult, ...]:
    """The optimize result of each distinct cluster count in clusters, in
    the order given, from one search over the jobs (C, m) on one
    quadrature rule (_search): C = 0 is scored as in optimize_pooled, and
    the counts C >= 1 share one best-first pass per pass of the search,
    which prunes by rate_ceiling before a point's table and by the
    table's totals after it, and builds one interval table per point for
    them all; each count's chain is rescored on its own, and its passes
    record the intervals its search alone asks for.  Each result equals
    optimize's for that count alone, field for field, and the first
    count with no feasible grid point raises optimize's ParameterError
    for it.
    """
    counts = tuple(_count(C, "cluster count", 0) for C in clusters)
    if not counts or len(set(counts)) < len(counts):
        raise ParameterError(f"need one or more distinct cluster counts >= 0, "
                             f"got {counts}")
    if _LEVELS < max(counts) + 1:
        raise ParameterError(f"level resolution {_LEVELS} too coarse for "
                             f"{max(counts)} clusters")
    n, m = _run_size(n, m)
    return _search(_rule(dist, n, protocol), [(C, m) for C in counts], n, protocol)


def optimize_pooled(dist: TransmittanceDistribution, n: int, ms: Sequence[int],
                    protocol: ProtocolParams) -> tuple[OptimizeResult, ...]:
    """optimize(dist, 0, n, m, protocol) for each distinct package count m
    in ms, in the order given, from one search over the jobs (0, m) on one
    quadrature rule (_search): each pass scores the pooled plan at the
    points of every m in one array evaluation (_pooled), and each m
    refines around its own best point, so each result equals optimize's
    for that m, field for field.  The first m with no feasible grid point
    raises optimize's ParameterError."""
    sizes = [_run_size(n, m) for m in ms]
    ms = tuple(m for _, m in sizes)
    if not ms or len(set(ms)) < len(ms):
        raise ParameterError(f"need one or more distinct package counts >= 1, got {ms}")
    n = sizes[0][0]
    return _search(_rule(dist, n, protocol), [(0, m) for m in ms], n, protocol)
