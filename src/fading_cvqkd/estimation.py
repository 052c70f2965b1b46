"""Channel parameter estimation from disclosed package data.

Per package, k = r*n modulated/measured pairs (M_j, B_j) are disclosed.
The square-root transmittance estimator is the normalized covariance

    sqrtT_hat = (1/(V*k)) sum_j M_j B_j,

unbiased for sqrt(T) with variance (2T + V_N/V)/k.  estimate_blocks
estimates a run one row block at a time, and estimate_run joins the
blocks into columns: one Estimates holds an (m,) array per quantity, all
from the same k, and est[rows] selects packages by mask or index;
estimate_flags counts its sign anomalies and noise-model mismatches.
Aggregating over packages yields bias-corrected estimates of the
fluctuation statistics X1 = <T> - <sqrt T>^2 and X2 = <T> + <sqrt T>^2
whose joint confidence bounds determine the worst-case effective
channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterator

import numpy as np

from . import elementwise as ew
from .channel import ProtocolParams, Run, RunStream
from .errors import InsufficientDataError, NumericalError, ParameterError, ValidationError

__all__ = [
    "Estimates",
    "AggregateStats",
    "WorstCaseChannel",
    "estimate_flags",
    "disclosed_count",
    "sqrtT_variance",
    "T_variance",
    "estimate_blocks",
    "estimate_run",
    "aggregate",
    "worst_case",
    "worst_case_rectangular",
]

_VAR_FLOOR = 1e-30


@dataclass(frozen=True, eq=False)
class Estimates:
    """Point estimates and model standard deviations of m packages, each
    a read-only (m,) column, all from k disclosed states per package.

    Every value must be finite and k at least 2, so no consumer sees a
    NaN that a comparison would silently drop.  len() is m; est[rows]
    takes a boolean mask or an index array and returns an Estimates.
    """

    sqrtT_hat: np.ndarray
    T_hat: np.ndarray
    sigma_sqrtT: np.ndarray
    sigma_T: np.ndarray
    vN_hat: np.ndarray
    k: int

    columns: ClassVar = ("sqrtT_hat", "T_hat", "sigma_sqrtT", "sigma_T", "vN_hat")

    def __post_init__(self):
        if self.k < 2:
            raise InsufficientDataError(f"need k >= 2 disclosed states, got {self.k}")
        cols = {name: np.array(getattr(self, name), dtype=float) for name in self.columns}
        for name, col in cols.items():
            if col.ndim != 1 or col.shape != cols["T_hat"].shape:
                raise ParameterError(f"columns must be 1-d and of one length; {name} has "
                                     f"shape {col.shape}, T_hat {cols['T_hat'].shape}")
            if not np.isfinite(col).all():
                raise ParameterError(f"column {name} holds a non-finite value at "
                                     f"package {np.flatnonzero(~np.isfinite(col))[0]}")
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    @property
    def sign_anomaly(self) -> np.ndarray:
        """Packages with a negative sqrt-T estimate (anti-correlated
        disclosed data); the value is kept unclamped so averages stay
        unbiased, but downstream consumers may want to know."""
        return self.sqrtT_hat < 0.0

    def __len__(self) -> int:
        return len(self.T_hat)

    def __getitem__(self, rows) -> Estimates:
        return Estimates(**{name: getattr(self, name)[rows] for name in self.columns},
                         k=self.k)

    @classmethod
    def join(cls, parts: list[Estimates]) -> Estimates:
        """The packages of parts, in order, as one Estimates."""
        return cls(**{name: np.concatenate([getattr(p, name) for p in parts])
                      for name in cls.columns}, k=parts[0].k)


@dataclass(frozen=True)
class AggregateStats:
    """Across-package statistics feeding the worst-case channel bounds.

    X1_hat and X2_hat are bias-corrected: both the average of squared
    per-package estimates and the squared average inflate by estimator
    sampling variance, so the model-predicted variance is subtracted
    before combining.  Standard errors come from the per-package
    influence columns of each statistic.  m_used is the package count
    from aggregate, the expected count mass*m from the cluster evaluator,
    whose interval table fills every field with an array.
    """

    mean_sqrtT_hat: float | np.ndarray
    mean_T_hat: float | np.ndarray
    X1_hat: float | np.ndarray
    X2_hat: float | np.ndarray
    se_X1: float | np.ndarray
    se_X2: float | np.ndarray
    m_used: int | float | np.ndarray
    se_mean_sqrtT: float | np.ndarray = 0.0
    se_mean_T: float | np.ndarray = 0.0
    eps_hat: float | np.ndarray = 0.0
    vN_pooled: float | np.ndarray = 1.0
    k_total: float | np.ndarray = 0.0


@dataclass(frozen=True)
class WorstCaseChannel:
    """Confidence-bounded effective channel pessimistic for the key rate.

    unusable is set when the bounds crossed (X2_low <= X1_up) and the
    transmittance bound was clamped to 0.  Array statistics give arrays.
    """

    T_eff_low: float | np.ndarray
    eps_eff_up: float | np.ndarray
    X1_up: float | np.ndarray
    X2_low: float | np.ndarray
    eps_up: float | np.ndarray
    unusable: bool | np.ndarray = False


def sqrtT_variance(T, vN, V: float, k):
    """Variance (2T + V_N/V)/k of the sqrt-T estimator from k disclosed
    pairs at transmittance T and noise variance V_N; T and V_N may be
    floats or arrays."""
    return (2.0 * T + vN / V) / k


def T_variance(T, v_u):
    """Variance 4T*v_u + 2*v_u^2 of the squared sqrt-T estimator, whose
    own variance is v_u."""
    return 4.0 * T * v_u + 2.0 * v_u**2


def _estimates(M: np.ndarray, B: np.ndarray, V: float, k: int) -> Estimates:
    """Estimates of each row of (rows, k) disclosed pairs, every step an
    array expression over all rows, so a row's estimate is bit-equal
    whether it is estimated alone or with a whole run."""
    sqrtT = np.sum(M * B, axis=1) / (V * k)
    resid = B - sqrtT[:, None] * M
    vN = np.sum(resid**2, axis=1) / (k - 1)
    T_hat = np.square(sqrtT)
    # model variance of the sqrt estimator with plug-in (T, V_N)
    v_u = np.maximum(sqrtT_variance(T_hat, np.maximum(vN, 0.0), V, k), _VAR_FLOOR)
    return Estimates(sqrtT_hat=sqrtT, T_hat=T_hat, sigma_sqrtT=np.sqrt(v_u),
                     sigma_T=np.sqrt(T_variance(T_hat, v_u)), vN_hat=vN, k=k)


def _excess_noise(est: Estimates, V_S: float) -> tuple[np.ndarray, np.ndarray]:
    """Each package's eps_hat = vN_hat - 1 + T_hat*(1 - V_S) and its
    model-mismatch tolerance, 4 standard errors of the residual
    variance: an eps_hat below -tol signals model mismatch."""
    eps_hat = est.vN_hat - 1.0 + est.T_hat * (1.0 - V_S)
    return eps_hat, np.maximum(4.0 * math.sqrt(2.0 / est.k) * np.maximum(est.vN_hat, 0.0),
                               1e-9)


def estimate_flags(est: Estimates, protocol: ProtocolParams) -> dict[str, int]:
    """Counts of flagged packages: sign_anomalies (a negative sqrt-T
    estimate) and noise_mismatch (eps_hat below -tol, see _excess_noise)."""
    eps_hat, tol = _excess_noise(est, protocol.V_S)
    return {"sign_anomalies": int(np.count_nonzero(est.sign_anomaly)),
            "noise_mismatch": int(np.count_nonzero(eps_hat < -tol))}


def disclosed_count(n: int, r: float) -> int:
    """States disclosed per package: k = round(r*n), at most n and at
    least 2."""
    k = int(round(r * n))
    if k < 2:
        raise InsufficientDataError(
            f"r*n = {r * n:.2f} leaves fewer than 2 disclosed states per package")
    return min(n, k)


def estimate_blocks(run: Run | RunStream) -> Iterator[tuple[np.ndarray, np.ndarray, Estimates]]:
    """(M, B, est) of each row block of a run: the first k = r*n states
    of its packages, the disclosed ones, and their Estimates.  A package
    whose disclosed M states are all zero is refused: they carry nothing
    of its transmittance, and its least-squares slope would be 0/0."""
    k = disclosed_count(run.n, run.protocol.r)
    start = 0
    for M, B in run.blocks():
        M, B = M[:, :k], B[:, :k]
        zero = np.flatnonzero(~M.any(axis=1))
        if zero.size:
            raise ValidationError(f"package {start + zero[0]}: its {k} disclosed M "
                                  "states are all zero")
        yield M, B, _estimates(M, B, run.protocol.V, k)
        start += len(M)


def estimate_run(run: Run | RunStream) -> Estimates:
    """Estimate every package of a run from its first k = r*n states,
    one row block at a time (see estimate_blocks)."""
    return Estimates.join([est for _, _, est in estimate_blocks(run)])


def aggregate(est: Estimates, protocol: ProtocolParams) -> AggregateStats:
    """Combine the packages of est into bias-corrected fluctuation stats;
    est[rows] aggregates a subset.

    With u_i = sqrtT_hat_i and w_i = T_hat_i - sigma_sqrtT_i^2 (w is
    unbiased for T_i because squaring adds the estimator variance), the
    corrected square of the mean is mean(u)^2 - Var(u)/m, and

        X1_hat = mean(w) - (mean(u)^2 - Var(u)/m)
        X2_hat = mean(w) + (mean(u)^2 - Var(u)/m).

    Standard errors use the influence columns w_i -/+ 2*mean(u)*u_i.
    The pooled residual variance is likewise corrected for the
    2*T*V/(k-1) inflation of the fixed-denominator slope estimator.
    """
    m = len(est)
    if m < 2:
        raise InsufficientDataError("need at least 2 packages to aggregate")
    u = est.sqrtT_hat
    w = est.T_hat - np.square(est.sigma_sqrtT)
    mean_u = float(np.mean(u))
    mean_w = float(np.mean(w))
    s2_u = float(np.var(u, ddof=1))
    mean_sq = mean_u**2 - s2_u / m
    X1_hat = mean_w - mean_sq
    X2_hat = mean_w + mean_sq
    psi1 = w - 2.0 * mean_u * u
    psi2 = w + 2.0 * mean_u * u
    se_X1 = float(np.std(psi1, ddof=1)) / math.sqrt(m)
    se_X2 = float(np.std(psi2, ddof=1)) / math.sqrt(m)
    se_mean_sqrtT = math.sqrt(s2_u / m)
    se_mean_T = float(np.std(w, ddof=1)) / math.sqrt(m)
    k = float(est.k)
    k_total = m * k
    w_plus = np.maximum(w, 0.0)
    # the residual variance of the fixed-denominator slope estimator sits
    # 2*T*V/(k-1) above V_N; subtract that before pooling by disclosed count
    vN_corr = est.vN_hat - 2.0 * protocol.V * w_plus / (k - 1.0)
    vN_pooled = float(np.sum(vN_corr * k) / k_total)
    eps_hat = float(np.sum((vN_corr - 1.0 + w_plus * (1.0 - protocol.V_S)) * k)
                    / k_total)
    return AggregateStats(
        mean_sqrtT_hat=mean_u, mean_T_hat=mean_w,
        X1_hat=X1_hat, X2_hat=X2_hat, se_X1=se_X1, se_X2=se_X2, m_used=m,
        se_mean_sqrtT=se_mean_sqrtT, se_mean_T=se_mean_T,
        eps_hat=eps_hat, vN_pooled=vN_pooled, k_total=k_total)


# the helpers below take xp = ew.of(...) of the statistics from their
# caller rather than each dispatching again on the scalar path

def _nonneg(x, name: str, xp):
    """max(0, x) that fails closed: a NaN or infinite bound (anywhere in
    an array of bounds) raises instead of clamping to a plausible number."""
    if not xp.isfinite(x):
        raise NumericalError(f"worst-case bound {name} is NaN or infinite: {x}")
    return xp.maximum(0.0, x)


def _eps_upper(stats: AggregateStats, z: float, xp):
    if xp.any(stats.k_total < 2):
        raise InsufficientDataError("noise bound needs pooled disclosed data")
    bound = stats.eps_hat \
        + z * xp.sqrt(2.0 / stats.k_total) * _nonneg(stats.vN_pooled, "vN_pooled", xp)
    return _nonneg(bound, "eps_up", xp)


def _finish(X1_up, X2_low, eps_up, V_prime: float, xp) -> WorstCaseChannel:
    X1_up = _nonneg(X1_up, "X1_up", xp)
    X2_low = _nonneg(X2_low, "X2_low", xp)
    raw_T_low = 0.5 * (X2_low - X1_up)
    unusable = raw_T_low <= 0.0
    return WorstCaseChannel(T_eff_low=_nonneg(raw_T_low, "T_eff_low", xp),
                            eps_eff_up=eps_up + X1_up * V_prime,
                            X1_up=X1_up, X2_low=X2_low, eps_up=eps_up,
                            unusable=unusable)


def worst_case(stats: AggregateStats, protocol: ProtocolParams) -> WorstCaseChannel:
    """Worst-case effective channel from joint bounds on X1 and X2.

    The key rate falls with X1 (it feeds the effective excess noise)
    and rises with X2, so the pessimistic corner is (X1 up, X2 down):
    T_eff_low = (X2_low - X1_up)/2, eps_eff_up = eps_up + X1_up * V',
    each bound protocol.z_conf standard errors out, eps_up the pooled
    residual-variance bound.  The fields of stats may be arrays, one
    entry per cluster; the channel's fields are then arrays too.
    """
    z = protocol.z_conf
    xp = ew.of(stats.X1_hat)
    eps_up = _eps_upper(stats, z, xp)
    X1_up = stats.X1_hat + z * stats.se_X1
    X2_low = stats.X2_hat - z * stats.se_X2
    return _finish(X1_up, X2_low, eps_up, protocol.V_prime, xp)


def worst_case_rectangular(stats: AggregateStats,
                           protocol: ProtocolParams) -> WorstCaseChannel:
    """Worst case from separate (rectangular) bounds on <sqrt T> and <T>.

    Kept as the naive baseline: it ignores the strong positive coupling
    between the two means, so its Var(sqrt T) bound
    <T>_up - (<sqrt T>_low)^2 sits far above the joint construction.
    """
    z = protocol.z_conf
    xp = ew.of(stats.mean_sqrtT_hat)
    eps_up = _eps_upper(stats, z, xp)
    mean_sqrt_low = _nonneg(stats.mean_sqrtT_hat - z * stats.se_mean_sqrtT,
                            "mean_sqrtT_low", xp)
    mean_T_up = stats.mean_T_hat + z * stats.se_mean_T
    mean_T_low = stats.mean_T_hat - z * stats.se_mean_T
    X1_up = mean_T_up - mean_sqrt_low**2
    X2_low = mean_T_low + mean_sqrt_low**2
    return _finish(X1_up, X2_low, eps_up, protocol.V_prime, xp)
