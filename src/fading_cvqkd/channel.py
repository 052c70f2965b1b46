"""Monte Carlo model of a Gaussian-modulated coherent-state protocol
over a fading channel.

The transmittance stays constant within a package of n states and
changes between packages following a given transmittance distribution.
Within a package the measured quadratures obey

    x_B = sqrt(T) * x_M + x_N,   Var(x_N) = V_N := 1 + epsilon - T*(1 - V_S)

in shot-noise units, where x_M is the modulated value (variance V) and
V_S is the variance of the signal state quadrature before modulation
(V_S = 1 for coherent states, V_S < 1 for squeezed signal states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .distributions import TransmittanceDistribution, _as_rng, _seed
from .errors import ParameterError

__all__ = ["ProtocolParams", "Package", "Run", "V_MAX", "noise_variance",
           "simulate_package", "simulate_run"]

V_MAX = 1e3  # the largest modulation variance (see ProtocolParams)


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol-level knobs shared by simulation, estimation and security.

    V is the modulation variance, V_S the signal state quadrature
    variance, epsilon the excess noise at the channel output, beta the
    reconciliation efficiency, r the fraction of each package disclosed
    for parameter estimation, and the epsilons/z_conf fix the
    finite-size confidence levels.

    V is capped at V_MAX.  Against a 50-digit reference, on T in [0, 1]
    (101 points), epsilon in {0, 0.01, 0.05} and V_S in {1, 0.5, 0.05},
    holevo_bound errs by at most 3.2e-12 bits at V = 50, the top of the
    search grid, and 7.1e-10 at V = 1e3.  At V = 1e4 the lossless channel
    raises UnphysicalStateError, and at V = 1e16 K_inf(T = 0.5, epsilon
    = 0.01) would come out at +2.5 bits/state, where it lies below -0.5.
    """

    V: float = 10.0
    V_S: float = 1.0
    epsilon: float = 0.01
    beta: float = 0.95
    r: float = 0.1
    eps_PE: float = 1e-10
    eps_bar: float = 1e-10
    z_conf: float = 2.0

    def __post_init__(self) -> None:
        for f in fields(self):
            val = getattr(self, f.name)
            try:
                if isinstance(val, (bool, np.bool_)):   # a JSON true would pass as 1
                    raise TypeError
                finite = math.isfinite(val)
            except TypeError:
                raise ParameterError(f"{f.name} must be a number, got {val!r}")
            if not finite:
                raise ParameterError(f"{f.name} must be finite, got {val}")
        if not (0.0 < self.V <= V_MAX):
            raise ParameterError(f"modulation variance V = {self.V:g} must lie in "
                                 f"(0, {V_MAX:g}]; past {V_MAX:g} the key rate loses "
                                 "its precision in double arithmetic")
        if not (0.0 < self.V_S <= 1.0):
            raise ParameterError(f"signal state variance must lie in (0, 1], got {self.V_S}")
        if self.epsilon < 0.0:
            raise ParameterError(f"excess noise must be non-negative, got {self.epsilon}")
        if not (0.0 < self.beta <= 1.0):
            raise ParameterError(f"reconciliation efficiency must lie in (0, 1], got {self.beta}")
        if not (0.0 < self.r < 1.0):
            raise ParameterError(f"estimation fraction must lie in (0, 1), got {self.r}")
        for name in ("eps_PE", "eps_bar"):
            val = getattr(self, name)
            if not (0.0 < val < 1.0):
                raise ParameterError(f"{name} must lie in (0, 1), got {val}")
        if not (self.z_conf > 0.0):
            raise ParameterError(f"z_conf must be positive, got {self.z_conf}")

    @property
    def V_prime(self) -> float:
        """Effective modulated variance V + V_S - 1 entering the channel."""
        return self.V + self.V_S - 1.0


def noise_variance(T: float, protocol: ProtocolParams) -> float:
    """Total non-signal variance V_N = 1 + epsilon - T*(1 - V_S) at output."""
    return 1.0 + protocol.epsilon - T * (1.0 - protocol.V_S)


@dataclass(frozen=True)
class Package(object):
    """One package: n states sent through a constant-transmittance slice.

    Run.packages hands out packages whose M and B are read-only row
    views of the run's arrays.
    """

    true_T: float
    M: np.ndarray  # modulated quadrature values, shape (n,)
    B: np.ndarray  # Bob's measured quadrature values, shape (n,)

    def __post_init__(self) -> None:
        if self.M.shape != self.B.shape or self.M.ndim != 1:
            raise ParameterError("package arrays M and B must be 1-d and equally long")
        if self.M.size < 2:
            raise ParameterError("a package needs at least 2 states")
        if not (0.0 <= self.true_T <= 1.0):
            raise ParameterError(f"package transmittance outside [0, 1]: {self.true_T}")

    @property
    def n(self) -> int:
        return self.M.size


def _read_only(a) -> np.ndarray:
    """A read-only float64 view of a (no copy when a is float64 already)."""
    view = np.asarray(a, dtype=np.float64).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class Run(object):
    """A full protocol run plus the generating configuration.

    Row i of M and B holds the n states of package i, sent at the true
    transmittance true_T[i].  The arrays are stored as read-only views.
    """

    M: np.ndarray  # shape (m, n)
    B: np.ndarray  # shape (m, n)
    true_T: np.ndarray  # shape (m,)
    dist: TransmittanceDistribution
    protocol: ProtocolParams
    seed: int

    def __post_init__(self) -> None:
        for name in ("M", "B", "true_T"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        if self.M.ndim != 2 or self.M.shape != self.B.shape:
            raise ParameterError("run arrays M and B must be 2-d and of equal shape")
        if self.true_T.shape != (self.m,):
            raise ParameterError(f"true_T must hold one value per package, "
                                 f"got shape {self.true_T.shape} for {self.m} packages")
        if self.m < 1 or self.n < 2:
            raise ParameterError(f"a run needs >= 1 package of >= 2 states, "
                                 f"got shape {self.M.shape}")
        if not np.all((self.true_T >= 0.0) & (self.true_T <= 1.0)):
            raise ParameterError("package transmittance outside [0, 1]")

    @property
    def m(self) -> int:
        return self.M.shape[0]

    @property
    def n(self) -> int:
        return self.M.shape[1]

    @property
    def N(self) -> int:
        return self.M.size

    @property
    def packages(self) -> tuple[Package, ...]:
        """The packages as row views of M and B."""
        return tuple(Package(true_T=T, M=M, B=B)
                     for T, M, B in zip(self.true_T.tolist(), self.M, self.B))


def _draw(rng: np.random.Generator, T: float, n: int,
          protocol: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """(M, B) of one package of n states at transmittance T."""
    vN = noise_variance(T, protocol)
    M = rng.normal(0.0, np.sqrt(protocol.V), n)
    B = np.sqrt(T) * M + rng.normal(0.0, np.sqrt(vN), n)
    return M, B


def simulate_package(T: float, n: int, protocol: ProtocolParams, seed) -> Package:
    """Simulate one package of n states at fixed transmittance T."""
    if not (0.0 <= T <= 1.0):
        raise ParameterError(f"transmittance must lie in [0, 1], got {T}")
    if int(n) < 2:
        raise ParameterError(f"package size must be >= 2, got {n}")
    M, B = _draw(_as_rng(seed), float(T), int(n), protocol)
    return Package(true_T=float(T), M=_read_only(M), B=_read_only(B))


def simulate_run(dist: TransmittanceDistribution, n: int, m: int,
                 protocol: ProtocolParams, seed: int) -> Run:
    """Simulate m packages of n states with i.i.d. transmittance draws.

    Each package consumes an independent child stream of the master
    seed, so a run is reproducible as a whole and package-by-package.
    """
    if int(m) < 1:
        raise ParameterError(f"package count must be >= 1, got {m}")
    if int(n) < 2:
        raise ParameterError(f"package size must be >= 2, got {n}")
    n, m, seed = int(n), int(m), _seed(seed)
    root = np.random.SeedSequence(seed)
    t_stream, noise_stream = root.spawn(2)
    T_values = dist.sample(np.random.default_rng(t_stream), m)
    M = np.empty((m, n))
    B = np.empty((m, n))
    for i, (T, child) in enumerate(zip(T_values, noise_stream.spawn(m))):
        M[i], B[i] = _draw(np.random.default_rng(child), float(T), n, protocol)
    return Run(M=M, B=B, true_T=T_values, dist=dist, protocol=protocol, seed=seed)
