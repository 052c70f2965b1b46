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
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .distributions import TransmittanceDistribution, _count, _seed
from .errors import ParameterError

__all__ = ["ProtocolParams", "Run", "RunStream", "V_MAX", "BLOCK_BYTES", "block_rows",
           "noise_variance", "simulate", "simulate_run"]

V_MAX = 1e3  # the largest modulation variance (see ProtocolParams)
BLOCK_BYTES = 1 << 20  # the size of one row block of an (m, n) state array


def block_rows(n: int) -> int:
    """Packages of n float64 states in one row block: as many as fit in
    BLOCK_BYTES, and at least one."""
    return max(1, BLOCK_BYTES // (8 * n))


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


# row i of a checked Run as Run.packages hands it out: true_T[i] and the
# read-only rows M[i] and B[i]
_Package = namedtuple("_Package", "true_T M B")


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
    def packages(self) -> tuple[_Package, ...]:
        """The packages as row views of M and B."""
        return tuple(map(_Package, self.true_T.tolist(), self.M, self.B))

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(M, B) row views of consecutive packages, block_rows(n) at a time."""
        step = block_rows(self.n)
        for start in range(0, self.m, step):
            yield self.M[start:start + step], self.B[start:start + step]


@dataclass(frozen=True)
class RunStream:
    """A run that passes through memory one row block at a time.

    It holds what a Run holds but M and B.  Each call of blocks() yields
    the (M, B) arrays of consecutive packages anew, block_rows(n) rows
    each but the last (open_run's map the run's files read-only), so
    memory does not grow with m; collect() copies them into a Run.
    """

    true_T: np.ndarray  # shape (m,)
    dist: TransmittanceDistribution
    protocol: ProtocolParams
    seed: int
    n: int
    blocks: Callable[[], Iterator[tuple[np.ndarray, np.ndarray]]]

    @property
    def m(self) -> int:
        return len(self.true_T)

    def collect(self) -> Run:
        M, B = np.empty((self.m, self.n)), np.empty((self.m, self.n))
        step = block_rows(self.n)
        for start, (M_rows, B_rows) in zip(range(0, self.m, step), self.blocks()):
            M[start:start + step], B[start:start + step] = M_rows, B_rows
        return Run(M=M, B=B, true_T=self.true_T, dist=self.dist, protocol=self.protocol,
                   seed=self.seed)


def _draw(rng: np.random.Generator, T: float, n: int,
          protocol: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """(M, B) of one package of n states at transmittance T."""
    vN = noise_variance(T, protocol)
    M = rng.normal(0.0, np.sqrt(protocol.V), n)
    B = np.sqrt(T) * M + rng.normal(0.0, np.sqrt(vN), n)
    return M, B


def _run_size(n, m) -> tuple[int, int]:
    """(n, m) of a run as ints (see _count): m >= 1 packages of n >= 2 states."""
    return _count(n, "package size", 2), _count(m, "package count", 1)


def _draw_blocks(true_T: np.ndarray, n: int, protocol: ProtocolParams, seed: int):
    """(M, B) row blocks of the packages at true_T, package i drawn from
    child i of the master seed's noise stream."""
    noise_stream = np.random.SeedSequence(seed).spawn(2)[1]
    step = block_rows(n)
    for start in range(0, len(true_T), step):
        T_rows = true_T[start:start + step]
        M, B = np.empty((len(T_rows), n)), np.empty((len(T_rows), n))
        for i, (T, child) in enumerate(zip(T_rows, noise_stream.spawn(len(T_rows)))):
            M[i], B[i] = _draw(np.random.default_rng(child), float(T), n, protocol)
        yield M, B


def simulate(dist: TransmittanceDistribution, n: int, m: int,
             protocol: ProtocolParams, seed: int) -> RunStream:
    """Simulate m packages of n states with i.i.d. transmittance draws.

    The transmittances come from the first child stream of the master
    seed.  Package i draws its states from child i of the second, so a
    run is reproducible as a whole, package by package and block by block.
    """
    (n, m), seed = _run_size(n, m), _seed(seed)
    t_stream = np.random.SeedSequence(seed).spawn(2)[0]
    true_T = dist.sample(np.random.default_rng(t_stream), m)
    return RunStream(true_T=true_T, dist=dist, protocol=protocol, seed=seed, n=n,
                     blocks=partial(_draw_blocks, true_T, n, protocol, seed))


def simulate_run(dist: TransmittanceDistribution, n: int, m: int,
                 protocol: ProtocolParams, seed: int) -> Run:
    """The run of simulate, collected into whole (m, n) arrays."""
    return simulate(dist, n, m, protocol, seed).collect()
