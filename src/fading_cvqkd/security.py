"""Secret key rate of the Gaussian protocol against collective attacks.

All variances are in shot-noise units.  The channel is summarized by a
transmittance T and excess noise eps (for fading channels: the
worst-case effective pair).  The asymptotic rate is

    K_inf = beta * I_AB - S_BE

and the finite-size rate subtracts the security-parameter correction
delta on the key-generation states and scales by the fraction kept.

Every formula takes floats or numpy arrays alike, through the
elementwise functions; a check that fails anywhere in an array raises
just as it does for a float.  Floats score one cluster several times
faster than a one-element array.  Arrays score a table of clusters at
one protocol, or one pooled cluster at many (r, V) points, whose
protocol then holds r, V and V' as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import elementwise as ew
from .channel import ProtocolParams
from .distributions import Moments
from .errors import ParameterError, UnphysicalStateError
from .estimation import WorstCaseChannel

__all__ = [
    "EffectiveChannel",
    "KeyRateReport",
    "mutual_information",
    "holevo_bound",
    "delta_fs",
    "key_rate",
    "effective_channel",
]

_EIG_TOL = 1e-9


@dataclass(frozen=True)
class EffectiveChannel:
    """A fading channel folded into a single (T, eps) pair (or arrays of
    pairs)."""

    T: float | np.ndarray
    eps: float | np.ndarray

    def __post_init__(self) -> None:
        xp = ew.of(self.T)
        for name in ("T", "eps"):
            if not xp.isfinite(getattr(self, name)):
                raise ParameterError(f"effective channel {name} must be finite, "
                                     f"got {getattr(self, name)}")
        if xp.any(self.T < 0.0) or xp.any(self.T > 1.0):
            raise ParameterError(f"effective transmittance outside [0, 1]: {self.T}")
        if xp.any(self.eps < 0.0):
            raise ParameterError(f"effective excess noise negative: {self.eps}")


@dataclass(frozen=True)
class KeyRateReport:
    """Per-state rates in bits, plus the finite-size pieces that built K.

    N_used counts the states entering key generation, i.e. (1-r)*N.
    squeezed_surrogate marks rates computed for V_S < 1, where the
    Holevo bound uses the symmetric purification stand-in.  For an array
    channel the rates are arrays, one entry per cluster.
    """

    I_AB: float | np.ndarray
    S_BE: float | np.ndarray
    K_inf: float | np.ndarray
    delta: float | np.ndarray
    K: float | np.ndarray
    N_used: int | np.ndarray | None
    K_raw: float | np.ndarray = 0.0
    squeezed_surrogate: bool = False


def effective_channel(moments: Moments, protocol: ProtocolParams) -> EffectiveChannel:
    """Average a fading channel: T_eff = <sqrt T>^2 and the fading
    excess noise contribution Var(sqrt T) * V'."""
    _require_feasible(protocol)
    return EffectiveChannel(T=moments.mean_sqrtT**2,
                            eps=protocol.epsilon + moments.var_sqrtT * protocol.V_prime)


def _require_feasible(protocol: ProtocolParams) -> None:
    """Refuse a protocol whose V' = V + V_S - 1 is not positive; V' may be
    an array (a protocol at many (r, V) points), and the message names
    its first such entry."""
    V_prime = protocol.V_prime
    dead = V_prime <= 0.0
    if ew.of(V_prime).any(dead):
        raise ParameterError(
            f"V + V_S - 1 = {np.extract(dead, V_prime)[0]:.4g} <= 0: no modulated "
            "signal survives; increase V or V_S")
    if protocol.V_S - 1.0 == -1.0:   # then V_B|M rounds to 0 at T = 1, eps = 0
        raise ParameterError(f"V_S = {protocol.V_S:.3g} is lost against 1 in double arithmetic")


def _as_channel(ch) -> EffectiveChannel:
    if isinstance(ch, EffectiveChannel):
        return ch
    if isinstance(ch, WorstCaseChannel):
        return EffectiveChannel(T=ch.T_eff_low, eps=ch.eps_eff_up)
    raise ParameterError(f"expected an effective or worst-case channel, got {type(ch).__name__}")


def _entropy(v, xp):
    """Entropy G of a thermal mode with symplectic eigenvalue v, in bits,
    0 at the vacuum; xp is ew.of(v)."""
    if xp.any(v < 1.0 - _EIG_TOL):
        raise UnphysicalStateError(f"symplectic eigenvalue {v} below vacuum")
    v = xp.maximum(1.0, v)
    a = 0.5 * (v + 1.0)
    b = 0.5 * (v - 1.0)
    # b log2 b -> 0 at the vacuum, b = 0, where adding (b == 0) keeps the
    # logarithm finite; elsewhere b + False is b
    return a * xp.log2(a) - b * xp.log2(b + (b == 0.0))


def mutual_information(ch: EffectiveChannel, protocol: ProtocolParams) -> float:
    """Alice-Bob mutual information of homodyne detection, in bits/state.

    I = (1/2) log2(V_B / V_{B|M}) with V_B = T*V' + 1 + eps and the
    conditional variance V_{B|M} = T*(V_S - 1) + 1 + eps.
    """
    ch = _as_channel(ch)
    _require_feasible(protocol)
    V_B = ch.T * protocol.V_prime + 1.0 + ch.eps
    V_B_given_M = ch.T * (protocol.V_S - 1.0) + 1.0 + ch.eps
    return 0.5 * ew.of(V_B).log2(V_B / V_B_given_M)


def _symplectic_pair(V_A: float, V_B, c, xp):
    """Symplectic eigenvalues of a two-mode state with x/p-symmetric
    blocks diag(V_A), diag(V_B) and correlation diag(c, -c); xp is
    ew.of(V_B)."""
    det_gamma = (V_A * V_B - c**2) ** 2
    delta = V_A**2 + V_B**2 - 2.0 * c**2
    disc = (V_A - V_B) ** 2 * ((V_A + V_B) ** 2 - 4.0 * c**2)
    if xp.any(disc < -1e-9):
        raise UnphysicalStateError("negative discriminant in symplectic spectrum")
    root = xp.sqrt(xp.maximum(0.0, disc))
    nu_plus_sq = 0.5 * (delta + root)
    if xp.any(nu_plus_sq <= 0.0):
        raise UnphysicalStateError("degenerate covariance in symplectic spectrum")
    # nu-^2 via the determinant product avoids cancellation in delta - root
    nu_minus_sq = det_gamma / nu_plus_sq
    return xp.sqrt(nu_plus_sq), xp.sqrt(nu_minus_sq)


def holevo_bound(ch: EffectiveChannel, protocol: ProtocolParams):
    """Eve's Holevo information on Bob's homodyne outcome, in bits/state.

    Uses the entanglement-based model of the modulated ensemble: a
    two-mode squeezed vacuum of variance V_A = V' + 1 with one arm sent
    through the (T, eps) channel.  For squeezed signal states
    (V_S < 1) this symmetric purification is a stand-in with the same
    modulated variance; it is exact for coherent states.
    """
    ch = _as_channel(ch)
    _require_feasible(protocol)
    V_A = protocol.V_prime + 1.0
    V_B = ch.T * (V_A - 1.0) + 1.0 + ch.eps
    xp = ew.of(ch.T)
    c = xp.sqrt(ch.T * (V_A**2 - 1.0))
    nu_plus, nu_minus = _symplectic_pair(V_A, V_B, c, xp)
    # Bob's homodyne projects A onto a state with nu~^2 = V_A*(V_A - c^2/V_B)
    nu_cond_sq = V_A * (V_A - c**2 / V_B)
    if xp.any(nu_cond_sq < 0.0):
        raise UnphysicalStateError("negative conditional eigenvalue")
    nu_cond = xp.sqrt(nu_cond_sq)
    val = _entropy(nu_plus, xp) + _entropy(nu_minus, xp) - _entropy(nu_cond, xp)
    if xp.any(val < -1e-6):
        raise UnphysicalStateError(f"Holevo bound came out negative: {val}")
    return xp.maximum(0.0, val)


def delta_fs(n_key, protocol: ProtocolParams):
    """Finite-size penalty per state against collective attacks:
    7*sqrt(log2(2/eps_bar)/n) for n key-generation states."""
    xp = ew.of(n_key)
    n_key = xp.int(n_key)
    if xp.any(n_key < 1):
        raise ParameterError(f"key-generation block must hold >= 1 state, got {n_key}")
    eps_bar = protocol.eps_bar
    return 7.0 * xp.sqrt(math.log2(2.0 / eps_bar) / n_key)


def key_rate(wc: WorstCaseChannel | EffectiveChannel, N_total: int | None,
             protocol: ProtocolParams) -> KeyRateReport:
    """Secret key rate per transmitted state for a bounded channel.

    Accepts a worst-case channel (uses T_eff_low, eps_eff_up) or a plain
    effective channel.  With N_total states, r*N_total are disclosed for
    estimation; the remaining n_key = (1-r)*N_total generate key at
    K_inf - delta(n_key), so

        K = (1 - r) * (K_inf - delta(n_key)),

    clamped at zero (K_raw keeps the unclamped value).  N_total=None
    gives the asymptotic limit where only K_inf matters.  The channel
    and N_total may hold arrays, one entry per cluster; so does the
    report then.
    """
    ch = _as_channel(wc)
    I_AB = mutual_information(ch, protocol)
    S_BE = holevo_bound(ch, protocol)
    K_inf = protocol.beta * I_AB - S_BE
    surrogate = protocol.V_S < 1.0
    if N_total is None:
        return KeyRateReport(I_AB=I_AB, S_BE=S_BE, K_inf=K_inf, delta=0.0,
                             K=ew.of(K_inf).maximum(0.0, K_inf), N_used=None,
                             K_raw=K_inf,
                             squeezed_surrogate=surrogate)
    xp = ew.of(N_total)
    N_total = xp.int(N_total)
    if xp.any(N_total < 2):
        raise ParameterError(f"total states must be >= 2, got {N_total}")
    n_key = xp.floor((1.0 - protocol.r) * N_total)
    if xp.any(n_key < 1):
        raise ParameterError("disclosure fraction leaves no key-generation states")
    delta = delta_fs(n_key, protocol)
    K_raw = (1.0 - protocol.r) * (K_inf - delta)
    return KeyRateReport(I_AB=I_AB, S_BE=S_BE, K_inf=K_inf, delta=delta,
                         K=ew.of(K_raw).maximum(0.0, K_raw), N_used=n_key, K_raw=K_raw,
                         squeezed_surrogate=surrogate)
