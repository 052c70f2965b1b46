"""Key-rate machinery: entropies, symplectic spectra, finite-size law."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fading_cvqkd import (
    AggregateStats,
    EffectiveChannel,
    FadingCVQKDError,
    Moments,
    ParameterError,
    ProtocolParams,
    TruncatedNormal,
    UnphysicalStateError,
    WorstCaseChannel,
    delta_fs,
    effective_channel,
    holevo_bound,
    key_rate,
    mutual_information,
    simulate_package,
    worst_case,
)
from fading_cvqkd.channel import V_MAX
from fading_cvqkd import elementwise as ew
from fading_cvqkd.security import _entropy, _symplectic_pair


def _two_mode_cov(V_A, V_B, c):
    Z = np.diag([1.0, -1.0])
    top = np.hstack([V_A * np.eye(2), c * Z])
    bot = np.hstack([c * Z, V_B * np.eye(2)])
    return np.vstack([top, bot])


def _omega(modes):
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * modes, 2 * modes))
    for i in range(modes):
        out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = w
    return out


def _symplectic_oracle(V_A, V_B, c):
    """Eigenvalues of |i Omega Gamma|, the textbook definition."""
    gamma = _two_mode_cov(V_A, V_B, c)
    eig = np.linalg.eigvals(1j * _omega(2) @ gamma)
    vals = np.sort(np.abs(eig))
    # each symplectic eigenvalue appears twice
    assert np.allclose(vals[0], vals[1]) and np.allclose(vals[2], vals[3])
    return vals[3], vals[0]


def _conditional_oracle(V_A, V_B, c):
    """Schur complement of a homodyne x-measurement on mode B, via
    pseudo-inverse; returns the conditional symplectic eigenvalue."""
    gamma = _two_mode_cov(V_A, V_B, c)
    A = gamma[:2, :2]
    Bm = gamma[2:, 2:]
    C = gamma[:2, 2:]
    X = np.diag([1.0, 0.0])
    cond = A - C @ np.linalg.pinv(X @ Bm @ X) @ C.T
    det = float(np.linalg.det(cond))
    return math.sqrt(det)


@pytest.mark.parametrize(
    ("T", "eps", "V"),
    [(0.5, 0.01, 10.0), (0.9, 0.0, 4.0), (0.12, 0.08, 30.0), (1.0, 0.0, 10.0)],
    ids=["mid", "clean", "lossy", "ideal"],
)
def test_symplectic_pair_against_matrix_oracle(T, eps, V):
    p = ProtocolParams(V=V)
    V_A = p.V_prime + 1.0
    V_B = T * (V_A - 1.0) + 1.0 + eps
    c = math.sqrt(T * (V_A**2 - 1.0))
    nu_p, nu_m = _symplectic_pair(V_A, V_B, c, ew.SCALAR)
    ora_p, ora_m = _symplectic_oracle(V_A, V_B, c)
    assert nu_p == pytest.approx(ora_p, rel=1e-10)
    assert nu_m == pytest.approx(ora_m, rel=1e-10, abs=1e-10)
    assert nu_p >= 1.0 - 1e-9 and nu_m >= 1.0 - 1e-9
    # conditional eigenvalue: closed form vs pinv Schur complement
    nu_cond = math.sqrt(V_A * (V_A - c**2 / V_B))
    assert nu_cond == pytest.approx(_conditional_oracle(V_A, V_B, c), rel=1e-9)


def _G(v):
    return _entropy(v, ew.of(v))


def test_gaussian_entropy_anchors():
    assert _G(1.0) == 0.0
    assert _G(1.0 - 5e-10) == 0.0  # tolerated dust below vacuum
    assert _G(3.0) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(UnphysicalStateError):
        _G(0.9)
    assert np.array_equal(_G(np.array([1.0, 3.0])), [_G(1.0), _G(3.0)])
    with pytest.raises(UnphysicalStateError):
        _G(np.array([3.0, 0.9]))


@settings(max_examples=50, deadline=None)
@given(v=st.floats(1.0, 1e4), dv=st.floats(0.01, 10.0))
def test_gaussian_entropy_monotone(v, dv):
    # slack covers the rounding noise of a log2 a - b log2 b at large v
    assert _G(v + dv) > _G(v) - 1e-9


def test_mutual_information_anchor():
    """Hand-derived point: V' = 4.1, V_B = 3.06, V_B|M = 0.56."""
    p = ProtocolParams(V=5.0, V_S=0.1)
    ch = EffectiveChannel(T=0.5, eps=0.01)
    assert mutual_information(ch, p) == pytest.approx(1.2250165, abs=1e-6)


def test_mutual_information_matches_empirical():
    """Closed form within 2% of the Gaussian MI of simulated data."""
    T, V, eps = 0.6, 10.0, 0.01
    p = ProtocolParams(V=V, epsilon=eps)
    pkg = simulate_package(T, 1_000_000, p, seed=1905)
    rho = float(np.corrcoef(pkg.M, pkg.B)[0, 1])
    I_emp = -0.5 * math.log2(1.0 - rho * rho)
    I_th = mutual_information(EffectiveChannel(T=T, eps=eps), p)
    assert I_th == pytest.approx(I_emp, rel=0.02)


def test_holevo_vanishes_on_ideal_channel():
    p = ProtocolParams(V=10.0)
    assert holevo_bound(EffectiveChannel(T=1.0, eps=0.0), p) <= 1e-9


def test_holevo_grows_with_noise_and_loss():
    p = ProtocolParams(V=10.0)
    s_clean = holevo_bound(EffectiveChannel(T=0.9, eps=0.0), p)
    s_noisy = holevo_bound(EffectiveChannel(T=0.9, eps=0.05), p)
    s_lossy = holevo_bound(EffectiveChannel(T=0.4, eps=0.0), p)
    assert s_noisy > s_clean
    assert s_lossy > s_clean
    assert s_clean >= 0.0


def test_asymptotic_rate_monotonicity_small_grid():
    p = ProtocolParams(V=10.0)
    Ts = np.linspace(0.2, 1.0, 9)
    epss = np.linspace(0.0, 0.08, 9)
    K = np.array([[key_rate(EffectiveChannel(T=t, eps=e), None, p).K_inf
                   for e in epss] for t in Ts])
    assert np.all(np.diff(K, axis=0) > -1e-12)   # T up, K up
    assert np.all(np.diff(K, axis=1) < 1e-12)    # eps up, K down


def test_delta_scaling_is_exact():
    p = ProtocolParams()
    for n in (10, 1234, 10**6, 7**9):
        assert delta_fs(4 * n, p) == delta_fs(n, p) / 2.0
    assert delta_fs(100, ProtocolParams(eps_bar=1e-6)) \
        < delta_fs(100, ProtocolParams(eps_bar=1e-12))


def test_key_rate_finite_size_identity():
    p = ProtocolParams(V=10.0, r=0.2)
    ch = EffectiveChannel(T=0.9, eps=0.005)
    N = 10**6
    rep = key_rate(ch, N, p)
    n_key = int(math.floor(0.8 * N))
    assert rep.N_used == n_key
    assert rep.delta == delta_fs(n_key, p)
    assert rep.K == pytest.approx((1.0 - p.r) * (rep.K_inf - rep.delta), abs=1e-15)
    assert rep.K_raw == rep.K  # positive here
    asym = key_rate(ch, None, p)
    assert asym.delta == 0.0 and asym.N_used is None
    assert rep.K < asym.K_inf


def test_key_rate_clamps_and_keeps_raw():
    p = ProtocolParams(V=10.0, r=0.5)
    ch = EffectiveChannel(T=0.15, eps=0.2)
    rep = key_rate(ch, 10_000, p)
    assert rep.K == 0.0
    assert rep.K_raw < 0.0


def test_key_rate_accepts_worst_case_channel():
    p = ProtocolParams(V=8.0)
    wc = WorstCaseChannel(T_eff_low=0.45, eps_eff_up=0.03,
                          X1_up=0.01, X2_low=0.91, eps_up=0.01)
    direct = key_rate(EffectiveChannel(T=0.45, eps=0.03), 10**5, p)
    via_wc = key_rate(wc, 10**5, p)
    assert via_wc == direct


def test_squeezed_surrogate_flag():
    coherent = key_rate(EffectiveChannel(T=0.8, eps=0.01), None,
                        ProtocolParams(V=10.0, V_S=1.0))
    squeezed = key_rate(EffectiveChannel(T=0.8, eps=0.01), None,
                        ProtocolParams(V=10.0, V_S=0.25))
    assert not coherent.squeezed_surrogate
    assert squeezed.squeezed_surrogate


def test_effective_channel_formulas():
    p = ProtocolParams(V=5.0, V_S=0.8, epsilon=0.02)
    mo = Moments(mean_T=0.5, mean_sqrtT=0.69)
    ch = effective_channel(mo, p)
    assert ch.T == pytest.approx(0.69**2, abs=1e-15)
    assert ch.eps == pytest.approx(0.02 + mo.var_sqrtT * p.V_prime, abs=1e-15)
    mo_tn = TruncatedNormal(0.5, 0.1).moments()
    ch_tn = effective_channel(mo_tn, ProtocolParams())
    assert ch_tn.T < mo_tn.mean_T  # fading always costs transmittance


def test_fading_never_helps_the_rate():
    """A fluctuating channel yields at most the rate of the fixed
    channel with the same mean transmittance."""
    p = ProtocolParams(V=6.0)
    mo = TruncatedNormal(0.6, 0.15).moments()
    fading = key_rate(effective_channel(mo, p), None, p)
    fixed = key_rate(EffectiveChannel(T=mo.mean_T, eps=p.epsilon), None, p)
    assert fading.K_inf < fixed.K_inf


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["T", "eps"])
def test_effective_channel_rejects_non_finite_fields(field, value):
    fields = {"T": 0.5, "eps": 0.01, field: value}
    with pytest.raises(ParameterError, match=f"{field} must be finite"):
        EffectiveChannel(**fields)


def test_security_validation():
    with pytest.raises(ParameterError):
        EffectiveChannel(T=1.3, eps=0.0)
    with pytest.raises(ParameterError):
        EffectiveChannel(T=0.5, eps=-0.01)
    with pytest.raises(ParameterError):
        mutual_information(EffectiveChannel(T=0.5, eps=0.0),
                           ProtocolParams(V=0.3, V_S=0.5))  # V' < 0
    with pytest.raises(ParameterError):
        delta_fs(0, ProtocolParams())
    with pytest.raises(ParameterError):
        key_rate(EffectiveChannel(T=0.5, eps=0.0), 1, ProtocolParams())
    with pytest.raises(ParameterError):
        mutual_information(0.5, ProtocolParams())


@pytest.mark.parametrize("T, eps", [(0.5, 0.01), (np.array([0.5, 0.3]), np.array([0.01, 0.02]))],
                         ids=["scalar", "array"])
def test_overflowing_modulation_variance_fails_closed(T, eps):
    """V_A**2 past the double range once escaped as a bare OverflowError."""
    with pytest.raises(ParameterError, match=r"V = 1e\+200 must lie in \(0, 1000\]"):
        key_rate(EffectiveChannel(T=T, eps=eps), 10**6, ProtocolParams(V=1e200))


def test_protocol_refuses_a_modulation_variance_past_double_precision():
    """V = 1e200 once reached simulate, and at V = 1.3e154 a float product
    in holevo_bound overflowed; both lie far past V_MAX."""
    with pytest.raises(ParameterError, match=r"V = 1e\+200 must lie in \(0, 1000\]"):
        ProtocolParams(V=1e200)
    with pytest.raises(ParameterError, match=r"V = 1.3e\+154 must lie in \(0, 1000\]"):
        key_rate(EffectiveChannel(T=0.5, eps=0.01), 10**6, ProtocolParams(V=1.3e154))


def test_protocol_caps_the_modulation_variance():
    """At V = 1e16 key_rate once gave K_inf = +2.5 bits/state (T = 0.5,
    eps = 0.01) where it lies near -1."""
    assert ProtocolParams(V=V_MAX).V == 1e3
    for V in (math.nextafter(V_MAX, math.inf), 1e16):
        with pytest.raises(ParameterError, match="must lie in"):
            ProtocolParams(V=V)


def _holevo_reference(T, eps, V, V_S, mp):
    """holevo_bound's formula at mpmath's working precision."""
    T, eps, V_A = mp.mpf(T), mp.mpf(eps), mp.mpf(V) + mp.mpf(V_S)
    V_B = T * (V_A - 1) + 1 + eps
    c2 = T * (V_A**2 - 1)
    delta = V_A**2 + V_B**2 - 2 * c2
    root = mp.sqrt(delta**2 - 4 * (V_A * V_B - c2) ** 2)

    def G(v):
        a, b = (v + 1) / 2, (v - 1) / 2
        return a * mp.log(a, 2) - (b * mp.log(b, 2) if b > 0 else 0)

    return (G(mp.sqrt((delta + root) / 2)) + G(mp.sqrt((delta - root) / 2))
            - G(mp.sqrt(V_A * (V_A - c2 / V_B))))


def test_holevo_bound_keeps_its_precision_up_to_v_max():
    """At V = V_MAX the double-precision Holevo bound stays within 1e-9
    bits of a 50-digit evaluation (7.1e-10 measured)."""
    mpmath = pytest.importorskip("mpmath")
    T = np.linspace(0.0, 1.0, 101)
    with mpmath.workdps(50):
        for eps in (0.0, 0.01, 0.05):
            for V_S in (1.0, 0.5, 0.05):
                got = holevo_bound(EffectiveChannel(T=T, eps=np.full(T.shape, eps)),
                                   ProtocolParams(V=V_MAX, V_S=V_S))
                want = [float(_holevo_reference(t, eps, V_MAX, V_S, mpmath)) for t in T]
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


def _path_outcomes(T, eps, p, N, asymptotic, X1, se, wrap):
    """K_raw of key_rate on the channel (T, eps) and on the worst case of
    a cluster whose statistics put its mean transmittance at T, its spread
    at X1 and its excess noise at eps, each bound se out, from r N
    disclosed states; or the type of the error each raised.  wrap turns
    every input into the path's type."""
    stats = AggregateStats(mean_sqrtT_hat=wrap(math.sqrt(abs(T))), mean_T_hat=wrap(T),
                           X1_hat=wrap(X1), X2_hat=wrap(2.0 * T - X1),
                           se_X1=wrap(se), se_X2=wrap(se), m_used=wrap(float(N)),
                           eps_hat=wrap(eps), vN_pooled=wrap(1.0 + eps),
                           k_total=wrap(p.r * N))
    N_total = None if asymptotic else wrap(N)
    out = []
    for channel in (lambda: EffectiveChannel(T=wrap(T), eps=wrap(eps)),
                    lambda: worst_case(stats, p)):
        try:
            out.append(key_rate(channel(), N_total, p).K_raw)
        except FadingCVQKDError as exc:
            out.append(type(exc))
    return out


@settings(max_examples=300, deadline=None)
@given(T=st.floats(-0.25, 1.25), eps=st.floats(-0.1, 2.0),
       V=st.floats(0.0, V_MAX, exclude_min=True), V_S=st.floats(0.0, 1.0, exclude_min=True),
       r=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       N=st.integers(0, 10**15), asymptotic=st.booleans(),
       X1=st.floats(-0.5, 0.5), se=st.floats(0.0, 1.0))
def test_float_and_array_paths_agree(T, eps, V, V_S, r, N, asymptotic, X1, se):
    """worst_case and key_rate on floats and on one-element arrays either
    raise the same FadingCVQKDError subclass or both give a finite K_raw,
    within 1e-12 bits/state of each other; no other error escapes."""
    p = ProtocolParams(V=V, V_S=V_S, r=r)
    scalar = _path_outcomes(T, eps, p, N, asymptotic, X1, se, lambda x: x)
    array = _path_outcomes(T, eps, p, N, asymptotic, X1, se, lambda x: np.array([x]))
    for on_floats, on_arrays in zip(scalar, array):
        if isinstance(on_floats, type) or isinstance(on_arrays, type):
            assert on_floats is on_arrays
        else:
            assert isinstance(on_floats, float) and on_arrays.shape == (1,)
            assert math.isfinite(on_floats) and math.isfinite(on_arrays[0])
            assert abs(on_floats - on_arrays[0]) <= 1e-12
