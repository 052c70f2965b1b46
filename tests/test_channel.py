"""Fading-channel simulation: linear model, seeding, prefix stability."""

import dataclasses
import math

import numpy as np
import pytest

from fading_cvqkd import (
    ParameterError,
    ProtocolParams,
    Run,
    TruncatedNormal,
    Uniform,
    noise_variance,
    simulate_package,
    simulate_run,
)


def test_protocol_defaults_and_derived():
    p = ProtocolParams()
    assert p.V == 10.0 and p.V_S == 1.0 and p.epsilon == 0.01
    assert p.beta == 0.95 and p.r == 0.1 and p.z_conf == 2.0
    assert p.V_prime == p.V + p.V_S - 1.0


def test_protocol_validation():
    with pytest.raises(ParameterError):
        ProtocolParams(V=0.0)
    with pytest.raises(ParameterError):
        ProtocolParams(V_S=1.5)
    with pytest.raises(ParameterError):
        ProtocolParams(epsilon=-0.01)
    with pytest.raises(ParameterError):
        ProtocolParams(r=1.0)
    with pytest.raises(ParameterError):
        ProtocolParams(beta=0.0)
    with pytest.raises(ParameterError):
        ProtocolParams(z_conf=0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ProtocolParams)])
def test_protocol_rejects_non_finite_fields(name, bad):
    with pytest.raises(ParameterError, match=f"{name} must be finite"):
        ProtocolParams(**{name: bad})


def test_protocol_rejects_non_numeric_fields():
    with pytest.raises(ParameterError, match="V must be a number"):
        ProtocolParams(V="5")


@pytest.mark.parametrize("bad", [True, np.True_], ids=["bool", "numpy-bool"])
def test_protocol_rejects_a_boolean(bad):
    """math.isfinite(True) holds, so a JSON true once scored V = 1."""
    with pytest.raises(ParameterError, match="V must be a number"):
        ProtocolParams(V=bad)


def test_run_validates_its_arrays():
    M = np.zeros((3, 4))
    dist, p = Uniform(0.2, 0.9), ProtocolParams()
    with pytest.raises(ParameterError, match="equal shape"):
        Run(M=M, B=np.zeros((3, 5)), true_T=[0.5] * 3, dist=dist, protocol=p, seed=0)
    with pytest.raises(ParameterError, match="one value per package"):
        Run(M=M, B=M, true_T=[0.5] * 2, dist=dist, protocol=p, seed=0)
    with pytest.raises(ParameterError, match=r"outside \[0, 1\]"):
        Run(M=M, B=M, true_T=[0.5, math.nan, 0.5], dist=dist, protocol=p, seed=0)
    with pytest.raises(ParameterError, match=">= 2 states"):
        Run(M=M[:, :1], B=M[:, :1], true_T=[0.5] * 3, dist=dist, protocol=p, seed=0)


def test_noise_variance_formula():
    p = ProtocolParams(epsilon=0.03, V_S=0.4)
    # V_N = 1 + eps - T (1 - V_S)
    assert noise_variance(0.0, p) == pytest.approx(1.03)
    assert noise_variance(0.5, p) == pytest.approx(1.03 - 0.5 * 0.6)
    assert noise_variance(1.0, ProtocolParams()) == pytest.approx(1.01)


def test_package_statistics_match_model():
    """Var(M) ~ V, Cov(M, B) ~ sqrt(T) V, Var(B) ~ T V' + V_N checks the
    linear channel model at fixed transmittance."""
    p = ProtocolParams(V=6.0, epsilon=0.05)
    T = 0.62
    pkg = simulate_package(T, 400_000, p, seed=11)
    n = pkg.n
    var_M = float(np.var(pkg.M))
    cov = float(np.mean(pkg.M * pkg.B))
    var_B = float(np.var(pkg.B))
    vN = noise_variance(T, p)
    # 6 sigma bands from the fourth-moment variances of the estimators
    assert abs(var_M - p.V) < 6.0 * p.V * math.sqrt(2.0 / n)
    cov_se = math.sqrt((T * p.V**2 * 2.0 + p.V * vN) / n)
    assert abs(cov - math.sqrt(T) * p.V) < 6.0 * cov_se
    tot = T * p.V_prime + vN
    assert abs(var_B - tot) < 6.0 * tot * math.sqrt(2.0 / n)


def test_squeezed_signal_reduces_output_variance():
    pc = ProtocolParams(V=5.0, V_S=1.0)
    ps = ProtocolParams(V=5.0, V_S=0.1)
    T = 0.8
    assert noise_variance(T, ps) < noise_variance(T, pc)
    assert ps.V_prime < pc.V_prime


def test_run_shapes_and_truth():
    dist = Uniform(0.2, 0.9)
    run = simulate_run(dist, 50, 40, ProtocolParams(), seed=5)
    assert run.m == 40 and run.n == 50 and run.N == 2000
    ts = run.true_T
    assert ts.shape == (40,)
    assert np.all((ts >= 0.2) & (ts <= 0.9))
    assert run.M.shape == run.B.shape == (40, 50)
    assert all(pkg.M.shape == (50,) for pkg in run.packages)
    # arrays are frozen against accidental mutation
    with pytest.raises(ValueError):
        run.packages[0].M[0] = 0.0
    with pytest.raises(ValueError):
        run.B[0, 0] = 0.0


def test_run_reproducibility():
    dist = TruncatedNormal(0.5, 0.1)
    a = simulate_run(dist, 20, 15, ProtocolParams(), seed=321)
    b = simulate_run(dist, 20, 15, ProtocolParams(), seed=321)
    assert a.true_T.tolist() == b.true_T.tolist()
    for pa, pb in zip(a.packages, b.packages):
        assert np.array_equal(pa.M, pb.M)
        assert np.array_equal(pa.B, pb.B)
    c = simulate_run(dist, 20, 15, ProtocolParams(), seed=322)
    assert not np.array_equal(a.packages[0].B, c.packages[0].B)


def test_run_prefix_stability():
    """Growing m only appends packages; the shared prefix is unchanged,
    so block-size studies reuse the same draws."""
    dist = Uniform(0.0, 1.0)
    small = simulate_run(dist, 16, 8, ProtocolParams(), seed=77)
    big = simulate_run(dist, 16, 20, ProtocolParams(), seed=77)
    assert np.array_equal(small.true_T, big.true_T[:8])
    for ps, pb in zip(small.packages, big.packages):
        assert np.array_equal(ps.M, pb.M)
        assert np.array_equal(ps.B, pb.B)


def test_simulation_validation():
    p = ProtocolParams()
    with pytest.raises(ParameterError):
        simulate_package(1.2, 10, p, seed=0)
    with pytest.raises(ParameterError):
        simulate_package(0.5, 1, p, seed=0)
    with pytest.raises(ParameterError):
        simulate_run(Uniform(0.0, 1.0), 10, 0, p, seed=0)
    with pytest.raises(ParameterError):
        simulate_run(Uniform(0.0, 1.0), 1, 5, p, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
def test_every_entry_point_refuses_a_seed_that_is_no_non_negative_int(seed):
    """numpy once refused seed -1 with an untyped ValueError and 1.5 with
    a TypeError, and took True as 1."""
    p, dist = ProtocolParams(), Uniform(0.0, 1.0)
    for draw in (lambda: simulate_run(dist, 10, 3, p, seed),
                 lambda: simulate_package(0.5, 10, p, seed),
                 lambda: dist.sample(seed, 3)):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            draw()


def test_a_numpy_integer_seed_is_the_same_seed():
    p, dist = ProtocolParams(), Uniform(0.0, 1.0)
    run = simulate_run(dist, 10, 3, p, np.int64(5))
    assert type(run.seed) is int and run.seed == 5
    assert np.array_equal(run.B, simulate_run(dist, 10, 3, p, 5).B)
    assert np.array_equal(dist.sample(np.uint8(5), 3), dist.sample(5, 3))
