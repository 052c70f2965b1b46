"""Fading-channel simulation: linear model, seeding, prefix stability,
and the size contract of every entry point that takes n, m or a count."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from fading_cvqkd import (
    ParameterError,
    ProtocolParams,
    Run,
    TruncatedNormal,
    Uniform,
    estimate_run,
    noise_variance,
    optimize,
    optimize_each,
    optimize_pooled,
    rate_ceiling,
    simulate_run,
    total_key_rate,
    total_key_rate_from_estimates,
)
from fading_cvqkd.channel import _draw


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
    M, B = _draw(np.random.default_rng(11), T, 400_000, p)
    n = M.size
    var_M = float(np.var(M))
    cov = float(np.mean(M * B))
    var_B = float(np.var(B))
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
    # arrays are frozen against accidental mutation
    with pytest.raises(ValueError):
        run.M[0, 0] = 0.0
    with pytest.raises(ValueError):
        run.B[0, 0] = 0.0


def test_run_reproducibility():
    dist = TruncatedNormal(0.5, 0.1)
    a = simulate_run(dist, 20, 15, ProtocolParams(), seed=321)
    b = simulate_run(dist, 20, 15, ProtocolParams(), seed=321)
    assert a.true_T.tolist() == b.true_T.tolist()
    assert np.array_equal(a.M, b.M)
    assert np.array_equal(a.B, b.B)
    c = simulate_run(dist, 20, 15, ProtocolParams(), seed=322)
    assert not np.array_equal(a.B[0], c.B[0])


def test_run_prefix_stability():
    """Growing m only appends packages; the shared prefix is unchanged,
    so block-size studies reuse the same draws."""
    dist = Uniform(0.0, 1.0)
    small = simulate_run(dist, 16, 8, ProtocolParams(), seed=77)
    big = simulate_run(dist, 16, 20, ProtocolParams(), seed=77)
    assert np.array_equal(small.true_T, big.true_T[:8])
    assert np.array_equal(small.M, big.M[:8])
    assert np.array_equal(small.B, big.B[:8])


def test_simulation_validation():
    p = ProtocolParams()
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
                 lambda: dist.sample(seed, 3)):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            draw()


def test_a_numpy_integer_seed_is_the_same_seed():
    p, dist = ProtocolParams(), Uniform(0.0, 1.0)
    run = simulate_run(dist, 10, 3, p, np.int64(5))
    assert type(run.seed) is int and run.seed == 5
    assert np.array_equal(run.B, simulate_run(dist, 10, 3, p, 5).B)
    assert np.array_equal(dist.sample(np.uint8(5), 3), dist.sample(5, 3))


_P, _UNI = ProtocolParams(), Uniform(0.0, 1.0)
_POOLED = (-math.inf, math.inf)
_EST = estimate_run(simulate_run(_UNI, 100, 20, _P, 1))

# each entry point that takes a size: (the least size it takes, a valid
# size, the call at size x)
_SIZED = {
    "sample-count": (1, 5, lambda x: _UNI.sample(3, x)),
    "simulate_run-n": (2, 10, lambda x: simulate_run(_UNI, x, 3, _P, 1)),
    "simulate_run-m": (1, 3, lambda x: simulate_run(_UNI, 10, x, _P, 1)),
    "total_key_rate-n": (2, 1000, lambda x: total_key_rate(_UNI, _POOLED, x, 100, _P)),
    "total_key_rate-m": (1, 100, lambda x: total_key_rate(_UNI, _POOLED, 1000, x, _P)),
    "rate_ceiling-n": (2, 1000, lambda x: rate_ceiling(_UNI.expectation_rule(), _P, x, 100)),
    "rate_ceiling-m": (1, 100, lambda x: rate_ceiling(_UNI.expectation_rule(), _P, 1000, x)),
    "optimize-C": (0, 1, lambda x: optimize(_UNI, x, 100, 100, _P)),
    "optimize_each-C": (0, 0, lambda x: optimize_each(_UNI, (x,), 200, 200, _P)),
    "optimize_each-n": (2, 200, lambda x: optimize_each(_UNI, (0,), x, 200, _P)),
    "optimize_each-m": (1, 200, lambda x: optimize_each(_UNI, (0,), 200, x, _P)),
    "optimize_pooled-n": (2, 200, lambda x: optimize_pooled(_UNI, x, (200,), _P)),
    "optimize_pooled-m": (1, 200, lambda x: optimize_pooled(_UNI, 200, (10, x), _P)),
    "total_key_rate_from_estimates-n": (
        2, 100, lambda x: total_key_rate_from_estimates(_EST, _POOLED, x, _P)),
}


@pytest.mark.parametrize("bad", [2.7, True, "1000", 1000.0, "below"])
@pytest.mark.parametrize("entry", list(_SIZED))
def test_every_entry_point_refuses_a_size_that_is_no_integer(entry, bad):
    """int() once truncated these: sample(1, 2.7) drew 2 values,
    simulate_run at (10.9, 2.5) gave a (2, 10) run, optimize took True
    as C = 1 and n = "1000" as 1000, and C = 1.5 raised a TypeError."""
    least, _, call = _SIZED[entry]
    with pytest.raises(ParameterError, match=f">= {least}" if bad == "below" else "integer"):
        call(least - 1 if bad == "below" else bad)


@pytest.mark.parametrize("entry", list(_SIZED))
def test_a_numpy_integer_size_is_the_same_size(entry):
    _, valid, call = _SIZED[entry]
    assert pickle.dumps(call(np.int64(valid))) == pickle.dumps(call(valid))
