"""Transmittance-law moments, samplers and descriptors."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fading_cvqkd import distributions
from fading_cvqkd import (
    Empirical,
    LogNegativeWeibull,
    Moments,
    ParameterError,
    TruncatedNormal,
    Uniform,
    beam_geometry_constants,
    calibrate_beam_wander,
    from_descriptor,
)
from fading_cvqkd.storage import jsonable

MC_DRAWS = 200_000


def test_uniform_moments_exact():
    mo = Uniform(0.0, 1.0).moments()
    assert mo.mean_T == pytest.approx(0.5, abs=1e-10)
    assert mo.mean_sqrtT == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert mo.var_sqrtT == pytest.approx(1.0 / 18.0, abs=1e-8)


def test_uniform_subinterval_moments():
    mo = Uniform(0.25, 0.64).moments()
    # E[T] = (lo+hi)/2, E[sqrtT] = 2(hi^1.5 - lo^1.5)/(3(hi - lo))
    assert mo.mean_T == pytest.approx(0.445, abs=1e-10)
    expect = 2.0 * (0.64**1.5 - 0.25**1.5) / (3.0 * 0.39)
    assert mo.mean_sqrtT == pytest.approx(expect, abs=1e-10)


@pytest.mark.parametrize(
    ("dist", "var_target", "tol"),
    [
        (TruncatedNormal(0.5, 0.1), 0.0052, 0.0002),
        (LogNegativeWeibull(1.25, 0.8), 0.018, 0.002),
        (LogNegativeWeibull(1.47, 0.6), 0.0047, 0.0005),
    ],
    ids=["truncnorm", "weibull_wide", "weibull_narrow"],
)
def test_benchmark_sqrt_variances(dist, var_target, tol):
    mo = dist.moments()
    assert abs(mo.var_sqrtT - var_target) <= tol
    assert mo.mean_T == pytest.approx(0.5, abs=5e-4)


@pytest.mark.parametrize(
    "dist",
    [
        Uniform(0.0, 1.0),
        Uniform(0.3, 0.9),
        TruncatedNormal(0.5, 0.1),
        TruncatedNormal(0.05, 0.2),
        LogNegativeWeibull(1.25, 0.8),
        LogNegativeWeibull(1.47, 0.6),
    ],
    ids=["uniform", "uniform_sub", "truncnorm", "truncnorm_edge",
         "weibull_wide", "weibull_narrow"],
)
def test_sampler_matches_moments(dist):
    """Monte Carlo moments agree with the analytic ones within 5 sigma."""
    t = dist.sample(20240517, MC_DRAWS)
    assert t.min() >= 0.0 and t.max() <= 1.0
    mo = dist.moments()
    for emp, ana in [(t, mo.mean_T), (np.sqrt(t), mo.mean_sqrtT)]:
        se = np.std(emp, ddof=1) / math.sqrt(MC_DRAWS)
        assert abs(float(np.mean(emp)) - ana) < 5.0 * se


@pytest.mark.parametrize(
    "dist",
    [
        Uniform(0.1, 0.7),
        TruncatedNormal(0.5, 0.1),
        LogNegativeWeibull(1.25, 0.8),
        LogNegativeWeibull(1.47, 0.6),
    ],
    ids=["uniform", "truncnorm", "weibull_wide", "weibull_narrow"],
)
def test_expectation_rule_integrates_moments(dist):
    x, w = dist.expectation_rule()
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-8)
    mo = dist.moments()
    assert float(np.sum(w * x)) == pytest.approx(mo.mean_T, abs=1e-8)
    assert float(np.sum(w * np.sqrt(x))) == pytest.approx(mo.mean_sqrtT, abs=1e-7)


@pytest.mark.parametrize("dist", [Uniform(0.1, 0.7), TruncatedNormal(0.5, 0.1),
                                  LogNegativeWeibull(1.47, 0.6)],
                         ids=["uniform", "truncnorm", "weibull"])
def test_legendre_nodes_are_built_once_and_shared_read_only(dist):
    """The Gauss-Legendre nodes of an order are cached read-only; each
    expectation_rule returns fresh arrays, so writing into one leaves the
    next call's bits alone."""
    x, w = distributions._legendre(160)
    assert distributions._legendre(160)[0] is x
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 0.0
    first = [a.copy() for a in dist.expectation_rule()]
    for a in dist.expectation_rule():
        a[:] = -1.0
    again = dist.expectation_rule()
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mean, std", [(-0.15, 0.02), (-0.1953125, 0.0234375)])
def test_truncated_normal_far_below_zero(mean, std):
    """With [0, 1] deep in the upper tail the mass does not cancel to 0,
    no draw is clipped up to 1.0, and the sample mean is the law's."""
    dist = TruncatedNormal(mean, std)
    t = dist.sample(20240517, 100_000)
    assert not np.any(t == 1.0)
    assert t.min() >= 0.0
    se = np.std(t, ddof=1) / math.sqrt(t.size)
    assert abs(float(np.mean(t)) - dist.moments().mean_T) < 5.0 * se


def test_truncated_normal_refuses_what_scipy_ndtr_refuses():
    """The refusal of a law with no mass inside [0, 1] takes math.erfc; on
    a grid around the edge where the mass falls to 1e-300, on both sides
    of [0, 1], it refuses the same laws as the mass from scipy's ndtr, and
    an accepted law normalises by that mass."""
    from scipy.special import ndtr
    outcomes = []
    for std in np.geomspace(0.01, 2.0, 17).tolist():
        for z in np.linspace(36.9, 37.2, 31).tolist():   # ndtr(-z) crosses 1e-300
            for mean in (-z * std, 1.0 + z * std):
                a, b = -mean / std, (1.0 - mean) / std
                lo, hi = (ndtr(-b), ndtr(-a)) if mean < 0.0 else (ndtr(a), ndtr(b))
                try:
                    dist = TruncatedNormal(mean, std)
                except ParameterError:
                    dist = None
                assert (dist is None) == (hi - lo <= 1e-300), (mean, std)
                if dist is not None:
                    assert dist._norm == 1.0 / (float(hi) - float(lo))
                outcomes.append(dist is None)
    assert 0 < sum(outcomes) < len(outcomes)


def test_beam_geometry_limits():
    # a beam much narrower than the aperture passes nearly untouched
    T0, R, lam = beam_geometry_constants(0.2)
    assert T0 > 0.999999
    assert lam > 0.0 and R > 0.0
    # clipping losses grow with the beam-to-aperture ratio
    T0_wide, _, _ = beam_geometry_constants(2.0)
    assert T0_wide < T0


def test_calibration_reproduces_frozen_constants():
    """The frozen (T0, R, lam) table regenerates from the calibration
    routine; guards against silent drift of the stored constants."""
    for (wa, sb), frozen in [
        ((1.25, 0.8), LogNegativeWeibull(1.25, 0.8)),
        ((1.47, 0.6), LogNegativeWeibull(1.47, 0.6)),
    ]:
        mo = frozen.moments()
        T0, R, lam = calibrate_beam_wander(wa, sb, 0.5, mo.var_sqrtT)
        assert T0 == pytest.approx(frozen.T0, rel=1e-8)
        assert R == pytest.approx(frozen.R, rel=1e-6)
        assert lam == pytest.approx(frozen.lam, rel=1e-12)


def test_weibull_density_normalizes():
    d = LogNegativeWeibull(1.25, 0.8)
    t = np.linspace(1e-9, d.T0 - 1e-9, 400_001)
    mass = float(np.trapezoid(d.density(t), t))
    assert mass == pytest.approx(1.0, abs=5e-4)


def test_empirical_moments_are_sample_moments():
    vals = np.array([0.2, 0.2, 0.5, 0.9, 0.64])
    d = Empirical(vals)
    mo = d.moments()
    assert mo.mean_T == float(np.mean(vals))
    assert mo.mean_sqrtT == float(np.mean(np.sqrt(vals)))
    x, w = d.expectation_rule()
    assert float(np.sum(w * x)) == pytest.approx(mo.mean_T, abs=1e-12)


def test_empirical_density_is_a_histogram():
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.2, 0.8, 5000)
    d = Empirical(vals)
    t = np.linspace(0.0, 1.0, 2001)
    dens = d.density(t)
    mass = float(np.trapezoid(dens, t))
    assert mass == pytest.approx(1.0, abs=0.01)
    assert d.density(0.05) == 0.0
    assert d.density(0.95) == 0.0


def test_empirical_density_bins_a_steady_trace_with_one_dropout():
    """A stable link with one beam block: the Freedman-Diaconis width of
    1e-9 jitter would cut [0, 0.6] into about 3.3e9 bins; the bin count
    stops at the sample count."""
    rng = np.random.default_rng(11)
    trace = 0.6 + rng.normal(0.0, 1e-9, 1600)
    trace[700] = 0.0
    d = Empirical(trace)
    assert d._hist.size == 1600
    t = np.linspace(0.0, 1.0, 1001)
    width = d._edges[1] - d._edges[0]
    assert float(np.sum(d._hist) * width) == pytest.approx(1.0, rel=1e-12)
    assert d.density(0.0) > 0.0 and d.density(0.3) == 0.0 and d.density(0.7) == 0.0
    assert np.all(d.density(t) >= 0.0)


def test_empirical_bins_match_freedman_diaconis_until_the_cap():
    rng = np.random.default_rng(5)
    for trace in (rng.uniform(0.2, 0.8, 5000), rng.beta(2.0, 5.0, 300),
                  np.array([0.1, 0.4, 0.4, 0.7]), np.full(20, 0.6)):
        hist, edges = np.histogram(trace, bins="fd", density=True)
        d = Empirical(trace)
        assert np.array_equal(d._hist, hist) and np.array_equal(d._edges, edges)


def test_from_descriptor_ignores_a_stale_bin_width():
    d = from_descriptor({"variant": "empirical", "samples": [0.1, 0.4, 0.7],
                         "bin_width": 0.05})
    assert d.descriptor() == {"variant": "empirical", "samples": [0.1, 0.4, 0.7]}


LAWS = [Uniform(0.1, 0.9), TruncatedNormal(0.45, 0.2), LogNegativeWeibull(1.25, 0.8),
        Empirical([0.1, 0.4, 0.4, 0.7])]
LAW_IDS = ["uniform", "truncnorm", "weibull", "empirical"]


@pytest.mark.parametrize("dist", LAWS, ids=LAW_IDS)
def test_law_contract(dist):
    """What every law inherits: a float density at a scalar t and an
    array at an array, t outside [0, 1] and a count below 1 refused, and
    draws fixed by the seed, whether an int or a Generator."""
    dens = dist.density(np.array([0.0, 0.3, 0.6, 1.0]))
    assert isinstance(dens, np.ndarray) and dens.shape == (4,)
    assert type(dist.density(0.3)) is float and dist.density(0.3) == dens[1]
    for t in (-0.25, 1.5, [0.5, 1.01]):
        with pytest.raises(ParameterError, match=r"outside \[0, 1\]"):
            dist.density(t)
    with pytest.raises(ParameterError, match="sample count must be >= 1"):
        dist.sample(1, 0)
    draws = dist.sample(99, 50)
    assert np.array_equal(draws, dist.sample(np.random.default_rng(99), 50))
    assert np.array_equal(draws, dist.sample(99, 50))
    assert not np.array_equal(draws, dist.sample(100, 50))


@pytest.mark.parametrize("d, message", [
    ({"variant": "truncated_normal"}, "truncated_normal descriptor lacks the key 'mean'"),
    ({"variant": "log_negative_weibull", "w_over_a": 1.47},
     "log_negative_weibull descriptor lacks the key 'sigma_b'"),
    ({"variant": "uniform", "lo": "a"}, "uniform descriptor: 'lo' is malformed"),
    ({"variant": "uniform", "hi": None}, "uniform descriptor: 'hi' is malformed"),
    ({"variant": "empirical"}, "empirical descriptor lacks the key 'samples'"),
    ({"variant": "empirical", "samples": "0.5"}, "empirical descriptor: 'samples' is malformed"),
    ({"variant": "empirical", "samples": [0.5, "x"]},
     "empirical descriptor: 'samples' is malformed"),
    ({"variant": "uniform", "lo": "0.2"}, "uniform descriptor: 'lo' is malformed"),
    ({"variant": "truncated_normal", "mean": 0.5, "std": True},
     "truncated_normal descriptor: 'std' is malformed"),
    ({"variant": "empirical", "samples": [0.5, True, "0.5"]},
     "empirical descriptor: 'samples' is malformed"),
], ids=["tn-mean", "weibull-sigma_b", "uniform-lo", "uniform-hi-null", "empirical-missing",
        "empirical-string", "empirical-entry", "uniform-lo-numeric-string", "tn-std-bool",
        "empirical-bool-entry"])
def test_from_descriptor_names_a_malformed_key(d, message):
    """These once ended in KeyError or ValueError, and reached the CLI
    through a config's dist, a dist_file or run.json; a numeric string
    or a bool once passed through float(), std = true as 1.0."""
    with pytest.raises(ParameterError, match=message):
        from_descriptor(d)


def test_from_descriptor_keeps_the_float_conversion():
    """An int is a number; a string or a bool is not (see the malformed
    keys above), though float() takes both."""
    assert from_descriptor({"variant": "uniform", "lo": 0, "hi": 1}) == Uniform(0.0, 1.0)
    assert from_descriptor({"variant": "empirical", "samples": [0, 1]}).descriptor() \
        == {"variant": "empirical", "samples": [0.0, 1.0]}


@pytest.mark.parametrize("dist", LAWS, ids=LAW_IDS)
def test_descriptor_round_trip(dist):
    clone = from_descriptor(dist.descriptor())
    assert type(clone) is type(dist)
    assert clone.descriptor() == dist.descriptor()
    mo, mc = dist.moments(), clone.moments()
    assert mc.mean_T == pytest.approx(mo.mean_T, abs=1e-12)
    assert mc.var_sqrtT == pytest.approx(mo.var_sqrtT, abs=1e-12)


# numbers as a caller may pass them, and values float() takes that are not
# (a Fraction would not read back from a descriptor written as JSON)
PARAMETER_VALUES = [0, 1, 0.1, 0.5, 1.47, np.float64(0.6), np.int64(1), np.float32(0.25),
                    True, False, "0.5", "1.47", None, Fraction(1, 5)]


@pytest.mark.parametrize("law", [Uniform, TruncatedNormal, LogNegativeWeibull])
def test_every_law_that_constructs_round_trips(law):
    """Over pairs of parameter values, a law refuses a bool, a string, a
    Fraction or None with ParameterError, keeps a number as given (an int
    stays an int) and reads back from its descriptor.  Uniform(False,
    True) once built a run that open_run refused, TruncatedNormal(True,
    0.1) built, and LogNegativeWeibull("1.47", 0.6) raised a bare
    TypeError."""
    built = 0
    for args in itertools.product(PARAMETER_VALUES, repeat=2):
        numbers_only = not any(isinstance(a, (bool, str, Fraction)) or a is None for a in args)
        try:
            dist = law(*args)
        except ParameterError as exc:
            assert numbers_only or "must be a number" in str(exc)
            continue
        assert numbers_only
        assert all(getattr(dist, f.name) is a for f, a in zip(dataclasses.fields(dist), args))
        clone = from_descriptor(dist.descriptor())
        assert clone == dist and clone.descriptor() == dist.descriptor()
        built += 1
    assert built >= 5


def test_invalid_parameters_raise():
    with pytest.raises(ParameterError):
        Uniform(0.5, 0.2)
    with pytest.raises(ParameterError):
        Uniform(-0.1, 0.5)
    with pytest.raises(ParameterError):
        TruncatedNormal(0.5, 0.0)
    with pytest.raises(ParameterError):
        LogNegativeWeibull(1.25, -1.0)
    with pytest.raises(ParameterError):
        Empirical([])
    with pytest.raises(ParameterError):
        Empirical([0.5, 1.2])
    with pytest.raises(ParameterError):
        from_descriptor({"variant": "cauchy"})
    for flags in ([True, 0.5], np.array([True, False])):
        with pytest.raises(ParameterError, match="not booleans"):
            Empirical(flags)
    with pytest.raises(ParameterError, match="Jensen inequality violated"):
        Moments(mean_T=0.2, mean_sqrtT=0.9)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["mean_T", "mean_sqrtT"])
def test_moments_reject_non_finite_fields(field, value):
    fields = {"mean_T": 0.5, "mean_sqrtT": 0.69, field: value}
    with pytest.raises(ParameterError, match=f"{field} must be finite"):
        Moments(**fields)


@settings(max_examples=200, deadline=None)
@given(mean_T=st.floats(allow_nan=False, allow_infinity=False),
       mean_sqrtT=st.floats(allow_nan=False, allow_infinity=False))
@example(mean_T=0.5, mean_sqrtT=0.69)
@example(mean_T=0.25, mean_sqrtT=0.5 + 1e-12)    # rounding dust, erased to 0
@example(mean_T=1e308, mean_sqrtT=1e155)         # the square overflows
def test_moments_derive_var_sqrtT(mean_T, mean_sqrtT):
    """var_sqrtT is no input: it is mean_T - mean_sqrtT^2, dust erased,
    and it is still a field, so a report writes all three."""
    try:
        mo = Moments(mean_T, mean_sqrtT)
    except ParameterError:
        return
    assert mo.var_sqrtT == max(0.0, mean_T - mean_sqrtT**2)
    assert set(jsonable(mo)) == {"mean_T", "mean_sqrtT", "var_sqrtT"}


@settings(max_examples=40, deadline=None)
@given(
    lo=st.floats(0.0, 0.98),
    width=st.floats(0.01, 1.0),
    mean=st.floats(-0.2, 1.2),
    std=st.floats(0.02, 0.5),
)
# the mean 8.3 standard deviations below 0 once cancelled the mass to 0
@example(lo=0.0, width=0.01, mean=-0.1953125, std=0.0234375)
def test_jensen_inequality_everywhere(lo, width, mean, std):
    """mean_sqrtT^2 <= mean_T and 0 <= var_sqrtT for any parameters."""
    hi = min(1.0, lo + width)
    for dist in (Uniform(lo, hi), TruncatedNormal(mean, std)):
        mo = dist.moments()
        assert mo.mean_sqrtT**2 <= mo.mean_T + 1e-9
        assert 0.0 <= mo.var_sqrtT <= mo.mean_T + 1e-9
