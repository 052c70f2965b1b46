"""Correctness checks of the workloads' outputs.

Every check compares the program's output with a computation made here
(numpy sums, ``scipy.integrate`` moments, the textbook key-rate formulas
below) or with a property the method must have.  None compares with a
stored copy of an earlier output.  Each check returns a list of failure
messages, empty when the output passes; ``selftest.py`` feeds each one a
corrupted output and expects a failure.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

# standard errors allowed between a sample statistic and its true value;
# a 5-sigma miss has probability below 1e-6 per check and seed
Z_MOMENTS = 5.0
# K may fall by this much (bits/state) from one block count to the next
# larger one at fixed n: the optimum of a finer problem cannot be worse,
# so only rounding noise is allowed
MONOTONE_TOL = 1e-9
# a coarse exhaustive edge scan may beat the optimizer's plan by at most
# this share of the returned rate (the descent works on a finer grid but
# may stop in a local optimum)
EDGE_SCAN_TOL = 0.01
# the (r, V) grid scan may beat the reported optimum by at most this much
GRID_SCAN_TOL = 1e-12
# relative agreement of recomputed floating-point results
REL_TOL = 1e-9


def _fail(cond: bool, message: str) -> list[str]:
    return [] if cond else [message]


# ---- independent computations ------------------------------------------

def law_moments(law: dict, beam_constants: tuple[float, float, float] | None = None
                ) -> tuple[float, float]:
    """(E[sqrt T], Var(sqrt T)) of a fading law by adaptive quadrature of
    its density.  The beam-wandering law needs its (T0, R, lambda)."""
    kind = law["variant"]
    if kind == "truncated_normal":
        mu, sd = law["mean"], law["std"]
        pdf = lambda t: math.exp(-0.5 * ((t - mu) / sd) ** 2)
        norm = integrate.quad(pdf, 0.0, 1.0, epsabs=1e-13)[0]
        e_half = integrate.quad(lambda t: math.sqrt(t) * pdf(t), 0.0, 1.0,
                                epsabs=1e-13)[0] / norm
        e_one = integrate.quad(lambda t: t * pdf(t), 0.0, 1.0, epsabs=1e-13)[0] / norm
    elif kind == "uniform":
        lo, hi = law["lo"], law["hi"]
        e_half = (hi**1.5 - lo**1.5) / (1.5 * (hi - lo))
        e_one = 0.5 * (lo + hi)
    elif kind == "log_negative_weibull":
        T0, R, lam = beam_constants
        sb = law["sigma_b"]

        def raw(q):
            f = lambda r: T0**q * math.exp(-q * (r / R) ** lam) * r / sb**2 \
                * math.exp(-0.5 * (r / sb) ** 2)
            return integrate.quad(f, 0.0, 20.0 * sb, epsabs=1e-13, limit=200)[0]

        e_half, e_one = raw(0.5), raw(1.0)
    else:
        raise ValueError(f"no reference moments for {kind!r}")
    return e_half, e_one - e_half**2


def _g(x: float) -> float:
    if x <= 1.0:
        return 0.0
    a, b = 0.5 * (x + 1.0), 0.5 * (x - 1.0)
    return a * math.log2(a) - b * math.log2(b)


def k_inf(T: float, eps: float, V: float, beta: float) -> float:
    """Asymptotic reverse-reconciliation rate beta*I_AB - chi_BE of
    Gaussian-modulated coherent states with homodyne detection over a
    (T, eps) channel, eps referred to the channel output."""
    A = V + 1.0
    B = T * V + 1.0 + eps
    C2 = T * (A * A - 1.0)
    i_ab = 0.5 * math.log2(B / (1.0 + eps))
    delta = A * A + B * B - 2.0 * C2
    det = (A * B - C2) ** 2
    root = math.sqrt(max(0.0, delta * delta - 4.0 * det))
    nu1 = math.sqrt(0.5 * (delta + root))
    nu2 = math.sqrt(max(0.0, 0.5 * (delta - root)))
    nu3 = math.sqrt(A * (A - C2 / B))
    return beta * i_ab - (_g(nu1) + _g(nu2) - _g(nu3))


def true_k_inf(moments: tuple[float, float], V: float, eps: float = 0.01,
               beta: float = 0.95) -> float:
    """K_inf of the true effective channel T = <sqrt T>^2,
    eps_eff = eps + Var(sqrt T) * V (coherent states, V' = V)."""
    e_half, var_half = moments
    return k_inf(e_half**2, eps + var_half * V, V, beta)


def sqrt_estimates(M: np.ndarray, B: np.ndarray, V: float, r: float) -> np.ndarray:
    """Per-package sum(M*B) / (V*k) over the first k = round(r*n) states."""
    k = int(round(r * M.shape[1]))
    return np.sum(M[:, :k] * B[:, :k], axis=1) / (V * k)


def moment_standard_errors(M: np.ndarray, B: np.ndarray, V: float, r: float
                           ) -> tuple[float, float]:
    """(se of mean(sqrtT_hat), se of X1_hat) from the raw (M, B) rows.

    With u the per-package sqrt-T estimate, its model variance
    v = (2 u^2 + V_N / V) / k (V_N the residual variance of B - u M) and
    w = u^2 - v, the se of X1_hat = mean(w) - mean(u)^2 is the sample
    standard deviation of the influence column w - 2 mean(u) u over sqrt(m).
    """
    k = int(round(r * M.shape[1]))
    Mk, Bk = M[:, :k], B[:, :k]
    u = np.sum(Mk * Bk, axis=1) / (V * k)
    v_n = np.sum((Bk - u[:, None] * Mk) ** 2, axis=1) / (k - 1)
    w = u**2 - (2.0 * u**2 + np.maximum(v_n, 0.0) / V) / k
    root_m = math.sqrt(len(u))
    return (float(np.std(u, ddof=1)) / root_m,
            float(np.std(w - 2.0 * np.mean(u) * u, ddof=1)) / root_m)


# ---- run-pipeline ------------------------------------------------------

def check_roundtrip(stored: tuple, reference: tuple) -> list[str]:
    """Stored (M, B, true T) read back bit for bit equal to a fresh
    simulation at the same seed."""
    out = []
    for name, a, b in zip(("M", "B", "true_T"), stored, reference):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or not np.array_equal(a.view(np.uint64), b.view(np.uint64)):
            out.append(f"stored run: {name} differs from simulate_run at the same seed")
    return out


def check_rerun(first: str, again: str) -> list[str]:
    return _fail(first == again, "simulate rerun is not byte-identical")


def check_sqrt_estimates(sqrt_hat: np.ndarray, M: np.ndarray, B: np.ndarray,
                         V: float, r: float) -> list[str]:
    ref = sqrt_estimates(M, B, V, r)
    if len(sqrt_hat) != len(ref):
        return [f"estimates.csv has {len(sqrt_hat)} rows for {len(ref)} packages"]
    bad = np.flatnonzero(~np.isclose(sqrt_hat, ref, rtol=REL_TOL, atol=1e-15))
    return _fail(bad.size == 0, f"sqrtT_hat differs from sum(M*B)/(V*k) "
                                f"in {bad.size} package(s), first {bad[:3].tolist()}")


def check_moments(aggregate: dict, moments: tuple[float, float],
                  se: tuple[float, float]) -> list[str]:
    """mean_sqrtT_hat and X1_hat within Z_MOMENTS of our standard errors
    of E[sqrt T] and Var(sqrt T); the reported standard errors equal ours."""
    e_half, var_half = moments
    out = []
    for key, se_key, truth, own_se, label in (
            ("mean_sqrtT_hat", "se_mean_sqrtT", e_half, se[0], "E[sqrt T]"),
            ("X1_hat", "se_X1", var_half, se[1], "Var(sqrt T)")):
        value, reported = float(aggregate[key]), float(aggregate[se_key])
        out += _fail(abs(value - truth) <= Z_MOMENTS * own_se,
                     f"{key} {value:.6e} is {abs(value - truth) / own_se:.1f} se "
                     f"from {label} = {truth:.6e}")
        out += _fail(math.isclose(reported, own_se, rel_tol=REL_TOL),
                     f"{se_key} {reported!r} differs from the se computed from "
                     f"(M, B): {own_se!r}")
    return out


def check_key_rate(label: str, K: float, r: float, k_inf_true: float) -> list[str]:
    return _fail(0.0 < K <= (1.0 - r) * k_inf_true,
                 f"{label} key rate {K!r} outside (0, (1 - r) K_inf = "
                 f"{(1.0 - r) * k_inf_true:.6f}]")


# ---- pooled-sweep ------------------------------------------------------

def check_rows_bounded(rows: list[dict], k_inf_at_V) -> list[str]:
    """0 <= K <= (1 - r_opt) K_inf per row; K_inf is the row's own
    column when the figure has one, else the true channel's at V_opt."""
    out = []
    for row in rows:
        K, r_opt, V_opt = float(row["K"]), float(row["r_opt"]), float(row["V_opt"])
        if not K >= 0.0:
            out.append(f"row m={row['m']}: K = {K} < 0")
            continue
        if math.isnan(r_opt):
            out += _fail(K == 0.0, f"row m={row['m']}: K = {K} without an optimum")
            continue
        bounds = [k_inf_at_V(V_opt)]
        if "K_inf" in row:
            bounds.append(float(row["K_inf"]))
        for bound in bounds:
            out += _fail(K <= (1.0 - r_opt) * bound * (1.0 + REL_TOL),
                         f"row n={row['n']} m={row['m']}: K {K:.6f} above "
                         f"(1 - r_opt) K_inf = {(1.0 - r_opt) * bound:.6f}")
    return out


def check_monotone_in_m(rows: list[dict]) -> list[str]:
    out = []
    by_n: dict[int, list[tuple[int, float]]] = {}
    for row in rows:
        by_n.setdefault(int(row["n"]), []).append((int(row["m"]), float(row["K"])))
    for n, series in by_n.items():
        series.sort()
        for (m0, k0), (m1, k1) in zip(series, series[1:]):
            out += _fail(k1 >= k0 - MONOTONE_TOL,
                         f"n={n}: K falls from {k0:.6f} at m={m0} to {k1:.6f} at m={m1}")
    return out


def check_largest_positive(rows: list[dict]) -> list[str]:
    top = max(rows, key=lambda row: (int(row["N"]), int(row["n"])))
    return _fail(float(top["K"]) > 0.0, f"largest-N row (N={top['N']}) has K = {top['K']}")


def check_grid_scan(K_reported: float, scan_best: float) -> list[str]:
    return _fail(scan_best <= K_reported + GRID_SCAN_TOL,
                 f"(r, V) grid scan finds K {scan_best:.8f} above the reported "
                 f"{K_reported:.8f}")


# ---- cluster searches --------------------------------------------------

def check_rate_vs_clusters(rows: list[dict]) -> list[str]:
    series = sorted((int(row["C"]), float(row["K"])) for row in rows)
    out = []
    for (c0, k0), (c1, k1) in zip(series, series[1:]):
        out += _fail(k1 >= k0 - MONOTONE_TOL, f"K falls from {k0:.6f} at C={c0} "
                                              f"to {k1:.6f} at C={c1}")
    pooled = dict(series).get(0)
    for c, k in series:
        if c >= 1 and pooled is not None:
            out += _fail(k > pooled, f"C={c} rate {k:.6f} does not beat C=0 ({pooled:.6f})")
    return out


def check_kept_mass(label: str, mass: float) -> list[str]:
    return _fail(0.0 < mass <= 1.0 + REL_TOL, f"{label}: kept mass {mass!r} outside (0, 1]")


def check_plan_total(plan: dict, recomputed: float) -> list[str]:
    """total_rate equals the sum of mass * K_c and the rate re-evaluated
    at the returned edges and (r, V)."""
    total = float(plan["total_rate"])
    summed = sum(float(c["mass"]) * float(c["K_c"]) for c in plan["per_cluster"])
    out = _fail(math.isclose(total, summed, rel_tol=REL_TOL, abs_tol=1e-15),
                f"total_rate {total!r} differs from sum(mass * K_c) = {summed!r}")
    out += _fail(math.isclose(total, recomputed, rel_tol=REL_TOL, abs_tol=1e-15),
                 f"total_rate {total!r} differs from total_key_rate at the "
                 f"returned edges: {recomputed!r}")
    return out


def check_edge_scan(label: str, returned: float, scan_best: float) -> list[str]:
    return _fail(scan_best <= returned * (1.0 + EDGE_SCAN_TOL) + 1e-15,
                 f"{label}: coarse edge scan finds {scan_best:.6f}, above the "
                 f"optimizer's {returned:.6f} by more than {EDGE_SCAN_TOL:.0%}")


def check_ingest_moments(moments: tuple[float, float], trace: np.ndarray) -> list[str]:
    mean_T, mean_sqrtT = moments
    ref_T, ref_sqrtT = float(np.mean(trace)), float(np.mean(np.sqrt(trace)))
    return _fail(math.isclose(mean_T, ref_T, rel_tol=1e-12)
                 and math.isclose(mean_sqrtT, ref_sqrtT, rel_tol=1e-12),
                 f"ingested moments ({mean_T!r}, {mean_sqrtT!r}) differ from the "
                 f"trace's ({ref_T!r}, {ref_sqrtT!r})")

