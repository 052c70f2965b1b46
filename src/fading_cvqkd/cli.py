"""Command line front end.

Subcommands: simulate, estimate, keyrate, optimize, reproduce, ingest;
each declares only the options it reads.  Configuration precedence:
JSON config file, then FADING_CVQKD_* environment variables (where the
subcommand reads the setting), then command line flags.  --paper-scale
bumps the default package count/size to publication scale; explicit
--n/--m beat it.  Outputs are CSV tables and JSON reports, plus .npy
arrays for stored runs; nothing plots in-process.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import clustering, estimation, security, storage
from .channel import ProtocolParams, simulate_run
from .distributions import Empirical, from_descriptor
from .errors import FadingCVQKDError, ValidationError
from .storage import B_NPY, ESTIMATES_CSV, M_NPY, RUN_JSON, TRUE_T_CSV

# the type of each setting that a config file or the environment gives;
# an environment value is converted by it, a file value must have it
_TYPES = {"dist": dict, "dist_file": str, "n": int, "m": int, "seed": int,
          "clusters": int, "z_conf": float, "out": str}
_ENV_KEYS = {f"FADING_CVQKD_{name.upper()}": name
             for name in ("seed", "n", "m", "clusters", "z_conf", "out")}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a command needs, merged from defaults, config file,
    environment and flags.  A scenario plus its seed reproduces a run
    bit for bit."""

    dist: dict
    protocol: dict
    n: int = 1000
    m: int = 1000
    seed: int = 1234
    clusters: int = 2
    out: str | None = None
    dist_file: str | None = None
    paper_scale: bool = False

    def __post_init__(self) -> None:
        # simulate_run refuses a negative seed only after --out is made
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    def make_dist(self):
        if self.dist_file:
            return from_descriptor(storage.read_json(self.dist_file))
        return from_descriptor(self.dist)

    def make_protocol(self) -> ProtocolParams:
        return storage.protocol_from_descriptor(self.protocol)


def _merge_config(args, defaults: dict | None = None, unread: tuple[str, ...] = (),
                  reason: str = "") -> ScenarioConfig:
    """The scenario from the built-in defaults, the command's own
    defaults, the config file, the environment and the flags, each
    overriding the ones before.  A setting in unread that the file or
    the environment gives raises ValidationError (with reason); the
    flags are refused by _refuse_unread."""
    cfg = {
        "dist": {"variant": "truncated_normal", "mean": 0.5, "std": 0.1},
        "protocol": {},
        **(defaults or {}),
    }

    def take(name: str, val, source: str) -> None:
        if name in unread:
            raise ValidationError(f"{source} {reason}")
        cfg[name] = val

    if args.config:
        file_cfg = storage.json_typed(storage.read_json(args.config), dict, args.config)
        for key in ("dist", "dist_file", "n", "m", "seed", "clusters", "out"):
            if key in file_cfg:
                where = f"{key!r} in {args.config}"
                take(key, storage.json_typed(file_cfg[key], _TYPES[key], where), where)
        cfg["protocol"].update(storage.json_typed(file_cfg.get("protocol", {}), dict,
                                                  f"'protocol' in {args.config}"))
    for env_key, name in _ENV_KEYS.items():
        raw = os.environ.get(env_key)
        if raw is None:
            continue
        try:
            val = _TYPES[name](raw)
        except ValueError:
            raise ValidationError(f"{env_key} is not a valid {_TYPES[name].__name__}: {raw!r}")
        take(name, val, env_key)
    if getattr(args, "paper_scale", None):
        cfg["paper_scale"] = True
        cfg["n"], cfg["m"] = 100_000, 1000
    for name in ("seed", "n", "m", "clusters", "z_conf", "out"):
        val = getattr(args, name, None)
        if val is not None:
            cfg[name] = val
    if "z_conf" in cfg:
        cfg["protocol"]["z_conf"] = cfg.pop("z_conf")
    return ScenarioConfig(**cfg)


def _refuse_unread(args, names, reason: str) -> None:
    """Refuse those of the named options that were given: this mode does not read them."""
    for name in names:
        if getattr(args, name) is not None:
            raise ValidationError(f"--{name.replace('_', '-')} {reason}")


def _require_out(cfg: ScenarioConfig, command: str) -> Path:
    if not cfg.out:
        raise ValidationError(f"{command} needs --out (or 'out' in the config)")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# files that estimate and keyrate derive from a run: a new run in the
# same directory makes them stale
_STALE_AFTER_SIMULATE = (ESTIMATES_CSV, "estimate.json", "residuals.csv",
                         "keyrate.json")


def _cmd_simulate(args) -> int:
    cfg = _merge_config(args)
    dist, protocol = cfg.make_dist(), cfg.make_protocol()   # validated before out is made
    out = _require_out(cfg, "simulate")
    run = simulate_run(dist, cfg.n, cfg.m, protocol, cfg.seed)
    for name in _STALE_AFTER_SIMULATE:
        (out / name).unlink(missing_ok=True)
    storage.write_run(run, out)
    mean_T = float(np.mean(run.true_T))
    print(f"simulated {run.m} packages x {run.n} states (seed {run.seed}), "
          f"mean true T {mean_T:.4f}")
    wrote = ", ".join(str(out / name) for name in (M_NPY, B_NPY, TRUE_T_CSV, RUN_JSON))
    print(f"wrote {wrote}")
    return 0


def _ml_sqrt_slope(M: np.ndarray, B: np.ndarray) -> float:
    """Least-squares slope of B on M, the scale-free diagnostic that
    nulls exactly on noiseless data (unlike the protocol estimator,
    which divides by the known modulation variance)."""
    return float(np.dot(M, B) / np.dot(M, M))


def _write_residuals(run, est, path) -> None:
    root = np.sqrt(run.true_T)
    slope = np.array([_ml_sqrt_slope(M[:est.k], B[:est.k]) for M, B in zip(run.M, run.B)])
    storage.write_table(path, ["package", "T_true", "sqrtT_hat", "resid", "resid_ml"],
                        zip(range(run.m), run.true_T.tolist(), est.sqrtT_hat.tolist(),
                            (est.sqrtT_hat - root).tolist(), (slope - root).tolist()))


def _cmd_estimate(args) -> int:
    run_dir = Path(args.data)
    run = storage.read_run(run_dir)
    estimates = estimation.estimate_run(run)
    storage.write_estimates(estimates, run_dir / ESTIMATES_CSV)
    stats = estimation.aggregate(estimates, run.protocol)
    wc = estimation.worst_case(stats, run.protocol)
    rect = estimation.worst_case_rectangular(stats, run.protocol)
    report = {"aggregate": stats, "worst_case": wc, "worst_case_rectangular": rect,
              "flags": estimation.estimate_flags(estimates, run.protocol)}
    storage.write_json(report, run_dir / "estimate.json")
    wrote = [str(run_dir / ESTIMATES_CSV), str(run_dir / "estimate.json")]
    if not args.blind:
        _write_residuals(run, estimates, run_dir / "residuals.csv")
        wrote.append(str(run_dir / "residuals.csv"))
    print(f"estimated {stats.m_used} packages: <sqrtT> {stats.mean_sqrtT_hat:.5f}, "
          f"X1 {stats.X1_hat:.3e}, X2 {stats.X2_hat:.5f}")
    print(f"worst case: T_eff_low {wc.T_eff_low:.5f}, eps_eff_up {wc.eps_eff_up:.5f}")
    print(f"wrote {', '.join(wrote)}")
    return 0


def _check_estimates_match_run(estimates, sidecar: dict, protocol, path) -> None:
    """Refuse an estimates table left over from another run: it must
    hold one row per package, each from k = round(r*n) disclosed states."""
    m = sidecar["m"]
    k = estimation.disclosed_count(sidecar["n"], protocol.r)
    if len(estimates) != m:
        raise ValidationError(f"{path} has {len(estimates)} rows but the run has "
                              f"{m} packages; rerun estimate")
    if estimates.k != k:
        raise ValidationError(f"{path} has k = {estimates.k} but the run discloses "
                              f"k = {k} states per package; rerun estimate")


def _cmd_keyrate(args) -> int:
    if args.data:
        _refuse_unread(args, _MODEL, "does not apply to keyrate DATA, which reads run.json "
                       "and writes into DATA")
        run_dir = Path(args.data)
        sidecar = storage.read_sidecar(run_dir)
        protocol = storage.protocol_from_descriptor(sidecar["protocol"])
        est_path = run_dir / ESTIMATES_CSV
        if est_path.exists():
            estimates = storage.read_estimates(est_path)
            _check_estimates_match_run(estimates, sidecar, protocol, est_path)
        else:
            estimates = estimation.estimate_run(storage.read_run(run_dir))
        stats = estimation.aggregate(estimates, protocol)
        wc = estimation.worst_case(stats, protocol)
        N = sidecar["n"] * sidecar["m"]
        report = security.key_rate(wc, N, protocol)
        dest = run_dir / "keyrate.json"
    else:
        cfg = _merge_config(args)
        protocol = cfg.make_protocol()
        plan = clustering.total_key_rate(cfg.make_dist(), (-math.inf, math.inf),
                                         cfg.n, cfg.m, protocol)
        wc = plan.per_cluster[0].wc
        N = cfg.n * cfg.m
        report = security.key_rate(wc, N, protocol)
        dest = _require_out(cfg, "keyrate") / "keyrate.json" if cfg.out else None
    print(f"I_AB {report.I_AB:.5f}  S_BE {report.S_BE:.5f}  "
          f"K_inf {report.K_inf:.5f} bits/state")
    print(f"finite size (N = {N}, key states {report.N_used}): "
          f"delta {report.delta:.3e}, K {report.K:.5f} bits/state")
    if report.squeezed_surrogate:
        print("note: V_S < 1, Holevo bound uses the symmetric purification surrogate")
    if dest is not None:
        storage.write_json({"worst_case": wc, "keyrate": report, "N_total": N}, dest)
        print(f"wrote {dest}")
    return 0


def _cmd_optimize(args) -> int:
    cfg = _merge_config(args)
    dist = cfg.make_dist()
    protocol = cfg.make_protocol()
    result = clustering.optimize(dist, cfg.clusters, cfg.n, cfg.m, protocol)
    plan = result.plan
    print(f"optimized {cfg.clusters} cluster(s): r {result.r:.4f}, "
          f"V {result.V:.3f}, total rate {result.total_rate:.5f} bits/state")
    for rep in plan.per_cluster:
        lo, hi = rep.interval
        print(f"  [{lo:.4f}, {hi:.4f}): mass {rep.mass:.4f}, K {rep.K_c:.5f}")
    if result.diagnostic:
        print(f"note: {result.diagnostic}")
    if cfg.out:
        out = _require_out(cfg, "optimize")
        storage.write_json({
            "clusters": cfg.clusters,
            "protocol": storage.protocol_descriptor(result.protocol),
            "plan": plan,
            "r": result.r,
            "V": result.V,
            "evaluations": result.evaluations,
            "diagnostic": result.diagnostic,
            "search": result.search,
        }, out / "plan.json")
        print(f"wrote {out / 'plan.json'}")
    return 0


# ---- figure reproduction ---------------------------------------------

def _m_ladder(m_max: int) -> list[int]:
    grid = np.geomspace(10, m_max, 6)
    out: list[int] = []
    for v in grid:
        iv = int(round(v))
        if not out or iv > out[-1]:
            out.append(iv)
    return out


def _pooled_sweep(cfg: ScenarioConfig, dist, protocol, n: int):
    """Optimize the pooled (C=0) protocol at each block count; the key
    rate and the optimal (r, V) it is attained at, per total size N."""
    rows = []
    for m in _m_ladder(10_000 if cfg.paper_scale else 1000):
        result = clustering.optimize(dist, 0, n, m, protocol)
        wc = result.plan.per_cluster[0].wc
        K_inf = security.key_rate(wc, None, result.protocol).K_inf if wc else 0.0
        if result.total_rate > 0.0:
            r_opt, V_opt = result.r, result.V
        else:
            # no setting yields a key at this block count, so there is
            # no meaningful optimum to report
            r_opt = V_opt = math.nan
        rows.append((n, m, n * m, result.total_rate, max(0.0, K_inf),
                     r_opt, V_opt))
    return rows


def _fig6(cfg: ScenarioConfig, dist, protocol, out: Path) -> Path:
    """Pooled key rate vs total states N at per-N optimal (r, V), one
    series per package size; K_inf is the asymptote of each point."""
    n_series = (10_000, 100_000) if cfg.paper_scale else (500, 1000)
    rows = []
    for n in n_series:
        rows.extend(_pooled_sweep(cfg, dist, protocol, n))
    path = out / "fig6.csv"
    storage.write_table(path, ["n", "m", "N", "K", "K_inf", "r_opt", "V_opt"],
                        rows)
    return path


def _fig7(cfg: ScenarioConfig, dist, protocol, out: Path) -> Path:
    """Optimal disclosure fraction r vs total states N at fixed n."""
    rows = [(n, m, N, r, V, K)
            for (n, m, N, K, _, r, V) in _pooled_sweep(cfg, dist, protocol, cfg.n)]
    path = out / "fig7.csv"
    storage.write_table(path, ["n", "m", "N", "r_opt", "V_opt", "K"], rows)
    return path


def _fig8(cfg: ScenarioConfig, dist, protocol, out: Path) -> Path:
    """Optimal cluster layout with conditional moments per cluster."""
    result = clustering.optimize(dist, cfg.clusters, cfg.n, cfg.m, protocol)
    rows = []
    for idx, rep in enumerate(result.plan.per_cluster):
        mom = rep.cond_moments
        wc = rep.wc
        rows.append((idx, rep.interval[0], rep.interval[1], rep.mass,
                     mom.mean_T if mom else math.nan,
                     mom.mean_sqrtT if mom else math.nan,
                     mom.var_sqrtT if mom else math.nan,
                     wc.T_eff_low if wc else math.nan,
                     wc.eps_eff_up if wc else math.nan,
                     rep.K_c))
    path = out / "fig8.csv"
    storage.write_table(path, ["cluster", "t_lo", "t_hi", "mass", "mean_T",
                               "mean_sqrtT", "var_sqrtT", "T_eff_low",
                               "eps_eff_up", "K_c"], rows)
    storage.write_json({"r": result.r, "V": result.V,
                        "total_rate": result.total_rate,
                        "plan": result.plan,
                        "diagnostic": result.diagnostic}, out / "fig8.json")
    if result.diagnostic:
        print(f"note: {result.diagnostic}")
    return path


def _fig9(cfg: ScenarioConfig, dist, protocol, out: Path) -> Path:
    """Best total key rate vs cluster count C = 0..C_max, next to the
    known-transmittance rate K_known at the same (r, V) and the share of
    it that C clusters reach."""
    results = clustering.optimize_each(dist, range(cfg.clusters + 1), cfg.n, cfg.m,
                                       protocol)
    rule = dist.expectation_rule()
    rows = []
    for C, res in enumerate(results):
        K_known = clustering.rate_ceiling(rule, res.protocol)
        rows.append((C, res.total_rate, res.r, res.V, res.plan.kept_mass, K_known,
                     res.total_rate / K_known if K_known > 0.0 else 0.0))
    path = out / "fig9.csv"
    storage.write_table(path, ["C", "K", "r_opt", "V_opt", "kept_mass", "K_known",
                               "K_over_K_known"], rows)
    return path


FIGURES = {"fig6": _fig6, "fig7": _fig7, "fig8": _fig8, "fig9": _fig9}
# the pooled figures and the sizes that each one's own sweep sets
_POOLED_SWEEPS = {"fig6": ("n", "m"), "fig7": ("m",)}


def _cmd_reproduce(args) -> int:
    figure = args.figure
    if figure not in FIGURES:
        raise ValidationError(f"unknown figure id {figure!r}; choose from {tuple(FIGURES)}")
    sweeps = _POOLED_SWEEPS.get(figure)
    if sweeps is not None:
        # a swept size is refused from every source; a pooled figure
        # has no clusters, so --clusters is refused too
        reason = f"is not read by reproduce {figure}"
        _refuse_unread(args, (*sweeps, "clusters"), reason)
        cfg = _merge_config(args, unread=sweeps, reason=reason)
    else:
        # the clusterization studies default to three clusters and,
        # without a config file, to the flat fading law, where splitting
        # matters most
        cfg = _merge_config(args, defaults={"clusters": 3})
        if not args.config:
            cfg = dataclasses.replace(cfg, dist={"variant": "uniform",
                                                 "lo": 0.0, "hi": 1.0})
    dist, protocol = cfg.make_dist(), cfg.make_protocol()   # validated before out is made
    out = _require_out(cfg, "reproduce")
    path = FIGURES[figure](cfg, dist, protocol, out)
    storage.write_json(cfg, out / f"{figure}.scenario.json")
    print(f"wrote {path} and {out / (figure + '.scenario.json')}")
    return 0


def _cmd_ingest(args) -> int:
    cfg = _merge_config(args)
    trace = storage.read_trace(args.trace)
    out = _require_out(cfg, "ingest")
    dist = Empirical(trace)
    mom = dist.moments()
    storage.write_json(dist.descriptor(), out / "dist.json")
    print(f"ingested {trace.size} samples: <T> {mom.mean_T:.5f}, "
          f"<sqrtT> {mom.mean_sqrtT:.5f}, Var(sqrtT) {mom.var_sqrtT:.3e}")
    print(f"wrote {out / 'dist.json'} (use it via 'dist_file' in a config)")
    return 0


# the shared options by dest; each is None when not given (store_const,
# unlike store_true, keeps that for --paper-scale)
_OPTIONS = {
    "config": dict(help="JSON config file"),
    "seed": dict(type=int, help="master seed"),
    "n": dict(type=int, help="states per package"),
    "m": dict(type=int, help="number of packages"),
    "clusters": dict(type=int, help="cluster count"),
    "z_conf": dict(type=float, help="confidence multiplier for worst-case bounds"),
    "paper_scale": dict(action="store_const", const=True,
                        help="use publication-scale block sizes"),
    "out": dict(help="output directory"),
}
# the options of a model scenario
_MODEL = ("config", "n", "m", "z_conf", "paper_scale", "out")


def _add_options(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fading-cvqkd",
        description="Simulate, estimate and secure a CV QKD protocol over a fading channel")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a run and write it to --out")
    _add_options(p, "seed", *_MODEL)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate channel parameters of a stored run")
    p.add_argument("data", help="run directory written by simulate")
    p.add_argument("--blind", action="store_true",
                   help="skip the residual comparison against true T values")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("keyrate", help="secret key rate from a run or a config")
    p.add_argument("data", nargs="?", help="run directory (omit to use the model)")
    _add_options(p, *_MODEL)
    p.set_defaults(fn=_cmd_keyrate)

    p = sub.add_parser("optimize", help="optimize r, V and cluster boundaries")
    _add_options(p, "clusters", *_MODEL)
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("reproduce",
                       help="emit the x/y series behind a study figure as CSV")
    p.add_argument("figure", help=f"one of {', '.join(FIGURES)}")
    _add_options(p, "clusters", *_MODEL)
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("ingest", help="turn a measured T trace into a distribution file")
    p.add_argument("trace", help="CSV file with a single T column")
    _add_options(p, "config", "out")
    p.set_defaults(fn=_cmd_ingest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FadingCVQKDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
