"""The benchmark's workloads: the CLI commands of one round and the
checks of their outputs.

Each round runs its commands in order through ``fading_cvqkd.cli.main``
into a fresh round directory.  ``check`` then tests the outputs of the
last round; every round's outputs must be byte-identical to the first
round's, so the checks hold for all of them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
from inputs import SIZES

from fading_cvqkd import ProtocolParams, channel, cli, clustering, distributions, storage


@dataclass(frozen=True)
class Op:
    label: str
    argv: list[str]
    outputs: list[Path]  # files, or directories taken whole


def _cpu() -> float:
    """CPU seconds of this process and of its ended child processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_cli(argv: list[str]) -> tuple[int, float, float]:
    """Run one subcommand in-process; (exit code, wall seconds, CPU
    seconds of this process and any children it waited for).  The
    command's own report to stdout is captured and dropped."""
    sink = io.StringIO()
    start, cpu = time.perf_counter(), _cpu()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed operation, not a dead benchmark
        traceback.print_exc(file=sys.stderr)
        rc = -1
    return rc, time.perf_counter() - start, _cpu() - cpu


def digest(paths: list[Path]) -> tuple[str, int]:
    """sha256 over the named files (directories taken whole, in name
    order) and their total size in bytes; a missing file hashes as such."""
    h = hashlib.sha256()
    size = 0
    for path in paths:
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(f.name.encode() + b"\0")
            if f.is_file():
                with open(f, "rb") as fh:  # streamed, so the hash adds no peak memory
                    h.update(hashlib.file_digest(fh, "sha256").digest())
                size += f.stat().st_size
            else:
                h.update(b"<missing>")
    return h.hexdigest(), size


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def _law(scenario: dict):
    if scenario.get("dist_file"):
        return distributions.from_descriptor(_json(scenario["dist_file"]))
    return distributions.from_descriptor(scenario["dist"])


def _reference_moments(law_descriptor: dict, law) -> tuple[float, float]:
    consts = None
    if law_descriptor["variant"] == "log_negative_weibull":
        consts = (law.T0, law.R, law.lam)
    return checks.law_moments(law_descriptor, consts)


def _run_arrays(run) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, B, true T) of a run as (m, n), (m, n) and (m,) arrays."""
    return (np.stack([p.M for p in run.packages]),
            np.stack([p.B for p in run.packages]),
            np.array([p.true_T for p in run.packages]))


def _edge_scan(law, C: int, n: int, m: int, protocol, grid) -> float:
    """Best total rate over every C-cluster plan whose edges come from
    the grid (outer edges may also be infinite), scored through
    total_key_rate; plans with a cluster under two expected packages
    are infeasible, as in the optimizer."""
    candidates = [-math.inf, *grid, math.inf]
    best = 0.0
    for edges in itertools.combinations(candidates, C + 1):
        plan = clustering.total_key_rate(law, edges, n, m, protocol)
        if all(rep.cond_moments is not None for rep in plan.per_cluster):
            best = max(best, plan.total_rate)
    return best


class Workload:
    name = ""
    why = ""
    # per-command metrics of this workload: name -> (unit, op labels);
    # unit "s" sums the ops' CPU times, "bytes" their output sizes
    stages: dict[str, tuple[str, tuple[str, ...]]] = {}

    def __init__(self, inputs: dict, size: str = "full") -> None:
        self.inputs = inputs
        self.size = SIZES[size]
        self.round = Path(inputs["round"])

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, digests: dict[str, str], rounds_run: int) -> dict[str, list[str]]:
        """Failure messages per op label of the last round's outputs;
        digests holds each op's output digest of the first round."""
        raise NotImplementedError


class RunPipeline(Workload):
    name = "run-pipeline"
    why = ("stored run: simulate writes 47 MB of CSV, estimate reads it back; "
           "storage dominates, a format change shows on both sides")
    stages = {"simulate_s": ("s", ("simulate",)),
              "estimate_s": ("s", ("estimate",)),
              "keyrate_s": ("s", ("keyrate-data", "keyrate-model")),
              "run_bytes": ("bytes", ("simulate",))}

    def ops(self) -> list[Op]:
        cfg = str(self.inputs["config"])
        run = self.round / "run"
        model = self.round / "model"
        return [
            Op("simulate", ["simulate", "--config", cfg, "--out", str(run)], [run]),
            Op("estimate", ["estimate", str(run)],
               [run / "estimates.csv", run / "estimate.json", run / "residuals.csv"]),
            Op("keyrate-data", ["keyrate", str(run)], [run / "keyrate.json"]),
            Op("keyrate-model", ["keyrate", "--config", cfg, "--out", str(model)],
               [model / "keyrate.json"]),
        ]

    def check(self, digests: dict[str, str], rounds_run: int) -> dict[str, list[str]]:
        cfg = _json(self.inputs["config"])
        law_d = cfg["dist"]
        law = distributions.from_descriptor(law_d)
        protocol = ProtocolParams(**cfg["protocol"])
        run_dir = self.round / "run"
        out: dict[str, list[str]] = {}

        reference = _run_arrays(channel.simulate_run(law, cfg["n"], cfg["m"],
                                                     protocol, cfg["seed"]))
        stored = _run_arrays(storage.read_run(run_dir))
        out["simulate"] = checks.check_roundtrip(stored, reference)
        if rounds_run < 2:  # with two or more rounds the round digests cover it
            again = self.round / "rerun"
            run_cli(["simulate", "--config", str(self.inputs["config"]),
                     "--out", str(again)])
            out["simulate"] += checks.check_rerun(digests["simulate"], digest([again])[0])

        M, B, _ = reference
        sqrt_hat = np.array([float(r["sqrtT_hat"]) for r in _rows(run_dir / "estimates.csv")])
        moments = _reference_moments(law_d, law)
        out["estimate"] = checks.check_sqrt_estimates(sqrt_hat, M, B, protocol.V, protocol.r)
        out["estimate"] += checks.check_moments(
            _json(run_dir / "estimate.json")["aggregate"], moments,
            checks.moment_standard_errors(M, B, protocol.V, protocol.r))

        bound = checks.true_k_inf(moments, protocol.V, protocol.epsilon, protocol.beta)
        for label, path in (("keyrate-data", run_dir / "keyrate.json"),
                            ("keyrate-model", self.round / "model" / "keyrate.json")):
            K = float(_json(path)["keyrate"]["K"])
            out[label] = checks.check_key_rate(label, K, protocol.r, bound)
        return out


class PooledSweep(Workload):
    name = "pooled-sweep"
    why = ("fig6 and fig7 at C = 0: one interval per (r, V) point, so the "
           "quadrature rule rebuilt per point dominates; no boundary search")
    stages = {"sweep_s": ("s", ("fig6-default-law", "fig7-beam-wander"))}

    def ops(self) -> list[Op]:
        return [Op(label, ["reproduce", fig, "--config", str(self.inputs[law]),
                           "--out", str(self.round / fig)], [self.round / fig / f"{fig}.csv"])
                for label, fig, law in self._figures()]

    def _figures(self):
        return [(label, fig, law) for label, fig, law in (
            ("fig6-default-law", "fig6", "default_law"),
            ("fig7-beam-wander", "fig7", "beam_wander")) if fig in self.size["pooled_figures"]]

    def check(self, digests: dict[str, str], rounds_run: int) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for label, fig, _ in self._figures():
            scenario = _json(self.round / fig / f"{fig}.scenario.json")
            law = _law(scenario)
            moments = _reference_moments(scenario["dist"], law)
            base = ProtocolParams(**scenario["protocol"])
            rows = _rows(self.round / fig / f"{fig}.csv")
            k_at = lambda V, mo=moments, p=base: checks.true_k_inf(mo, V, p.epsilon, p.beta)
            out[label] = (checks.check_rows_bounded(rows, k_at)
                          + checks.check_monotone_in_m(rows)
                          + checks.check_largest_positive(rows))
            if fig == "fig7":
                top = max(rows, key=lambda row: int(row["N"]))
                out[label] += checks.check_grid_scan(
                    float(top["K"]), self._grid_scan(law, int(top["n"]), int(top["m"]), base))
        return out

    @staticmethod
    def _grid_scan(law, n: int, m: int, base) -> float:
        """Best pooled rate over the optimizer's documented (r, V) grid:
        12 geometric steps each over r in [0.01, 0.9], V in [0.5, 50]."""
        best = 0.0
        for r in np.geomspace(0.01, 0.9, 12):
            for V in np.geomspace(0.5, 50.0, 12):
                if round(r * n) < 2:
                    continue
                plan = clustering.total_key_rate(law, (-math.inf, math.inf), n, m,
                                                 replace(base, r=float(r), V=float(V)))
                best = max(best, plan.total_rate)
        return best


class ClusterSearch(Workload):
    name = "cluster-search"
    why = ("fig9 on Uniform(0, 1), C = 0..3: the boundary search dominates, "
           "about 95,000 interval reports and 28,000 quantile solves")
    stages = {"fig9_s": ("s", ("fig9-uniform",))}

    def ops(self) -> list[Op]:
        fig9 = self.round / "fig9"
        return [Op("fig9-uniform", ["reproduce", "fig9", "--config", str(self.inputs["config"]),
                                    "--clusters", str(self.size["fig9_clusters"]),
                                    "--out", str(fig9)], [fig9 / "fig9.csv"])]

    def check(self, digests: dict[str, str], rounds_run: int) -> dict[str, list[str]]:
        scenario = _json(self.round / "fig9" / "fig9.scenario.json")
        law = _law(scenario)
        base = ProtocolParams(**scenario["protocol"])
        rows = _rows(self.round / "fig9" / "fig9.csv")
        fails = checks.check_rate_vs_clusters(rows)
        grid = np.linspace(0.0, 1.0, 13)
        for row in rows:
            C = int(row["C"])
            fails += checks.check_kept_mass(f"C={C}", float(row["kept_mass"]))
            if C in (1, 2):
                proto = replace(base, r=float(row["r_opt"]), V=float(row["V_opt"]))
                best = _edge_scan(law, C, scenario["n"], scenario["m"], proto, grid)
                fails += checks.check_edge_scan(f"C={C}", float(row["K"]), best)
        return {"fig9-uniform": fails}


class TraceSearch(Workload):
    name = "trace-search"
    why = ("ingest a seeded 1,600-sample trace and optimize C = 2 on it: the "
           "same evaluator on 10x the quadrature nodes of a parametric law")
    stages = {"empirical_optimize_s": ("s", ("ingest", "optimize-trace"))}

    def ops(self) -> list[Op]:
        ingest, opt = self.round / "ingest", self.round / "optimize"
        return [
            Op("ingest", ["ingest", str(self.inputs["trace"]), "--out", str(ingest)],
               [ingest / "dist.json"]),
            Op("optimize-trace", ["optimize", "--config", str(self.inputs["config"]),
                                  "--clusters", str(self.size["search_clusters"]),
                                  "--out", str(opt)], [opt / "plan.json"]),
        ]

    def check(self, digests: dict[str, str], rounds_run: int) -> dict[str, list[str]]:
        trace = np.loadtxt(self.inputs["trace"], skiprows=1, ndmin=1)
        law = distributions.from_descriptor(_json(self.round / "ingest" / "dist.json"))
        mom = law.moments()
        out = {"ingest": checks.check_ingest_moments((mom.mean_T, mom.mean_sqrtT), trace)}

        cfg = _json(self.inputs["config"])
        result = _json(self.round / "optimize" / "plan.json")
        plan = result["plan"]
        proto = ProtocolParams(**result["protocol"])
        edges = [float(b) for b in plan["boundaries"]]
        n, m = cfg["n"], cfg["m"]
        recomputed = clustering.total_key_rate(law, edges, n, m, proto).total_rate
        kept = sum(float(c["mass"]) for c in plan["per_cluster"])
        grid = np.linspace(float(trace.min()), float(trace.max()), 13)
        best = _edge_scan(law, int(result["clusters"]), n, m, proto, grid)
        out["optimize-trace"] = (
            checks.check_plan_total(plan, recomputed)
            + checks.check_kept_mass("trace plan", kept)
            + checks.check_edge_scan(f"C={result['clusters']}",
                                     float(plan["total_rate"]), best))
        return out


WORKLOADS = {w.name: w for w in (RunPipeline, PooledSweep, ClusterSearch, TraceSearch)}
