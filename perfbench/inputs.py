"""Seeded inputs of every workload: config files and transmittance traces.

The program under test receives only what this module writes.  It
imports numpy and nothing of the program, so the set-up timing in
``run.py`` sees the cost of importing ``fading_cvqkd`` separately.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# the protocol of the stored-run pipeline: at n = m = 1000 these settings
# give a positive finite-size key rate on the default fading law
PIPELINE_PROTOCOL = {"V": 5.0, "r": 0.3}
PIPELINE_LAW = {"variant": "truncated_normal", "mean": 0.5, "std": 0.1}
BEAM_WANDER_LAW = {"variant": "log_negative_weibull", "w_over_a": 1.47,
                   "sigma_b": 0.6}
UNIFORM_LAW = {"variant": "uniform", "lo": 0.0, "hi": 1.0}

# sizes of the full workloads and of the quick self-test
SIZES = {
    "full": {"pipeline_n": 1000, "pipeline_m": 1000, "pooled_figures": ("fig6", "fig7"),
             "fig9_clusters": 3, "trace_samples": 1600, "search_clusters": 2,
             "setups": 5},
    "tiny": {"pipeline_n": 1000, "pipeline_m": 400, "pooled_figures": ("fig7",),
             "fig9_clusters": 1, "trace_samples": 300, "search_clusters": 2,
             "setups": 1},
}


def synthetic_trace(seed: int, size: int) -> np.ndarray:
    """Beam-wandering transmittance trace with slow drift.

    The beam centre follows a 2-D AR(1) walk (lag-one correlation 0.98,
    stationary spread 0.6 aperture radii), the aperture clips a Gaussian
    beam, T = 0.75 exp(-r^2 / 1.44), and a 3% log-normal scintillation
    rides on top.  The mean transmittance is near 0.5.
    """
    rng = np.random.default_rng([seed, 0x7ACE])
    rho, spread = 0.98, 0.6
    kicks = rng.normal(0.0, spread * np.sqrt(1.0 - rho**2), (size, 2))
    xy = np.empty((size, 2))
    xy[0] = rng.normal(0.0, spread, 2)
    for i in range(1, size):
        xy[i] = rho * xy[i - 1] + kicks[i]
    r2 = np.sum(xy**2, axis=1)
    T = 0.75 * np.exp(-r2 / 1.44) * np.exp(rng.normal(0.0, 0.03, size))
    return np.clip(T, 0.0, 1.0)


def _dump(obj, path: Path) -> Path:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def write_inputs(workload: str, seed: int, dest: Path, size: str = "full") -> dict:
    """Write the inputs of one workload under dest; return their paths.

    Paths inside configs are absolute, so the program may run from any
    directory.  The round directory ``dest/../round`` is where each round
    writes its outputs.
    """
    sz = SIZES[size]
    dest.mkdir(parents=True, exist_ok=True)
    round_dir = (dest.parent / "round").resolve()
    out = {"round": round_dir}
    if workload == "run-pipeline":
        out["config"] = _dump({"dist": PIPELINE_LAW, "protocol": PIPELINE_PROTOCOL,
                               "n": sz["pipeline_n"], "m": sz["pipeline_m"],
                               "seed": seed}, dest / "pipeline.json")
    elif workload == "pooled-sweep":
        # no "dist" key: fig6 runs on the command's default law
        out["default_law"] = _dump({"seed": seed}, dest / "default.json")
        out["beam_wander"] = _dump({"dist": BEAM_WANDER_LAW, "seed": seed},
                                   dest / "beam_wander.json")
    elif workload == "cluster-search":
        out["config"] = _dump({"dist": UNIFORM_LAW, "n": 1000, "m": 1000, "seed": seed},
                              dest / "uniform.json")
    elif workload == "trace-search":
        trace = synthetic_trace(seed, sz["trace_samples"])
        path = dest / "trace.csv"
        path.write_text("T\n" + "".join(f"{float(t)!r}\n" for t in trace))
        out["trace"] = path
        out["config"] = _dump({"dist_file": str(round_dir / "ingest" / "dist.json"),
                               "n": 1000, "m": 1000, "seed": seed},
                              dest / "search.json")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
