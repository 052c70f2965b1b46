"""Benchmark of the fading-cvqkd chain, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is a closed loop in one single-threaded process: it runs the
workload's rounds of CLI commands (``fading_cvqkd.cli.main``, in-process)
one after another and starts another round only while the previous ones
predict it will end within S seconds; at least one round always runs.
With ``--trace 1`` rounds alternate untraced and traced, and the run
reports per-layer metrics from the traced rounds plus the tracing
overhead.  Outputs are checked after the timed rounds (see checks.py).

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  ``--workload all`` runs every workload, each in a fresh
interpreter.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os
import sys

# run hygiene, before numpy loads: the program sees no FADING_CVQKD_*
# settings and BLAS runs one thread
for _key in [k for k in os.environ if k.startswith("FADING_CVQKD_")]:
    del os.environ[_key]
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_key] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("run-pipeline", "pooled-sweep", "cluster-search", "trace-search")

# a round whose wall time exceeds its CPU time by this factor spent much
# of its time off the CPU (I/O waits, a busy machine), which round_cpu_s
# cannot see; the run prints a note for it
OFF_CPU_FLAG = 1.5

# end-to-end metrics: name -> (unit, better)
END_TO_END = {"setup_s": ("s", "lower"), "round_cpu_s": ("s", "lower"),
              "peak_rss_mb": ("MB", "lower")}

SETUP_CHILD = """\
import sys, pathlib
sys.path[:0] = [{src!r}, {bench!r}]
import fading_cvqkd, inputs
inputs.write_inputs({workload!r}, {seed}, pathlib.Path({dest!r}), {size!r})
"""


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: reduced sizes for the self-test")
    return ap.parse_args(argv)


def _metadata() -> dict:
    import numpy
    import scipy

    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "src_lines": src_lines}


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _time_setup(workload: str, seed: int, dest: Path, size: str) -> float:
    """CPU seconds of a fresh interpreter, from its start until it has
    imported fading_cvqkd and written the workload's inputs."""
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), workload=workload,
                              seed=seed, dest=str(dest), size=size)
    before = _children_cpu()
    subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
    return _children_cpu() - before


def _run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


@dataclass
class Rounds:
    """What the timed rounds of one run produced."""

    first: dict[str, str] = field(default_factory=dict)   # op label -> round-1 digest
    op_cpu: dict[str, list[float]] = field(default_factory=dict)
    op_bytes: dict[str, int] = field(default_factory=dict)
    bad: dict[str, int] = field(default_factory=dict)      # op label -> rounds it failed
    wall: list[float] = field(default_factory=list)        # untraced rounds
    cpu: list[float] = field(default_factory=list)         # untraced rounds
    traced_wall: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)       # per traced round
    peak_rss_mb: float = 0.0

    @property
    def count(self) -> int:
        return len(self.wall) + len(self.traced_wall)


def _run_rounds(wl, tracer, seconds: float) -> Rounds:
    """Closed loop: one round after another until the median round so far
    predicts the next would end after `seconds`.  With a tracer, rounds
    alternate untraced and traced, and at least one of each runs."""
    from workloads import digest, run_cli

    out = Rounds()
    start = time.perf_counter()
    while True:
        tracing = tracer is not None and len(out.wall) > len(out.traced_wall)
        shutil.rmtree(wl.round, ignore_errors=True)
        if tracing:
            tracer.install()
            span0 = tracer.begin_round()
        wall = cpu = 0.0
        for op in wl.ops():
            rec = tracer.open(f"cli.{op.argv[0]}") if tracing else None
            rc, op_wall, op_cpu = run_cli(op.argv)
            if tracing:
                tracer.close(rec)
            wall += op_wall
            cpu += op_cpu
            out.op_cpu.setdefault(op.label, []).append(op_cpu)
            digest_now, out.op_bytes[op.label] = digest(op.outputs)
            out.first.setdefault(op.label, digest_now)
            if rc != 0 or digest_now != out.first[op.label]:
                out.bad[op.label] = out.bad.get(op.label, 0) + 1
        if tracing:
            tracer.uninstall()
            out.layers.append(tracer.layer_totals(span0))
            out.traced_wall.append(wall)
        else:
            out.wall.append(wall)
            out.cpu.append(cpu)
        typical = statistics.median(out.wall + out.traced_wall)
        unpaired = tracer is not None and not out.traced_wall
        if not unpaired and time.perf_counter() - start + typical > seconds:
            break
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _stages(wl, rounds: Rounds) -> dict[str, tuple[str, float, int]]:
    """The workload's per-command metrics: (unit, median, count)."""
    out = {}
    for name, (unit, labels) in wl.stages.items():
        labels = [label for label in labels if label in rounds.op_cpu]
        if unit == "bytes":
            out[name] = (unit, sum(rounds.op_bytes[label] for label in labels), 1)
        else:
            per_round = [sum(v) for v in zip(*(rounds.op_cpu[label] for label in labels))]
            out[name] = (unit, statistics.median(per_round), len(per_round))
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "fading_cvqkd" / "__init__.py").is_file():
        print(f"error: no fading_cvqkd sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import fading_cvqkd

    if Path(fading_cvqkd.__file__).resolve().parent != (SRC / "fading_cvqkd").resolve():
        print(f"error: imported fading_cvqkd from {fading_cvqkd.__file__}", file=sys.stderr)
        return 2
    from inputs import SIZES, write_inputs
    from tracing import LAYER_METRICS, Tracer, median_totals
    from workloads import WORKLOADS

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        start = time.perf_counter()
        setup_times = [_time_setup(args.workload, args.seed, work / f"setup{i}", args.size)
                       for i in range(SIZES[args.size]["setups"])]
        wl = WORKLOADS[args.workload](
            write_inputs(args.workload, args.seed, work / "inputs", args.size), args.size)
        tracer = Tracer() if args.trace else None
        rounds = _run_rounds(wl, tracer, args.seconds)
        try:
            failures = wl.check(rounds.first, rounds.count)
        except Exception as exc:  # a check that cannot read an output fails every op
            failures = {label: [f"check raised {type(exc).__name__}: {exc}"]
                        for label in rounds.first}
        attempted = rounds.count * len(rounds.first)
        failed = sum(rounds.count if failures.get(label) else rounds.bad.get(label, 0)
                     for label in rounds.first)

        if tracer is None:
            metrics = {"setup_s": statistics.median(setup_times),
                       "round_cpu_s": statistics.median(rounds.cpu),
                       "peak_rss_mb": rounds.peak_rss_mb}
            units = {k: u for k, (u, _) in END_TO_END.items()}
            counts = {"setup_s": len(setup_times), "round_cpu_s": len(rounds.cpu),
                      "peak_rss_mb": 1}
        else:
            metrics = median_totals(rounds.layers)
            metrics["trace.overhead_s"] = (statistics.median(rounds.traced_wall)
                                           - statistics.median(rounds.wall))
            units = {k: u for k, (u, _) in LAYER_METRICS.items()}
            counts = dict.fromkeys(metrics, len(rounds.layers))
        stages = _stages(wl, rounds)

        meta = _metadata()
        print(f"workload {wl.name}: seed {args.seed}, trace {args.trace}, "
              f"{rounds.count} round(s), {time.perf_counter() - start:.1f} s in all; "
              f"closed loop, one job at a time in one process")
        print("meta " + json.dumps(meta, sort_keys=True))
        for name, value in metrics.items():
            print(f"  {name:<52} {value:>14.6g} {units[name]:<6} median of {counts[name]}")
        for name, (unit, value, count) in stages.items():
            print(f"  stage {name:<46} {value:>14.6g} {unit:<6} median of {count}")
        print(f"  round wall clock (not gated)                         "
              f"{statistics.median(rounds.wall):>14.6g} s      median of {len(rounds.wall)}")
        off_cpu = [i + 1 for i, (w, c) in enumerate(zip(rounds.wall, rounds.cpu))
                   if w > OFF_CPU_FLAG * c]
        if off_cpu:
            print(f"  NOTE round(s) {off_cpu}: wall time above {OFF_CPU_FLAG} x CPU "
                  f"time; round_cpu_s does not see time off the CPU")
        absent = tracer.absent_metrics() if tracer else []
        if tracer is not None:
            print(f"  absent (name not in the program): {', '.join(absent) or 'none'}")
        print(f"  operations attempted {attempted}, failed {failed}")
        for label, msgs in failures.items():
            for msg in msgs:
                print(f"  CHECK FAILED [{label}] {msg}")

        correct = not any(failures.values())
        result = {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps(
            {**result, "meta": meta, "stages": stages, "round_wall_s": rounds.wall,
             "round_cpu_s": rounds.cpu, "round_wall_s_traced": rounds.traced_wall,
             "setup_samples": setup_times, "absent": absent,
             "check_failures": failures}, indent=1) + "\n")
        if tracer is not None:
            tracer.write(results / f"{stem}-spans.csv.gz")
        print(json.dumps(result))
        return 0 if correct and failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
