"""Quick self-test of the benchmark at tiny sizes (about two minutes).

    python3 perfbench/selftest.py

1. BENCHMARK.json names exactly the workloads and metrics the code has.
2. Every workload, and one traced run, prints a last line of the agreed
   schema with correct = true at the tiny sizes.
3. Each correctness check fails when one output of a real tiny round is
   deliberately corrupted.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import sys
from pathlib import Path

import run  # sets the run hygiene before numpy loads

BENCH = run.BENCH
sys.path[:0] = [str(run.SRC), str(BENCH)]

from inputs import write_inputs  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, digest, run_cli  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def expect(cond: bool, message: str) -> None:
    if not cond:
        failures.append(message)
        print(f"FAIL {message}")


def test_spec() -> None:
    expect([w["name"] for w in SPEC["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    expect({w["name"]: w["why"] for w in SPEC["workloads"]}
           == {name: cls.why for name, cls in WORKLOADS.items()},
           "BENCHMARK.json workload reasons differ from the code's")
    expect({m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
           == run.END_TO_END, "end_to_end metrics differ from run.END_TO_END")
    expect({m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
           == LAYER_METRICS, "per_layer metrics differ from tracing.LAYER_METRICS")


def test_schema(workload: str, trace: int) -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace), "--size", "tiny"])
    tag = f"{workload} trace {trace}"
    expect(rc == 0, f"{tag}: exit code {rc}")
    result = json.loads(sink.getvalue().strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: keys {set(result)}")
    expect(result["correct"] is True, f"{tag}: correct is {result['correct']!r}")
    expect(type(result["attempted"]) is int and result["attempted"] >= 1, f"{tag}: attempted")
    expect(type(result["failed"]) is int and 0 <= result["failed"] <= result["attempted"],
           f"{tag}: failed")
    spec = {m["name"]: m for m in SPEC["per_layer" if trace else "end_to_end"]}
    expect(set(result["metrics"]) == set(spec), f"{tag}: metric names differ from BENCHMARK.json")
    for name, entry in result["metrics"].items():
        expect(set(entry) == {"value", "unit"}, f"{tag}: {name} keys {set(entry)}")
        value = entry["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value), f"{tag}: {name} = {value!r}")
        expect(name in spec and entry["unit"] == spec[name]["unit"], f"{tag}: {name} unit")
        if not trace:
            expect(value > 0, f"{tag}: end-to-end {name} = {value!r} is not positive")


# ---- corrupted outputs ---------------------------------------------------

def _edit_json(path: Path, fn) -> None:
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data))


def _edit_csv(path: Path, row: int, column: str, fn) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    col = header.index(column)
    cells[col] = repr(fn(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _last_row(path: Path) -> int:
    return len(path.read_text().splitlines()) - 2


def _scale_plan(factor: float):
    def fn(d):
        d["plan"]["total_rate"] *= factor
        for c in d["plan"]["per_cluster"]:
            c["K_c"] *= factor
    return fn


def corruptions(wl):
    """(name, op label, message pattern, file edit, digests edit) per check."""
    r = wl.round
    if wl.name == "run-pipeline":
        run_csv = r / "run" / "run.csv"
        return [
            ("stored run", "simulate", "differs from simulate_run",
             lambda: _edit_csv(run_csv, 5, "M", lambda x: x * (1 + 1e-15) + 1e-300), None),
            ("rerun", "simulate", "not byte-identical", None, {"simulate": "0" * 64}),
            ("sqrtT_hat", "estimate", "sum\\(M\\*B\\)",
             lambda: _edit_csv(r / "run" / "estimates.csv", 7, "sqrtT_hat",
                               lambda x: x * 1.001), None),
            ("moments", "estimate", "E\\[sqrt T\\]",
             lambda: _edit_json(r / "run" / "estimate.json",
                                lambda d: d["aggregate"].update(mean_sqrtT_hat=0.9)), None),
            ("mean with an inflated se", "estimate", "E\\[sqrt T\\]",
             lambda: _edit_json(r / "run" / "estimate.json", lambda d: d["aggregate"].update(
                 mean_sqrtT_hat=0.9, se_mean_sqrtT=1.0)), None),
            ("X1 with an inflated se", "estimate", "Var\\(sqrt T\\)",
             lambda: _edit_json(r / "run" / "estimate.json", lambda d: d["aggregate"].update(
                 X1_hat=d["aggregate"]["X1_hat"] + 0.5, se_X1=1.0)), None),
            ("se_X1", "estimate", "se_X1 .* differs",
             lambda: _edit_json(r / "run" / "estimate.json", lambda d: d["aggregate"].update(
                 se_X1=d["aggregate"]["se_X1"] * 100)), None),
            ("se_mean_sqrtT", "estimate", "se_mean_sqrtT .* differs",
             lambda: _edit_json(r / "run" / "estimate.json", lambda d: d["aggregate"].update(
                 se_mean_sqrtT=d["aggregate"]["se_mean_sqrtT"] * 100)), None),
            ("data key rate", "keyrate-data", "outside \\(0",
             lambda: _edit_json(r / "run" / "keyrate.json",
                                lambda d: d["keyrate"].update(K=0.5)), None),
            ("model key rate", "keyrate-model", "outside \\(0",
             lambda: _edit_json(r / "model" / "keyrate.json",
                                lambda d: d["keyrate"].update(K=0.0)), None),
        ]
    if wl.name == "pooled-sweep":
        fig7 = r / "fig7" / "fig7.csv"
        top = _last_row(fig7)
        return [
            ("K >= 0", "fig7-beam-wander", "< 0",
             lambda: _edit_csv(fig7, 0, "K", lambda x: -0.01), None),
            ("K bound", "fig7-beam-wander", "above \\(1 - r_opt\\)",
             lambda: _edit_csv(fig7, top, "K", lambda x: 0.9), None),
            ("monotone in m", "fig7-beam-wander", "K falls",
             lambda: _edit_csv(fig7, top - 1, "K", lambda x: x + 0.05), None),
            ("largest N", "fig7-beam-wander", "largest-N",
             lambda: _edit_csv(fig7, top, "K", lambda x: 0.0), None),
            ("grid scan", "fig7-beam-wander", "grid scan",
             lambda: _edit_csv(fig7, top, "K", lambda x: x * 0.9), None),
        ]
    if wl.name == "cluster-search":
        fig9 = r / "fig9" / "fig9.csv"
        return [
            ("kept mass", "fig9-uniform", "kept mass",
             lambda: _edit_csv(fig9, 1, "kept_mass", lambda x: 1.5), None),
            ("rate vs C", "fig9-uniform", "K falls",
             lambda: _edit_csv(fig9, 0, "K", lambda x: 0.5), None),
            ("C >= 1 beats C = 0", "fig9-uniform", "does not beat",
             lambda: _edit_csv(fig9, 1, "K", lambda x: 0.0), None),
            ("edge scan", "fig9-uniform", "edge scan",
             lambda: _edit_csv(fig9, 1, "K", lambda x: x * 0.95), None),
        ]
    plan = r / "optimize" / "plan.json"
    return [
        ("ingest moments", "ingest", "ingested moments",
         lambda: _edit_json(r / "ingest" / "dist.json",
                            lambda d: d["samples"].__setitem__(0, d["samples"][0] * 0.5)),
         None),
        ("plan total", "optimize-trace", "sum\\(mass \\* K_c\\)",
         lambda: _edit_json(plan, lambda d: d["plan"].update(
             total_rate=d["plan"]["total_rate"] * 1.01)), None),
        ("kept mass", "optimize-trace", "kept mass",
         lambda: _edit_json(plan, lambda d: [c.update(mass=c["mass"] * 2)
                                             for c in d["plan"]["per_cluster"]]), None),
        ("edge scan", "optimize-trace", "edge scan", lambda: _edit_json(plan, _scale_plan(0.9)),
         None),
    ]


def test_corruptions(name: str, scratch: Path) -> None:
    wl = WORKLOADS[name](write_inputs(name, 3, scratch / "inputs", "tiny"), "tiny")
    digests = {}
    for op in wl.ops():
        rc, _, _ = run_cli(op.argv)
        expect(rc == 0, f"{name}: {op.label} exit code {rc}")
        digests[op.label] = digest(op.outputs)[0]
    pristine = scratch / "pristine"
    shutil.copytree(wl.round, pristine)
    clean = wl.check(digests, 2)
    expect(not any(clean.values()), f"{name}: uncorrupted outputs fail: {clean}")
    for label, op, pattern, edit, bad_digests in corruptions(wl):
        shutil.rmtree(wl.round)
        shutil.copytree(pristine, wl.round)
        if edit is not None:
            edit()
        got = wl.check({**digests, **(bad_digests or {})}, 1 if bad_digests else 2)
        hit = any(re.search(pattern, msg) for msg in got.get(op, []))
        expect(hit, f"{name}: corrupting the {label} output was not caught: {got}")
        print(f"ok   {name}: corrupted {label} -> [{op}] caught")


def main() -> int:
    test_spec()
    for name in WORKLOADS:
        test_schema(name, 0)
        print(f"ok   schema {name} trace 0")
    test_schema("trace-search", 1)
    print("ok   schema trace-search trace 1")
    scratch = run.OUT / "selftest"
    try:
        for name in WORKLOADS:
            shutil.rmtree(scratch, ignore_errors=True)
            test_corruptions(name, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{'FAILED' if failures else 'passed'}: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
