"""Spans around calls into each layer of ``fading_cvqkd``.

Nothing here edits the program: ``Tracer.install`` rebinds a public
function in every ``fading_cvqkd`` module that looks it up (for example
``clustering.key_rate`` as well as ``security.key_rate``) and
``uninstall`` puts the originals back.  A name the program no longer has
is recorded as absent and its metrics read 0.

A span is ``[name, start_ns, end_ns, parent]``.  Spans stay in memory
and are written once, by ``write``, when the run ends.  The self time of
a span is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from pathlib import Path

# (defining module, attribute, span name, modules to rebind in or None for all)
FUNCTIONS = [
    ("channel", "simulate_run", "channel.simulate_run", None),
    ("storage", "write_run", "storage.write_run", None),
    ("storage", "read_run", "storage.read_run", None),
    ("storage", "write_estimates", "storage.estimates_io", None),
    ("storage", "read_estimates", "storage.estimates_io", None),
    ("estimation", "estimate_run", "estimation.estimate_run", None),
    ("estimation", "aggregate", "estimation.aggregate", None),
    ("estimation", "worst_case", "estimation.worst_case", None),
    ("security", "key_rate", "security.key_rate", None),
    ("clustering", "optimize", "clustering.optimize", None),
    ("clustering", "total_key_rate", "clustering.total_key_rate", None),
    # the quantile solver as the cluster evaluator looks it up
    ("clustering", "brentq", "clustering.quantile_solves", ("clustering",)),
]
SUBCOMMANDS = ("simulate", "estimate", "keyrate", "optimize", "reproduce", "ingest")

# per-layer metric -> (unit, better); the order is the report order
LAYER_METRICS = {
    "channel.simulate_run.s": ("s", "lower"),
    "storage.write_run.s": ("s", "lower"),
    "storage.write_run.bytes": ("bytes", "lower"),
    "storage.read_run.s": ("s", "lower"),
    "storage.read_run.bytes": ("bytes", "lower"),
    "storage.estimates_io.s": ("s", "lower"),
    "estimation.estimate_run.s": ("s", "lower"),
    "estimation.estimate_run.packages": ("count", "higher"),
    "estimation.aggregate.s": ("s", "lower"),
    "estimation.worst_case.calls": ("count", "lower"),
    "estimation.worst_case.s": ("s", "lower"),
    "security.key_rate.calls": ("count", "lower"),
    "security.key_rate.s": ("s", "lower"),
    "distributions.expectation_rule.calls": ("count", "lower"),
    "distributions.expectation_rule.s": ("s", "lower"),
    "distributions.expectation_rule.calls_per_optimize": ("count", "lower"),
    "clustering.optimize.calls": ("count", "lower"),
    "clustering.optimize.s": ("s", "lower"),
    "clustering.optimize.self_s": ("s", "lower"),
    "clustering.optimize.evaluations": ("count", "lower"),
    "clustering.quantile_solves.calls": ("count", "lower"),
    "clustering.quantile_solves.s": ("s", "lower"),
    "clustering.total_key_rate.calls": ("count", "lower"),
    "clustering.total_key_rate.s": ("s", "lower"),
    **{f"cli.{sub}.self_s": ("s", "lower") for sub in SUBCOMMANDS},
    "trace.overhead_s": ("s", "lower"),
}


def _proc_io(field: str) -> int | None:
    """rchar/wchar of this process: bytes passed through read/write calls."""
    try:
        with open("/proc/self/io") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ---- recording ---------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def begin_round(self) -> int:
        """Reset the counters; return the index of the round's first span."""
        self.counters = {}
        return len(self.spans)

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, name: str):
        io_field = {"storage.write_run": "wchar", "storage.read_run": "rchar"}.get(name)
        tracer = self

        def traced(*args, **kwargs):
            io_before = _proc_io(io_field) if io_field else None
            rec = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if io_before is not None:
                tracer.count(name + ".bytes", _proc_io(io_field) - io_before)
            if name == "estimation.estimate_run":
                tracer.count(name + ".packages", len(out))
            elif name == "clustering.optimize":
                evaluations = getattr(out, "evaluations", None)
                if evaluations is None:
                    tracer.absent.add("clustering.optimize.evaluations")
                else:
                    tracer.count("clustering.optimize.evaluations", evaluations)
            return out

        traced.__wrapped__ = fn
        return traced

    # ---- installing --------------------------------------------------

    def install(self) -> None:
        pkg = "fading_cvqkd"
        modules = {name[len(pkg) + 1:]: mod for name, mod in list(sys.modules.items())
                   if name.startswith(pkg + ".") and mod is not None}
        modules[""] = sys.modules[pkg]
        for defining, attr, span, only_in in FUNCTIONS:
            original = getattr(modules.get(defining), attr, None)
            if original is None:
                self.absent.add(span)
                continue
            wrapper = self._wrap(original, span)
            for short, mod in modules.items():
                if only_in is not None and short not in only_in:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        dist_mod = modules.get("distributions")
        base = getattr(dist_mod, "TransmittanceDistribution", None)
        laws = [cls for cls in vars(dist_mod).values() if isinstance(cls, type)
                and base is not None and issubclass(cls, base) and cls is not base
                and "expectation_rule" in vars(cls)] if dist_mod else []
        if not laws:
            self.absent.add("distributions.expectation_rule")
        for cls in laws:
            original = vars(cls)["expectation_rule"]
            self._restore.append((cls, "expectation_rule", original))
            setattr(cls, "expectation_rule",
                    self._wrap(original, "distributions.expectation_rule"))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # ---- reducing ----------------------------------------------------

    def layer_totals(self, first_span: int = 0) -> dict[str, float]:
        """Per-layer metrics of one traced round: spans[first_span:] and
        the counters since begin_round."""
        spans = self.spans[first_span:]
        dur: dict[str, float] = {}
        calls: dict[str, int] = {}
        selfs: dict[str, float] = {}
        children: dict[int, list[tuple[int, int]]] = {}
        for name, start, end, parent in spans:
            if parent >= first_span:
                children.setdefault(parent, []).append((start, end))
        for i, (name, start, end, parent) in enumerate(spans, start=first_span):
            d = end - start
            dur[name] = dur.get(name, 0) + d
            calls[name] = calls.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0) + d - _covered(children.get(i, []))
        out: dict[str, float] = dict.fromkeys(LAYER_METRICS, 0)
        for metric in LAYER_METRICS:
            span, _, kind = metric.rpartition(".")
            if kind == "s":
                out[metric] = dur.get(span, 0) / 1e9
            elif kind == "self_s":
                out[metric] = selfs.get(span, 0) / 1e9
            elif kind == "calls":
                out[metric] = calls.get(span, 0)
        for key, value in self.counters.items():
            out[key] = value
        opt_calls = calls.get("clustering.optimize", 0)
        out["distributions.expectation_rule.calls_per_optimize"] = \
            calls.get("distributions.expectation_rule", 0) / opt_calls if opt_calls else 0
        return out

    def absent_metrics(self) -> list[str]:
        return [m for m in LAYER_METRICS
                if any(m == a or m.startswith(a + ".") for a in self.absent)]

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: name,start_ns,end_ns,parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start},{end},{parent}\n")


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def median_totals(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
