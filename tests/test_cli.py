"""Command line front end: reproducibility, precedence, round trips."""

import csv
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fading_cvqkd import (
    Estimates,
    ProtocolParams,
    Run,
    Uniform,
    aggregate,
    estimate_run,
    from_descriptor,
    key_rate,
    worst_case,
    worst_case_rectangular,
)
import fading_cvqkd
from fading_cvqkd import channel, clustering
from fading_cvqkd.channel import BLOCK_BYTES
from fading_cvqkd.cli import build_parser, main
from fading_cvqkd.estimation import disclosed_count
from fading_cvqkd.storage import (
    B_NPY,
    ESTIMATES_CSV,
    M_NPY,
    RUN_JSON,
    TRUE_T_CSV,
    jsonable,
    read_json,
    read_run,
    write_json,
    write_run,
    write_table,
)

SIM = ["--n", "60", "--m", "12", "--seed", "42"]


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _status(argv):
    """Exit status of a command, counting argparse's refusals, which
    exit instead of returning."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _files(root):
    return sorted(p for p in root.rglob("*") if p.is_file())


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


# ---- simulate -----------------------------------------------------------

def test_simulate_is_byte_identical_across_reruns(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--out", str(d1)] + SIM) == 0
    assert main(["simulate", "--out", str(d2)] + SIM) == 0
    for name in (M_NPY, B_NPY, TRUE_T_CSV, RUN_JSON):
        assert _digest(d1 / name) == _digest(d2 / name)


def test_simulate_requires_out(capsys):
    assert main(["simulate", "--n", "10", "--m", "2"]) == 2
    assert "needs --out" in capsys.readouterr().err


def test_simulate_refuses_an_overflowing_modulation_variance(tmp_path, capsys):
    """V = 1e200 once gave a run with |M| near 1e100 and exit status 0."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": {"V": 1e200}}))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--n", "100", "--m", "50"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "V = 1e+200 must lie in (0, 1000]" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "keyrate"])
def test_a_modulation_variance_past_its_precision_exits_2(tmp_path, capsys, command):
    """At V = 1e16 the covariance matrix is finite, but the key rate came
    out at +2.5 bits/state where it lies near -1."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": {"V": 1e16}}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out),
                 "--n", "100", "--m", "50"]) == 2
    assert "V = 1e+16 must lie in (0, 1000]" in capsys.readouterr().err
    assert not out.exists()


def test_a_simulate_cut_short_leaves_no_run(tmp_path, capsys, monkeypatch):
    """A simulate that fails after its first blocks, over a directory
    holding an older estimated run, leaves nothing that estimate or
    keyrate take for a run: run.json goes before the first block and
    comes back only after the last."""
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out)] + SIM) == 0
    assert main(["estimate", str(out)]) == 0
    draw, calls = channel._draw, []

    def failing_draw(*args):
        calls.append(None)
        if len(calls) > 300:  # past the first two blocks of 131 packages
            raise RuntimeError("the disk is full")
        return draw(*args)

    monkeypatch.setattr(channel, "_draw", failing_draw)
    with pytest.raises(RuntimeError, match="the disk is full"):
        main(["simulate", "--out", str(out), "--n", "1000", "--m", "400"])
    assert (out / M_NPY).stat().st_size > BLOCK_BYTES  # the first blocks went down
    assert sorted(p.name for p in out.iterdir()) == [B_NPY, M_NPY]
    capsys.readouterr()
    for command in ("estimate", "keyrate"):
        assert main([command, str(out)]) == 2
        assert f"{RUN_JSON}: missing" in capsys.readouterr().err


# ---- estimate -----------------------------------------------------------

def test_estimate_of_one_package_writes_nothing(tmp_path, capsys):
    """One package cannot be aggregated: estimate exits 2 and leaves no
    estimates.csv, which it once wrote before it aggregated."""
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--n", "60", "--m", "1"]) == 0
    before = _files(out)
    assert main(["estimate", str(out)]) == 2
    assert "need at least 2 packages" in capsys.readouterr().err
    assert _files(out) == before


def _traced_peak(argv) -> int:
    """Peak bytes that tracemalloc (which sees numpy's buffers) traces
    while a command runs."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_and_estimate_hold_a_few_row_blocks(tmp_path, capsys):
    """At n = 10^4, m = 200 the two arrays are 30.5 MiB; simulate and
    estimate each peak below 8 blocks of BLOCK_BYTES (4.3 MiB when this
    was written), whatever m is.  A small run goes first, so that the
    modules the commands import on first use are not counted."""
    out = tmp_path / "run"
    assert main(["simulate", "--n", "100", "--m", "3", "--out", str(out)]) == 0
    assert main(["estimate", str(out)]) == 0
    assert _traced_peak(["simulate", "--n", "10000", "--m", "200", "--out", str(out)]) \
        < 8 * BLOCK_BYTES
    assert _traced_peak(["estimate", str(out)]) < 8 * BLOCK_BYTES
    assert 2 * (out / M_NPY).stat().st_size > 30 * BLOCK_BYTES


@pytest.mark.parametrize("blind", [False, True])
def test_estimate_refuses_a_package_with_all_zero_disclosed_states(tmp_path, capsys, blind):
    """Package 4's disclosed M states are all zero: its slope residual
    was 0/0, a nan in residuals.csv with a RuntimeWarning; now estimate
    and keyrate refuse the run by that package and write nothing."""
    run = fading_cvqkd.simulate_run(Uniform(0.2, 0.9), 50, 20, ProtocolParams(), seed=4)
    M = run.M.copy()
    M[4, :5] = 0.0  # k = round(0.1 * 50) = 5
    out = tmp_path / "zero"
    write_run(Run(M=M, B=run.B, true_T=run.true_T, dist=run.dist, protocol=run.protocol,
                  seed=run.seed), out)
    before = _files(out)
    for argv in (["estimate", str(out)] + (["--blind"] if blind else []), ["keyrate", str(out)]):
        assert main(argv) == 2
        assert "package 4: its 5 disclosed M states are all zero" in capsys.readouterr().err
        assert _files(out) == before


def test_estimate_matches_in_process_results(tmp_path):
    out = tmp_path / "run"
    main(["simulate", "--out", str(out)] + SIM)
    assert main(["estimate", str(out)]) == 0

    run = read_run(out)
    expected = estimate_run(run)
    with open(out / ESTIMATES_CSV, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["package", *Estimates.columns, "k"]
    assert [(int(r["package"]), int(r["k"])) for r in rows] == \
        [(i, expected.k) for i in range(run.m)]
    for name in Estimates.columns:
        assert np.array_equal([float(r[name]) for r in rows], getattr(expected, name))

    report = read_json(out / "estimate.json")
    stats = aggregate(expected, run.protocol)
    assert report["aggregate"]["X1_hat"] == pytest.approx(stats.X1_hat, rel=1e-15)
    assert report["worst_case"]["T_eff_low"] == pytest.approx(
        worst_case(stats, run.protocol).T_eff_low, rel=1e-15)
    assert (out / "residuals.csv").exists()


def test_estimate_blind_skips_residuals(tmp_path):
    out = tmp_path / "run"
    main(["simulate", "--out", str(out)] + SIM)
    assert main(["estimate", str(out), "--blind"]) == 0
    assert not (out / "residuals.csv").exists()
    assert (out / ESTIMATES_CSV).exists()


@pytest.mark.filterwarnings("ignore:excess noise estimate")
def test_noiseless_data_nulls_the_slope_residual_only(tmp_path):
    # B proportional to M: the least-squares slope recovers sqrt(T)
    # exactly, while the protocol estimator divides by the known V and
    # keeps the modulation fluctuation of sum M^2 around k V
    rng = np.random.default_rng(5)
    p = ProtocolParams()
    T = np.array([0.25, 0.49, 0.81])
    M = rng.normal(0.0, math.sqrt(p.V), (3, 200))
    B = np.sqrt(T)[:, None] * M
    run = Run(M=M, B=B, true_T=T, dist=Uniform(0.2, 0.9), protocol=p, seed=0)
    out = tmp_path / "noiseless"
    write_run(run, out)
    assert main(["estimate", str(out)]) == 0

    _, rows = _read_csv(out / "residuals.csv")
    resid_ml = [abs(float(r["resid_ml"])) for r in rows]
    resid = [abs(float(r["resid"])) for r in rows]
    assert max(resid_ml) < 1e-12
    assert min(resid) > 1e-6


def test_the_slope_residual_is_a_per_package_dot(tmp_path):
    """resid_ml is, bit for bit, np.dot(M, B) / np.dot(M, M) over each
    package's disclosed states, less sqrt(T)."""
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--n", "400", "--m", "20"]) == 0
    assert main(["estimate", str(out)]) == 0
    run = read_run(out)
    k = disclosed_count(run.n, run.protocol.r)
    expected = [float(np.dot(M[:k], B[:k]) / np.dot(M[:k], M[:k]) - root)
                for M, B, root in zip(run.M, run.B, np.sqrt(run.true_T))]
    _, rows = _read_csv(out / "residuals.csv")
    assert [float(r["resid_ml"]) for r in rows] == expected


def test_estimate_reports_its_flags(tmp_path):
    """Package 0 has anti-correlated data (a negative sqrt-T estimate)
    and package 1 no noise (eps_hat near -1); estimate.json counts them
    under flags and its other fields are the in-process results."""
    rng = np.random.default_rng(9)
    p = ProtocolParams()
    T = np.array([0.3, 0.49, 0.5, 0.6, 0.7])
    M = rng.normal(0.0, math.sqrt(p.V), (5, 400))
    B = np.sqrt(T)[:, None] * M + rng.normal(0.0, 1.0, M.shape)
    B[0] = -0.3 * M[0] + rng.normal(0.0, 1.0, 400)
    B[1] = 0.7 * M[1]
    run = Run(M=M, B=B, true_T=T, dist=Uniform(0.2, 0.9), protocol=p, seed=0)
    out = tmp_path / "flagged"
    write_run(run, out)
    assert main(["estimate", str(out)]) == 0
    report = read_json(out / "estimate.json")
    assert report.pop("flags") == {"sign_anomalies": 1, "noise_mismatch": 1}
    estimates = estimate_run(run)
    assert estimates.sign_anomaly.tolist() == [True, False, False, False, False]
    stats = aggregate(estimates, p)
    assert report == jsonable({"aggregate": stats, "worst_case": worst_case(stats, p),
                               "worst_case_rectangular": worst_case_rectangular(stats, p)})


# ---- keyrate ------------------------------------------------------------

def test_keyrate_from_run_matches_composition(tmp_path):
    out = tmp_path / "run"
    main(["simulate", "--out", str(out), "--n", "400", "--m", "60",
          "--seed", "3"])
    main(["estimate", str(out)])
    assert main(["keyrate", str(out)]) == 0

    report = read_json(out / "keyrate.json")
    run = read_run(out)
    protocol = run.protocol
    stats = aggregate(estimate_run(run), protocol)
    wc = worst_case(stats, protocol)
    rep = key_rate(wc, 400 * 60, protocol)
    assert report["keyrate"]["K"] == pytest.approx(rep.K, rel=1e-15)
    assert report["keyrate"]["K_inf"] == pytest.approx(rep.K_inf, rel=1e-15)
    assert report["worst_case"]["eps_eff_up"] == pytest.approx(
        wc.eps_eff_up, rel=1e-15)


def test_simulate_over_an_estimated_run_leaves_no_stale_estimates(tmp_path):
    """simulate, estimate, then a different run into the same directory:
    keyrate must see the new run, never the old run's estimates (which
    gave K = 0.01633 here although the new run yields no key)."""
    cfg = tmp_path / "cfg.json"
    write_json({"protocol": {"V": 5, "r": 0.3}}, cfg)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    assert main(["estimate", str(out)]) == 0
    assert main(["keyrate", str(out)]) == 0
    assert float(read_json(out / "keyrate.json")["keyrate"]["K"]) > 0.0
    assert main(["simulate", "--config", str(cfg), "--seed", "8", "--m", "300",
                 "--out", str(out)]) == 0
    for name in (ESTIMATES_CSV, "estimate.json", "residuals.csv", "keyrate.json"):
        assert not (out / name).exists()
    assert main(["keyrate", str(out)]) == 0
    assert float(read_json(out / "keyrate.json")["keyrate"]["K"]) == 0.0


def _estimates_of_another_run(n: int, m: int):
    """An edit that overwrites estimates.csv with that of a run of n
    states by m packages."""
    def edit(path: Path) -> None:
        other = path.parent.parent / f"other-{n}x{m}"
        assert main(["simulate", "--out", str(other), "--n", str(n), "--m", str(m),
                     "--seed", "1"]) == 0
        assert main(["estimate", str(other)]) == 0
        path.write_bytes((other / ESTIMATES_CSV).read_bytes())
    return edit


def _infinite_first_vN(path: Path) -> None:
    lines = path.read_text().splitlines()
    parts = lines[1].split(",")
    parts[lines[0].split(",").index("vN_hat")] = "-inf"
    lines[1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


# what keyrate DATA finds in estimates.csv: None when estimate never ran,
# else the edit made to what estimate wrote
ESTIMATES_TABLES = {
    "absent": None,
    "as-written": lambda path: None,
    "of-60x10": _estimates_of_another_run(60, 10),
    "of-80x12": _estimates_of_another_run(80, 12),
    "infinite-vN": _infinite_first_vN,
    "garbage": lambda path: path.write_bytes(bytes(range(256)) * 3),
}


@pytest.mark.parametrize("case", list(ESTIMATES_TABLES))
def test_estimates_csv_cannot_move_the_key_rate(tmp_path, case):
    """keyrate DATA rates the run's own states, so whatever estimates.csv
    holds, keyrate.json is byte for byte that of a fresh simulate,
    estimate and keyrate.  When keyrate read the table, it checked only
    its shape, and a vN_hat of -inf once turned K = 0 into K = 0.01188."""
    fresh, run = tmp_path / "fresh", tmp_path / "run"
    for argv in (["simulate", "--out", str(fresh)] + SIM, ["estimate", str(fresh)],
                 ["keyrate", str(fresh)]):
        assert main(argv) == 0
    assert main(["simulate", "--out", str(run)] + SIM) == 0
    edit = ESTIMATES_TABLES[case]
    if edit is not None:
        assert main(["estimate", str(run)]) == 0
        edit(run / ESTIMATES_CSV)
    assert main(["keyrate", str(run)]) == 0
    assert _digest(run / "keyrate.json") == _digest(fresh / "keyrate.json")


def test_keyrate_refuses_a_non_finite_state_past_the_disclosed_ones(tmp_path, capsys):
    """A NaN written into M.npy's states after estimate ran, at a state
    past the k = 6 disclosed ones: keyrate DATA reads every state of the
    run, so it exits 2 naming the state and writes no keyrate.json,
    although estimates.csv still holds finite estimates."""
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run)] + SIM) == 0
    assert main(["estimate", str(run)]) == 0
    states = np.load(run / M_NPY, mmap_mode="r+")
    states[7, 40] = math.nan
    states.flush()
    del states
    capsys.readouterr()
    assert main(["keyrate", str(run)]) == 2
    assert f"{M_NPY}: non-finite value nan at package 7, state 40" in capsys.readouterr().err
    assert not (run / "keyrate.json").exists()


@pytest.mark.parametrize("command, message", [
    ("estimate", "unrecognized arguments: --out"),
    ("keyrate", "writes into DATA"),
], ids=["estimate", "keyrate"])
def test_data_commands_refuse_out(tmp_path, capsys, monkeypatch, command, message):
    """estimate DATA and keyrate DATA write into DATA; an --out beside
    it was once accepted and silently ignored.  The refusal is of the
    flag: FADING_CVQKD_OUT, shared by every command, is still allowed."""
    run, elsewhere = tmp_path / "run", tmp_path / "elsewhere"
    assert main(["simulate", "--out", str(run)] + SIM) == 0
    capsys.readouterr()
    assert _status([command, str(run), "--out", str(elsewhere)]) == 2
    assert message in capsys.readouterr().err
    assert not elsewhere.exists()
    assert not (run / ESTIMATES_CSV).exists()
    assert not (run / "keyrate.json").exists()
    monkeypatch.setenv("FADING_CVQKD_OUT", str(elsewhere))
    assert main([command, str(run)]) == 0
    assert not elsewhere.exists()


def test_each_subcommand_declares_only_the_options_it_reads():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    declared = {name: sorted(o for a in p._actions for o in a.option_strings
                             if o not in ("-h", "--help"))
                for name, p in sub.choices.items()}
    model = ["--config", "--m", "--n", "--out", "--paper-scale", "--z-conf"]
    assert declared == {
        "simulate": sorted(model + ["--seed"]),
        "estimate": ["--blind"],
        "keyrate": model,
        "optimize": sorted(model + ["--clusters"]),
        "reproduce": sorted(model + ["--clusters"]),
        "ingest": ["--config", "--out"],
    }


@pytest.mark.parametrize("argv, message", [
    (["estimate", "{run}", "--z-conf", "6.5"], "unrecognized arguments: --z-conf"),
    (["keyrate", "{run}", "--n", "5"], "--n does not apply to keyrate DATA"),
    (["keyrate", "{run}", "--z-conf", "6.5"], "--z-conf does not apply to keyrate DATA"),
    (["keyrate", "{run}", "--paper-scale"], "--paper-scale does not apply"),
    (["reproduce", "fig6", "--n", "50", "--out", "{new}"],
     "--n is not read by reproduce fig6"),
    (["reproduce", "fig7", "--m", "50", "--out", "{new}"],
     "--m is not read by reproduce fig7"),
    (["ingest", "{trace}", "--clusters", "2", "--out", "{new}"],
     "unrecognized arguments: --clusters"),
], ids=["estimate-z-conf", "keyrate-n", "keyrate-z-conf", "keyrate-paper-scale",
        "fig6-n", "fig7-m", "ingest-clusters"])
def test_unread_options_are_refused(tmp_path, capsys, argv, message):
    """An option that a command accepted and never read once let
    estimate DATA --z-conf 6.5 print the z = 2 bounds; now it exits 2
    before writing anything."""
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run)] + SIM) == 0
    before = _files(tmp_path)
    capsys.readouterr()
    paths = {"run": run, "new": tmp_path / "new", "trace": run / TRUE_T_CSV}
    assert _status([a.format(**paths) for a in argv]) == 2
    assert message in capsys.readouterr().err
    assert _files(tmp_path) == before
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("argv, missing", [
    (["keyrate", "{d}/nowhere"], "nowhere/run.json: missing"),
    (["estimate", "{d}/nowhere"], "nowhere/run.json: missing"),
    (["ingest", "{d}/nowhere.csv", "--out", "{d}/x"], "nowhere.csv: missing"),
    (["simulate", "--config", "{d}/nowhere.json", "--out", "{d}/x"],
     "nowhere.json: missing"),
], ids=["keyrate", "estimate", "ingest", "simulate"])
def test_missing_inputs_fail_closed(tmp_path, capsys, argv, missing):
    assert main([a.format(d=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and missing in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, message", [
    (["estimate", "{d}/afile"], "afile/run.json: not a directory"),
    (["ingest", "{d}", "--out", "{d}/x"], ": is a directory"),
], ids=["estimate-file", "ingest-directory"])
def test_input_paths_of_the_wrong_kind_fail_closed(tmp_path, capsys, argv, message):
    """A run directory that is a file and a trace that is a directory
    once ended in NotADirectoryError and IsADirectoryError tracebacks."""
    (tmp_path / "afile").write_text("not a run\n")
    assert main([a.format(d=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "1", "--m", "5"],
    ["reproduce", "fig7", "--n", "1"],
    ["reproduce", "fig9", "--n", "1"],
    ["reproduce", "fig8", "--clusters", "-1"],
    ["reproduce", "fig9", "--clusters", "64"],
], ids=["simulate-n", "fig7-n", "fig9-n", "fig8-clusters", "fig9-clusters"])
def test_a_refused_command_makes_no_out(tmp_path, capsys, argv):
    """Each of these once exited 2 and left an empty --out directory."""
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "10", "--m", "3"],
    ["keyrate", "--n", "100", "--m", "20"],
    ["optimize", "--clusters", "0", "--n", "100", "--m", "20"],
    ["reproduce", "fig8", "--n", "100", "--m", "20"],
    ["ingest", "{trace}"],
], ids=["simulate", "keyrate", "optimize", "reproduce", "ingest"])
def test_an_out_that_is_a_file_is_refused(tmp_path, capsys, argv, under):
    """--out naming a file once ended in a FileExistsError traceback;
    now it exits 2 with one error line that names it, and the file
    stays as it was."""
    trace = tmp_path / "trace.csv"
    trace.write_text("T\n0.3\n0.5\n0.7\n")
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken / "sub" if under else taken
    assert main([a.format(trace=trace) for a in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and str(out) in err
    assert taken.read_text() == "keep\n"


def test_missing_true_T_fails_closed(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run)] + SIM) == 0
    (run / TRUE_T_CSV).unlink()
    capsys.readouterr()
    assert main(["estimate", str(run)]) == 2
    assert "true_T.csv: missing" in capsys.readouterr().err


def test_keyrate_validates_run_json_as_estimate_does(tmp_path, capsys):
    """With estimates.csv present, keyrate once read run.json unchecked
    and died with KeyError: 'n'."""
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run)] + SIM) == 0
    assert main(["estimate", str(run)]) == 0
    sidecar = read_json(run / RUN_JSON)
    del sidecar["n"]
    write_json(sidecar, run / RUN_JSON)
    for command in ("estimate", "keyrate"):
        capsys.readouterr()
        assert main([command, str(run)]) == 2
        assert "run.json: missing key 'n'" in capsys.readouterr().err


def test_keyrate_refuses_an_overflowing_modulation_variance(tmp_path, capsys):
    """V = 1e200 once ended keyrate --config in an OverflowError traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": {"V": 1e200}}))
    assert main(["keyrate", "--config", str(cfg), "--out", str(tmp_path / "k")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "V = 1e+200 must lie in (0, 1000]" in err
    assert not (tmp_path / "k").exists()


def test_keyrate_refuses_a_pooled_cluster_below_two_packages(tmp_path, capsys):
    """At m = 2 the default law's weights sum to just below 1, so the
    pooled cluster holds under 2 expected packages and has no worst-case
    channel; keyrate once exited 2 with "expected an effective or
    worst-case channel, got NoneType"."""
    out = tmp_path / "km2"
    assert main(["keyrate", "--m", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "the pooled cluster holds fewer than 2 expected " \
        "packages" in err
    assert not out.exists()


def test_keyrate_model_mode_runs_without_data(tmp_path, capsys):
    out = tmp_path / "model"
    assert main(["keyrate", "--out", str(out), "--n", "500", "--m", "500"]) == 0
    text = capsys.readouterr().out
    assert "K_inf" in text and "finite size" in text
    report = read_json(out / "keyrate.json")
    assert report["N_total"] == 250_000
    assert float(report["keyrate"]["K"]) >= 0.0


# ---- configuration precedence --------------------------------------------

def test_config_file_env_and_flags_stack(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    write_json({"n": 120, "m": 15, "seed": 5,
                "dist": {"variant": "uniform", "lo": 0.4, "hi": 0.8}}, cfg_path)

    d1 = tmp_path / "d1"
    main(["simulate", "--config", str(cfg_path), "--out", str(d1)])
    side = read_json(d1 / RUN_JSON)
    assert side["n"] == 120 and side["m"] == 15 and side["seed"] == 5
    assert side["dist"]["variant"] == "uniform"

    monkeypatch.setenv("FADING_CVQKD_N", "140")
    monkeypatch.setenv("FADING_CVQKD_Z_CONF", "3.0")
    d2 = tmp_path / "d2"
    main(["simulate", "--config", str(cfg_path), "--out", str(d2)])
    side = read_json(d2 / RUN_JSON)
    assert side["n"] == 140
    assert side["protocol"]["z_conf"] == 3.0

    d3 = tmp_path / "d3"
    main(["simulate", "--config", str(cfg_path), "--out", str(d3), "--n", "160"])
    assert read_json(d3 / RUN_JSON)["n"] == 160


def test_keyrate_refuses_a_boolean_protocol_field(tmp_path, capsys):
    """{"V": true} once passed as V = 1 and exited 0 with a rate."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": {"V": True, "r": 0.3}, "n": 100, "m": 20}))
    assert main(["keyrate", "--config", str(cfg)]) == 2
    assert "V must be a number, got True" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["flag", "config", "environment"])
def test_simulate_refuses_a_negative_seed_before_out_is_made(tmp_path, capsys,
                                                             monkeypatch, route):
    """A negative seed once died in numpy's SeedSequence with a traceback,
    after the output directory was made."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1} if route == "config" else {}))
    if route == "environment":
        monkeypatch.setenv("FADING_CVQKD_SEED", "-2")
    out = tmp_path / "run"
    argv = ["simulate", "--config", str(cfg), "--out", str(out), "--n", "10", "--m", "3"]
    assert main(argv + (["--seed", "-3"] if route == "flag" else [])) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_environment_values_are_validated(capsys):
    import os
    os.environ["FADING_CVQKD_N"] = "plenty"
    try:
        assert main(["simulate", "--out", "/tmp/nowhere"]) == 2
        assert "not a valid int" in capsys.readouterr().err
    finally:
        del os.environ["FADING_CVQKD_N"]


@pytest.mark.parametrize("command", ["simulate", "keyrate", "optimize"])
@pytest.mark.parametrize("config, message", [
    ({"n": "3000", "m": 70, "protocol": {"r": 0.3, "V": 5.0}},
     "'n' in {cfg} must be a JSON integer, got '3000'"),
    ({"n": 1000, "m": 1000.5}, "'m' in {cfg} must be a JSON integer, got 1000.5"),
    ({"n": True}, "'n' in {cfg} must be a JSON integer, got True"),
    ({"seed": "7"}, "'seed' in {cfg} must be a JSON integer"),
    ({"clusters": 2.5}, "'clusters' in {cfg} must be a JSON integer"),
    ({"out": 5}, "'out' in {cfg} must be a JSON string"),
    ({"dist_file": ["d.json"]}, "'dist_file' in {cfg} must be a JSON string"),
    ({"dist": "uniform"}, "'dist' in {cfg} must be a JSON object"),
    ({"protocol": [1]}, "'protocol' in {cfg} must be a JSON object"),
    ([1, 2], "{cfg} must be a JSON object, got [1, 2]"),
], ids=["n-string", "m-float", "n-bool", "seed", "clusters", "out", "dist_file", "dist",
        "protocol", "not-an-object"])
def test_a_mistyped_config_file_is_refused(tmp_path, capsys, command, config, message):
    """A string n once repeated itself in N = n*m (keyrate claimed K > 0
    at a 280-digit N), a float m scored 1000 packages while it reported
    N = 1,000,500, and the other types ended in tracebacks."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert _status([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message.format(cfg=cfg) in err
    assert _files(tmp_path) == [cfg]


def _edit_run_json(run_dir, **changes):
    sidecar = read_json(run_dir / RUN_JSON)
    sidecar.update(changes)
    write_json(sidecar, run_dir / RUN_JSON)


BAD_LAWS = {
    "tn-mean": ({"variant": "truncated_normal"}, "lacks the key 'mean'"),
    "weibull-sigma_b": ({"variant": "log_negative_weibull", "w_over_a": 1.47},
                        "lacks the key 'sigma_b'"),
    "uniform-lo": ({"variant": "uniform", "lo": "a"}, "uniform descriptor: 'lo' is malformed"),
    "empirical-samples": ({"variant": "empirical", "samples": "0.5"},
                          "empirical descriptor: 'samples' is malformed"),
    # once ran at std = 1.0 and exited 0
    "tn-std-bool": ({"variant": "truncated_normal", "mean": 0.5, "std": True},
                    "truncated_normal descriptor: 'std' is malformed"),
}


@pytest.mark.parametrize("route", ["dist", "dist_file", "run.json"])
@pytest.mark.parametrize("law", BAD_LAWS)
def test_a_malformed_law_exits_2_by_every_route(tmp_path, capsys, route, law):
    descriptor, message = BAD_LAWS[law]
    cfg, run = tmp_path / "cfg.json", tmp_path / "run"
    if route == "run.json":
        assert main(["simulate", "--out", str(run)] + SIM) == 0
        _edit_run_json(run, dist=descriptor)
        commands = [["estimate", str(run)], ["keyrate", str(run)]]
    else:
        if route == "dist":
            write_json({"dist": descriptor}, cfg)
        else:
            write_json(descriptor, tmp_path / "d.json")
            write_json({"dist_file": str(tmp_path / "d.json")}, cfg)
        commands = [[*c, "--config", str(cfg), "--out", str(tmp_path / "out")]
                    for c in (["simulate"], ["keyrate"], ["optimize"], ["reproduce", "fig8"])]
    before = _files(tmp_path)
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and message in err
    assert _files(tmp_path) == before and not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("n", "abc"), ("m", 12.0), ("seed", True)])
def test_run_json_sizes_and_seed_must_be_integers(tmp_path, capsys, key, value):
    """With "n": "abc" estimate once died with ValueError."""
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run)] + SIM) == 0
    _edit_run_json(run, **{key: value})
    before = _files(tmp_path)
    for command in ("estimate", "keyrate"):
        capsys.readouterr()
        assert main([command, str(run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"run.json: {key!r} must be a JSON integer, got {value!r}" in err
    assert _files(tmp_path) == before


# ---- reproduce ------------------------------------------------------------

def test_reproduce_rejects_unknown_figure(tmp_path, capsys):
    assert main(["reproduce", "fig3", "--out", str(tmp_path)]) == 2
    assert "unknown figure id" in capsys.readouterr().err


def test_reproduce_fig9_rates_do_not_decrease_with_clusters(tmp_path):
    out = tmp_path / "fig9"
    assert main(["reproduce", "fig9", "--out", str(out), "--n", "400",
                 "--m", "400", "--clusters", "2"]) == 0
    _, rows = _read_csv(out / "fig9.csv")
    assert [int(r["C"]) for r in rows] == [0, 1, 2]
    K = [float(r["K"]) for r in rows]
    assert K[1] >= K[0] - 1e-9
    assert K[2] >= K[1] - 1e-9
    # no row beats the known-transmittance rate at its own (r, V)
    for row in rows:
        K_known = float(row["K_known"])
        assert 0.0 <= float(row["K"]) <= K_known
        assert float(row["K_over_K_known"]) == float(row["K"]) / K_known
    scenario = read_json(out / "fig9.scenario.json")
    assert scenario["dist"]["variant"] == "uniform"


def test_fig9_builds_each_interval_table_once(tmp_path, monkeypatch):
    """fig9 shares each (r, V, Q) table among the cluster counts: the
    C = 1..3 searches settle on the same points and prune the same 38
    grid points, so the three counts build as many tables (106 + 9 + 9)
    as one optimize does, where one search per count built 486 and,
    before the ceiling pruned, the shared search 162."""
    tables = []
    original = clustering._Evaluator.table

    def counted(self, Q):
        tables.append(Q)
        return original(self, Q)

    monkeypatch.setattr(clustering._Evaluator, "table", counted)
    assert main(["reproduce", "fig9", "--out", str(tmp_path / "fig9"), "--n", "1000",
                 "--m", "1000", "--clusters", "3"]) == 0
    assert len(tables) == 124
    tables.clear()
    clustering.optimize(Uniform(0.0, 1.0), 2, 1000, 1000, ProtocolParams())
    assert len(tables) == 124


def test_fig9_refuses_a_negative_cluster_count(tmp_path, capsys):
    """It once wrote a fig9.csv with no rows and exited 0."""
    assert main(["reproduce", "fig9", "--clusters", "-1", "--out", str(tmp_path)]) == 2
    assert "cluster counts >= 0" in capsys.readouterr().err
    assert not (tmp_path / "fig9.csv").exists()


def test_reproduce_fig8_runs_the_clusters_it_records(tmp_path):
    out = tmp_path / "fig8"
    assert main(["reproduce", "fig8", "--out", str(out), "--n", "400",
                 "--m", "400", "--clusters", "1"]) == 0
    _, rows = _read_csv(out / "fig8.csv")
    assert len(rows) == 1
    assert len(read_json(out / "fig8.json")["plan"]["per_cluster"]) == 1
    assert read_json(out / "fig8.scenario.json")["clusters"] == 1


def test_reproduce_takes_the_cluster_count_from_every_source(tmp_path, monkeypatch):
    """fig9 falls back to three clusters only when no source sets one;
    it once replaced a config file's or FADING_CVQKD_CLUSTERS' count with 3."""
    cfg = tmp_path / "cfg.json"
    write_json({"clusters": 0, "n": 200, "m": 200}, cfg)

    def rows(*extra):
        out = tmp_path / "fig9"
        assert main(["reproduce", "fig9", "--out", str(out), *extra]) == 0
        counts = [int(r["C"]) for r in _read_csv(out / "fig9.csv")[1]]
        assert read_json(out / "fig9.scenario.json")["clusters"] == counts[-1]
        return counts

    assert rows("--config", str(cfg)) == [0]
    monkeypatch.setenv("FADING_CVQKD_CLUSTERS", "1")
    assert rows("--config", str(cfg)) == [0, 1]
    assert rows("--config", str(cfg), "--clusters", "0") == [0]


@pytest.mark.parametrize("figure, source, message", [
    ("fig6", "file-n", "'n' in"),
    ("fig6", "FADING_CVQKD_M", "FADING_CVQKD_M"),
    ("fig7", "file-m", "'m' in"),
    ("fig7", "FADING_CVQKD_M", "FADING_CVQKD_M"),
], ids=["fig6-file-n", "fig6-env-m", "fig7-file-m", "fig7-env-m"])
def test_pooled_figures_refuse_swept_sizes_from_file_and_environment(
        tmp_path, capsys, monkeypatch, figure, source, message):
    """A size the figure's sweep sets is refused from the config file and
    the environment as it is as a flag, before anything is written."""
    cfg = tmp_path / "cfg.json"
    write_json({source[-1]: 300} if source.startswith("file") else {}, cfg)
    if source.startswith("FADING"):
        monkeypatch.setenv(source, "300")
    out = tmp_path / "out"
    assert main(["reproduce", figure, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and f"is not read by reproduce {figure}" in err
    assert not out.exists()


def test_optimize_writes_its_search_into_the_plan(tmp_path):
    cfg = tmp_path / "uniform.json"
    write_json({"dist": {"variant": "uniform", "lo": 0.0, "hi": 1.0}}, cfg)
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(cfg), "--n", "100", "--m", "400",
                 "--clusters", "1", "--out", str(out)]) == 0
    plan = read_json(out / "plan.json")
    search = plan["search"]
    assert [p["Q"] for p in search] == [64, 128, 256]
    assert search[0]["points"] == 144
    assert plan["evaluations"] == sum(p["intervals"] for p in search) + 1
    # r = 0.01 leaves one disclosed state of 100 per package
    skipped = search[0]["skipped"]
    assert len(skipped) == 12
    assert {(s["r"], s["error"]) for s in skipped} == {(0.01, "InsufficientDataError")}
    assert all("fewer than 2 disclosed states" in s["message"] for s in skipped)


def test_optimize_writes_the_pruned_points_into_the_plan(tmp_path):
    """At n = m = 1000 the C = 1 search on Uniform(0, 1) prunes 38 grid
    points, each with a ceiling below the rate it found."""
    cfg = tmp_path / "uniform.json"
    write_json({"dist": {"variant": "uniform", "lo": 0.0, "hi": 1.0}}, cfg)
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(cfg), "--clusters", "1",
                 "--out", str(out)]) == 0
    plan = read_json(out / "plan.json")
    pruned = plan["search"][0]["pruned"]
    assert len(pruned) == 38 and plan["search"][0]["skipped"] == []
    assert all(p["ceiling"] < plan["plan"]["total_rate"] for p in pruned)
    assert [(p["r"], p["V"]) for p in pruned] == sorted((p["r"], p["V"]) for p in pruned)
    assert [p["pruned"] for p in plan["search"][1:]] == [[], []]


def test_reproduce_fig7_marks_zero_rate_rows_with_nan(tmp_path):
    out = tmp_path / "fig7"
    assert main(["reproduce", "fig7", "--out", str(out)]) == 0
    _, rows = _read_csv(out / "fig7.csv")
    positive = [r for r in rows if float(r["K"]) > 0.0]
    assert positive, "expected a positive-rate tail at the default scale"
    for r in rows:
        if float(r["K"]) > 0.0:
            assert 0.01 <= float(r["r_opt"]) <= 0.9
        else:
            assert math.isnan(float(r["r_opt"]))
            assert math.isnan(float(r["V_opt"]))
    r_tail = [float(r["r_opt"]) for r in positive]
    assert all(b <= a + 1e-12 for a, b in zip(r_tail, r_tail[1:]))


# sha256 of the default fig6.csv and fig7.csv with numpy 2.4 and scipy 1.17,
# the versions CI installs, as one optimize per m wrote them
POOLED_CSV_SHA256 = {
    "fig6": "c89c4c990bc7294e2e07da0292a4dc24719ce8c435b77d3635829599a12b7d44",
    "fig7": "2c44b8491ad36cfe684c149a3c4b618b1deccfead62abd9971303d1119aac3a2",
}


@pytest.mark.parametrize("figure", list(POOLED_CSV_SHA256))
def test_pooled_figures_are_pinned(tmp_path, figure):
    out = tmp_path / figure
    assert main(["reproduce", figure, "--out", str(out)]) == 0
    assert _digest(out / f"{figure}.csv") == POOLED_CSV_SHA256[figure]


DESK_LADDER = [10, 25, 63, 158, 398, 1000]
PAPER_LADDER = [10, 40, 158, 631, 2512, 10000]


@pytest.mark.parametrize("figure, scale, n, m", [
    ("fig6", [], [500, 1000], DESK_LADDER),
    ("fig7", [], 1000, DESK_LADDER),
    ("fig6", ["--paper-scale"], [10_000, 100_000], PAPER_LADDER),
    ("fig7", ["--paper-scale"], 100_000, PAPER_LADDER),
], ids=["fig6", "fig7", "fig6-paper", "fig7-paper"])
def test_pooled_sidecar_records_the_sizes_it_ran(tmp_path, figure, scale, n, m):
    """A pooled figure's sidecar states the package sizes and counts of
    its rows, and no cluster count or seed, which it does not read;
    fig6.scenario.json once claimed n = m = 1000 and 2 clusters."""
    out = tmp_path / figure
    assert main(["reproduce", figure, *scale, "--out", str(out)]) == 0
    scenario = read_json(out / f"{figure}.scenario.json")
    assert (scenario["n"], scenario["m"]) == (n, m)
    assert "clusters" not in scenario and "seed" not in scenario
    _, rows = _read_csv(out / f"{figure}.csv")
    assert [(int(r["n"]), int(r["m"])) for r in rows] == list(
        itertools.product(n if isinstance(n, list) else [n], m))


# ---- ingest ----------------------------------------------------------------

def test_ingest_builds_usable_distribution_file(tmp_path):
    run_dir = tmp_path / "run"
    main(["simulate", "--out", str(run_dir)] + SIM)
    out = tmp_path / "ingested"
    assert main(["ingest", str(run_dir / TRUE_T_CSV), "--out", str(out)]) == 0

    dist = from_descriptor(read_json(out / "dist.json"))
    truth = read_run(run_dir).true_T
    assert dist.moments().mean_T == pytest.approx(float(np.mean(truth)), rel=1e-12)

    # the distribution file plugs back in through a config
    cfg_path = tmp_path / "cfg.json"
    write_json({"dist_file": str(out / "dist.json")}, cfg_path)
    assert main(["keyrate", "--config", str(cfg_path), "--n", "300",
                 "--m", "300"]) == 0


def test_ingest_constant_trace_has_zero_spread(tmp_path):
    trace = tmp_path / "trace.csv"
    write_table(trace, ["T"], [[0.6]] * 50)
    out = tmp_path / "const"
    assert main(["ingest", str(trace), "--out", str(out)]) == 0
    dist = from_descriptor(read_json(out / "dist.json"))
    mom = dist.moments()
    assert mom.var_sqrtT == 0.0
    assert mom.mean_T == pytest.approx(0.6, rel=1e-12)


def test_ingest_bins_a_steady_trace_with_one_dropout(tmp_path):
    """1e-9 jitter about T = 0.6 and one sample at 0 set a Freedman-Diaconis
    width of about 2e-10; the histogram keeps one bin per sample at most."""
    rng = np.random.default_rng(11)
    values = 0.6 + rng.normal(0.0, 1e-9, 1600)
    values[700] = 0.0
    trace = tmp_path / "trace.csv"
    write_table(trace, ["T"], [[v] for v in values])
    out = tmp_path / "ingested"
    assert main(["ingest", str(trace), "--out", str(out)]) == 0
    dist = from_descriptor(read_json(out / "dist.json"))
    assert dist.moments().mean_T == pytest.approx(float(np.mean(values)), rel=1e-12)


# a fresh interpreter runs argv (if any) through main, then prints the
# scipy modules it loaded on its last line
NO_SCIPY_CHILD = """\
import sys
import fading_cvqkd
if sys.argv[1:]:
    from fading_cvqkd.cli import main
    try:
        assert main(sys.argv[1:]) == 0
    except SystemExit as exc:
        assert exc.code == 0
print("scipy:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["keyrate", "{run}"], ["ingest", "{run}/true_T.csv", "--out", "{d}/ingest"],
    ["estimate", "{run}"],
], ids=["import", "help", "keyrate-data", "ingest", "estimate"])
def test_commands_without_numerics_load_no_scipy(tmp_path, argv):
    """Each CLI invocation is a fresh interpreter, and loading scipy costs
    it about 0.6 s, so scipy loads only in the functions that compute with
    it: importing the package, --help, keyrate on a run that has its
    estimates, ingest, and estimate, whose open_run rebuilds the run's
    truncated normal law (the default) from its descriptor, load none of
    it."""
    run = tmp_path / "run"
    if any("{run}" in a for a in argv):
        assert main(["simulate", "--out", str(run)] + SIM) == 0
        assert main(["estimate", str(run)]) == 0
    src = str(Path(fading_cvqkd.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CHILD, *(a.format(run=run, d=tmp_path) for a in argv)],
        env=env, capture_output=True, text=True, check=True)
    assert child.stdout.splitlines()[-1] == "scipy: []"
