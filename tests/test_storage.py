"""CSV/JSON round trips: byte-identical writes, row-level validation."""

import csv
import hashlib
import math
import os
from pathlib import Path

import numpy as np
import pytest

from fading_cvqkd import (
    Estimates,
    ProtocolParams,
    Uniform,
    ValidationError,
    estimate_run,
    simulate_run,
)
from fading_cvqkd.channel import _draw, block_rows, simulate
from fading_cvqkd.cli import main
from fading_cvqkd.estimation import _estimates, disclosed_count
from fading_cvqkd.storage import (
    B_NPY,
    ESTIMATES_CSV,
    M_NPY,
    RUN_JSON,
    TRUE_T_CSV,
    jsonable,
    open_run,
    protocol_descriptor,
    protocol_from_descriptor,
    read_json,
    read_run,
    read_trace,
    write_estimates,
    write_json,
    write_run,
    write_table,
)

P = ProtocolParams()
DIST = Uniform(0.3, 0.9)
# a format v1 run of _small_run(n=5, m=3): run.csv holds one
# (package, j, M, B) row per state
V1_RUN = Path(__file__).parent / "data" / "run_v1"


def _small_run(seed=99, n=40, m=6):
    return simulate_run(DIST, n, m, P, seed=seed)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---- runs ---------------------------------------------------------------

def test_run_round_trip_is_exact(tmp_path):
    run = _small_run()
    write_run(run, tmp_path)
    back = read_run(tmp_path)
    assert back.n == run.n and back.m == run.m and back.seed == run.seed
    assert back.dist.descriptor() == run.dist.descriptor()
    assert back.protocol == run.protocol
    assert np.array_equal(back.true_T, run.true_T)
    assert np.array_equal(back.M, run.M) and np.array_equal(back.B, run.B)
    assert not back.M.flags.writeable and not back.B.flags.writeable


def test_run_files_are_byte_identical_across_reruns(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    write_run(_small_run(seed=7), a_dir)
    write_run(_small_run(seed=7), b_dir)
    for name in (M_NPY, B_NPY, RUN_JSON, TRUE_T_CSV):
        assert _digest(a_dir / name) == _digest(b_dir / name)


def _corrupt(path, old, new, count=1):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, count))


def test_read_run_refuses_a_v1_run_that_simulate_regenerates(tmp_path, capsys):
    """A v1 run is refused with the command that regenerates it, and
    that command reproduces the run's states bit for bit."""
    with pytest.raises(ValidationError, match="unknown run format 'fading-cvqkd-run-v1'") \
            as refused:
        read_run(V1_RUN)
    assert f"fading-cvqkd simulate --config {V1_RUN / RUN_JSON} --out NEW" \
        in str(refused.value)
    assert main(["simulate", "--config", str(V1_RUN / RUN_JSON), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    run = read_run(tmp_path)
    states = np.loadtxt(V1_RUN / "run.csv", delimiter=",", skiprows=1)
    assert np.array_equal(states[:, :2], [(i, j) for i in range(3) for j in range(5)])
    assert np.array_equal(run.M.ravel(), states[:, 2])
    assert np.array_equal(run.B.ravel(), states[:, 3])
    assert (tmp_path / TRUE_T_CSV).read_bytes() == (V1_RUN / TRUE_T_CSV).read_bytes()


def test_read_run_reports_bad_rows(tmp_path):
    write_run(_small_run(n=5, m=3), tmp_path)
    _corrupt(tmp_path / TRUE_T_CSV, "package,T_true", "pkg,T_true")
    with pytest.raises(ValidationError, match="bad header"):
        read_run(tmp_path)

    write_run(_small_run(n=5, m=3), tmp_path)
    sidecar = read_json(tmp_path / RUN_JSON)
    del sidecar["seed"]
    write_json(sidecar, tmp_path / RUN_JSON)
    with pytest.raises(ValidationError, match="missing key 'seed'"):
        read_run(tmp_path)


# true_T.csv of _small_run(n=5, m=3) with a row duplicated, dropped,
# swapped or added; a duplicated or swapped row used to pass, since only
# the set of indices was checked
TRUE_T_EDITS = {
    "duplicated": (lambda rows: rows + ["0,0.99"], r"row 5: package index 0, expected 3"),
    "missing": (lambda rows: rows[:1] + rows[2:], r"row 3: package index 2, expected 1"),
    "short": (lambda rows: rows[:2], "2 rows, but run.json gives m = 3"),
    "swapped": (lambda rows: [rows[1], rows[0], rows[2]], r"row 2: package index 1, expected 0"),
    "extra": (lambda rows: rows + ["3,0.5"], "4 rows, but run.json gives m = 3"),
}


def _edit_true_T(run_dir, edit) -> None:
    rows = (run_dir / TRUE_T_CSV).read_text().splitlines()
    (run_dir / TRUE_T_CSV).write_text("\n".join(rows[:1] + edit(rows[1:])) + "\n")


@pytest.mark.parametrize("case", list(TRUE_T_EDITS))
def test_read_run_wants_row_i_to_carry_package_i(tmp_path, case):
    edit, message = TRUE_T_EDITS[case]
    write_run(_small_run(n=5, m=3), tmp_path)
    _edit_true_T(tmp_path, edit)
    with pytest.raises(ValidationError, match=message):
        read_run(tmp_path)


@pytest.mark.parametrize("case", list(TRUE_T_EDITS))
def test_estimate_refuses_a_true_T_row_out_of_place(tmp_path, capsys, case):
    edit, message = TRUE_T_EDITS[case]
    write_run(_small_run(n=5, m=3), tmp_path)
    _edit_true_T(tmp_path, edit)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["estimate", str(tmp_path)]) == 2
    assert TRUE_T_CSV in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def _save_over(name, array):
    def edit(run_dir):
        np.save(run_dir / name, array, allow_pickle=True)
    return edit


def _edit_sidecar(**changes):
    def edit(run_dir):
        sidecar = read_json(run_dir / RUN_JSON)
        sidecar.update(changes)
        write_json(sidecar, run_dir / RUN_JSON)
    return edit


@pytest.mark.parametrize("edit, pattern", [
    (lambda d: (d / M_NPY).unlink(), "M.npy: missing"),
    (_edit_sidecar(n=4), r"M\.npy: shape \(3, 5\), but run.json gives \(m, n\) = \(3, 4\)"),
    (_save_over(B_NPY, np.zeros((3, 5), dtype=np.float32)), "B.npy: dtype float32"),
    (_save_over(M_NPY, np.array([[0.1] * 5] * 3, dtype=object)), "M.npy: not a plain .npy"),
    (lambda d: (d / B_NPY).write_bytes(b"not an array"), "B.npy: not a plain .npy"),
    (_edit_sidecar(format="fading-cvqkd-run-v9"), "unknown run format 'fading-cvqkd-run-v9'"),
], ids=["missing", "shape", "dtype", "pickled", "garbage", "format"])
def test_read_run_v2_validates(tmp_path, edit, pattern):
    write_run(_small_run(n=5, m=3), tmp_path)
    edit(tmp_path)
    with pytest.raises(ValidationError, match=pattern):
        read_run(tmp_path)


def _poison_v2(run_dir, column, value):
    a = np.load(run_dir / f"{column}.npy")
    a[1, 2] = float(value)
    np.save(run_dir / f"{column}.npy", a)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["M", "B"])
@pytest.mark.parametrize("fmt", ["v2"])  # the run format whose arrays are poisoned
def test_read_run_rejects_non_finite_states(tmp_path, fmt, column, value):
    write_run(_small_run(n=5, m=3), tmp_path)
    _poison_v2(tmp_path, column, value)
    with pytest.raises(ValidationError, match="non-finite value .* at package 1, state 2"):
        read_run(tmp_path)


# ---- row blocks ----------------------------------------------------------

# (n, m) at the edges of the row blocks: one package, one block less one
# row, one full block, one block and one row, and a package size at which
# a block holds a single row
_EDGE_N = 1 << 14
_ROWS = block_rows(_EDGE_N)
BLOCK_EDGES = [(_EDGE_N, 1), (_EDGE_N, _ROWS - 1), (_EDGE_N, _ROWS), (_EDGE_N, _ROWS + 1),
               (1 << 17, 3)]


def _whole_arrays(n, m, seed):
    """(true T, M, B) of simulate drawn as whole arrays: the transmittances
    from the seed's first child stream, package i from child i of the
    second."""
    t_stream, noise = np.random.SeedSequence(seed).spawn(2)
    T = DIST.sample(np.random.default_rng(t_stream), m)
    rows = [_draw(np.random.default_rng(child), float(t), n, P)
            for t, child in zip(T, noise.spawn(m))]
    return T, np.array([M for M, _ in rows]), np.array([B for _, B in rows])


@pytest.mark.parametrize("n, m", BLOCK_EDGES)
def test_streamed_run_equals_whole_arrays(tmp_path, n, m):
    """The files written block by block are np.save's of the whole
    arrays, and the estimates read back block by block are _estimates of
    the whole disclosed arrays, bit for bit."""
    T, M, B = _whole_arrays(n, m, seed=3)
    assert block_rows(n) == (_ROWS if n == _EDGE_N else 1)
    run_dir = tmp_path / "run"
    write_run(simulate(DIST, n, m, P, seed=3), run_dir)
    for name, whole in ((M_NPY, M), (B_NPY, B)):
        np.save(tmp_path / name, whole)
        assert (run_dir / name).read_bytes() == (tmp_path / name).read_bytes()
    stream = open_run(run_dir)
    assert len(list(stream.blocks())) == -(-m // block_rows(n))
    assert np.array_equal(stream.true_T, T)
    back = read_run(run_dir)
    assert np.array_equal(back.M, M) and np.array_equal(back.B, B)

    k = disclosed_count(n, P.r)
    whole = _estimates(M[:, :k], B[:, :k], P.V, k)
    streamed = estimate_run(stream)
    for name in Estimates.columns:
        assert np.array_equal(getattr(streamed, name), getattr(whole, name))
    if m == 1:
        return  # one package cannot be aggregated, so estimate refuses it
    assert main(["estimate", str(run_dir)]) == 0
    write_estimates(whole, tmp_path / ESTIMATES_CSV)
    assert (run_dir / ESTIMATES_CSV).read_bytes() == (tmp_path / ESTIMATES_CSV).read_bytes()
    slope = [np.dot(Mi[:k], Bi[:k]) / np.dot(Mi[:k], Mi[:k]) for Mi, Bi in zip(M, B)]
    resid_ml = np.loadtxt(run_dir / "residuals.csv", delimiter=",", skiprows=1, ndmin=2)[:, 4]
    assert resid_ml.tolist() == (np.array(slope) - np.sqrt(T)).tolist()


@pytest.mark.parametrize("column", ["M", "B"])
def test_a_non_finite_state_in_a_later_block_is_placed_in_the_run(tmp_path, capsys, column):
    """A NaN in the second block is reported at its package in the run,
    not in the block, by read_run and by estimate, which writes nothing."""
    write_run(simulate(DIST, _EDGE_N, _ROWS + 3, P, seed=5), tmp_path)
    a = np.load(tmp_path / f"{column}.npy")
    a[_ROWS + 1, 5] = math.nan
    np.save(tmp_path / f"{column}.npy", a)
    message = f"{column}.npy: non-finite value nan at package {_ROWS + 1}, state 5"
    with pytest.raises(ValidationError, match=message):
        read_run(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["estimate", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_a_cut_after_open_run_is_refused_by_blocks(tmp_path):
    """An array file cut short by a state after open_run checked its size
    is refused by blocks() when it reaches the block the cut falls in,
    naming that block's first package, as when blocks were read into
    copies, not with the error of the mapping."""
    m = _ROWS + 3
    write_run(simulate(DIST, _EDGE_N, m, P, seed=5), tmp_path)
    for name in (M_NPY, B_NPY):
        stream = open_run(tmp_path)
        _cut(lambda size: size - 8)(tmp_path / name)
        blocks = stream.blocks()
        M, B = next(blocks)
        assert M.shape == B.shape == (_ROWS, _EDGE_N)
        with pytest.raises(ValidationError,
                           match=f"^{name}: ends inside the states of package {_ROWS}$"):
            next(blocks)
        write_run(simulate(DIST, _EDGE_N, m, P, seed=5), tmp_path)


def test_blocks_are_read_only_and_a_read_run_is_a_copy(tmp_path):
    """Each block of a stored run is a read-only view of its file, and a
    Run from read_run owns its arrays: rewriting the run directory
    leaves its values as they were read."""
    write_run(_small_run(n=5, m=3), tmp_path)
    for block in next(open_run(tmp_path).blocks()):
        assert not block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 0.0
    run = read_run(tmp_path)
    write_run(_small_run(seed=7, n=5, m=3), tmp_path)
    again = _small_run(n=5, m=3)
    assert np.array_equal(run.M, again.M) and np.array_equal(run.B, again.B)
    assert not np.array_equal(read_run(tmp_path).M, run.M)


def _append(extra: bytes):
    def edit(path):
        with open(path, "ab") as fh:
            fh.write(extra)
    return edit


def _cut(size):
    def edit(path):
        with open(path, "r+b") as fh:
            fh.truncate(size(os.path.getsize(path)))
    return edit


# an array file with trailing bytes, one cut short by a state, and one
# cut inside its header: (edit, file size after it, or None if the
# header cannot be read)
SIZE_EDITS = {
    "trailing": (_append(b"\0" * 800), lambda size: size + 800),
    "truncated": (_cut(lambda size: size - 8), lambda size: size - 8),
    "header": (_cut(lambda size: 40), None),
}


@pytest.mark.parametrize("name", [M_NPY, B_NPY])
@pytest.mark.parametrize("case", list(SIZE_EDITS))
def test_an_array_of_the_wrong_size_is_refused_on_every_route(tmp_path, capsys, name, case):
    """read_run, estimate and keyrate DATA refuse an array file with
    bytes after its states or with too few, naming the file and the byte counts, and the
    commands write nothing."""
    edit, size_after = SIZE_EDITS[case]
    write_run(_small_run(n=5, m=3), tmp_path)
    size = os.path.getsize(tmp_path / name)
    edit(tmp_path / name)
    if size_after is None:
        message = f"{name}: not a plain .npy array"
    else:
        message = f"{name}: {size_after(size)} bytes, expected {size} "
    with pytest.raises(ValidationError, match=message):
        read_run(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    for command in ("estimate", "keyrate"):
        assert main([command, str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_a_fortran_order_array_is_refused(tmp_path):
    write_run(_small_run(n=5, m=3), tmp_path)
    np.save(tmp_path / M_NPY, np.asfortranarray(np.load(tmp_path / M_NPY)))
    with pytest.raises(ValidationError, match="M.npy: Fortran order, expected C order"):
        read_run(tmp_path)


def test_protocol_descriptor_round_trip():
    p = ProtocolParams(V=7.5, epsilon=0.02, r=0.2)
    assert protocol_from_descriptor(protocol_descriptor(p)) == p
    with pytest.raises(ValidationError, match="unknown protocol keys"):
        protocol_from_descriptor({"V": 5.0, "chroma": 1.0})


# ---- estimates ----------------------------------------------------------

def test_estimates_round_trip_is_exact(tmp_path):
    """estimates.csv holds one row per package, in order, and each float
    column parses back bit for bit: write_table writes floats by repr."""
    ests = estimate_run(_small_run())
    path = tmp_path / "est.csv"
    write_estimates(ests, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["package", *Estimates.columns, "k"]
    assert [(int(r["package"]), int(r["k"])) for r in rows] == \
        [(i, ests.k) for i in range(len(ests))]
    for name in Estimates.columns:
        assert np.array_equal([float(r[name]) for r in rows], getattr(ests, name))


# ---- traces -------------------------------------------------------------

def test_trace_round_trip(tmp_path):
    values = np.array([0.1, 0.5, 0.987654321012345, 1.0, 0.0])
    path = tmp_path / "trace.csv"
    write_table(path, ["T"], [[v] for v in values])
    assert np.array_equal(read_trace(path), values)


def test_trace_reads_true_t_sidecar(tmp_path):
    run = _small_run(m=5)
    write_run(run, tmp_path)
    trace = read_trace(tmp_path / TRUE_T_CSV)
    assert np.array_equal(trace, run.true_T)


def test_read_trace_validates(tmp_path):
    path = tmp_path / "trace.csv"

    path.write_text("transmission\n0.5\n")
    with pytest.raises(ValidationError, match="T or T_true"):
        read_trace(path)

    path.write_text("T\n0.5\n1.5\n")
    with pytest.raises(ValidationError, match="row 3.*outside"):
        read_trace(path)

    path.write_text("package,T_true\n0,0.5\n1\n")
    with pytest.raises(ValidationError, match="row 3.*expected 2 fields"):
        read_trace(path)

    path.write_text("T\n")
    with pytest.raises(ValidationError, match="empty trace"):
        read_trace(path)


# ---- primitives ----------------------------------------------------------

def test_write_table_floats_use_repr(tmp_path):
    """Python floats and numpy float64 are written as their repr, the
    non-finite ones included, and ints, strings and bools as str, just
    as when write_table converted each float with repr itself.  A numpy
    float32, which no caller passes, is the one type whose text changed:
    it is now written in its own shortest text, 0.1 rather than the
    0.10000000149011612 of its float64 value."""
    path = tmp_path / "t.csv"
    rows = [[1, 1.0 / 3.0, "x"],
            [np.float64(0.1), -0.0, np.float64(-0.0)],
            [math.inf, -math.inf, math.nan],
            [np.float64(math.inf), np.float64(-math.inf), np.float64(math.nan)],
            [5e-324, 1e16, np.float64(2.0 ** -1074)],
            [np.float64(1e16), 123456789.0, np.float64(1.0 / 3.0)],
            ["a,b", "", np.int64(7)],
            [True, -2, 'say "hi"']]
    write_table(path, ["a", "b", "c"], iter(rows))
    assert path.read_text().splitlines() == [
        "a,b,c",
        f"1,{1.0 / 3.0!r},x",
        "0.1,-0.0,-0.0",
        "inf,-inf,nan",
        "inf,-inf,nan",
        "5e-324,1e+16,5e-324",
        "1e+16,123456789.0,0.3333333333333333",
        '"a,b",,7',
        'True,-2,"say ""hi"""']


def test_jsonable_handles_special_values():
    out = jsonable({"x": math.inf, "y": -math.inf, "z": math.nan,
                    "arr": np.array([1.5]), "n": np.int64(3)})
    assert out == {"x": "inf", "y": "-inf", "z": "nan", "arr": [1.5], "n": 3}
    assert jsonable(ProtocolParams()) == protocol_descriptor(ProtocolParams())


def test_read_json_reports_invalid_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        read_json(path)
