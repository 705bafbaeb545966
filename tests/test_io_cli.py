import csv
import hashlib
import io as _io
import json
import math
import pathlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dyadlab import GenSpec, Instance, SchemaError, generate, worked_instances
from dyadlab import io, lattice, normest, runner, verify
from dyadlab.cli import _COMMANDS, build_parser, main
from dyadlab.generators import (
    adversarial_family,
    deep_chain_profiles,
    random_atom_function,
    random_scale_function,
)
from dyadlab.io import ReportRow
from dyadlab.stopping import build_average_family, build_ratio_family

import _reference as ref

W = worked_instances()


def _roundtrip(inst):
    buf = _io.StringIO()
    io.write_instance(inst, buf)
    buf.seek(0)
    return io.read_instance(buf)


@pytest.mark.parametrize("seed", range(6))
def test_round_trip_bit_exact(seed):
    inst = generate(GenSpec(seed=seed, dimension=[1, 2][seed % 2], depth=2, p=2.5))
    back = _roundtrip(inst)
    assert back.p == inst.p
    assert np.array_equal(back.sigma, inst.sigma)
    assert np.array_equal(back.omega, inst.omega)
    assert np.array_equal(back.mu, inst.mu)
    assert np.array_equal(back.lam, inst.lam)


def test_round_trip_awkward_values():
    w1 = W["w1"]
    awkward = Instance(
        w1.sys,
        2.0 + 2.0**-45,
        [0.1, 5e-324],          # subnormal survives the hex encoding
        [1.0 / 3.0, 1e300],
        np.full((2, 2), 0.2),
        [7e-200, 0.0, 0.1 + 0.2],
    )
    back = _roundtrip(awkward)
    assert back.p == awkward.p
    assert np.array_equal(back.sigma, awkward.sigma)
    assert np.array_equal(back.lam, awkward.lam)


def _base_doc():
    return {
        "version": io.SCHEMA_VERSION,
        "p": 2.0,
        "dimension": 1,
        "depth": 1,
        "sigma": [1, 1],
        "omega": [1, 1],
        "mu": [[1, 1], [1, 1]],
        "lambda": {"": 1.0},
    }


def test_schema_accepts_plain_numbers():
    inst = io.instance_from_dict(_base_doc())
    assert inst.p == 2.0 and inst.lam[0] == 1.0


def test_schema_cube_named_twice_is_rejected():
    # "01" once read as cube "1" and overwrote its coefficient; a cube has
    # one name, the one ``DyadicSystem.path`` holds
    doc = _base_doc()
    doc["lambda"] = {"1": 2.0, "": 3.0, "01": 5.0}
    with pytest.raises(SchemaError, match="canonical child code") as err:
        io.instance_from_dict(doc)
    assert err.value.path == "lambda['01']"


@pytest.mark.parametrize("old,new", [
    ('"lambda": {"": 1.0}', '"lambda": {"": 1.0, "": 5.0}'),
    ('"p": 2.0', '"p": 2.0, "p": 3.0'),
])
def test_read_instance_rejects_duplicate_keys(old, new, tmp_path, capsys):
    # json.load keeps the last of two equal keys; the instance reader refuses them
    text = json.dumps(_base_doc())
    assert io.read_instance(_io.StringIO(text)).lam[0] == 1.0
    path = tmp_path / "dup.json"
    path.write_text(text.replace(old, new))
    with open(path) as fp, pytest.raises(SchemaError) as err:
        io.read_instance(fp)
    assert err.value.path == "$" and "duplicate key" in str(err.value)
    assert main(["testing", "--in", str(path)]) == 2
    assert "duplicate key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d.pop("sigma"), "sigma"),
        (lambda d: d.update(version="nope/9"), "version"),
        (lambda d: d.update(p=1.0), "p"),
        (lambda d: d.update(p=0.0), "p"),
        (lambda d: d.update(p=-1.0), "p"),
        (lambda d: d.update(p="zz"), "p"),
        (lambda d: d.update(sigma=[1]), "sigma"),
        (lambda d: d.update(sigma=[1, -2]), "sigma[1]"),
        (lambda d: d.update(mu=[[1, 1]]), "mu"),
        (lambda d: d.update(mu=[[1, 1], [1, math.nan]]), "mu[1][1]"),
        (lambda d: d.update({"lambda": {"0/7": 1.0}}), "lambda['0/7']"),
        (lambda d: d.update({"lambda": {"5": 1.0}}), "lambda['5']"),
        (lambda d: d.update({"lambda": [1.0]}), "lambda"),
        (lambda d: d.update(dimension="x"), "dimension"),
    ],
)
def test_schema_rejections_carry_field_paths(mutate, path):
    doc = _base_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        io.instance_from_dict(doc)
    assert err.value.path == path


def test_rows_round_trip_and_column_order():
    rows = [
        ReportRow(
            instance_id=f"i{k:03d}",
            seed=k,
            p=2.0,
            dimension=1,
            depth=2,
            T=1.5,
            Tstar=2.5,
            lambda_norm_lb=2.75,
            oracle_value=None if k else 2.75,
            oracle_kind=None if k else "spectral",
            ratio_upper=0.6875,
            ratio_lower=0.909,
            prop2_ratio=0.5,
            carleson_Cemp_over_Cprime=1.25,
            g_family_carleson=1.5,
            f_family_sparse_max=0.25,
            iterations=12,
            restarts=4,
            wall_time_ms=3,
        )
        for k in range(3)
    ]
    buf = _io.StringIO()
    io.write_rows(rows, buf, "csv")
    text = buf.getvalue()
    assert text.splitlines()[0] == ",".join(io.REPORT_COLUMNS)
    buf.seek(0)
    back = io.read_rows(buf)
    assert [r.instance_id for r in back] == ["i000", "i001", "i002"]
    assert back[0].oracle_kind == "spectral" and back[1].oracle_kind is None
    assert back[2].ratio_upper == 0.6875

    summary = io.summarize_rows(back)
    assert summary == io.summarize_rows(back)  # pure function of its rows
    assert summary[0]["ratio_upper_max"] == 0.6875
    assert summary[0]["prop2_ratio_median"] == 0.5


@pytest.mark.parametrize(
    "column,cell",
    [("p", "abc"), ("p", ""), ("seed", "1.5"), ("depth", ""), ("T", "x"), ("ratio_upper", "?")],
)
def test_report_on_a_malformed_row_is_a_schema_error(column, cell, tmp_path, capsys):
    path = _rows_with_cell(tmp_path, column, cell)
    with open(path) as fp, pytest.raises(SchemaError) as err:
        io.read_rows(fp)
    assert err.value.path == f"line 3 column {column}"
    assert repr(cell) in str(err.value)
    assert main(["report", "--in", str(path)]) == 2
    assert f"line 3 column {column}" in capsys.readouterr().err


def _rows_with_cell(tmp_path, column, cell, row=None):
    """A CSV of two w1 rows (or of ``row`` twice) with ``cell`` in ``column`` of the second."""
    buf, row = _io.StringIO(), row or _w1_row()
    io.write_rows([row, replace(row, instance_id="second")], buf, "csv")
    lines = buf.getvalue().splitlines()
    at = io.REPORT_COLUMNS.index(column)
    cells = lines[2].split(",")
    cells[at] = cell
    lines[2] = ",".join(cells)
    path = tmp_path / "rows.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "column,cell",
    [("p", "nan"), ("p", "inf"), ("p", "1.0"), ("p", "-2.5"), ("T", "nan"), ("ratio_upper", "NaN"),
     ("oracle_value", "nan"), ("g_family_carleson", "-nan")],
)
def test_report_on_nan_or_an_exponent_outside_one_to_inf_is_a_schema_error(
    column, cell, fmt, tmp_path, capsys
):
    # a NaN p once ended in exit 3 with --format json and in a (p, depth)
    # group of its own with --format csv
    path = _rows_with_cell(tmp_path, column, cell)
    assert main(["report", "--in", str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"line 3 column {column}" in captured.err
    assert repr(cell) in captured.err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_reads_inf_where_rows_can_hold_it(fmt, tmp_path, capsys):
    # an overflowed oracle and a massless member's Carleson constant are inf
    # in the rows ``eval`` writes, so inf stays readable outside p
    row = replace(_w1_row(), oracle_value=math.inf, g_family_carleson=math.inf)
    path = _rows_with_cell(tmp_path, "oracle_value", "inf", row)
    with open(path) as fp:
        back = io.read_rows(fp)
    assert [(r.oracle_value, r.g_family_carleson) for r in back] == [(math.inf, math.inf)] * 2
    assert main(["report", "--in", str(path), "--format", fmt]) == 0
    out = capsys.readouterr().out
    groups = json.loads(out) if fmt == "json" else list(csv.DictReader(_io.StringIO(out)))
    assert [(float(g["p"]), int(g["depth"]), int(g["rows"])) for g in groups] == [(2.0, 1, 2)]


def test_report_on_a_short_row_is_a_schema_error():
    # csv fills a short row's missing cells with None, which once reached int()
    buf = _io.StringIO()
    io.write_rows([_w1_row()], buf, "csv")
    header, row = buf.getvalue().splitlines()
    cut = row.split(",")[: io.REPORT_COLUMNS.index("iterations")]
    with pytest.raises(SchemaError, match="line 2 column iterations"):
        io.read_rows(_io.StringIO(header + "\n" + ",".join(cut) + "\n"))


def _w1_row(seed=1, restarts=4):
    """The row ``eval --in`` gives w1: the generated rows' battery and id, k = 0."""
    return runner.evaluate_instance(W["w1"], f"s{seed}-p2-d1-i00000", seed, restarts=restarts)


def _same_row(row, expect):
    # every field ==, T, T* and lambda_norm_lb among them; only the time differs
    assert replace(row, wall_time_ms=0) == replace(expect, wall_time_ms=0)


def test_cli_eval_prints_w1_form(tmp_path, capsys):
    path = tmp_path / "w1.json"
    with open(path, "w") as fp:
        io.write_instance(W["w1"], fp)
    assert main(["eval", "--in", str(path), "--seed", "5", "--restarts", "2"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    _same_row(ReportRow(**row), _w1_row(seed=5, restarts=2))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_eval_in_writes_the_value_to_out(tmp_path, capsys, fmt):
    # the --in row goes to --out in --format, as generated rows do
    path, out = tmp_path / "w1.json", tmp_path / "o.txt"
    with open(path, "w") as fp:
        io.write_instance(W["w1"], fp)
    assert main(["eval", "--in", str(path), "--out", str(out), "--format", fmt]) == 0
    assert capsys.readouterr().out == ""
    with open(out) as fp:
        (row,) = [ReportRow(**r) for r in json.load(fp)] if fmt == "json" else io.read_rows(fp)
    _same_row(row, _w1_row())


@pytest.mark.parametrize("command", ["testing", "report"])
def test_cli_unreadable_input_is_a_schema_error(tmp_path, capsys, command):
    cases = ((tmp_path / "missing", "No such file or directory"), (tmp_path, "Is a directory"))
    for path, reason in cases:
        assert main([command, "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"schema error: $: cannot read {path}: {reason}\n"


@pytest.mark.parametrize("command", [name for name, (_, options) in _COMMANDS.items() if "--out" in options])
def test_cli_unwritable_output_is_a_schema_error(tmp_path, capsys, command):
    argv = [command]
    if command == "report":
        rows = tmp_path / "rows.csv"
        assert main(["eval", "--depth", "1", "--format", "csv", "--out", str(rows)]) == 0
        argv += ["--in", str(rows)]
    cases = [(tmp_path, "Is a directory"), (tmp_path / "missing" / "x.out", "No such file or directory")]
    if pathlib.Path("/dev/full").exists():
        # opens, and fails on the write or on the closing flush
        cases.append((pathlib.Path("/dev/full"), "No space left on device"))
    for path, reason in cases:
        assert main(argv + ["--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"schema error: $: cannot write {path}: {reason}\n"


@pytest.mark.parametrize(
    "command", [name for name, (_, options) in _COMMANDS.items() if {"--in", "--out"} <= set(options)]
)
def test_cli_out_naming_the_in_file_is_a_schema_error(tmp_path, capsys, command):
    # opening --out would empty the input before the command reads it
    src = tmp_path / "in"
    if command == "report":
        assert main(["eval", "--depth", "1", "--format", "csv", "--out", str(src)]) == 0
    else:
        assert main(["gen", "--depth", "2", "--out", str(src)]) == 0
    before = src.read_bytes()
    (tmp_path / "link").symlink_to(src)
    cases = [(src, src), (src, f"{tmp_path}/./in"), (src, tmp_path / "link"), (tmp_path / "new", tmp_path / "new")]
    for infile, out in cases:
        assert main([command, "--in", str(infile), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"schema error: $: cannot write {out}: it is the --in file\n"
    assert src.read_bytes() == before and not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_cli_unwritable_output_stops_before_the_command_runs(tmp_path, capsys, monkeypatch, command):
    def ran(*args, **kwargs):
        raise AssertionError("the command ran although --out cannot be written")

    monkeypatch.setattr(verify, "run_suite", ran)
    monkeypatch.setattr(runner, "evaluate_instance", ran)
    assert main([command, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"schema error: $: cannot write {tmp_path}: Is a directory\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_a_run_that_fails_leaves_out_empty(tmp_path, capsys):
    # --out is opened before the command runs: a failed run creates it, or
    # truncates what an earlier run wrote there, and writes nothing
    stale, fresh = tmp_path / "stale.json", tmp_path / "fresh.json"
    stale.write_text("an earlier run\n")
    argv = ["testing", "--seed", "1", "--dim", "2", "--depth", "5", "--p", "1.01", "--out"]
    for out in (stale, fresh):
        assert main(argv + [str(out)]) == 3
        assert capsys.readouterr().err == "guard violation: intermediate overflow in fsum\n"
        assert out.read_text() == ""


def test_cli_report_without_in_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["report"])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert "the following arguments are required: --in" in captured.err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("dim, depth, p", [(1, 3, 2.0), (1, 3, 3.0), (2, 2, 3.0), (1, 0, 1.5)])
def test_cli_eval_rows_are_the_reference_sweeps(capsys, fmt, dim, depth, p):
    # eval's one loop gives the rows of the old generated-sweep loop; d1 D0
    # at p 1.5 reaches the grid oracle
    argv = [
        "eval", "--seed", "3", "--instances", "3", "--p", f"{p:g}", "--dim", str(dim),
        "--depth", str(depth), "--restarts", "2", "--format", fmt,
    ]
    assert main(argv) == 0
    text = capsys.readouterr().out
    rows = [ReportRow(**r) for r in json.loads(text)] if fmt == "json" else io.read_rows(_io.StringIO(text))
    want = ref.sweep_rows(3, 3, p, dim, depth, restarts=2)
    assert [replace(r, wall_time_ms=0) for r in rows] == [replace(r, wall_time_ms=0) for r in want]


def test_cli_testing_names_the_root_by_the_empty_path(tmp_path, capsys):
    # the root is cube id 0: its path is "", and no argmax at all is null
    w1 = W["w1"]
    no_lam = Instance(w1.sys, w1.p, w1.sigma, w1.omega, w1.mu, np.zeros(w1.sys.num_cubes))
    for inst, name in ((w1, ""), (no_lam, None)):
        path = tmp_path / "inst.json"
        with open(path, "w") as fp:
            io.write_instance(inst, fp)
        assert main(["testing", "--in", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["argmax_T"] == payload["argmax_Tstar"] == name


def _path_cases():
    for dimension, depth in ((1, 12), (2, 6), (3, 4)):
        for seed in (1, 2, 3):
            inst = generate(GenSpec(seed=seed, dimension=dimension, depth=depth, p=2.0))
            f = random_scale_function(inst.sys, seed, base=inst.mu)
            yield inst, f, random_atom_function(inst.sys, seed)
    deep = adversarial_family("deep-chain", dimension=3, depth=4, p=2.0)[0]
    yield (deep, *deep_chain_profiles(deep.sys))


def test_paths_match_per_cube_path_of():
    # same text and same key order as one path_of walk per cube
    for inst, f, g in _path_cases():
        sys = inst.sys
        got = io.instance_to_dict(inst)["lambda"]
        assert list(got.items()) == list(ref.instance_lambda_map_path_of(inst).items())
        for fam in (build_average_family(inst, sys.root, g), build_ratio_family(inst, sys.root, f)):
            want = ref.family_to_dict_path_of(sys, fam)
            assert json.dumps(io.family_to_dict(sys, fam)) == json.dumps(want)
        assert list(sys.path) == [ref.path_of(sys, ref.cube_at(sys, c)) for c in range(sys.num_cubes)]


# sha256 of the stdout of ``dyadlab gen --seed 3`` and ``dyadlab stopping
# --seed 1 --p 2`` at 4096-atom shapes: every cube name they write is pinned.
GEN_SHA256 = {
    (1, 12): "9b012c30c452a20198ac9df78acff3d8e7defb6f07a408b4a150dfb2d8eb9c90",
    (2, 6): "16862d90a4d1c821884319ea47964900d604e9764fa4e6b1046b03cd36908356",
    (3, 4): "b737ffd7d8b9a1b72349c1a8d23dfcbf7a8a41076dca8c026b59c6151a9d6ccf",
}
STOPPING_SHA256 = {
    (1, 12): "99e612c98710c87262906d6df0f800cd8f25819ac7b60eb6376ec95cfcb34881",
    (3, 4): "0a55bc7bd6998a6bf4cbd9bff4cff9b6cee80450d4caaf71bc92e90651d846a5",
}


def _stdout_sha256(capsys, argv) -> tuple[str, str]:
    assert main(argv) == 0
    text = capsys.readouterr().out
    return text, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("dim,depth", list(GEN_SHA256))
def test_gen_at_4096_atoms_is_pinned_and_reads_back(dim, depth, capsys):
    text, digest = _stdout_sha256(capsys, ["gen", "--seed", "3", "--dim", str(dim), "--depth", str(depth)])
    assert digest == GEN_SHA256[dim, depth]
    got = io.read_instance(_io.StringIO(text))
    want = generate(GenSpec(seed=3, dimension=dim, depth=depth))
    assert got.sys is want.sys and got.p == want.p
    for name in ("sigma", "omega", "mu", "lam"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim,depth", list(STOPPING_SHA256))
def test_stopping_at_4096_atoms_is_pinned(dim, depth, capsys):
    argv = ["stopping", "--seed", "1", "--p", "2", "--dim", str(dim), "--depth", str(depth)]
    assert _stdout_sha256(capsys, argv)[1] == STOPPING_SHA256[dim, depth]


def test_cli_schema_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = _base_doc()
    doc["depth"] = 2
    doc["mu"] = [[1, 1, 1, 1]] * 3
    doc["sigma"] = [1, 1, 1, 1]
    doc["omega"] = [1, 1, 1, 1]
    doc["lambda"] = {"0/7": 1.0}
    path.write_text(json.dumps(doc))
    assert main(["eval", "--in", str(path)]) == 2
    assert "lambda['0/7']" in capsys.readouterr().err


def test_cli_guard_exit_code(capsys):
    assert main(["gen", "--dim", "1", "--depth", "40"]) == 3
    assert "guard" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_fsum_overflow_exits_as_guard_violation(capsys):
    # at p = 1.01 (q = 101) the dual's per-atom terms are finite but their
    # exact sum overflows binary64 inside math.fsum
    argv = ["testing", "--seed", "1", "--dim", "2", "--depth", "5", "--p", "1.01"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "guard violation: intermediate overflow in fsum\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["testing", "normest"])
def test_cli_infinite_payload_exits_as_guard_violation(tmp_path, capsys, command):
    # lambda * 1e300 overflows T and T* to inf, which JSON cannot carry; the
    # norm estimate stops before its payload, since no ascent seed yields a
    # pair although T > 0
    reason = {"testing": "non-finite value in the JSON output", "normest": "no ascent seed yields a pair"}
    base = generate(GenSpec(seed=2, dimension=1, depth=3, p=2.0))
    big = Instance(base.sys, base.p, base.sigma, base.omega, base.mu, base.lam * 1e300)
    path = tmp_path / "big.json"
    with open(path, "w") as fp:
        io.write_instance(big, fp)
    assert main([command, "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"guard violation: {reason[command]}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_json_with_an_infinite_row_exits_as_guard_violation(tmp_path, capsys):
    # sigma * 2**520 overflows T to inf: JSON cannot carry it, CSV writes
    # inf and reads it back
    base = generate(GenSpec(seed=2, dimension=1, depth=3, p=2.0))
    big = Instance(base.sys, base.p, base.sigma * 2.0**520, base.omega, base.mu, base.lam)
    path, table = tmp_path / "big.json", tmp_path / "rows.csv"
    with open(path, "w") as fp:
        io.write_instance(big, fp)
    assert main(["eval", "--in", str(path), "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("guard violation: non-finite value in the JSON output")
    assert main(["eval", "--in", str(path), "--format", "csv", "--out", str(table)]) == 0
    with open(table) as fp:
        assert io.read_rows(fp)[0].T == math.inf


@pytest.mark.parametrize(
    "argv",
    [
        ["testing", "--format", "csv"],
        ["verify", "--in", "/nonexistent"],
        ["report", "--in", "/nonexistent", "--seed", "5", "--depth", "12"],
    ],
)
def test_cli_rejects_options_the_command_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _assert_usage_error(capsys, err, option):
    # the message names the option, not the private function that parsed it
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert f"argument {option}" in captured.err and "Traceback" not in captured.err
    assert "_count" not in captured.err and "_exponent" not in captured.err


@pytest.mark.parametrize("value", ["1", "0.5", "-2", "nan", "inf", "x"])
@pytest.mark.parametrize("command", ["gen", "eval", "testing", "normest", "stopping", "embed-check", "verify"])
def test_cli_exponent_outside_one_to_inf_is_a_usage_error(capsys, command, value):
    # the bound of the instance schema, checked where the option is parsed
    with pytest.raises(SystemExit) as err:
        main([command, "--p", value])
    _assert_usage_error(capsys, err, "--p")


@pytest.mark.parametrize("value", ["-1", "-7", "x", "1.5"])
@pytest.mark.parametrize(
    "command, option",
    [(name, option) for name, (_, options) in _COMMANDS.items()
     for option in ("--instances", "--restarts") if option in options],
)
def test_cli_negative_count_is_a_usage_error(capsys, command, option, value):
    with pytest.raises(SystemExit) as err:
        main([command, option, value])
    _assert_usage_error(capsys, err, option)


@pytest.mark.parametrize("dim", ["4", "0"])
def test_verify_without_instances_rejects_a_bad_dimension(capsys, dim):
    assert main(["verify", "--instances", "0", "--dim", dim]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"guard violation: dimension must be 1, 2 or 3, got {dim}\n"


def test_verify_without_instances_checks_its_own_lattice(capsys):
    # the lattice checks run on the d2 D2 lattice of the header: 21 cubes
    assert main(["verify", "--instances", "0", "--dim", "2", "--depth", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("dyadlab verify seed=1 instances=0 p=2 dim=2 depth=2 ")
    assert lines[1] == "PASS lattice-box-partition: checked=21"
    assert lines[2] == "PASS lattice-chain-property: checked=50"


def test_cli_readme_examples_parse():
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    lines = text.replace("\\\n", " ").splitlines()
    examples = [line.split("#")[0].split()[1:] for line in lines if line.startswith("dyadlab ")]
    assert len(examples) == 9
    for argv in examples:
        build_parser().parse_args(argv)


def test_cli_gen_out_matches_stdout(tmp_path, capsys):
    argv = ["gen", "--seed", "4", "--dim", "2", "--depth", "2", "--p", "3"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "inst.json"
    assert main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == printed


def test_cli_gen_eval_pipeline(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert main(["gen", "--seed", "9", "--depth", "2", "--p", "2", "--out", str(path)]) == 0
    with open(path) as fp:
        inst = io.read_instance(fp)
    assert inst.sys.depth == 2
    assert main(["testing", "--in", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"T", "Tstar", "argmax_T", "argmax_Tstar", "witness_g", "witness_f"}


def test_cli_rows_and_report(tmp_path, capsys):
    rows_path = tmp_path / "rows.csv"
    code = main([
        "eval", "--seed", "2", "--instances", "4", "--depth", "2", "--p", "2",
        "--format", "csv", "--out", str(rows_path),
    ])
    assert code == 0
    with open(rows_path) as fp:
        rows = io.read_rows(fp)
    assert len(rows) == 4
    assert all(r.ratio_upper is None or r.ratio_upper >= 0.5 - 1e-9 for r in rows)
    assert main(["report", "--in", str(rows_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary[0]["rows"] == 4
    assert main(["report", "--in", str(rows_path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("p,depth,rows")


def test_cli_stopping_and_embed_check(tmp_path, capsys):
    assert main(["stopping", "--seed", "3", "--depth", "2", "--p", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"average_family", "ratio_family"}
    assert payload["ratio_family"]["params"]["A"] == 4.0

    assert main(["embed-check", "--seed", "3", "--depth", "2", "--p", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"Cprime", "C_emp", "ratio", "prop2_ratio", "lemma1_violations"}
    assert payload["lemma1_violations"] == 0
    assert payload["C_emp"] >= payload["Cprime"] * (1 - 1e-12)


def test_cli_verify_passes_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    argv = ["verify", "--seed", "1", "--instances", "6", "--depth", "2", "--p", "2"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_failure_details_name_cubes_by_path(monkeypatch):
    # hide the children of the root only, so that its box is no longer the
    # union of its own row and the children's boxes: the detail names it by
    # its path ""
    children = lattice.children
    monkeypatch.setattr(lattice, "children", lambda s, c: children(s, c) if c else [])
    results, ok = verify.run_suite(instances=1, depth=2)
    assert not ok
    failed = [r for r in results if not r.passed]
    assert [(r.name, r.detail) for r in failed] == [
        ("lattice-box-partition", "1/7 failed: box partition broken at cube ''")
    ]


@pytest.mark.parametrize("mutant", ["overlap", "moved-cell"])
def test_box_partition_needs_both_the_union_and_the_count(monkeypatch, mutant):
    # "overlap" adds cell (0, 0) to every box: the root's pieces still cover
    # its box, but two hold that cell, which only the count sees.  "moved-cell"
    # shifts every box one level down, its last level wrapping to level 0:
    # the sizes still add up at the root, but level 1 goes uncovered, which
    # only the union sees.  Either fails the check at the root first.
    s = verify._Suite(1, 1, 2.0, 1, 2, 4, 1e-10)
    sys, box_mask = s.instances[0].sys, lattice.DyadicSystem.box_mask

    def mutated(self, cube):
        mask = box_mask(self, cube)
        if mutant == "overlap":
            mask[0, 0] = True
            return mask
        return np.roll(mask, 1, axis=0)

    monkeypatch.setattr(lattice.DyadicSystem, "box_mask", mutated)
    own = np.zeros((sys.num_levels, sys.num_atoms), dtype=bool)
    own[0] = True
    pieces = [own] + [sys.box_mask(child) for child in lattice.children(sys, sys.root)]
    union = np.array_equal(np.logical_or.reduce(pieces), sys.box_mask(sys.root))
    count = sum(map(np.count_nonzero, pieces)) == np.count_nonzero(sys.box_mask(sys.root))
    assert (union, count) == ((True, False) if mutant == "overlap" else (False, True))
    verify._check_lattice(s)
    result = s.results[0]
    assert result.name == "lattice-box-partition" and not result.passed
    assert result.detail.endswith("/7 failed: box partition broken at cube ''")


def test_verify_builds_each_report_and_ratio_family_once(monkeypatch):
    calls = Counter()

    def counting(name, build):
        def counted(*args, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)
        return counted

    for module in (verify, normest):
        monkeypatch.setattr(module, "testing_report", counting("report", module.testing_report))
    monkeypatch.setattr(verify, "build_ratio_family", counting("family", verify.build_ratio_family))
    results, ok = verify.run_suite(instances=10)
    assert ok
    # a report for each instance, fixture and lambda-scaled instance (2 of
    # the 10 are scaled); a family for each draw and the deep chain
    assert calls == {"report": 10 + 2 + 2, "family": 10 + 1}


def test_verify_stdout_at_4096_atoms_is_the_stored_text(capsys):
    # d3 D4, the stored stdout of a 4096-atom run: every check of verify at
    # a shape far beyond the benchmark's d1 D3
    assert main(["verify", "--dim", "3", "--depth", "4", "--instances", "1"]) == 0
    stored = pathlib.Path(__file__).with_name("verify_d3_D4_stdout.txt").read_text()
    assert capsys.readouterr().out == stored


VERIFY_STDOUT = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "perfbench/reference/verify.json").read_text()
)


@pytest.mark.parametrize(
    "key", [k for k in VERIFY_STDOUT if k.endswith("/4")] + ["1/50"]
)
def test_verify_stdout_is_the_stored_text(key, capsys):
    # the stored stdout of ``dyadlab verify`` at d1 D3 p 2, the benchmark's
    # reference: a change to any checked layer must print these bytes
    seed, instances = key.split("/")
    argv = ["verify", "--seed", seed, "--instances", instances,
            "--p", "2", "--dim", "1", "--depth", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().out == VERIFY_STDOUT[key]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["normest", "embed-check"])
def test_cli_seed_is_taken_mod_2_64(capsys, command):
    # argparse accepts any integer seed; every Philox key reduces it mod 2**64
    outputs = []
    for seed in ("-1", str(2**64 - 1)):
        assert main([command, "--seed", seed, "--depth", "2", "--p", "2.5"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
