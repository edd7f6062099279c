import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mtstab
from mtstab import cli, pool
from mtstab.cli import main, matrix_from_csv, matrix_to_csv
from mtstab.distances import metric_from_string, tree_distance
from mtstab.errors import DuplicateValueError
from mtstab.field import (
    build_domain,
    build_grid_domain,
    dump_field,
    field_from_dict,
    load_field,
    validate_field,
)
from mtstab.mergetree import merge_tree_of
from mtstab.perturb import apply_perturbation, enumerate_minimal_perturbations
from mtstab.stability import CounterexampleFamily, counterexample_fields


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"grid": {"rows": 2, "cols": 2, "values": [0, 3, 1, 2]}}))
    return str(path)


def test_build_tree(grid_file, capsys):
    assert main(["build-tree", grid_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {n["id"] for n in out["abstract"]["nodes"]} <= {0, 1, 2, 3}
    assert out["bdt"]["branches"]


#: A 5x5 field (a) and one minimal perturbation of it (b), drawn by
#: random_grid_field and random_minimal_perturbation from random.Random(1902),
#: with the build-tree and classify outputs recorded for them. In both
#: fields one saddle attaches two branches, so a child_order group holds two.
BDT_PAIR = Path(__file__).parent / "data" / "bdt_pair"


@pytest.mark.parametrize("name", ["a", "b"])
def test_build_tree_prints_the_recorded_dump(name, capsys):
    """The abstract tree, BDT and ordered BDT dumps are byte for byte the
    recorded ones."""
    assert main(["build-tree", str(BDT_PAIR / f"{name}.json")]) == 0
    out = capsys.readouterr().out
    assert out == (BDT_PAIR / f"{name}.build-tree.json").read_text()
    groups = [g for b in json.loads(out)["obdt"]["branches"] for g in b["child_order"]]
    assert max(map(len, groups)) >= 2


def test_classify_prints_the_recorded_evidence(capsys):
    argv = ["classify", "--field-a", str(BDT_PAIR / "a.json"), "--field-b", str(BDT_PAIR / "b.json")]
    assert main(argv) == 0
    assert capsys.readouterr().out == (BDT_PAIR / "classify.json").read_text()


def test_build_tree_duplicate_values_exit_2(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"grid": {"rows": 2, "cols": 2, "values": [0, 1, 1, 2]}}))
    assert main(["build-tree", str(path)]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_build_tree_missing_file_exit_1(capsys):
    assert main(["build-tree", "/nonexistent/nope.json"]) == 1


#: Field files that are valid JSON but no field, each named by its defect.
MALFORMED_FIELDS = {
    "grid-without-cols": {"grid": {"rows": 2}},
    "vertex-without-id": {"vertices": [{"value": 0.0}, {"id": 1, "value": 1.0}],
                          "edges": [[0, 1]]},
    "top-level-list": [0, 1],
    "value-not-a-number": {"vertices": [{"id": 0, "value": "x"}, {"id": 1, "value": 1.0}],
                           "edges": [[0, 1]]},
    "id-not-an-integer": {"vertices": [{"id": 0.9, "value": 0.0}, {"id": 1.2, "value": 1.0}],
                          "edges": [[0, 1]]},
    "edge-end-not-an-integer": {"vertices": [{"id": 0, "value": 0.0}, {"id": 1, "value": 1.0}],
                                "edges": [[0.5, 1.7]]},
    "id-true": {"vertices": [{"id": 0, "value": 0.0}, {"id": True, "value": 1.0}],
                "edges": [[0, 1]]},
    "rows-not-an-integer": {"grid": {"rows": 2.9, "cols": 2, "values": [0, 3, 1, 2]}},
    "value-nan": {"grid": {"rows": 2, "cols": 2, "values": [0, math.nan, 1, 2]}},
    "value-infinity": {"grid": {"rows": 2, "cols": 2, "values": [0, math.inf, 1, 2]}},
    "value-a-string": {"vertices": [{"id": 0, "value": "0.5"}, {"id": 1, "value": 1.0}],
                       "edges": [[0, 1]]},
    "value-true": {"vertices": [{"id": 0, "value": 0.0}, {"id": 1, "value": True}],
                   "edges": [[0, 1]]},
    "grid-value-a-string": {"grid": {"rows": 2, "cols": 2, "values": [0, "1", 3, 2]}},
    "value-401-digits": {"grid": {"rows": 2, "cols": 2, "values": [0, 10**400, 1, 2]}},
}

#: Field files the JSON parser cannot read, as bytes, each named by its defect.
UNREADABLE_FIELDS = {
    "not-utf-8": b'\xff\xfe{"grid": 1}',
    "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000,
    "not-json": b'{"grid": ',
}


@pytest.mark.parametrize(
    "payload",
    [json.dumps(p).encode() for p in MALFORMED_FIELDS.values()] + list(UNREADABLE_FIELDS.values()),
    ids=[*MALFORMED_FIELDS, *UNREADABLE_FIELDS],
)
@pytest.mark.parametrize("command", ["build-tree", "matrix"])
def test_malformed_field_json_exits_2(command, payload, tmp_path, capsys):
    """A field file of the wrong form, or one the JSON parser cannot read,
    is a validation error: one error line and exit 2, from build-tree and
    from matrix alike; matrix names the file."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    if command == "matrix":
        dump_field(validate_field(build_grid_domain(2, 2), [0, 3, 1, 2]), str(tmp_path / "ok.json"))
        argv = ["matrix", str(tmp_path), "--metric", "w"]
    else:
        argv = ["build-tree", str(bad)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if command == "matrix":
        assert captured.err.startswith(f"error: {bad}: ")
    assert not captured.out


def test_matrix_identical_fields(tmp_path, capsys):
    f = validate_field(build_grid_domain(2, 2), [0, 3, 1, 2])
    dump_field(f, str(tmp_path / "a.json"))
    dump_field(f, str(tmp_path / "b.json"))
    out_csv = tmp_path / "m.csv"
    out_json = tmp_path / "m.json"
    rc = main([
        "matrix", str(tmp_path), "--metric", "e",
        "--out-csv", str(out_csv), "--out-json", str(out_json),
    ])
    assert rc == 0
    names, values = matrix_from_csv(out_csv.read_text())
    assert names == ["a.json", "b.json"]
    assert values == [[0.0, 0.0], [0.0, 0.0]]
    payload = json.loads(out_json.read_text())
    assert payload["status"] == [["ok", "ok"], ["ok", "ok"]]


def test_matrix_csv_round_trips_a_member_name_with_a_comma(tmp_path):
    """Names are written and read through the csv module: "a,b.json" comes
    back as one name of a 2x2 matrix, not two."""
    f = validate_field(build_grid_domain(2, 2), [0, 3, 1, 2])
    dump_field(f, str(tmp_path / "a,b.json"))
    dump_field(validate_field(f.domain, [0, 3.5, 1, 2]), str(tmp_path / "c.json"))
    out_csv, out_json = tmp_path / "m.csv", tmp_path / "m.json"
    rc = main(["matrix", str(tmp_path), "--metric", "w",
               "--out-csv", str(out_csv), "--out-json", str(out_json)])
    assert rc == 0
    assert out_csv.read_text().splitlines()[0] == '"a,b.json",c.json'
    names, values = matrix_from_csv(out_csv.read_text())
    payload = json.loads(out_json.read_text())
    assert names == payload["members"] == ["a,b.json", "c.json"]
    assert len(values) == 2 and values[0][0] == values[1][1] == 0.0
    assert values[0][1] == values[1][0] == pytest.approx(payload["values"][0][1], abs=1e-8)


def test_matrix_block_structure(tmp_path):
    base = validate_field(build_grid_domain(2, 3), [0, 5, 1, 2, 6, 3])
    near = validate_field(base.domain, [0, 5.05, 1, 2, 6.02, 3])
    far = validate_field(base.domain, [0, 1.5, 3.2, 0.5, 4.8, 2.1])
    for name, f in (("a_base.json", base), ("b_near.json", near), ("c_far.json", far)):
        dump_field(f, str(tmp_path / name))
    out_csv = tmp_path / "m.csv"
    assert main(["matrix", str(tmp_path), "--metric", "w", "--out-csv", str(out_csv)]) == 0
    _, values = matrix_from_csv(out_csv.read_text())
    assert values[0][1] < values[0][2] and values[0][1] < values[1][2]


def test_matrix_guard_skip_marked(tmp_path):
    f = validate_field(build_grid_domain(3, 3), [0, 5, 1, 7, 2, 8, 3, 6, 4])
    dump_field(f, str(tmp_path / "a.json"))
    dump_field(f, str(tmp_path / "b.json"))
    out_json = tmp_path / "m.json"
    rc = main([
        "matrix", str(tmp_path), "--metric", "e", "--deform-guard", "1",
        "--out-json", str(out_json),
    ])
    assert rc == 3
    payload = json.loads(out_json.read_text())
    assert payload["status"][0][1] == "guard-skipped"


@pytest.mark.parametrize("argv", [
    ["stability-run", "--metrics", "b", "--branch-guard", "-1", "--trials", "3"],
    ["matrix", "{dir}", "--metric", "e", "--deform-guard", "-1"],
])
def test_a_negative_guard_exits_2(argv, tmp_path, capsys):
    """A negative guard is refused before any check runs, with an error
    line naming it, not a run whose every check is guard-skipped."""
    f = validate_field(build_grid_domain(3, 3), [0, 5, 1, 7, 2, 8, 3, 6, 4])
    dump_field(f, str(tmp_path / "a.json"))
    dump_field(f, str(tmp_path / "b.json"))
    assert main([a.format(dir=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: guard ") and "got -1" in captured.err
    assert not captured.out


@pytest.fixture
def ensemble(tmp_path):
    """Five independent 5x5 fields, so the matrix has ten pairs."""
    rng = random.Random(5)
    domain = build_grid_domain(5, 5)
    fields_dir = tmp_path / "fields"
    fields_dir.mkdir()
    for k in range(5):
        values = rng.sample(range(1000), domain.vertex_count)
        dump_field(validate_field(domain, values), str(fields_dir / f"m{k}.json"))
    return fields_dir


def _run_matrix(fields_dir, out_dir, metric, *flags):
    out_dir.mkdir(exist_ok=True)
    rc = main(["matrix", str(fields_dir), "--metric", metric, *flags,
               "--out-json", str(out_dir / f"{metric}.json"),
               "--out-csv", str(out_dir / f"{metric}.csv")])
    return rc, json.loads((out_dir / f"{metric}.json").read_text())


@pytest.mark.parametrize("metric", ["w", "x", "l"])
def test_matrix_pool_values_are_the_direct_distances(ensemble, tmp_path, two_cpus, metric):
    rc, payload = _run_matrix(ensemble, tmp_path / "out", metric)
    assert rc == 0
    trees = [merge_tree_of(load_field(str(ensemble / name))) for name in payload["members"]]
    m = metric_from_string(metric)
    for i in range(len(trees)):
        for j in range(len(trees)):
            expected = 0.0 if i == j else tree_distance(m, trees[min(i, j)], trees[max(i, j)])
            assert float.hex(payload["values"][i][j]) == float.hex(expected)


def test_matrix_pool_writes_the_serial_bytes(ensemble, tmp_path, two_cpus, monkeypatch):
    for metric in ("w", "x", "l"):
        _run_matrix(ensemble, tmp_path / "pool", metric)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    for metric in ("w", "x", "l"):
        _run_matrix(ensemble, tmp_path / "serial", metric)
    for name in sorted(os.listdir(tmp_path / "pool")):
        assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_matrix_guard_skips_through_the_pool(ensemble, tmp_path, two_cpus):
    rc, payload = _run_matrix(ensemble, tmp_path / "out", "e", "--deform-guard", "1")
    assert rc == 3
    n = len(payload["members"])
    for i in range(n):
        for j in range(n):
            assert payload["status"][i][j] == ("ok" if i == j else "guard-skipped")
            assert payload["values"][i][j] == (0.0 if i == j else None)


def test_matrix_s_ignores_the_mapping_guard(ensemble, tmp_path, two_cpus):
    """s runs a DP, so a mapping guard of 2 nodes, below every tree of the
    ensemble, skips no pair; it guards the g search only."""
    rc, payload = _run_matrix(ensemble, tmp_path / "out", "s", "--mapping-guard", "2")
    assert rc == 0
    assert {st for row in payload["status"] for st in row} == {"ok"}


def test_matrix_p_ignores_the_deform_guard(ensemble, tmp_path, two_cpus):
    """p runs the path mapping DP, so a deform guard of 1 edge, below every
    tree of the ensemble, skips no pair; it guards the e enumeration only."""
    rc, payload = _run_matrix(ensemble, tmp_path / "out", "p", "--deform-guard", "1")
    assert rc == 0
    assert {st for row in payload["status"] for st in row} == {"ok"}


def test_matrix_worker_errors_reach_the_caller_with_their_type(
    ensemble, in_child, monkeypatch, capsys
):
    """Fork carries the patched tree_distance into the child, the only
    process where it fails; the error names the child's pid."""
    def failing(metric, t1, t2, guards):
        if in_child():
            raise DuplicateValueError(os.getpid(), 7, 0.5)
        return 0.0

    monkeypatch.setattr(cli, "tree_distance", failing)
    args = cli.build_parser().parse_args(["matrix", str(ensemble), "--metric", "w"])
    with pytest.raises(DuplicateValueError) as caught:
        cli.cmd_matrix(args)
    err = caught.value
    assert err.vertex_a != os.getpid()
    assert (err.vertex_b, err.value) == (7, 0.5)
    assert pool._job is None
    in_child.started.clear()
    assert main(["matrix", str(ensemble), "--metric", "w"]) == 2
    assert "duplicate scalar value 0.5" in capsys.readouterr().err


def test_matrix_member_errors_reach_the_caller_with_their_type(
    ensemble, in_child, monkeypatch, capsys
):
    """The members load on the pool too: a load that fails in the child
    with an OSError raises it in the caller, and main exits 1."""
    real_load_field = cli.load_field

    def failing(path):
        if in_child():
            raise OSError(f"cannot read {path} in {os.getpid()}")
        return real_load_field(path)

    monkeypatch.setattr(cli, "load_field", failing)
    args = cli.build_parser().parse_args(["matrix", str(ensemble), "--metric", "w"])
    with pytest.raises(OSError) as caught:
        cli.cmd_matrix(args)
    assert type(caught.value) is OSError
    assert f"in {os.getpid()}" not in str(caught.value)
    assert pool._job is None
    in_child.started.clear()
    assert main(["matrix", str(ensemble), "--metric", "w"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read ") and not captured.out
    assert pool._job is None


@pytest.mark.parametrize("cpus", ["one_cpu", "two_cpus"])
def test_matrix_lists_every_bad_member_with_its_path(cpus, request, tmp_path, capsys):
    """A file that is no field and a field whose tree breaks the abstract
    invariants (a path whose minimum lies inside, so the root has two
    children) each give one error line with the path, in file order."""
    request.getfixturevalue(cpus)
    good = validate_field(build_grid_domain(2, 2), [0, 3, 1, 2])
    dump_field(good, str(tmp_path / "a_good.json"))
    (tmp_path / "b_malformed.json").write_text(json.dumps({"grid": {"rows": 2}}))
    path_field = validate_field(build_domain(3, [(0, 1), (1, 2)]), [1.0, 0.0, 2.0])
    dump_field(path_field, str(tmp_path / "c_path.json"))
    dump_field(good, str(tmp_path / "d_good.json"))
    assert main(["matrix", str(tmp_path), "--metric", "w"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert [line.split(": ")[1] for line in lines] == [
        str(tmp_path / "b_malformed.json"), str(tmp_path / "c_path.json")
    ]
    assert all(line.startswith("error: ") for line in lines)
    assert "root has 2 children" in lines[1]
    assert not captured.out


def test_matrix_overflow_prints_one_error_line_and_no_warning(tmp_path):
    """Two 3x3 fields of values in +-8e307, whose l distance overflows to
    inf in the solver's sum: `mtstab matrix --metric l` prints one error
    line naming the metric and exits 2; numpy's overflow warning, which
    the sum used to print first, does not appear."""
    rng = random.Random(1)
    dom = build_grid_domain(3, 3)
    for name in "ab":
        values = [rng.uniform(-8e307, 8e307) for _ in range(9)]
        dump_field(validate_field(dom, values), str(tmp_path / f"{name}.json"))
    src = os.path.dirname(os.path.dirname(mtstab.__file__))
    run = subprocess.run([sys.executable, "-m", "mtstab.cli", "matrix", str(tmp_path), "--metric", "l"],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 2
    assert run.stderr.splitlines() == ["error: delta_l overflows a float: inf"]


#: `mtstab matrix --out-json` for w, x and l on golden_ensemble, recorded
#: before _assignment_min built its small blocks from lists.
MATRIX_GOLDEN = Path(__file__).parent / "data" / "matrix_golden.json"


def golden_ensemble(fields_dir):
    """Four 15x15 members: one white-noise base plus independent noise of
    at most 0.002 each, as the members of an ensemble."""
    base_rng, rng = random.Random(1818), random.Random(1819)
    domain = build_grid_domain(15, 15)
    base = [base_rng.random() for _ in range(domain.vertex_count)]
    for k in range(4):
        values = [b + rng.uniform(-0.002, 0.002) for b in base]
        dump_field(validate_field(domain, values), str(fields_dir / f"m{k}.json"))


@pytest.mark.parametrize("metric", ["w", "x", "l"])
def test_matrix_values_are_the_recorded_bits(tmp_path, metric):
    """`mtstab matrix` in a fresh process, plainly (small blocks solved in
    Python) and after `import numpy` (every block on the compiled solver),
    writes the same bytes, and they hold the recorded values."""
    fields_dir = tmp_path / "fields"
    fields_dir.mkdir()
    golden_ensemble(fields_dir)
    src = os.path.dirname(os.path.dirname(mtstab.__file__))
    written = []
    for prior in ("", "import numpy; "):
        out = tmp_path / f"{metric}{len(written)}.json"
        code = (f"{prior}import sys; from mtstab.cli import main; "
                f"sys.exit(main(['matrix', sys.argv[1], '--metric', '{metric}', '--out-json', sys.argv[2]]))")
        subprocess.run([sys.executable, "-c", code, str(fields_dir), str(out)], check=True,
                       capture_output=True, env={**os.environ, "PYTHONPATH": src})
        written.append(out.read_bytes())
    assert written[0] == written[1]
    payload, want = json.loads(written[0]), json.loads(MATRIX_GOLDEN.read_text())[metric]
    assert payload == want
    hexes = lambda p: [[float.hex(v) for v in row] for row in p["values"]]
    assert hexes(payload) == hexes(want)


def test_matrix_csv_round_trip():
    names = ["x", "y"]
    values = [[0.0, 1.23456789], [1.23456789, 0.0]]
    names2, values2 = matrix_from_csv(matrix_to_csv(names, values))
    assert names2 == names
    for r1, r2 in zip(values, values2):
        for a, b in zip(r1, r2):
            assert abs(a - b) < 1e-8


def test_classify_fig_instances(tmp_path, capsys):
    for fam, expected in (
        (CounterexampleFamily.EDGE_SPLIT_FIG7, "EdgeSplit"),
        (CounterexampleFamily.VERTICAL_FIG10, "VerticalSwap"),
    ):
        f, f2 = counterexample_fields(fam, 10.0, 0.1)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_field(f, str(a))
        dump_field(f2, str(b))
        assert main(["classify", "--field-a", str(a), "--field-b", str(b)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["class"] == expected


def test_classify_same_file_simple_change(grid_file, capsys):
    assert main(["classify", "--field-a", grid_file, "--field-b", grid_file]) == 0
    assert json.loads(capsys.readouterr().out)["class"] == "SimpleChange"


def test_perturb_command(grid_file, capsys):
    assert main(["perturb", "--field", grid_file, "--vertex", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(entry["vertex"] == 1 for entry in out)
    assert all(set(entry) == {"vertex", "old_value", "new_value", "swap_partner", "direction",
                              "extent"} for entry in out)


def test_perturb_between_adjacent_floats_exits_2(tmp_path, capsys):
    """A vertex whose rank neighbor holds the adjacent float has no minimal
    move: exit 2 with an error line naming the vertex, not a traceback."""
    path = tmp_path / "adjacent.json"
    path.write_text(json.dumps({
        "vertices": [{"id": 0, "value": 1.0}, {"id": 1, "value": math.nextafter(1.0, 2.0)},
                     {"id": 2, "value": 2.0}],
        "edges": [[0, 1], [1, 2]],
    }))
    for vertex, named in (("0", "vertex 0 cannot move up"), ("1", "vertex 1 cannot move down")):
        assert main(["perturb", "--field", str(path), "--vertex", vertex]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out
        assert named in captured.err


@pytest.mark.parametrize("argv", [
    ["matrix", "{dir}", "--metric", "z"],
    ["stability-run", "--metrics", "e,z"],
    ["perturb", "--field", "{field}", "--vertex", "99"],
    ["perturb", "--field", "{field}", "--vertex", "-1"],
    ["perturb", "--field", "{field}", "--vertex", "1", "--apply", "7"],
    ["perturb", "--field", "{field}", "--vertex", "1", "--apply", "-1"],
    ["stability-run", "--mode", "finite", "--eps", "-0.05"],
    ["stability-run", "--trials", "-3"],
    ["stability-run", "--mode", "finite", "--trials", "-3"],
    # 2 * eps overflows, so every jittered value would be infinite
    ["stability-run", "--mode", "finite", "--eps", "1e308", "--trials", "1", "--grid", "2"],
])
def test_bad_arguments_exit_2(argv, grid_file, capsys):
    """Validation errors exit 2 with an error line, not a traceback, and an
    out-of-range candidate index is never applied."""
    argv = [a.format(dir=os.path.dirname(grid_file), field=grid_file) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_perturb_apply_writes_the_perturbed_field(to_file, grid_file, tmp_path, capsys):
    """--apply i writes the field the i-th candidate leaves, as JSON on
    stdout or, with --out, to that file and nothing on stdout."""
    f = load_field(grid_file)
    want = apply_perturbation(f, enumerate_minimal_perturbations(f, 1)[0])
    argv = ["perturb", "--field", grid_file, "--vertex", "1", "--apply", "0"]
    out = tmp_path / "applied.json"
    if to_file:
        argv += ["--out", str(out)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    if to_file:
        assert not captured.out
        got = load_field(str(out))
    else:
        got = field_from_dict(json.loads(captured.out))
    assert got.values == want.values and got.domain.edges == want.domain.edges


@pytest.mark.parametrize("source", ["grid", "bdt_pair_a"])
def test_perturb_apply_prints_the_bytes_it_writes_with_out(source, grid_file, tmp_path, capsys):
    """Without --out, --apply prints exactly the bytes that --out writes."""
    path = grid_file if source == "grid" else str(BDT_PAIR / "a.json")
    argv = ["perturb", "--field", path, "--vertex", "1", "--apply", "0"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "applied.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert printed.encode("utf-8") == out.read_bytes()


@pytest.mark.parametrize("members", [0, 1])
def test_matrix_on_fewer_than_two_fields_exits_1(members, tmp_path, capsys):
    for i in range(members):
        dump_field(validate_field(build_grid_domain(2, 2), [0, 3, 1, 2]), str(tmp_path / f"{i}.json"))
    assert main(["matrix", str(tmp_path), "--metric", "w"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: need at least 2 field files in {tmp_path}\n"
    assert not captured.out


def test_counterexample_command(capsys):
    assert main(["counterexample", "--family", "fig8", "--x", "10", "--eps", "0.1",
                 "--fields"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["family"] == "fig8"
    assert len(out["tree_a"]["nodes"]) == 6
    assert "field_a" in out


def test_counterexample_family_choices_are_the_enum_values(capsys):
    """--family offers every CounterexampleFamily value, and only those."""
    parser = cli.build_parser()
    for family in CounterexampleFamily:
        assert parser.parse_args(["counterexample", "--family", family.value]).family == family.value
    with pytest.raises(SystemExit):
        parser.parse_args(["counterexample", "--family", "fig9"])
    capsys.readouterr()


def test_stability_run_smoke(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main([
        "stability-run", "--seed", "5", "--trials", "8", "--grid", "3",
        "--metrics", "e,l", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["trials"] == 8 and "cells" in payload


def test_stability_run_on_a_10x10_grid(tmp_path):
    """Trees of more than 64 combined nodes: the classifier has no size
    guard, so the run finishes instead of exiting 3."""
    out = tmp_path / "report.json"
    rc = main([
        "stability-run", "--grid", "10", "--seed", "0", "--trials", "3",
        "--metrics", "l,w", "--out", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text())["trials"] == 3


def test_stability_run_finite_smoke(tmp_path):
    out = tmp_path / "report.json"
    rc = main([
        "stability-run", "--seed", "5", "--trials", "5", "--grid", "3",
        "--metrics", "e,w", "--eps", "0.05", "--mode", "finite", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["eps"] == 0.05


@pytest.mark.parametrize("metric", ["s", "b"])
def test_stability_run_finite_refuses_metrics_without_a_bound(metric, tmp_path, capsys):
    """Finite mode has no bound for s and b: exit 2 with one error line
    that names the supported metrics, before any trial runs."""
    out = tmp_path / "report.json"
    rc = main([
        "stability-run", "--trials", "2", "--grid", "3", "--metrics", f"e,{metric}",
        "--mode", "finite", "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "supported metrics: e p g l w x" in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["minimal", "finite"])
def test_stability_run_refuses_a_repeated_metric(mode, tmp_path, capsys):
    """A metric named twice would count each of its trials twice: exit 2
    with one error line that names it, before any trial runs."""
    out = tmp_path / "report.json"
    rc = main([
        "stability-run", "--seed", "1", "--trials", "3", "--grid", "3",
        "--metrics", "w,l,w", "--mode", mode, "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "metric w " in err
    assert not out.exists()


def test_import_cli_loads_neither_numpy_nor_scipy():
    """numpy and the compiled assignment solver are loaded only by a block
    or node pair that needs arrays, and the pool's modules when it starts,
    so every command that needs neither starts without paying for them
    (test_small_solves_import_neither_numpy_nor_scipy). scipy.optimize is
    not imported even then (test_large_solves_load_only_the_solver_module)."""
    src = os.path.dirname(os.path.dirname(mtstab.__file__))
    lazy = "{'numpy', 'scipy', 'multiprocessing', 'concurrent.futures'}"
    code = f"import sys, mtstab.cli; print(sorted({lazy} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
