"""The comparison step of tools/same_outputs.py, on canned output directories."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def same_outputs():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(TOOLS))  # the tool imports bench_pairs beside it
        spec = importlib.util.spec_from_file_location("olala_same_outputs", TOOLS / "same_outputs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def _tree(root, files):
    for path, data in files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_bytes(data)
    return root


PATHS = ["olala/rounds.csv", "olala/model.bin", "checks_seed0/checks.json"]
SAME = {"olala/rounds.csv": b"t,accuracy\n0,0.5\n", "olala/model.bin": b"OLMD\x00\x01",
        "checks_seed0/checks.json": b"{}\n"}


def test_equal_trees_pass_with_one_line_per_file(same_outputs, tmp_path):
    parent, change = _tree(tmp_path / "p", SAME), _tree(tmp_path / "c", SAME)
    lines, first = same_outputs.compare(parent, change, PATHS)
    assert lines == [f"{path}: equal" for path in PATHS]
    assert first is None


def test_the_first_file_that_differs_is_named(same_outputs, tmp_path):
    parent = _tree(tmp_path / "p", SAME)
    change = _tree(tmp_path / "c", {**SAME, "olala/model.bin": b"OLMD\x00\x02",
                                    "checks_seed0/checks.json": b"{ }\n"})
    lines, first = same_outputs.compare(parent, change, PATHS)
    assert lines == ["olala/rounds.csv: equal", "olala/model.bin: differs",
                     "checks_seed0/checks.json: differs"]
    assert first == "olala/model.bin"


def test_a_file_missing_on_either_side_is_not_equal(same_outputs, tmp_path):
    # A failed run leaves no files, on one side or on both.
    parent = _tree(tmp_path / "p", {"olala/rounds.csv": SAME["olala/rounds.csv"]})
    change = _tree(tmp_path / "c", {"olala/model.bin": SAME["olala/model.bin"]})
    lines, first = same_outputs.compare(parent, change, PATHS)
    assert lines == ["olala/rounds.csv: missing on change", "olala/model.bin: missing on parent",
                     "checks_seed0/checks.json: missing on parent and change"]
    assert first == "olala/rounds.csv"


def test_every_case_is_compared_on_its_own_files(same_outputs):
    paths = same_outputs.outputs()
    quantizers = ("none", "fixed_identity", "fixed_hex", "fixed_a2", "fixed_d2",
                  "static_global", "static_per_user", "olala")
    for case in quantizers + ("olala_L4_U1", "olala_parallel2"):
        assert [p for p in paths if p.startswith(f"{case}/")] == [
            f"{case}/{name}" for name in ("rounds.csv", "lattices.jsonl", "model.bin")
        ]
    assert [p for p in paths if p.endswith("checks.json")] == [
        f"checks_seed{s}/checks.json" for s in range(5)
    ]


@pytest.mark.parametrize("differs", [None, "checks_seed3/checks.json"])
def test_the_exit_status_says_whether_every_file_is_equal(same_outputs, monkeypatch, capsys,
                                                          differs):
    def run_case(root, case, out):
        for path in same_outputs.outputs():
            if path.startswith(f"{case}/"):
                changed = root == same_outputs.ROOT and path == differs
                _tree(out.parent, {path: b"2" if changed else b"1"})

    monkeypatch.setattr(same_outputs, "parent_tree", lambda rev, dest: dest.mkdir())
    monkeypatch.setattr(same_outputs, "run_case", run_case)
    status = same_outputs.main(["--parent", "HEAD"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(same_outputs.outputs()) + (differs is not None)
    if differs is None:
        assert status == 0 and all(line.endswith(": equal") for line in lines)
    else:
        assert status == 1
        assert f"{differs}: differs" in lines
        assert lines[-1] == f"first file that differs: {differs}"


DECLARED = {"olala/model.bin"}


def test_declared_files_that_differ_pass_and_are_marked(same_outputs, tmp_path):
    parent = _tree(tmp_path / "p", SAME)
    change = _tree(tmp_path / "c", {**SAME, "olala/model.bin": b"OLMD\x00\x02"})
    lines, first = same_outputs.compare(parent, change, PATHS, DECLARED)
    assert lines == ["olala/rounds.csv: equal", "olala/model.bin: differs (declared)",
                     "checks_seed0/checks.json: equal"]
    assert first is None


def test_a_declared_file_that_is_equal_fails(same_outputs, tmp_path):
    parent, change = _tree(tmp_path / "p", SAME), _tree(tmp_path / "c", SAME)
    lines, first = same_outputs.compare(parent, change, PATHS, DECLARED)
    assert lines[1] == "olala/model.bin: equal (declared)"
    assert first == "olala/model.bin"


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_declared_file_missing_on_a_side_fails(same_outputs, tmp_path, side):
    short = {k: v for k, v in SAME.items() if k != "olala/model.bin"}
    trees = {"parent": SAME, "change": {**SAME, "olala/model.bin": b"OLMD\x00\x02"}}
    trees[side] = short
    parent, change = _tree(tmp_path / "p", trees["parent"]), _tree(tmp_path / "c", trees["change"])
    lines, first = same_outputs.compare(parent, change, PATHS, DECLARED)
    assert lines[1] == f"olala/model.bin: missing on {side} (declared)"
    assert first == "olala/model.bin"


def test_an_undeclared_file_that_differs_still_fails(same_outputs, tmp_path):
    parent = _tree(tmp_path / "p", SAME)
    change = _tree(tmp_path / "c", {**SAME, "olala/model.bin": b"OLMD\x00\x02",
                                    "checks_seed0/checks.json": b"{ }\n"})
    lines, first = same_outputs.compare(parent, change, PATHS, DECLARED)
    assert lines[2] == "checks_seed0/checks.json: differs"
    assert first == "checks_seed0/checks.json"


@pytest.mark.parametrize("changed, status, last", [
    ({"fixed_a2/model.bin", "checks_seed3/checks.json"}, 0, None),
    ({"fixed_a2/model.bin"}, 1,
     "first declared file that does not differ: checks_seed3/checks.json"),
    ({"fixed_a2/model.bin", "checks_seed3/checks.json", "olala/model.bin"}, 1,
     "first file that differs: olala/model.bin"),
])
def test_the_exit_status_says_whether_exactly_the_declared_files_differ(
    same_outputs, monkeypatch, capsys, changed, status, last
):
    declared = ["fixed_a2/model.bin", "checks_seed3/checks.json"]

    def run_case(root, case, out):
        for path in same_outputs.outputs():
            if path.startswith(f"{case}/"):
                _tree(out.parent, {path: b"2" if root == same_outputs.ROOT and path in changed
                                   else b"1"})

    monkeypatch.setattr(same_outputs, "parent_tree", lambda rev, dest: dest.mkdir())
    monkeypatch.setattr(same_outputs, "run_case", run_case)
    got = same_outputs.main(["--parent", "HEAD", "--declared", *declared])
    lines = capsys.readouterr().out.splitlines()
    assert got == status
    assert [line for line in lines if line.endswith("(declared)")] == [
        f"{path}: {'differs' if path in changed else 'equal'} (declared)"
        for path in same_outputs.outputs() if path in declared
    ]
    assert (lines[-1] if status else None) == last


def test_a_declared_path_that_is_no_output_is_refused(same_outputs, capsys):
    with pytest.raises(SystemExit) as exc:
        same_outputs.main(["--parent", "HEAD", "--declared", "olala/rounds.tsv"])
    assert exc.value.code == 2
    assert "not an output path: olala/rounds.tsv" in capsys.readouterr().err
