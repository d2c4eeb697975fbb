import json

import pytest

from c2quadrics.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reduce_x_squared(capsys):
    code, out, _ = run(capsys, "reduce", "quadric:3,3", "x*x")
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_reduce_unit(capsys):
    code, out, _ = run(capsys, "reduce", "quadric:2,2", "(1 - e^-2*k*x)^2")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_reduce_trivial(capsys):
    code, out, _ = run(capsys, "reduce", "bu1", "1")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_reduce_parse_error(capsys):
    code, out, err = run(capsys, "reduce", "bu1", "wibble")
    assert code == 2
    assert "parse error" in err


def test_basis_counts(capsys):
    code, out, _ = run(capsys, "basis", "quadric:11,7", "--coset", "0")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 17
    assert sum(1 for l in lines if "C2/e" in l) == 1
    code, out, _ = run(capsys, "basis", "quadric:15,7", "--coset", "0")
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 21
    code, out, _ = run(capsys, "basis", "quadric:1,1", "--coset", "0")
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1 and "C2/e" in lines[0]


def test_diagram_matches_basis(capsys):
    code, out, _ = run(capsys, "diagram", "quadric:11,7", "--window=-2:40,-2:40")
    assert code == 0
    assert out.count("*") == 16
    assert out.count("o") == 1
    code, svg, _ = run(
        capsys, "diagram", "quadric:15,7", "--format", "svg", "--window=-2:40,-2:40"
    )
    assert svg.count('fill="#000"') == 20
    assert svg.count('fill="#fff"') == 1
    assert "stroke-dasharray" in svg


def test_diagram_empty_window(capsys):
    code, out, _ = run(capsys, "diagram", "quadric:3,3", "--window", "30:34,30:34")
    assert code == 0
    assert "*" not in out


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "quadric:3,3")
    assert code == 0
    assert "overall: pass" in out


def test_verify_noneq_idempotents(capsys):
    code, out, _ = run(capsys, "verify", "neq:2,D")
    assert code == 0


def test_atlas_emit_and_load(tmp_path, capsys):
    path = tmp_path / "atlas.json"
    code, out, _ = run(
        capsys, "atlas", "emit", "quadric:3,3", "proj:1,1", "-o", str(path)
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema"].startswith("c2quadrics.atlas/")
    code, out, _ = run(capsys, "atlas", "load", str(path))
    assert code == 0 and "2 spaces" in out
    # corrupt the schema: load must fail loudly
    doc["schema"] = "other/9"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "atlas", "load", str(path))
    assert code == 1 and "rejected" in err


@pytest.mark.parametrize("command", ["basis", "diagram"])
def test_reversed_window_is_one_line(capsys, command):
    code, out, err = run(capsys, command, "quadric:3,3", "--window", "5:1,0:1")
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("invalid window:")
    assert "Traceback" not in out + err


@pytest.mark.parametrize("argv", [
    ("basis", "quadric:3,x"),
    ("reduce", "quadric:3,x", "1"),
    ("verify", "neq:4"),
])
def test_bad_space_id_is_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("invalid space:")
    assert "Traceback" not in out + err


@pytest.mark.filterwarnings("default::c2quadrics.catalog.RestrictedGradingWarning")
def test_restricted_grading_warning_is_one_line(capsys):
    code, out, err = run(capsys, "reduce", "quadric:0,2", "1")
    assert code == 0
    assert out.splitlines()[0] == "1"
    assert err.count("\n") == 1
    assert err.startswith("warning: grading restricted:")
