import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import c2quadrics
from c2quadrics.cli import main
from c2quadrics.rewrite import RingElement
from conftest import loop_power


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


@pytest.mark.parametrize(
    "space, expr, lines",
    [
        # a free-orbit transfer at eps = 0: tau(iota^a) = (1 + (-1)^a) tau(iota^a y)
        ("quadric:1,1", "t(iota^2)", ["2*t(iota^2*y)"]),
        ("quadric:1,1", "t(iota)", ["0"]),
        ("quadric:3,3", "c^3", ["2*c*y", "# grading: 6  (level e)"]),
        ("quadric:3,3", "iota^2*c*y", ["iota^2*c*y", "# grading: 4 + 2s  (level e)"]),
        # the coefficient symbols: xi, positive powers of e, k and g
        ("quadric:3,3", "xi*cw", ["xi*cw", "# grading: -2 + 2s + w  (level top)"]),
        ("quadric:3,3", "e^2*k", ["2*e^2"]),
        ("quadric:3,3", "k^2", ["2*k"]),
        ("quadric:3,3", "g*cw", ["(-k + 2)*cw"]),
        ("quadric:3,3", "e^-1*k^2", ["2*e^-1*k"]),
        ("quadric:3,3", "2*e*xi", ["0"]),
        ("quadric:3,3", "t(iota^2)*xi", ["2*xi^2"]),
        # y^2 = 0 in the binate model, whose key (0, 0, 0, 2) is t(y)
        ("binate:2,1", "y*y", ["0"]),
        ("binate:2,1", "y^2", ["0"]),
        ("binate:2,1", "t(y^2)", ["0"]),
        ("binate:2,1", "y^3", ["0"]),
        ("binate:2,1", "y^5", ["0"]),
        ("binate:2,1", "iota*y^2", ["0"]),
        ("binate:2,1", "t(y)", ["t(y)", "# grading: 6  (level top)"]),
        # the other models multiply y into a key as before
        ("quadric:3,3", "iota*y^2", ["iota^1*c^2*y", "# grading: 7 + s  (level e)"]),
        ("quadric:1,1", "y^1000000", ["y"]),
    ],
)
def test_reduce_pinned_outputs(capsys, space, expr, lines):
    code, out, _ = run(capsys, "reduce", space, expr)
    assert code == 0
    assert out.splitlines()[: len(lines)] == lines


def test_reduce_parse_error(capsys):
    code, out, err = run(capsys, "reduce", "bu1", "wibble")
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("expr, symbol", [
    ("xi^-1", "xi"), ("k^-1", "k"), ("g^-1", "g"), ("c^-1*y", "c"),
])
def test_non_invertible_symbol_is_one_line(capsys, expr, symbol):
    code, out, err = run(capsys, "reduce", "quadric:3,3", expr)
    assert code == 2
    assert out == ""
    assert err == "parse error: %s is not invertible\n" % symbol


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


@pytest.mark.parametrize("command", ["basis", "diagram"])
def test_negative_window_as_a_separate_argument(capsys, command):
    joined = run(capsys, command, "quadric:3,3", "--window=-2:5,0:3")
    apart = run(capsys, command, "quadric:3,3", "--window", "-2:5,0:3")
    assert joined[0] == 0 and joined[1]
    assert apart == joined


def test_diagram_empty_window(capsys):
    code, out, _ = run(capsys, "diagram", "quadric:3,3", "--window", "30:34,30:34")
    assert code == 0
    assert "*" not in out


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "quadric:3,3")
    assert code == 0
    assert "overall: pass" in out


def test_verify_several_spaces(capsys):
    code, out, _ = run(capsys, "verify", "quadric:3,3", "neq:5,B")
    assert code == 0
    assert "quadric:3,3" in out and "neq:5,B" in out
    assert out.splitlines()[-1] == "overall: pass"


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


@pytest.mark.parametrize("command", ["basis", "diagram"])
def test_nonequivariant_space_is_one_line(capsys, command):
    code, out, err = run(capsys, command, "neq:5,B")
    assert code == 2
    assert err == "use an equivariant space id with `%s`\n" % command
    assert out == ""


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


@pytest.mark.parametrize("space,expr", [
    ("bu1", "z0^-1"),
    ("quadric:3,3", "z0^-5"),
    ("proj:2,1", "z0^-1*cw"),
    ("point", "t(zeta)"),
    ("point", "t(zeta)*cw"),
    ("point", "t(zeta)*z0"),
    # a sum across levels, and level-e monomials outside the model
    ("quadric:3,3", "x+iota"),
    ("point", "t(zeta^-1*y)"),
    ("proj:2,1", "y"),
])
def test_input_outside_the_ring_is_one_line(capsys, space, expr):
    code, out, err = run(capsys, "reduce", space, expr)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("not a class:")
    assert "Traceback" not in out + err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_result_past_the_digit_limit_is_one_line(capsys):
    code, out, err = run(capsys, "reduce", "quadric:3,3", "2^99999")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("result too large to print:")


def _cli_in_subprocess(*argv, timeout=20):
    """``c2quadrics argv`` in a fresh interpreter, which must end in
    ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(Path(c2quadrics.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "c2quadrics", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def _reduce_in_subprocess(space, expr):
    """``reduce space expr`` in a fresh interpreter, which must end in 20 s."""
    return _cli_in_subprocess("reduce", space, "--", expr)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
@pytest.mark.parametrize("expr", ["k^20000000", "g^20000000*cw", "e^-4*k^20000000*x"])
def test_huge_point_powers_answer_at_once(expr):
    # k^j = 2^(j-1) k and g^j = 2^(j-1) g in closed form: no loop over j
    proc = _reduce_in_subprocess("quadric:3,3", expr)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("result too large to print:")


@pytest.mark.parametrize("space, expr, first", [
    ("quadric:3,3", "(x)^100000000", "0"),
    ("quadric:3,3", "(1)^100000000", "1"),
    ("binate:2,1", "(y)^100000000", "0"),
    ("quadric:1,1", "(t(y))^100000000", "t(y)"),
    ("quadric:6,3", "(x)^100000000", "0"),
    ("quadric:6,3", "(cw*x)^100000000", "0"),
])
def test_powers_stop_at_a_fixed_point(space, expr, first):
    # x^2 = 0 in type BB and y^2 = 0 in binate: once x*out == out the power
    # is out, with no further products.  In type DB x^2 = e^2 cw^2 cx x, so
    # the monomial x^N would take N rewrite steps; x powers are multiplied
    # out for that.  t(y) is the unit of the free orbit, raised as (1, N)
    proc = _reduce_in_subprocess(space, expr)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == first


@pytest.mark.parametrize("space, expr, code, first", [
    ("quadric:3,3", "(2)^100000000", 2, None),
    ("quadric:3,3", "(-2)^100000000", 2, None),
    ("quadric:3,3", "(-2*zeta)^100000000", 2, None),
    ("quadric:3,3", "(-1)^100000001", 0, "-1"),
    ("quadric:3,3", "(zeta)^100000000", 0, "zeta^100000000"),
    ("bu1", "(cw)^100000000", 0, "cw^100000000"),
    ("quadric:3,3", "(cw)^300000", 0, "e^599998*z0^-299999*divw"),
    ("quadric:1,1", "(2)^100000000", 2, None),
    ("quadric:1,1", "(-2)^100000001", 2, None),
    ("quadric:1,1", "(2)^10", 0, "1024*t(y)"),
    ("binate:0,0", "(-3)^3", 0, "-27*t(y)"),
])
def test_single_term_powers_answer_at_once(space, expr, code, first):
    # a parenthesised base with one term and an integer coefficient is
    # raised by exponent arithmetic, so its integer power meets the bound
    # on the integer factor of a term
    proc = _reduce_in_subprocess(space, expr)
    assert proc.returncode == code, proc.stderr
    if first is None:
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("parse error:"), proc.stderr
    else:
        assert proc.stdout.splitlines()[0] == first


@pytest.mark.parametrize("expr, code, first", [
    # the integer factor of a power that is 0 is left out, so it meets no bound
    ("(-2*iota^-1*zeta^-1*c)^100000000", 0, "0"),
    ("z1*(-2*iota^-1*zeta^-1*c)^100000000", 0, "0"),
    # x*x = 0, so (1 + x)^N = 1 + N*x at once, and that has no grading
    ("(1+x)^100000000", 2, "inhomogeneous expression: mixed gradings 0 and 2 + 4s"),
])
def test_powers_that_skip_the_loop(expr, code, first):
    proc = _reduce_in_subprocess("quadric:3,3", expr)
    assert proc.returncode == code, proc.stderr
    assert (proc.stdout or proc.stderr).splitlines()[0] == first
    assert proc.stderr.count("\n") == (code != 0)


@pytest.mark.parametrize("expr, code, first", [
    ("t(zeta^-1*(zeta))", 0, "(-k + 2)"),
    ("t((iota)*(iota^-1))", 0, "(-k + 2)"),
    ("(iota)*(iota^-1)*x", 0, "iota^4*c*y"),
    ("(zeta)*(zeta^-1)", 0, "1"),
    ("(zeta)*(zeta^-1) + x", 2, "not a class: cannot add level-e and level-top elements"),
    ("(z0)*z0^-1", 2, "not a class: no rule rewrites z0^-1 in quadric:3,3"),
    ("cw*z1^-1*(z0)", 2, "not a class: no rule rewrites z1^-1*cw in quadric:3,3"),
])
def test_a_raised_base_is_a_factor_of_its_own(capsys, monkeypatch, expr, code, first):
    # the exponents of a base raised by exponent arithmetic do not cancel
    # against the term's other factors: a level-e base keeps the product at
    # level e, and z0^-1 beside (z0) is still not a class, as when x^n is
    # multiplied out
    fast = run(capsys, "reduce", "quadric:3,3", "--", expr)
    assert fast[0] == code
    assert (fast[1] or fast[2]).splitlines()[0] == first
    monkeypatch.setattr(RingElement, "__pow__", loop_power)
    assert run(capsys, "reduce", "quadric:3,3", "--", expr) == fast


def test_a_parenthesised_non_class_stays_an_error(capsys):
    code, out, err = run(capsys, "reduce", "quadric:3,3", "(z0^-1)*z0")
    assert code == 2 and out == ""
    assert err.startswith("not a class:")


def _single_term_bases(sid):
    from c2quadrics.levele import levele_str
    from c2quadrics.rewrite import _sample_monomials, mono_str

    P = c2quadrics.make_space(sid)
    monos = ((0,) * 7,) + _sample_monomials(P)[::4]
    bases = ["%d*%s" % (c, mono_str(m)) for m in monos for c in (1, -2)]
    keys = [(a, b, d, eps) for a in (-1, 2) for b in (-1, 1) for d in (0, 1) for eps in (0, 1)]
    return bases + [levele_str({k: c}) for k in keys for c in (1, -2)]


@pytest.mark.parametrize("sid", ["quadric:3,3", "quadric:4,4", "binate:2,1", "bu1", "point"])
def test_single_term_powers_print_as_repeated_products(capsys, monkeypatch, sid):
    # for N <= 6 the exponent arithmetic of RingElement.__pow__ prints what
    # repeated multiplication prints, byte for byte
    cases = [("(%s)^%d" % (base, n)) for base in _single_term_bases(sid) for n in range(7)]
    fast = [run(capsys, "reduce", sid, "--", expr) for expr in cases]
    monkeypatch.setattr(RingElement, "__pow__", loop_power)
    slow = [run(capsys, "reduce", sid, "--", expr) for expr in cases]
    assert fast == slow
    assert sum(code == 0 for code, _, _ in fast) > len(cases) // 2


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
@pytest.mark.parametrize("expr", ["9" * 5000, "x^" + "9" * 5000, "z0^-" + "9" * 5000])
def test_literals_past_the_digit_limit_are_one_parse_error(expr):
    proc = _reduce_in_subprocess("quadric:3,3", expr)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("parse error:"), proc.stderr


@pytest.mark.parametrize("expr", [
    "2^400000000",
    "k^400000000",
    "g^400000000*cw",
    "2^100000000000",
    "2^111111111111111111111111111111",
    "2^30000000*2^30000000",
    "3^20000000*k^20000000",
])
def test_huge_integer_factors_are_one_parse_error(expr):
    # the bound on the integer factor of a term passes 2^25 bits before the
    # factor is built
    proc = _reduce_in_subprocess("quadric:3,3", expr)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("parse error:"), proc.stderr


# sha256 of the exact output of two commands that run eta and phi through
# every deck, computed before the generator-image products were cached
GOLDEN_OUTPUTS = [
    (
        ("verify", "--all", "--max", "2", "--full"),
        "ce98571dadf711ed254e63d89c7a0f90bebddcd18705f06de5a4b4096b208b4e",
    ),
    (
        ("atlas", "emit", "quadric:3,3", "quadric:4,3", "quadric:3,4", "quadric:4,4", "--audit"),
        "a4ab507a98c341a383e40b0c1fe4f497bb92d225707d73128db769385fe80fd6",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_OUTPUTS)
def test_golden_outputs(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_step_budget_is_one_line(capsys):
    # the divw chain has no closed form: divw^300000 outgrows the budget
    code, out, err = run(capsys, "reduce", "quadric:3,3", "divw^300000")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("rule set at fault: step budget exceeded in quadric:3,3")


def test_a_long_power_chain_answers(capsys):
    # w0_cw lowers cw by the largest power of two at each firing
    code, out, err = run(capsys, "reduce", "quadric:3,3", "cw^300000")
    assert code == 0, err
    assert out.splitlines()[0] == "e^599998*z0^-299999*divw"


@pytest.mark.parametrize("space, expr, first", [
    ("quadric:8000,3", "cw^6800",
     "e^5600*z0^-2800*divw + e^-4*k*z1*cw^2801*x + t(iota^-4)*z1^3*cw^2799*x"),
    ("quadric:20000,3", "z1^3*cw^17343",
     "e^14686*xi^3*z0^-7346*divw + e^-4*k*z1^4*cw^7344*x + t(iota^-4)*z1^6*cw^7342*x"),
])
def test_cw_chains_at_large_p_answer(space, expr, first):
    # these chains ran past the step budget while w0_cw took one step a firing
    proc = _reduce_in_subprocess(space, expr)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == first


def test_verify_full_passes_at_large_p():
    # its homogeneity sampler meets (z1*cw^9011)*(z1^2*cw^8332); the run
    # takes about 5 s, and the timeout leaves room for a slow machine
    proc = _cli_in_subprocess("verify", "quadric:20000,3", "--full", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "overall: pass"


@pytest.mark.parametrize("expr, first", [
    ("cw^100000000", "e^199999998*z0^-99999999*divw"),
    ("cw^1048575", "e^2097148*z0^-1048574*divw"),
    ("(cw)^100000000", "e^199999998*z0^-99999999*divw"),
    ("(xi*cw)^300000", "e^599998*xi^300000*z0^-299999*divw"),
])
def test_chains_whose_mixed_branches_die_answer(expr, first):
    # the first three ran past the step budget while every jump of the cw
    # chain kept its mixed xi branches alive until w0_cx cancelled them; the
    # last one took 300,000 products while only integer coefficients split off
    proc = _reduce_in_subprocess("quadric:3,3", expr)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == first


def test_a_raised_chain_past_the_budget_is_one_line():
    proc = _reduce_in_subprocess("quadric:3,3", "(z0^-1*divw)^300000")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("rule set at fault: step budget exceeded in quadric:3,3")


@pytest.mark.parametrize("expr", ["cw^", "cw*", "(cw", "2*(cw+", "t("])
def test_end_of_input_is_one_line(capsys, expr):
    code, out, err = run(capsys, "reduce", "quadric:3,3", expr)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("parse error: unexpected end of input")


def test_leading_minus_asks_for_double_dash(capsys):
    code, out, err = run(capsys, "reduce", "bu1", "-1*zeta")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "'--'" in err
    code, out, _ = run(capsys, "reduce", "bu1", "--", "-1*zeta")
    assert code == 0
    assert (code, out) == run(capsys, "reduce", "bu1", "(-1)*zeta")[:2]
    # argparse reads a negative integer as the expression, as before
    code, out, _ = run(capsys, "reduce", "bu1", "-1")
    assert code == 0
    assert out.splitlines()[0] == "-1"


@pytest.mark.parametrize("text", [
    None,  # no file
    "",
    "not json",
    '{"schema": "c2quadrics.atlas/1"}',
    '[]',
    '{"schema": "c2quadrics.atlas/1", "spaces": 3}',
    '{"schema": "c2quadrics.atlas/1", "spaces": [{}]}',
    '{"schema": "c2quadrics.atlas/1", "spaces": [{"space": 3}]}',
])
def test_malformed_atlas_is_one_line(tmp_path, capsys, text):
    path = tmp_path / "atlas.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, "atlas", "load", str(path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("atlas rejected: ")


def test_every_emitted_atlas_loads(tmp_path, capsys):
    path = tmp_path / "atlas.json"
    spaces = ("point", "bu1", "proj:2,1", "binate:2,1", "quadric:1,1", "quadric:4,3", "neq:5,B", "neq:4,D")
    code, _, _ = run(capsys, "atlas", "emit", *spaces, "-o", str(path))
    assert code == 0
    code, out, err = run(capsys, "atlas", "load", str(path))
    assert code == 0 and err == ""
    assert out == "atlas with 8 spaces: %s\n" % ", ".join(sorted(spaces))


def _cli_with_stdout(stdout, *argv, buffered):
    """``c2quadrics argv`` in a fresh interpreter that writes its stdout to
    the file descriptor ``stdout``.  Buffered, a short answer reaches it
    only when stdout is flushed."""
    env = dict(os.environ, PYTHONPATH=str(Path(c2quadrics.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "c2quadrics", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=20, env=env,
    )


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [
    ("reduce", "quadric:3,3", "cw*x"),
    ("basis", "quadric:40,41", "--window", "-10:90,-10:90"),
    ("-h",),
    ("reduce", "-h"),
])
def test_closed_stdout_exits_1_in_silence(argv, buffered):
    # a pipe with no reader: every write to it fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_with_stdout(write, *argv, buffered=buffered)
    finally:
        os.close(write)
    assert proc.returncode == 1
    # no traceback, and no "Exception ignored" from the flush at exit
    assert proc.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [
    ("reduce", "quadric:3,3", "cw*x"), ("atlas", "load", "FILE"), ("-h",), ("reduce", "-h"),
])
def test_full_stdout_is_one_line(tmp_path, capsys, argv, buffered):
    # atlas load names a file of its own, and still reads this as stdout's failure
    path = tmp_path / "atlas.json"
    assert run(capsys, "atlas", "emit", "point", "-o", str(path))[0] == 0
    with open("/dev/full", "w") as full:
        proc = _cli_with_stdout(full, *(str(path) if a == "FILE" else a for a in argv), buffered=buffered)
    assert proc.returncode == 1
    assert proc.stderr == "cannot write stdout: No space left on device\n"


@pytest.mark.parametrize("target", ["a directory", "a missing directory", "/dev/full"])
def test_failed_atlas_write_is_one_line(tmp_path, target):
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full")
    path = {"a directory": str(tmp_path), "a missing directory": str(tmp_path / "missing" / "x.json")}.get(target, target)
    proc = _cli_in_subprocess("atlas", "emit", "point", "-o", path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("cannot write %s: " % path), proc.stderr


@pytest.mark.parametrize("argv", [
    ("FILE", "EXTRA"), ("--coset", "5", "FILE"), ("FILE", "--coset", "5"), ("-o", "FILE"),
])
def test_atlas_load_takes_one_file_and_no_other_option(tmp_path, capsys, argv):
    path = tmp_path / "atlas.json"
    assert run(capsys, "atlas", "emit", "point", "-o", str(path))[0] == 0
    names = {"FILE": str(path), "EXTRA": str(tmp_path / "other.json")}
    proc = _cli_in_subprocess("atlas", "load", *(names.get(a, a) for a in argv))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("usage error: "), proc.stderr


@pytest.mark.parametrize("argv, what", [
    (("basis", "quadric:3,3", "--window", "1:2"), "argument --window: window must look like"),
    (("basis", "quadric:3,3", "--coset", "x"), "argument --coset: invalid int value"),
    (("diagram", "quadric:3,3", "--format", "png"), "argument --format: invalid choice"),
    (("basis", "quadric:3,3", "--no-such-option"), "unrecognized arguments: --no-such-option"),
    (("basis", "quadric:3,3", "-x\ny"), "unrecognized arguments: -x y"),
    (("no-such-command",), "argument command: invalid choice"),
    ((), "the following arguments are required: command"),
    # --all lists its own quadrics: --max -1 lists none, and a space id beside it is ignored
    (("verify", "--all", "--max", "-1"), "argument --max: must be at least 0"),
    (("verify", "quadric:3,3", "--all", "--max", "0"), "give space ids or --all, not both"),
    # --max is read only with --all, --seed only with --full
    (("verify", "quadric:1,1", "--max", "5"), "argument --max: only with --all"),
    (("verify", "quadric:1,1", "--seed", "9"), "argument --seed: only with --full"),
])
def test_usage_error_is_one_line(capsys, argv, what):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("usage error: " + what)


@pytest.mark.parametrize("argv", [("-h",), ("basis", "--help")])
def test_help_still_prints_and_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: c2quadrics") and err == ""


def _nested(depth, inner="x"):
    return "(" * depth + inner + ")" * depth


def test_deep_nesting_is_one_line(capsys):
    code, out, _ = run(capsys, "reduce", "quadric:3,3", _nested(200))
    assert code == 0 and out.splitlines()[0] == "x"
    for expr in (_nested(201), _nested(300), "t(" * 300 + "iota" + ")" * 300):
        code, out, err = run(capsys, "reduce", "quadric:3,3", expr)
        assert code == 2
        assert out == ""
        assert err == "parse error: parentheses nested deeper than 200 levels\n"
