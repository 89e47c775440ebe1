import contextlib
import json
import os
import re
import shlex
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from quadloci import cli, grr, loci, moduli, verify
from quadloci.algebra import Polynomial, QQ, sym
from quadloci.grr import rf
from quadloci.cli import (
    ClassSyntaxError,
    UnknownSymbol,
    main,
    parse_class,
    poly_document,
)

X = Polynomial.variable


# -- expression parser --------------------------------------------------------

def test_parse_linear_class():
    p = parse_class("2*c1F - 4*c1E")
    assert p == 2 * X(sym("c1F")) - 4 * X(sym("c1E"))


def test_parse_rational_coefficient_and_power():
    p = parse_class("2/3*lambda^2")
    assert p == QQ(2, 3) * X(sym("lambda")) ** 2


def test_parse_roundtrip_on_canonical_prints():
    # the grammar reads back what a Polynomial prints
    for text in (
        "-4*c1E + 2*c1F",
        "2/3*lambda^2",
        "a1^2 + a1*a2 - 2*a2^2",
        "xi^3 - a1",
        "-a1^2 + a2",
    ):
        assert str(parse_class(text)) == text


def test_parse_syntax_error_position():
    with pytest.raises(ClassSyntaxError) as err:
        parse_class("2*c1F +")
    assert err.value.position == 7
    assert str(err.value) == "unexpected end of expression (at position 7)"
    with pytest.raises(ClassSyntaxError):
        parse_class("a1 a2")  # no implicit multiplication
    with pytest.raises(ClassSyntaxError):
        parse_class("a1^(2)")  # exponents are integer literals


def test_parse_unknown_symbol():
    with pytest.raises(UnknownSymbol) as err:
        parse_class("a1 + frobnicator + 1")
    assert isinstance(err.value, ClassSyntaxError) and err.value.position == 5
    assert str(err.value) == "unknown symbol 'frobnicator' (at position 5)"


def test_parse_unary_minus_binds_looser_than_power():
    # -a1^2 is -(a1^2), as in Python and as a Polynomial prints it
    a1, a2, a3 = (X(cli.resolve_symbol(n)) for n in ("a1", "a2", "a3"))
    assert parse_class("-a1^2") == -(a1 ** 2)
    assert parse_class("(-a1)^2") == a1 ** 2
    assert parse_class("-a1^3") == -(a1 ** 3)
    assert parse_class("-2^2") == Polynomial.const(-4)
    assert parse_class("--a1^2") == a1 ** 2
    assert parse_class("a2 * -a1^2") == -(a2 * a1 ** 2)
    assert parse_class("(a1 - a2)^3 + a3") == (a1 - a2) ** 3 + a3
    assert parse_class("a1 - a2 - a3") == a1 - a2 - a3
    assert parse_class("-" * 3001 + "a1") == -a1


# names of each kind `resolve_symbol` knows, and small rational coefficients
_ROUNDTRIP_NAMES = ("a1", "a2", "a3", "b1", "b2", "g1", "g2", "xi", "g", "ell",
                    "i", "lambda", "delta0", "c1E", "c2F")
_monomials = st.lists(st.tuples(st.sampled_from(_ROUNDTRIP_NAMES), st.integers(1, 3)),
                      max_size=3)
_coefficients = st.one_of(st.sampled_from([1, -1]), st.fractions(
    min_value=-9, max_value=9, max_denominator=7).filter(bool))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_coefficients, _monomials), max_size=5))
@example([(-1, [("a1", 2)]), (1, [("a2", 1)])])  # -a1^2 + a2
def test_parse_reads_back_every_printed_polynomial(terms):
    p = Polynomial.zero()
    for c, mono in terms:
        term = Polynomial.const(c)
        for name, e in mono:
            term = term * X(cli.resolve_symbol(name)) ** e
        p = p + term
    assert parse_class(str(p)) == p


# fragments of the grammar, characters outside it, a zero denominator, and
# runs of minus signs and parentheses around the nesting bound
_fragments = st.sampled_from([
    "a1", "b2", "xi", "g", "lambda", "frob", " 2 ", " 3/4 ", "1/0", "/0", " ",
    "+", "-", "*", "^", "^2", "(", ")", "²", "٣", "é", "b١", "\t",
])
_minus_runs = st.integers(0, 3000).map(lambda n: "-" * n + "a1")
_nested = st.integers(95, 105).map(lambda n: "(" * n + "a1" + ")" * n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.lists(_fragments, max_size=24).map("".join), _minus_runs, _nested,
                 st.tuples(_nested, _fragments).map("".join)))
def test_parse_raises_only_class_syntax_errors(text):
    try:
        parse_class(text)
    except ClassSyntaxError:
        pass


@pytest.mark.parametrize("text, message", [
    ("1/0", "zero denominator (at position 0)"),
    ("²", "unexpected character '²' (at position 0)"),
    ("a1^²", "unexpected character '²' (at position 3)"),
    ("a²", "unexpected character '²' (at position 1)"),
    ("b١", "unexpected character '١' (at position 1)"),
    ("(" * 400 + "a1" + ")" * 400, "parentheses nested deeper than 100 (at position 100)"),
    ("1" * 5000, "number too long (at position 0)"),
], ids=["zero-denominator", "superscript", "superscript-exponent",
        "superscript-name", "arabic-indic-digit", "deep-parentheses", "long-number"])
def test_projectivize_malformed_class_exits_two(capsys, text, message):
    # each once ended in a traceback or was read as another class
    weights = str(Path(__file__).parents[1] / "perfbench" / "data" / "weights_a.json")
    code, out, err = _outcome(capsys, ["class", "projectivize", "--class=" + text,
                                       "--weights", weights])
    assert (code, out) == (2, "")
    assert err == "error: %s\n" % message


def test_projectivize_reads_a_long_minus_run(capsys):
    # 3000 minus signs negate a1 an even number of times, without recursion
    weights = str(Path(__file__).parents[1] / "perfbench" / "data" / "weights_a.json")
    runs = [_outcome(capsys, ["class", "projectivize", "--class=" + text,
                              "--weights", weights])
            for text in ("-" * 3000 + "a1", "a1")]
    assert runs[0][0] == 0 and runs[0][2] == ""
    assert json.loads(runs[0][1])["coefficients"] == json.loads(runs[1][1])["coefficients"]


@pytest.mark.parametrize("text, message", [
    ("a1^40000", "power 40000 of a nonconstant polynomial passes 32767"),
    ("(a1 + a2)^40000", "power 40000 of a nonconstant polynomial passes 32767"),
    ("a1^20000 * a1^20000", "a product has an exponent past 32767"),
], ids=["power", "power-of-a-sum", "product"])
def test_projectivize_refuses_an_exponent_past_its_slot(capsys, text, message):
    # a1^40000 once ran for minutes; an exponent has 15 bits of its slot
    weights = str(Path(__file__).parents[1] / "perfbench" / "data" / "weights_a.json")
    code, out, err = _outcome(capsys, ["class", "projectivize", "--class", text,
                                       "--weights", weights])
    assert (code, out) == (2, "")
    assert err == "error: %s\n" % message


def test_projectivize_reports_unknown_name_before_later_syntax_error(capsys):
    # names resolve where they are read, so the unknown name comes first
    weights = str(Path(__file__).parents[1] / "perfbench" / "data" / "weights_a.json")
    code = main(["class", "projectivize", "--class", "frob + ", "--weights", weights])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: unknown symbol 'frob' (at position 0)\n"
    code = main(["class", "projectivize", "--class", "a1 + ", "--weights", weights])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: unexpected end of expression (at position 5)\n"


# -- subcommands ---------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_sigma_chern_basis(capsys):
    code, out = run_cli(
        capsys, "class", "sigma", "--e", "2", "--f", "2", "--r", "1",
        "--basis", "chern",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == {"c1E": "-4", "c1F": "2"}


def test_sigma_method_agreement(capsys):
    for e, f, r in ((2, 2, 1), (3, 3, 2), (3, 5, 1), (4, 7, 2)):
        outs = []
        for method in ("localization", "closed", "residue"):
            code, out = run_cli(
                capsys, "class", "sigma", "--e", str(e), "--f", str(f),
                "--r", str(r), "--method", method,
            )
            assert code == 0
            outs.append(json.loads(out)["coefficients"])
        assert outs[0] == outs[1] == outs[2]


def test_sigma_roots_json_roundtrip(capsys):
    from quadloci.loci import localization_class, to_roots

    want = to_roots(localization_class(2, 2, 1), 2, 2)
    # every method's answer is expanded in the roots, not only localization's
    for method in ("localization", "closed", "residue"):
        code, out = run_cli(
            capsys, "class", "sigma", "--e", "2", "--f", "2", "--r", "1",
            "--method", method, "--basis", "roots",
        )
        assert code == 0
        doc = json.loads(out)
        rebuilt = Polynomial.zero()
        for key, coeff in doc["coefficients"].items():
            mono = parse_class(key) if key != "1" else Polynomial.const(1)
            rebuilt = rebuilt + QQ(coeff) * mono
        assert rebuilt == want, method


def test_sigma_rejects_unknown_basis(capsys):
    for method in ("localization", "closed", "residue"):
        code, out, err = _outcome(capsys, [
            "class", "sigma", "--e", "2", "--f", "2", "--r", "1",
            "--method", method, "--basis", "elementary"])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("quadloci class sigma: error: argument --basis")
        assert "'elementary'" in err


def test_pencil_presentations(capsys):
    code, out = run_cli(capsys, "class", "pencil", "--e", "2",
                        "--presentation", "sub")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"]["a1"] == "4"
    assert doc["coefficients"]["g1"] == "-2"


def test_projectivize_command(tmp_path, capsys):
    weights = tmp_path / "weights.json"
    weights.write_text(
        json.dumps({"s": [[3, -1, 1], [1, 2, 2]], "r": [2, 1, 1], "r_total": 6})
    )
    code, out = run_cli(
        capsys, "class", "projectivize", "--class", "a1 + 2*a2 + 2*a3",
        "--weights", str(weights),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"]["xi"] == "-1"
    code, out = run_cli(
        capsys, "class", "projectivize", "--class", "a1 + 2*a2 + 2*a3",
        "--weights", str(weights), "--fixed-point", "1",
    )
    assert code == 0
    assert json.loads(out)["coefficients"] == {}


def test_projectivize_needs_r_total(tmp_path, capsys):
    # the scalar total is read from "r_total" alone; a file without it
    # names that key
    weights = tmp_path / "weights.json"
    weights.write_text(
        json.dumps({"s": [[3, -1, 1], [1, 2, 2]], "r": [2, 1, 1], "rt": 6})
    )
    code = main(["class", "projectivize", "--class", "a1", "--weights",
                 str(weights)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "'r_total'" in err


_GOOD_WEIGHTS = '{"s": [[3, -1, 1], [1, 2, 2]], "r": [2, 1, 1], "r_total": 6}'


@pytest.mark.parametrize("text, message", [
    (_GOOD_WEIGHTS.replace("[3, -1", "[3.5, -1"), "'s': 3.5 is not a JSON integer"),
    (_GOOD_WEIGHTS.replace("[3, -1", "[true, -1"), "'s': true is not a JSON integer"),
    (_GOOD_WEIGHTS.replace('"r_total": 6', '"r_total": "x"'),
     "'r_total': \"x\" is not a JSON integer"),
    (_GOOD_WEIGHTS.replace('"r_total": 6', '"r_total": 0'), "r_total must be nonzero"),
    ("[[3, -1, 1], [1, 2, 2]]", "weights.json holds no JSON object"),
    (_GOOD_WEIGHTS.replace('[[3, -1, 1], [1, 2, 2]]', '3'), "'s': 3 is not a JSON list"),
    ("s = [[3, -1, 1]]", "weights.json is not JSON: Expecting value: line 1 column 1 (char 0)"),
] + [
    (json.dumps({k: v for k, v in json.loads(_GOOD_WEIGHTS).items() if k != key}),
     "weights.json has no key %r" % key) for key in ("s", "r", "r_total")
], ids=["float-entry", "bool-entry", "string-total", "zero-total", "top-level-list",
        "non-list-s", "not-json", "missing-s", "missing-r", "missing-r_total"])
def test_projectivize_rejects_malformed_weights(tmp_path, monkeypatch, capsys, text, message):
    # only JSON integers are weights; anything else exits 2 with one line
    monkeypatch.chdir(tmp_path)
    Path("weights.json").write_text(text)
    code = main(["class", "projectivize", "--class", "a1", "--weights", "weights.json"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_projectivize_fixed_point_out_of_range(capsys):
    # weights_a.json has two weights, so the fixed points are 0 and 1
    weights = str(Path(__file__).parents[1] / "perfbench" / "data" / "weights_a.json")
    for j in ("5", "2", "-1"):
        code = main(["class", "projectivize", "--class", "a1", "--weights",
                     weights, "--fixed-point", j])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", j
        assert err == "error: fixed point %s is not in 0..1\n" % j


def test_moduli_petri(capsys):
    code, out = run_cli(capsys, "moduli", "petri", "--g", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"]["lambda"] == "34"
    assert doc["coefficients"]["delta0"] == "-4"
    assert doc["metadata"]["slope"] == "17/2"


def test_moduli_slope(capsys):
    code, out = run_cli(capsys, "moduli", "slope", "--series", "1", "--ell", "1")
    assert code == 0
    assert json.loads(out)["slope"] == "34423/5320"
    code, out = run_cli(
        capsys, "moduli", "slope", "--series", "1", "--ell", "1",
        "--form", "deficit",
    )
    assert json.loads(out)["slope"] == "34423/5320"


def test_moduli_slope_custom(capsys):
    code, out = run_cli(
        capsys, "moduli", "slope", "--custom", "--r", "7", "--s", "3", "--a", "4"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["slope"] == "34423/5320"  # the calibration fit point


def test_moduli_dp12(capsys):
    code, out = run_cli(capsys, "moduli", "dp12")
    assert code == 0
    assert json.loads(out)["slope"] == "373/54"


def test_k3_commands(capsys):
    code, out = run_cli(capsys, "k3", "rank4", "--g", "11")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == {"gamma": "1/6", "lambda": "9"}
    code, out = run_cli(capsys, "k3", "kosz", "--i", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == {"gamma": "2/3", "lambda": "-8"}
    assert doc["metadata"]["ranks"]["closed_count"] == "70"


def test_hurwitz_command(capsys):
    code, out = run_cli(capsys, "hurwitz")
    assert code == 0
    doc = json.loads(out)
    assert doc["structural_identity"]["holds"] is True
    assert doc["canonical_class"]["gamma"] == "1"


def test_hurwitz_command_numeric_k(capsys):
    code, out = run_cli(capsys, "hurwitz", "--k", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank4_prefactor"] == "294"
    assert doc["rank4_coefficient"]["samples"]["7"] == "1/42"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _ = run_cli(
        capsys, "--out", str(target), "class", "sigma", "--e", "2", "--f", "2",
        "--r", "1",
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["coefficients"] == {"c1E": "-4", "c1F": "2"}


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["class", "sigma", "--e", "2"])
    assert exc.value.code == 2


def test_domain_error_exit_code(capsys):
    code = main(["class", "sigma", "--e", "3", "--f", "2", "--r", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_sigma_certificate_failure_exits_one(capsys, monkeypatch):
    # a residue class that the fixed-point sum rejects is a verification
    # failure: exit 1, one line on stderr, nothing on stdout
    full = loci.residue_class
    monkeypatch.setattr(loci, "residue_class", lambda *t: -full(*t))
    code = main(["class", "sigma", "--e", "4", "--f", "8", "--r", "3"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "differs from the residue class" in err


def test_identity_failure_exits_one(capsys, monkeypatch):
    # a derivation that misses its closed form is a verification failure
    # too: exit 1, one line on stderr, nothing on stdout
    full = moduli._k3_rank4_combination
    monkeypatch.setattr(moduli, "_k3_rank4_combination", lambda g: full(g).scale(2))
    code = main(["k3", "rank4", "--g", "5"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: rank-4 class does not match its closed form\n"


def test_calibration_fit_failure_exits_one(capsys, monkeypatch):
    # a fit that misses its own target is a failed identity, raised by a
    # check that python -O keeps
    push = moduli.virtual_slope_from_pushforward

    def missed(p, n_over_beta):
        res = push(p, n_over_beta)
        return res._replace(slope=res.slope + rf(1))

    monkeypatch.setattr(moduli, "virtual_slope_from_pushforward", missed)
    code = main(["moduli", "slope", "--custom", "--r", "7", "--s", "3", "--a", "4"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: calibration fit misses its target slope 34423/5320\n"


def _counted(monkeypatch, owner, name):
    """Wrap owner.name so that it records each call; the list of calls."""
    calls, fn = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_hurwitz_report_is_derived_once_per_process(capsys, monkeypatch, clear_caches):
    # --k adds only the prefactor, so both requests share the one symbolic
    # report, and each prints what it prints in a fresh process
    requests = (["hurwitz"], ["hurwitz", "--k", "7"])
    cold = []
    for argv in requests:
        clear_caches()
        assert main(argv) == 0
        cold.append(capsys.readouterr().out)
    clear_caches()
    calls = _counted(monkeypatch, grr, "hurwitz_sheaf_chern")
    for argv, want in zip(requests, cold):
        assert main(argv) == 0
        assert capsys.readouterr().out == want
    assert len(calls) == 1


def test_k3_rank4_is_derived_once_per_process(capsys):
    # an integer genus evaluates the class derived once at the symbolic g:
    # two genera in one process print what a fresh process prints for each
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    requests = (["k3", "rank4", "--g", "5"], ["k3", "rank4", "--g", "6"])
    cold = [subprocess.run([sys.executable, "-m", "quadloci.cli", *argv], env=env,
                           capture_output=True, text=True, check=True, timeout=60).stdout
            for argv in requests]
    for argv, want in zip(requests, cold):
        assert main(argv) == 0
        assert capsys.readouterr().out == want
    assert moduli._k3_rank4_symbolic.cache_info().misses == 1


def test_calibration_fit_is_derived_once_per_process(capsys, monkeypatch):
    # the fit pushes forward 4 times (its zero, its check and two
    # cross-validations), then each request once for its own series
    calls = _counted(monkeypatch, moduli, "virtual_slope_from_pushforward")
    for r, s, a in ((7, 3, 4), (4, 2, 3)):
        argv = ["moduli", "slope", "--custom", "--r", str(r), "--s", str(s), "--a", str(a)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["calibration_notes"]
    assert len(calls) == 6


@pytest.mark.parametrize("argv, message", [
    (["class", "projectivize", "--class", "a1", "--weights", "{dir}"],
     "Is a directory: '{dir}'"),
    (["--out", "{dir}", "class", "pencil", "--e", "3"], "Is a directory: '{dir}'"),
    (["class", "projectivize", "--class", "a1", "--weights", "{dir}/absent.json"],
     "No such file or directory: '{dir}/absent.json'"),
], ids=["weights-directory", "out-directory", "weights-missing"])
def test_unreadable_paths_exit_two(tmp_path, capsys, argv, message):
    # a path that names a directory, or nothing, exits 2 with one line
    code = main([a.format(dir=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ")
    assert err.endswith("] %s\n" % message.format(dir=tmp_path))


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_one(unbuffered):
    # a reader that left before the output was written is no usage error:
    # exit 1 with nothing on stderr, not even from the flush at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.run([sys.executable, "-m", "quadloci.cli", "hurwitz", "--k", "7"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_verify_exit_zero(capsys):
    code = main(["verify", "all", "--max-e", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 fail" in out


def test_verify_json_document(tmp_path, capsys):
    target = tmp_path / "verify.json"
    code = main(["--out", str(target), "verify", "all", "--max-e", "2"])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["failures"] == []
    statuses = {row["status"] for row in doc["results"]}
    assert "PASS" in statuses and "FAIL" not in statuses


def test_moduli_slope_rejects_ell_below_one(capsys):
    for argv in (["--series", "1", "--ell", "0"], ["--series", "2", "--ell", "-1"]):
        code = main(["moduli", "slope", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: need ell >= 1\n"


@pytest.mark.parametrize("given, missing", [
    ([], "--r, --s, --a"),
    (["--r", "7"], "--s, --a"),
    (["--r", "7", "--s", "3"], "--a"),
    (["--s", "3", "--a", "4"], "--r"),
    (["--r", "7", "--a", "4"], "--s"),
])
def test_moduli_slope_custom_names_missing_flags(capsys, given, missing):
    code = main(["moduli", "slope", "--custom", *given])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --custom needs --r, --s and --a; missing %s\n" % missing


@pytest.mark.parametrize("argv, message", [
    (["--r", "1", "--s", "1", "--a", "0"],
     "no pushforward table at g = 2, r + s = 2: its denominators carry "
     "(g-1)(g-2)(r+s+1), which vanishes"),
    (["--r", "0", "--s", "0", "--a", "0"], "delta_0 coefficient vanished"),
    # e = r + 1 = 0 would put the divisorial class's 2f/e over 0
    (["--r", "-1", "--s", "1", "--a", "1"], "need e >= 1"),
    # the invariant 2(r-1)s = a(2r-1-a) holds at both of its roots, and the
    # one past r - 1 has a negative corank r-1-a
    (["--r", "7", "--s", "3", "--a", "9"], "a = 9 gives the negative corank r-1-a = -3; "
     "the other root of 2(r-1)s = a(2r-1-a) is a = 4"),
    (["--r", "4", "--s", "2", "--a", "4"], "a = 4 gives the negative corank r-1-a = -1; "
     "the other root of 2(r-1)s = a(2r-1-a) is a = 3"),
])
def test_moduli_slope_custom_degenerate_series_exit_two(capsys, argv, message):
    code = main(["moduli", "slope", "--custom", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_import_derives_nothing():
    """Importing the library fills no per-process cache: a derivation made
    at import would move the import time and the order in which algebra
    hands out variable slots."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); import quadloci.cli, quadloci.verify; "
            "print(sorted({'%%s.%%s' %% (f.__module__, f.__qualname__) "
            "for m, mod in list(sys.modules.items()) if m.startswith('quadloci') "
            "for f in vars(mod).values() "
            "if hasattr(f, 'cache_info') and f.cache_info().currsize}))" % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    """The library's records are NamedTuples, so a one-shot CLI call does
    not pay for the dataclasses -> inspect import chain."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); import quadloci.cli, quadloci.verify; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))" % src)
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_sigma_general_triple_is_bounded():
    """class sigma at (7,27,6), where the former interpolation solve ran
    for minutes, prints the residue class in one process within 10 s."""
    from quadloci.loci import residue_class

    src = str(Path(cli.__file__).resolve().parents[1])
    argv = ["class", "sigma", "--e", "7", "--f", "27", "--r", "6"]
    code = ("import sys; sys.path.insert(0, %r); from quadloci.cli import main; "
            "sys.exit(main(%r))" % (src, argv))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    doc = poly_document(residue_class(7, 27, 6), "class sigma",
                        {"e": 7, "f": 27, "r": 6, "method": "localization",
                         "basis": "chern"})
    assert proc.stdout == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_sigma_residue_and_closed_documents_agree(capsys):
    for e in range(1, 6):
        for r in range(e + 1):
            f = comb(e + 1, 2) - comb(r + 1, 2)
            if f < 1:
                continue
            for basis in ("chern", "roots"):
                docs = []
                for method in ("closed", "residue"):
                    code, out = run_cli(
                        capsys, "class", "sigma", "--e", str(e), "--f", str(f),
                        "--r", str(r), "--method", method, "--basis", basis,
                    )
                    assert code == 0
                    doc = json.loads(out)
                    docs.append((doc["basis"], doc["coefficients"]))
                assert docs[0] == docs[1], (e, r, basis)


# -- parser reuse ----------------------------------------------------------------

def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one main call, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_matches_fresh_parser(capsys, monkeypatch):
    sequence = (
        ["moduli", "petri", "--g", "7"],
        ["class", "sigma", "--e", "2"],  # argparse usage error
        ["class", "sigma", "--e", "3", "--f", "2", "--r", "1",
         "--method", "closed"],  # domain error
        ["moduli", "petri", "--g", "7"],
    )
    reused = [_outcome(capsys, argv) for argv in sequence]
    # the undecorated `_parser`: a fresh tree and leaf table on every call
    monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)
    fresh = [_outcome(capsys, argv) for argv in sequence]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 2, 0]
    assert reused[0] == reused[3]
    assert reused[2][2].startswith("error: ") and reused[2][2].count("\n") == 1


def test_jobs_environment_read_on_each_call(capsys, monkeypatch):
    # QUADLOCI_JOBS is read on no call: setting it between calls, even to
    # junk, leaves every byte of the output as it was
    monkeypatch.delenv("QUADLOCI_JOBS", raising=False)
    runs = (["verify", "all", "--max-e", "2"],
            ["class", "sigma", "--e", "3", "--f", "4", "--r", "2"])
    plain = [_outcome(capsys, argv) for argv in runs]
    assert [code for code, _, _ in plain] == [0, 0]
    for value in ("3", "junk"):
        monkeypatch.setenv("QUADLOCI_JOBS", value)
        assert [_outcome(capsys, argv) for argv in runs] == plain


@pytest.mark.parametrize("argv", [
    ["--jobs", "2", "verify", "all", "--max-e", "2"],
    ["verify", "all", "--max-e", "2", "--jobs", "3"],
    ["verify", "all", "--thorough"],
])
def test_retired_options_are_usage_errors(capsys, argv):
    # there is no --jobs and no --thorough; before the subcommand argparse
    # reads the "2" as the command, so only the shape of the error is fixed
    code, out, err = _outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "error:" in err


# -- the golden record of every benchmark request ---------------------------------

sys.path.insert(0, str(Path(__file__).parent / "data"))
import make_golden  # noqa: E402  puts perfbench/ on the path too


def _golden():
    return json.loads(make_golden.GOLDEN.read_text())


def _pinned(entry):
    """What the replay compares: for an argparse usage error, which newer
    patch releases word differently, exit 2 and one `error:` line on stderr;
    for any other exception out of main, its type; else every field."""
    if entry["raised"] == "SystemExit":
        lines = entry["stderr"].splitlines()
        return entry["exit"], entry["stdout"], ["error:" in line for line in lines]
    return entry["raised"] or entry


def test_golden_replay_byte_for_byte(monkeypatch):
    """Every benchmark request and `verify all --max-e 2|4|5` answers as
    tests/data/make_golden.py recorded it, and it recorded exactly those."""
    entries = _golden()
    assert [entry["argv"] for entry in entries] == make_golden.requests()
    monkeypatch.chdir(make_golden.ROOT)
    differ = [" ".join(entry["argv"]) for entry in entries
              if _pinned(make_golden.answer(entry["argv"])) != _pinned(entry)]
    assert not differ, "\n".join(differ)


def test_symbolic_kosz_prints_its_golden_bytes_in_a_fresh_process():
    """Symbolic `k3 kosz`, and four requests that print numbers, each in a
    fresh interpreter print their golden entry byte for byte.  There the
    first variable used takes the first slot of the packed keys, which the
    trial-division screen, `polynomial_in` and `str` read; slots follow
    first use, so in the test session each variable sits behind others."""
    golden = {tuple(e["argv"]): e for e in _golden()}
    env = dict(os.environ, PYTHONPATH=str(make_golden.ROOT / "src"))
    for argv in (["k3", "kosz"],
                 ["k3", "kosz", "--i", "5"],
                 ["moduli", "petri", "--g", "27"],
                 ["moduli", "slope", "--series", "2", "--ell", "3", "--form", "deficit"],
                 ["moduli", "slope", "--custom", "--r", "7", "--s", "3", "--a", "4"]):
        entry = golden[tuple(argv)]
        proc = subprocess.run([sys.executable, "-m", "quadloci.cli", *argv], env=env,
                              capture_output=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (entry["exit"], entry["stderr"].encode()), argv
        assert proc.stdout == entry["stdout"].encode(), argv


def test_golden_agrees_with_the_benchmark_reference():
    """The golden pins what perfbench/reference.json pins: the hash of each
    ok answer, each usage error and the verify rows.  The reference's
    `failed` requests, the known defects, are pinned by the golden alone."""
    import worker  # perfbench's own hashes and row digest

    golden = {worker.workloads.call_key(["cli", *e["argv"]]): e for e in _golden()}
    ref = json.loads(worker.workloads.REFERENCE.read_text())
    for key, want in ref["calls"].items():
        got = golden[key]
        if want["outcome"] == "ok":
            assert (got["outcome"], worker.sha256(got["stdout"])) == ("ok", want["sha256"]), key
        elif want["outcome"] == "usage":
            assert got["outcome"] == "usage", key
    for max_e in (2, 4):
        rows = verify.run_all(max_e=max_e)
        assert ({"counts": worker.verify_counts(rows), "sha256": worker.verify_digest(rows)}
                == ref["verify"][str(max_e)])


# -- the leaf table parses as the tree does ------------------------------------

@contextlib.contextmanager
def _recorded(stub):
    """Every command first records vars(args), then runs, or with stub
    returns 0 at once; the parser is rebuilt on the recorders."""
    seen = []

    def recorder(command):
        def run(args):
            seen.append(dict(vars(args)))
            return 0 if stub else command(args)
        return run

    with pytest.MonkeyPatch.context() as patch:
        for name in [name for name in vars(cli) if name.startswith("cmd_")]:
            patch.setattr(cli, name, recorder(getattr(cli, name)))
        cli._parser.cache_clear()
        yield seen
    cli._parser.cache_clear()


def _table_and_tree(argv, seen):
    """The golden entry of argv and the namespaces its command got, through
    main's leaf table and then through the tree alone."""
    tree, _ = cli._parser()
    answers = []
    for parser in (cli._parser, lambda: (tree, {})):
        del seen[:]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_parser", parser)
            answers.append((make_golden.answer(argv), list(seen)))
    return answers


def _readme_requests():
    """The argv of each `quadloci ...` line of README's command block."""
    text = (make_golden.ROOT / "README.md").read_text().replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:]
            for line in text.splitlines() if line.startswith("quadloci ")]


_LEAVES = {}
cli.build_parser(_LEAVES)  # a tree of its own: no cache is filled at import
_OPTIONS = sorted({option for leaf in _LEAVES.values()
                   for option in re.findall(r"--[\w-]+", leaf.format_usage())})
_REQUESTS = st.builds(
    lambda out, words, rest: out + words + rest,
    st.sampled_from([[], ["--out", "out.json"]]),
    st.one_of(st.sampled_from(sorted(_LEAVES)).map(list),
              st.lists(st.sampled_from(sorted({w for k in _LEAVES for w in k})
                                       + ["-h", "frob"]), max_size=3)),
    st.lists(st.sampled_from(_OPTIONS + [
        "0", "3", "-2", "x", "closed", "roots", "sub", "deficit", "a1",
        "--", "-h", "--help", "--frob", "--=x", "--out", "--o", "--e=3", "extra",
    ]), max_size=8),
)


def test_leaf_table_parses_as_the_tree(monkeypatch):
    """main parses a request with its own command's leaf parser; the tree
    alone gives the same exit code, stdout, stderr and namespace for every
    golden request, every README request (each run for real), and a sample
    of the tree's words and options around `--out FILE`, `--`, `-h`, junk
    and leftover arguments (the commands stubbed)."""
    monkeypatch.chdir(make_golden.ROOT)  # projectivize echoes its --weights path
    readme = _readme_requests()
    assert len(readme) == 12 and ["hurwitz", "--k", "7"] in readme
    with _recorded(stub=False) as seen:
        for argv in [entry["argv"] for entry in _golden()] + readme:
            table, tree = _table_and_tree(argv, seen)
            assert table == tree, argv

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_REQUESTS)
    @example(["class", "-h", "sigma"])
    @example(["moduli", "petri", "--g", "7", "--bogus"])
    @example(["--out", "out.json", "moduli", "petri", "--g", "7"])
    @example(["hurwitz", "--=x"])
    @example(["k3", "rank4", "--", "--g", "5"])
    def sample(argv):
        with _recorded(stub=True) as seen:
            table, tree = _table_and_tree(argv, seen)
        assert table == tree, argv

    sample()
    tree, _ = cli._parser()
    monkeypatch.setattr(tree, "parse_args", None)  # the table takes these alone
    assert [vars(cli._parse(argv)) for argv in (["hurwitz"], ["verify", "all"])] == [
        {"out": None, "command": "hurwitz", "k": None, "fn": cli.cmd_hurwitz},
        {"out": None, "command": "verify", "subcommand": "all", "max_e": 5,
         "fn": cli.cmd_verify},
    ]
