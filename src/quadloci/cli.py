"""Command-line front end.

Subcommands cover every computation; all output is JSON from one writer,
`_emit`, deterministic for a fixed input.  A value prints as its `str`:
"p/q" or "p" for a rational, never a float.  `class sigma` answers in the
Chern symbols c_iE, c_jF; `--basis roots` expands that answer in the Chern
roots with `loci.to_roots`, whatever the method.  `class projectivize
--class` is parsed by recursive descent straight into a `Polynomial`: names
and numbers are ASCII, unary minus binds looser than `^`, and a malformed
expression is one line, `error: unknown symbol 'frob' (at position 0)`.

    class sigma --e E --f F --r R [--method M] [--basis roots|chern]
    class pencil --e E [--presentation sub|quot]
    class projectivize --class EXPR --weights FILE [--fixed-point J]
    moduli petri --g G
    moduli slope --series {1,2} --ell L [--form closed|deficit]
    moduli slope --custom --r R --s S --a A
    moduli dp12
    k3 rank4 [--g G]
    k3 kosz --i I
    hurwitz [--k K]
    verify all [--max-e N]

Exit codes: 0 on success, 1 on verification failure, including a class
that fails its point certificate or a derivation that fails its identity
check (with one line on stderr), 2 on a usage error, a malformed weights
file, an exponent past 32767 or a file that cannot be opened (with one
line on stderr).  A stdout
whose reader has gone, such as a pipe closed before the output is written,
exits 1 with nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .algebra import (
    ALPHA,
    BETA,
    DenominatorSurvives,
    ExponentOverflow,
    FrozenDict,
    Polynomial,
    QQ,
    alpha,
    gamma_var,
    monomial_str,
    param,
    sym,
    xi,
)
from . import loci, moduli, verify
from .symfunc import a_const


class ClassSyntaxError(Exception):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownSymbol(ClassSyntaxError):
    def __init__(self, name, position):
        super().__init__("unknown symbol %r" % name, position)


class MalformedWeights(Exception):
    """A weights file that is not the JSON object class projectivize reads."""


# ---------------------------------------------------------------------------
# expression parser for classes
# ---------------------------------------------------------------------------

# one token after optional whitespace: a literal p or p/q, a name, an
# operator, or any other character, which is an error
_TOKEN = re.compile(r"\s*(?:(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<name>[A-Za-z_]\w*)"
                    r"|(?P<op>[-+*^()])|(?P<bad>\S))", re.ASCII)
_MAX_DEPTH = 100  # parentheses nested deeper are an error, not a deep recursion


def _tokenize(text: str):
    """(kind, value, position) per token, then ("end", None, len(text))."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        val, at = m.group(kind), m.start(kind)
        if kind == "bad":
            raise ClassSyntaxError("unexpected character %r" % val, at)
        if kind == "num":
            p, _, q = val.partition("/")
            try:
                val = QQ(int(p), int(q or 1))
            except ZeroDivisionError:
                raise ClassSyntaxError("zero denominator", at) from None
            except ValueError:  # more digits than int() converts
                raise ClassSyntaxError("number too long", at) from None
        tokens.append((kind, val, at))
    tokens.append(("end", None, len(text)))
    return tokens


def parse_class(text: str) -> Polynomial:
    """Parse an infix class expression with one-token lookahead into the
    polynomial it names; each rule returns the value it parsed, and a name
    resolves to its variable where it is read.  The grammar has +, -, *, ^
    and parentheses, nested at most _MAX_DEPTH deep; no implicit
    multiplication; exponents are non-negative integer literals; names and
    numbers are ASCII.  Unary minus binds looser than ^, as in Python and
    as a Polynomial prints: -a1^2 is -(a1^2).  Raises ClassSyntaxError
    with the position of the offending token."""
    tokens = _tokenize(text)
    pos = depth = 0

    def advance():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def accept(ops):
        """The next token's operator, consumed, if it is in ops; else None."""
        kind, val, _ = tokens[pos]
        return advance()[1] if kind == "op" and val in ops else None

    def parse_expr():
        value = parse_term()
        while op := accept("+-"):
            rhs = parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term():
        value = parse_factor()
        while accept("*"):
            value = value * parse_factor()
        return value

    def parse_factor():
        negate = False
        while accept("-"):
            negate = not negate
        value = parse_atom()
        if accept("^"):
            kind, val, at = advance()
            if kind != "num" or val.denominator != 1:
                raise ClassSyntaxError(
                    "exponent must be a non-negative integer literal", at
                )
            value = value ** int(val)
        return -value if negate else value

    def parse_atom():
        nonlocal depth
        kind, val, at = advance()
        if kind == "num":
            return Polynomial.const(val)
        if kind == "name":
            return Polynomial.variable(resolve_symbol(val, at))
        if kind == "end":
            raise ClassSyntaxError("unexpected end of expression", at)
        if val != "(":
            raise ClassSyntaxError("unexpected token %r" % val, at)
        if depth == _MAX_DEPTH:
            raise ClassSyntaxError(
                "parentheses nested deeper than %d" % _MAX_DEPTH, at
            )
        depth += 1
        value = parse_expr()
        if not accept(")"):
            raise ClassSyntaxError("expected ')'", tokens[pos][2])
        depth -= 1
        return value

    value = parse_expr()
    kind, val, at = tokens[pos]
    if kind != "end":
        raise ClassSyntaxError("trailing input %r" % str(val), at)
    return value


def resolve_symbol(name: str, position: int = 0):
    """Map a CLI symbol name to a polynomial variable; an unknown name is
    an UnknownSymbol at position."""
    # an index of at most 9 digits, as int() reads no arbitrary length
    if 2 <= len(name) <= 10 and name[0] in "ab" and name[1:].isdigit():
        idx = int(name[1:])
        return (ALPHA, idx) if name[0] == "a" else (BETA, idx)
    if name in ("g1", "g2"):
        return gamma_var(int(name[1]))
    if name == "xi":
        return xi()
    if name in ("g", "k", "ell", "n", "i", "r", "s", "d", "N", "beta"):
        return param(name)
    if name in ("lambda", "kappa30", "kappa11", "gamma", "kappa1",
                "D0", "D2", "D3", "D11") or name.startswith("delta"):
        return sym(name)
    if name.startswith("c") and len(name) >= 3 and name[-1] in "EF":
        return sym(name)
    raise UnknownSymbol(name, position)


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def document(coefficients: dict, **metadata) -> dict:
    """The JSON document of a class: its sorted basis, the coefficient of
    each basis element, and the metadata."""
    basis = sorted(coefficients)
    return {
        "basis": basis,
        "coefficients": {k: coefficients[k] for k in basis},
        "metadata": metadata,
    }


def poly_document(p: Polynomial, command: str, parameters: dict) -> dict:
    coeffs = {monomial_str(mono) or "1": str(c) for mono, c in p.terms.items()}
    return document(coeffs, command=command, parameters=parameters, notes=[])


def _emit(doc, path) -> None:
    """doc as sorted, indented JSON: to the file at path, else to stdout."""
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_class_sigma(args) -> int:
    e, f, r = args.e, args.f, args.r
    if args.method in ("closed", "residue"):
        if f != loci.divisorial_f(e, r):
            raise loci.NotDivisorial(
                "closed/residue methods need the divisorial f = C(e+1,2)-C(r+1,2)"
            )
        if args.method == "residue":
            cls = loci.residue_divisor_class(e, r)
        else:
            cls = loci.closed_divisor_class(e, r)
    else:
        cls = loci.localization_class(e, f, r)
    if args.basis == "roots":
        cls = loci.to_roots(cls, e, f)
    doc = poly_document(
        cls,
        "class sigma",
        {"e": e, "f": f, "r": r, "method": args.method, "basis": args.basis},
    )
    _emit(doc, args.out)
    return 0


def cmd_class_pencil(args) -> int:
    if args.presentation == "sub":
        cls = loci.pencil_class_sub(args.e)
    else:
        cls = loci.pencil_class_quot(args.e)
    doc = poly_document(
        cls, "class pencil", {"e": args.e, "presentation": args.presentation}
    )
    _emit(doc, args.out)
    return 0


def _typed(value, kind: type, key: str):
    """value, read under key, if its type is kind itself (a bool is no int)."""
    if type(value) is not kind:
        noun = "integer" if kind is int else "list"
        raise MalformedWeights("%r: %s is not a JSON %s" % (key, json.dumps(value), noun))
    return value


def _read_weights(path: str):
    """The weights and scalar data of a weights file: a JSON object with
    "s", a list of rows of integers (row j gives weight j its coefficient
    on each a_i), "r", a list of integers, and "r_total", a nonzero
    integer.  Raises MalformedWeights on any other content."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise MalformedWeights("%s is not JSON: %s" % (path, exc)) from None
    if type(data) is not dict:
        raise MalformedWeights("%s holds no JSON object" % path)
    for key in ("s", "r", "r_total"):
        if key not in data:
            raise MalformedWeights("%s has no key %r" % (path, key))
    forms = []
    for row in _typed(data["s"], list, "s"):
        form = Polynomial.zero()
        for i, coeff in enumerate(_typed(row, list, "s"), start=1):
            form = form + _typed(coeff, int, "s") * Polynomial.variable(alpha(i))
        forms.append(form)
    r = tuple(_typed(x, int, "r") for x in _typed(data["r"], list, "r"))
    try:
        scal = loci.ScalarData(r, _typed(data["r_total"], int, "r_total"))
    except ValueError as exc:
        raise MalformedWeights(exc) from None
    return tuple(forms), scal


def cmd_class_projectivize(args) -> int:
    weights, scal = _read_weights(args.weights)
    cls = parse_class(getattr(args, "cls"))
    if args.fixed_point is None:
        out = loci.projectivize(cls, scal, weights)
    else:
        out = loci.fixed_point_restriction(cls, weights, args.fixed_point, scal)
    doc = poly_document(
        out,
        "class projectivize",
        {
            "class": getattr(args, "cls"),
            "weights": args.weights,
            "fixed_point": args.fixed_point,
        },
    )
    _emit(doc, args.out)
    return 0


def cmd_moduli_petri(args) -> int:
    cls = moduli.petri_class(args.g)
    coeffs = {"lambda": str(cls.lam)}
    for i, b in sorted(cls.deltas.items()):
        coeffs["delta%d" % i] = str(-b)
    doc = document(coeffs, command="moduli petri", parameters={"g": args.g},
                   slope=str(cls.slope()),
                   notes=[cls.note] if cls.note else [])
    _emit(doc, args.out)
    return 0


def cmd_moduli_slope(args) -> int:
    if args.custom:
        missing = [flag for flag, v in (("--r", args.r), ("--s", args.s), ("--a", args.a))
                   if v is None]
        if missing:
            raise moduli.UnsupportedParam(
                "--custom needs --r, --s and --a; missing %s" % ", ".join(missing))
        p = moduli.SeriesParams(r=args.r, s=args.s, a=args.a)
        rep = moduli.fit_calibration()
        res = moduli.virtual_slope_from_pushforward(p, rep.fitted)
        doc = {
            "slope": str(res.slope),
            "metadata": {
                "command": "moduli slope --custom",
                "parameters": {"r": args.r, "s": args.s, "a": args.a},
                "calibration_notes": list(rep.notes),
                "boundary_effective": res.boundary_effective,
            },
        }
        _emit(doc, args.out)
        return 0
    value = moduli.pelda_slope(args.series, args.ell, args.form)
    doc = {
        "slope": str(value),
        "metadata": {
            "command": "moduli slope",
            "parameters": {"series": args.series, "ell": args.ell,
                           "form": args.form},
            "genus": moduli.series_genus(args.series, args.ell),
        },
    }
    _emit(doc, args.out)
    return 0


def cmd_moduli_dp12(args) -> int:
    d = moduli.dp12_slope()
    doc = {
        "slope": str(d.slope),
        "metadata": {
            "command": "moduli dp12",
            "below_bound": d.below_bound,
            "pencil_coefficients": list(d.pencil_coefficients),
            "notes": [
                "prefactor %d from the pencil formula vs %d in the "
                "application; overall scale only"
                % (d.prefactor_from_formula, d.prefactor_in_application)
            ],
        },
    }
    _emit(doc, args.out)
    return 0


def cmd_k3_rank4(args) -> int:
    cls = moduli.k3_rank4_class(args.g if args.g is not None else "g")
    params = {"g": args.g if args.g is not None else "symbolic"}
    notes = ["coefficients are in units of the prefactor A_(g+1)^(g-3)"]
    if args.g is not None:
        notes.append("prefactor value %s" % a_const(args.g + 1, args.g - 3))
    coeffs = {s: str(c) for s, c in cls.coeffs.items()}
    doc = document(coeffs, command="k3 rank4", parameters=params, notes=notes)
    _emit(doc, args.out)
    return 0


def cmd_k3_kosz(args) -> int:
    i = args.i if args.i is not None else "i"
    cls = moduli.kosz_class(i)
    rg, rh, closed = moduli.kosz_rank(i)
    doc = document(
        {"lambda": str(cls.lam), "gamma": str(cls.gamma)},
        command="k3 kosz",
        parameters={"i": args.i if args.i is not None else "symbolic"},
        units=cls.prefactor_units,
        unknown_term="alpha * D11 with alpha undetermined",
        ranks={
            "syzygy_side": str(rg),
            "polynomial_side": str(rh),
            "closed_count": str(closed),
        },
    )
    _emit(doc, args.out)
    return 0


@functools.cache
def _hurwitz_shared() -> FrozenDict:
    """The part of the `hurwitz` document that no request changes, rendered
    from the symbolic report; cached with no key.  Each request copies it
    and adds its own keys."""
    rep = moduli.hurwitz_report()
    return FrozenDict({
        "canonical_class": FrozenDict({
            s: str(c) for s, c in rep.canonical_in_gamma.coeffs.items()
        }),
        "rank4_class_units_A": FrozenDict({
            s: str(c) for s, c in rep.rank4_class.coeffs.items()
        }),
        "structural_identity": FrozenDict({
            "lhs": str(rep.structural_lhs),
            "rhs": str(rep.structural_rhs),
            "holds": rep.structural_identity_holds,
        }),
        "hodge_boundary_coefficients": FrozenDict({
            "D0": str(rep.hodge_d0),
            "D2_derived": str(rep.hodge_d2_derived),
            "D2_published": str(rep.hodge_d2_published),
            "D2_factor_two": rep.hodge_d2_factor_two,
            "D3": str(rep.hodge_d3),
        }),
        "rank4_coefficient": FrozenDict({
            "derived": "k / A_k^(k-4)",
            "published": str(rep.hrk4_published_coeff),
            "samples": FrozenDict({
                str(kv): str(v[0]) for kv, v in rep.hrk4_coeff_samples.items()
            }),
        }),
        "alpha_solved": str(rep.alpha_solved),
    })


def cmd_hurwitz(args) -> int:
    doc = dict(_hurwitz_shared(),
               metadata={"command": "hurwitz",
                         "parameters": {"k": args.k if args.k else "symbolic"}})
    if args.k:
        doc["rank4_prefactor"] = str(a_const(args.k, args.k - 4))
    _emit(doc, args.out)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all(max_e=args.max_e)
    table = verify.render_table(results)
    fails = verify.failures(results)
    if args.out:
        doc = {
            "results": [
                {
                    "group": group,
                    "tag": row.tag,
                    "computed": row.computed,
                    "expected": row.expected,
                    "status": row.status,
                    "note": row.note,
                }
                for group, row in results
            ],
            "failures": [row.tag for row in fails],
        }
        _emit(doc, args.out)
    print(table)
    return 0 if not fails else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr: the
    last line argparse would print, without the usage block above it."""

    def error(self, message):
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


def build_parser(leaves: dict | None = None) -> argparse.ArgumentParser:
    """The parser tree of every command.  Each leaf, the parser of one
    command's options, is also recorded in `leaves`, when given, under its
    command words, such as ("class", "sigma") or ("hurwitz",)."""
    if leaves is None:
        leaves = {}

    def leaf(parsers, words, fn, **kwargs):
        parser = leaves[words] = parsers.add_parser(words[-1], **kwargs)
        parser.set_defaults(fn=fn)
        return parser

    top = _Parser(
        prog="quadloci",
        description="exact divisor classes of quadric degeneracy loci and "
        "their moduli-space applications",
    )
    top.add_argument("--out", help="write the JSON document to a file")
    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("class", help="equivariant classes")
    pcs = pc.add_subparsers(dest="subcommand", required=True)
    sigma = leaf(pcs, ("class", "sigma"), cmd_class_sigma,
                 help="corank-r locus of Sym^2 E -> F")
    sigma.add_argument("--e", type=int, required=True)
    sigma.add_argument("--f", type=int, required=True)
    sigma.add_argument("--r", type=int, required=True)
    sigma.add_argument("--method", default="localization",
                       choices=["localization", "closed", "residue"])
    sigma.add_argument("--basis", default="chern", choices=["roots", "chern"])
    pencil = leaf(pcs, ("class", "pencil"), cmd_class_pencil,
                  help="degenerate-pencil divisor")
    pencil.add_argument("--e", type=int, required=True)
    pencil.add_argument("--presentation", default="quot", choices=["sub", "quot"])
    proj = leaf(pcs, ("class", "projectivize"), cmd_class_projectivize,
                help="projectivized cone class")
    proj.add_argument("--class", dest="cls", required=True,
                      help="class expression in a1, a2, ...")
    proj.add_argument("--weights", required=True,
                      help="JSON file with s (matrix), r (vector), r_total")
    proj.add_argument("--fixed-point", type=int, default=None,
                      help="restrict to the j-th coordinate fixed point "
                      "(0-based)")

    pm = sub.add_parser("moduli", help="divisors on moduli of curves")
    pms = pm.add_subparsers(dest="subcommand", required=True)
    petri = leaf(pms, ("moduli", "petri"), cmd_moduli_petri,
                 help="rank-3 quadric divisor class")
    petri.add_argument("--g", type=int, required=True)
    slope = leaf(pms, ("moduli", "slope"), cmd_moduli_slope,
                 help="slopes of quadric-rank divisors")
    slope.add_argument("--series", type=int, choices=[1, 2])
    slope.add_argument("--ell", type=int)
    slope.add_argument("--form", default="closed", choices=["closed", "deficit"])
    slope.add_argument("--custom", action="store_true")
    slope.add_argument("--r", type=int)
    slope.add_argument("--s", type=int)
    slope.add_argument("--a", type=int)
    leaf(pms, ("moduli", "dp12"), cmd_moduli_dp12,
         help="degenerate-pencil slope in genus 12")

    pk = sub.add_parser("k3", help="divisors on moduli of polarized surfaces")
    pks = pk.add_subparsers(dest="subcommand", required=True)
    rank4 = leaf(pks, ("k3", "rank4"), cmd_k3_rank4, help="rank-4 quadric divisor")
    rank4.add_argument("--g", type=int, default=None)
    kosz = leaf(pks, ("k3", "kosz"), cmd_k3_kosz, help="middle-syzygy divisor")
    kosz.add_argument("--i", type=int, default=None)

    hur = leaf(sub, ("hurwitz",), cmd_hurwitz,
               help="cover-space divisor identities")
    hur.add_argument("--k", type=int, default=None)

    ver = sub.add_parser("verify", help="run the verification suite")
    vers = ver.add_subparsers(dest="subcommand", required=True)
    verall = leaf(vers, ("verify", "all"), cmd_verify)
    verall.add_argument("--max-e", type=int, default=5)
    return top


@functools.cache
def _parser() -> tuple:
    """The parser tree that `main` reuses and its leaves by command words;
    cached with no key, built on first call."""
    leaves = {}
    return build_parser(leaves), leaves


def _parse(argv) -> argparse.Namespace:
    """argv parsed into the namespace that the tree gives.  A request that
    starts with a leaf's command words is parsed by that leaf alone, in one
    pass, where the tree scans every token again at each level.  The tree
    parses any other argv, and any that the leaf leaves an argument of, so
    every usage error and help text stays the tree's.  It also takes argv
    with a token that starts with "--=", which its top level refuses as an
    ambiguous abbreviation of --out and --help."""
    tree, leaves = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    n = 1 if tuple(argv[:1]) in leaves else 2
    leaf = leaves.get(tuple(argv[:n]))
    if leaf is not None and not any(a.startswith("--=") for a in argv[n:]):
        words = dict(zip(("command", "subcommand"), argv[:n]))
        args, rest = leaf.parse_known_args(argv[n:], argparse.Namespace(out=None, **words))
        if not rest:
            return args
    return tree.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader left: no usage error, and no second failure when the
        # interpreter flushes stdout at exit (the signal docs' "Note on
        # SIGPIPE"); an in-memory stdout has no descriptor to redirect
        try:
            fd = sys.stdout.fileno()
        except OSError:  # io.UnsupportedOperation
            return 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1
    except (
        ClassSyntaxError,
        ExponentOverflow,
        loci.PreconditionViolated,
        loci.NotDivisorial,
        loci.ScalarConditionViolated,
        moduli.UnsupportedParam,
        moduli.InvariantViolated,
        moduli.BoundaryCoefficientNonpositive,
        OSError,
        MalformedWeights,
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (DenominatorSurvives, moduli.IdentityFailed) as exc:
        # a class that failed its certificate: a verification failure
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
