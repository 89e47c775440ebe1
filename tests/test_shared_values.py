"""The contract of the values the library hands out, and of the per-process
caches that share one value between callers.

A value is read-only at every depth: no attribute of a library object and
no item of a mapping it stores can be written, and every mapping it stores
is a `FrozenDict`.  Equal values hash equal, or the type is unhashable.  A
pickle round trip gives an equal value.  `Polynomial` keeps its terms in
private slots; its public view, `terms`, is a fresh dict on each read.
"""

import ast
import contextlib
import io
import json
import operator
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quadloci import cli, grr, moduli
from quadloci.algebra import FrozenDict, Polynomial, RationalFunction, param
from quadloci.grr import TautClass, rf

SRC = Path(__file__).resolve().parents[1] / "src" / "quadloci"
GOLDEN = Path(__file__).with_name("data") / "golden.json"
_CACHING = {"cache", "lru_cache"}


def _decorated_caches() -> set:
    """(module, name) of each module-level function of SRC decorated with
    cache, functools.cache or lru_cache, called or not."""
    found = set()
    for path in SRC.glob("*.py"):
        module = "quadloci" if path.stem == "__init__" else "quadloci." + path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", "")
                if name in _CACHING:
                    found.add((module, node.name))
    return found


def test_the_fixture_clears_every_cache_in_the_source(caches):
    found = {(fn.__module__, fn.__qualname__) for fn in caches}
    assert found == _decorated_caches()
    assert len(found) == 7


# -- the writes that a shared value once took ------------------------------------

def _golden_stdout(argv):
    return next(e["stdout"] for e in json.loads(GOLDEN.read_text()) if e["argv"] == argv)


def _printed(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_a_write_to_the_shared_rank4_class_raises():
    c = moduli.k3_rank4_class()
    with pytest.raises(TypeError):
        c.coeffs["lambda"] = rf(0)
    assert moduli.k3_rank4_class() is c
    argv = ["k3", "rank4", "--g", "5"]
    assert _printed(argv) == _golden_stdout(argv)


def test_a_nested_write_to_the_shared_hurwitz_rendering_raises():
    shared = cli._hurwitz_shared()
    with pytest.raises(TypeError):
        shared["canonical_class"]["lambda"] = "0"
    assert _printed(["hurwitz"]) == _golden_stdout(["hurwitz"])


def _shared_mappings():
    rep = moduli.hurwitz_report()
    rules = grr.k3_rules(5)
    shared = cli._hurwitz_shared()
    return [moduli.k3_rank4_class().coeffs, rules.top_rules, rules.scalar_rules,
            moduli.petri_class(7).deltas, rep.hrk4_coeff_samples, rep.rank4_class.coeffs,
            shared, *(part for part in shared.values() if isinstance(part, dict)),
            shared["rank4_coefficient"]["samples"]]


def test_writes_to_shared_values_raise_and_change_no_printed_byte():
    for mapping in _shared_mappings():
        assert type(mapping) is FrozenDict
        for write in _MAPPING_WRITES:
            with pytest.raises(TypeError):
                write(mapping)
    for argv in (["k3", "rank4", "--g", "5"], ["hurwitz"]):
        assert _printed(argv) == _golden_stdout(argv)


def test_shared_values_pickle():
    for value in (moduli.k3_rank4_class(5), moduli.hurwitz_report()):
        assert pickle.loads(pickle.dumps(value)) == value


# -- the contract, over every value type the library returns ---------------------

_MAPPING_WRITES = (
    lambda m: operator.setitem(m, "new", 0),
    lambda m: operator.delitem(m, next(iter(m), "new")),
    lambda m: operator.ior(m, {"new": 0}),
    lambda m: m.clear(),
    lambda m: m.pop(next(iter(m), "new")),
    lambda m: m.popitem(),
    lambda m: m.setdefault("new", 0),
    lambda m: m.update(new=0),
)
_LEAVES = (str, int, Fraction, type(None))


def _stored(obj) -> list:
    """The names of the attributes obj stores: a named tuple's fields, or
    the slots of its class and of its bases."""
    if hasattr(obj, "_fields"):
        return list(obj._fields)
    return [s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ())]


def _parts(value):
    """value and everything stored in it, at any depth: the keys and values
    of a mapping, the items of a tuple, the public attributes of an object."""
    stack = [value]
    while stack:
        part = stack.pop()
        yield part
        if isinstance(part, dict):
            stack.extend(part)
            stack.extend(part.values())
        elif isinstance(part, tuple):
            stack.extend(part)
        elif not isinstance(part, _LEAVES):
            stack.extend(getattr(part, s) for s in _stored(part) if not s.startswith("_"))


def _assert_read_only(value):
    for part in _parts(value):
        if isinstance(part, dict):
            assert type(part) is FrozenDict, type(part)
            for write in _MAPPING_WRITES:
                with pytest.raises(TypeError):
                    write(part)
        elif not isinstance(part, (tuple, *_LEAVES)):
            assert type(part).__module__.startswith("quadloci."), type(part)
            for name in _stored(part) + ["extra"]:
                with pytest.raises((AttributeError, TypeError)):
                    setattr(part, name, None)
                with pytest.raises((AttributeError, TypeError)):
                    delattr(part, name)


G, K = (Polynomial.variable(param(name)) for name in "gk")
_small = st.integers(-3, 3)
_polys = st.lists(st.tuples(_small, st.integers(0, 2), st.integers(0, 2)), max_size=4).map(
    lambda terms: sum((c * G ** a * K ** b for c, a, b in terms), Polynomial.zero()))
_nonzero = _polys.filter(bool)


@st.composite
def _rf_pairs(draw):
    """One rational function in two stored forms: n/d and (n h)/(d h)."""
    n, d, h = draw(_polys), draw(_nonzero), draw(_nonzero)
    return (lambda: RationalFunction(n, d)), (lambda: RationalFunction(n * h, d * h))


_poly_pairs = _polys.map(lambda p: ((lambda: p), (lambda: Polynomial(p.terms))))


@st.composite
def _taut_pairs(draw):
    """One class with its coefficients in two stored forms and orders."""
    names = draw(st.lists(st.sampled_from(["lambda", "gamma", "D0", "kappa30"]), unique=True))
    pairs = [draw(_rf_pairs()) for _ in names]
    return (lambda: TautClass({s: a() for s, (a, _) in zip(names, pairs)}),
            lambda: TautClass({s: b() for s, (_, b) in reversed(list(zip(names, pairs)))}))


@st.composite
def _koszul_pairs(draw):
    (i, j), (lam, lam2), (gam, gam2) = (draw(_rf_pairs()) for _ in range(3))
    return (lambda: moduli.KoszulClass(i(), lam(), gam()),
            lambda: moduli.KoszulClass(j(), lam2(), gam2()))


def _derived(derive, *args):
    """A library call made twice: with the caches cleared between, a cached
    one gives two equal values that are distinct objects."""
    return (lambda: derive(*args)), (lambda: derive(*args))


_ints = st.integers
_values = st.one_of(
    _poly_pairs,
    _rf_pairs(),
    _taut_pairs(),
    _koszul_pairs(),
    _ints(1, 8).map(lambda i: _derived(moduli.kosz_class, i)),
    st.just(_derived(moduli.kosz_class, "i")),
    _ints(4, 12).map(lambda g: _derived(moduli.petri_class, g)),
    st.sampled_from(["theta", "gonality", "branch"]).flatmap(
        lambda kind: _ints(3, 7).map(lambda n: _derived(moduli.known_divisor, kind, n))),
    st.tuples(_ints(2, 6), _ints(-2, 4)).map(lambda gd: _derived(grr.curve_rules, *gd)),
    st.sampled_from([4, 5, 7, 8, 9, 12, "k"]).map(lambda k: _derived(moduli.hurwitz_report, k)),
    # the caches, each at its keys
    st.sampled_from([3, 5, 11, "g"]).map(lambda g: _derived(grr.k3_rules, g)),
    st.just(_derived(moduli.fit_calibration)),
    st.just(_derived(moduli._k3_rank4_symbolic)),
    st.sampled_from([(1, "closed"), (1, "deficit"), (2, "closed")]).map(
        lambda key: _derived(moduli._series_slope, *key)),
    st.just(_derived(cli._hurwitz_shared)),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_values)
def test_values_are_read_only_hash_by_value_and_pickle(clear_caches, makers):
    """`cli._parser` is the one cache left out: its parser tree and leaf
    table hold argparse's mutable objects, which only `main` reads."""
    make_a, make_b = makers
    a = make_a()
    clear_caches()
    b = make_b()
    clear_caches()
    assert a == b and a is not b
    try:
        h = hash(a)
    except TypeError:
        with pytest.raises(TypeError):
            hash(b)
    else:
        assert hash(b) == h
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a) and copy == a
    printed = str(a)
    _assert_read_only(a)
    assert a == b and str(a) == printed
