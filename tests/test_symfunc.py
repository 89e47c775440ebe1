import itertools
import random
from math import prod

import pytest

from quadloci.algebra import (
    ALPHA,
    BETA,
    Polynomial,
    _elementary,
    alpha,
    expand_symmetric,
    sym,
)
from quadloci.symfunc import (
    _int_det,
    a_const,
    b_const,
    schur,
    sym_degeneracy_class,
)

X = Polynomial.variable


def generic_series(prefix, rank):
    """Formal classes c_0 = 1 and c_i = <prefix>i for 1 <= i <= rank."""
    return [Polynomial.const(1)] + [X(sym("%s%d" % (prefix, i))) for i in range(1, rank + 1)]


def root_series(roots):
    """The total Chern class [c_0, ..., c_n] of the roots: c_i = e_i(roots)."""
    return [_elementary(roots, i) for i in range(len(roots) + 1)]


def homogeneous(p: Polynomial, deg: int) -> bool:
    return all(sum(e for _, e in m) == deg for m in p.terms)


def test_schur_single_box_is_c1():
    s = root_series([alpha(1), alpha(2)])
    assert schur([1], s) == X(alpha(1)) + X(alpha(2))


def test_schur_hook_by_hand():
    # det [[c2, c3], [1, c1]] = c1 c2 - c3
    c = generic_series("c", 3)
    c1, c2, c3 = (X(sym("c%d" % i)) for i in (1, 2, 3))
    assert schur([2, 1], c) == c1 * c2 - c3


def test_schur_classes_outside_the_series_vanish():
    # c_k = 0 for k < 0 and for k past the rank, here 2
    c = generic_series("c", 2)
    c1, c2 = c[1], c[2]
    assert schur([3, 1], c) == Polynomial.zero()  # det [[c3, c4], [c0, c1]]
    assert schur([2, 2], c) == c2 * c2  # det [[c2, c3], [c1, c2]]
    # det [[c1, c2, c3], [c0, c1, c2], [c_-1, c0, c1]]
    assert schur([1, 1, 1], c) == c1 ** 3 - 2 * c1 * c2


def test_schur_empty_partition():
    assert schur([], generic_series("c", 2)) == Polynomial.const(1)


def test_schur_degree_grading():
    # s_lambda of a root series is homogeneous of degree |lambda|
    s = root_series([alpha(i) for i in (1, 2, 3)])
    for lam in ([2], [1, 1], [2, 1], [3, 2, 1]):
        assert homogeneous(schur(lam, s), sum(lam))


def test_schur_grading_on_product_series():
    # the product of the series of a and b is the series of both alphabets
    prod = root_series([(kind, i) for kind in (ALPHA, BETA) for i in (1, 2)])
    for lam in ([2], [2, 1], [3, 1]):
        assert homogeneous(schur(lam, prod), sum(lam))


def test_sym_degeneracy_small():
    assert sym_degeneracy_class(1, 2) == 2 * (X(alpha(1)) + X(alpha(2)))
    assert sym_degeneracy_class(0, 4) == Polynomial.const(1)
    # hand-expanded hook: 4 (e1 e2 - e3)
    e1, e2, e3 = (expand_symmetric(X(sym("e%d(a)" % k)), ALPHA, 3)
                  for k in (1, 2, 3))
    assert sym_degeneracy_class(2, 3) == 4 * (e1 * e2 - e3)


def test_sym_degeneracy_degree_and_symmetry():
    for e, r in ((3, 2), (4, 3), (5, 2)):
        h = sym_degeneracy_class(r, e)
        assert homogeneous(h, r * (r + 1) // 2)
        swapped = h.rename({alpha(1): alpha(2), alpha(2): alpha(1)})
        assert swapped == h


def _leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def test_int_det_matches_leibniz():
    # zero pivots that need a row swap, and singular matrices, included
    rng = random.Random(5)
    assert _int_det([]) == 1
    assert _int_det([[0, 1], [1, 0]]) == -1
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)]
                for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            rows[-1] = [2 * x for x in rows[0]]
        assert _int_det(rows) == _leibniz_det(rows), rows


def test_a_const_values():
    assert a_const(2, 1) == 2
    assert a_const(5, 2) == 20
    assert a_const(7, 4) == 672
    assert a_const(6, 3) == 112
    assert a_const(9, 0) == 1


def test_a_const_methods_agree():
    for e in range(13):
        for r in range(e + 1):
            assert a_const(e, r, "product") == a_const(e, r, "determinant")


def test_a_const_guards():
    with pytest.raises(ValueError):
        a_const(3, 4)
    with pytest.raises(ValueError):
        a_const(3, 1, "other")


def test_b_const_values():
    assert b_const(2, 1) == -2
    assert b_const(5, 2) == -24
    assert b_const(7, 0) == 0
