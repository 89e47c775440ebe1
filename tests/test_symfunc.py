import itertools
import random
from math import prod

import pytest

from quadloci.algebra import ALPHA, QQ, Polynomial, alpha, expand_symmetric, sym
from quadloci.symfunc import (
    ChernSeries,
    Partition,
    TruncationTooLow,
    _int_det,
    a_const,
    b_const,
    schur,
    sym_degeneracy_class,
)

X = Polynomial.variable


def generic_series(prefix, rank, order):
    """Formal classes c_i = <prefix>i for 1 <= i <= rank, zero above."""
    classes = [Polynomial.const(1)] + [
        X(sym("%s%d" % (prefix, i))) if i <= rank else Polynomial.zero()
        for i in range(1, order + 1)
    ]
    return ChernSeries(classes, rank=rank)


def test_partition_validation():
    assert Partition([]).size() == 0
    assert Partition.staircase(3).parts == (3, 2, 1)
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([0])


def test_schur_single_box_is_c1():
    s = ChernSeries.from_alphabet(ALPHA, 2)
    assert schur(Partition([1]), s) == X(alpha(1)) + X(alpha(2))


def test_schur_hook_by_hand():
    # det [[c2, c3], [1, c1]] = c1 c2 - c3
    c = generic_series("c", 3, 4)
    c1, c2, c3 = (X(sym("c%d" % i)) for i in (1, 2, 3))
    assert schur(Partition([2, 1]), c) == c1 * c2 - c3


def test_schur_empty_partition():
    assert schur(Partition([]), generic_series("c", 2, 2)) == Polynomial.const(1)


def test_schur_truncation_guard():
    short = generic_series("c", 9, 2)
    with pytest.raises(TruncationTooLow):
        schur(Partition([3, 1]), short)


def test_schur_degree_grading():
    # s_lambda of a root series is homogeneous of degree |lambda|
    s = ChernSeries.from_alphabet(ALPHA, 3)
    for lam in ([2], [1, 1], [2, 1], [3, 2, 1]):
        p = schur(Partition(lam), s)
        assert p.is_homogeneous(sum(lam))


def test_schur_grading_on_product_series():
    from quadloci.algebra import BETA

    # the product of the series of a and b is the series of both alphabets
    roots = [X((kind, i)) for kind in (ALPHA, BETA) for i in (1, 2)]
    prod = ChernSeries.from_roots(roots, order=5)
    for lam in ([2], [2, 1], [3, 1]):
        p = schur(Partition(lam), prod)
        assert p.is_homogeneous(sum(lam))


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
        assert h.is_homogeneous(r * (r + 1) // 2)
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
