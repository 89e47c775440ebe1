"""Partitions, Schur polynomials, and symmetric degeneracy-locus classes.

Two Jacobi-Trudi functions, exported by ``quadloci``, used by the tests as
references and timed by the benchmark's tracer.  No other library code
calls them: the residue producer in ``loci`` forms its corank class on
integer arrays of its own.

* ``schur`` evaluates the Jacobi-Trudi determinant det(c_{lam_i + j - i}) of
  a total Chern series, with c_0 = 1 and c_(<0) = 0.
* ``sym_degeneracy_class`` is the class of symmetric forms with an
  r-dimensional kernel, 2^r * s_(r, r-1, ..., 1)(c), expanded in Chern roots.

``a_const``/``b_const`` are the divisorial-case constants: a_const is the
degree of the variety of symmetric e x e matrices of corank >= r, available
both as a product of binomials and as a determinant (the two must agree).
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .algebra import ALPHA, Polynomial, QQ


class TruncationTooLow(Exception):
    """A Chern series was asked for a class beyond its truncation order."""


class Partition:
    """Weakly decreasing tuple of positive integers; () is allowed."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int]):
        parts = tuple(int(p) for p in parts)
        if any(p < 1 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Partition is immutable")

    @staticmethod
    def staircase(r: int) -> "Partition":
        """(r, r-1, ..., 2, 1)."""
        return Partition(tuple(range(r, 0, -1)))

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def size(self) -> int:
        return sum(self.parts)

    def __repr__(self):
        return "Partition%r" % (self.parts,)


class ChernSeries:
    """Total Chern class c_0 = 1, c_1, c_2, ... truncated at a fixed order.

    classes[i] is c_i as a Polynomial; indices past the truncation order
    raise TruncationTooLow rather than silently returning junk, except for
    a series built from roots of a known rank, where c_i = 0 for i > rank.
    """

    __slots__ = ("classes", "order", "rank")

    def __init__(self, classes: Sequence[Polynomial], rank: int | None = None):
        classes = list(classes)
        if not classes or classes[0] != Polynomial.const(1):
            raise ValueError("a Chern series starts with c_0 = 1")
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "order", len(classes) - 1)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ChernSeries is immutable")

    @staticmethod
    def from_roots(roots: Sequence[Polynomial], order: int | None = None) -> "ChernSeries":
        """prod (1 + root_i t); c_i is the i-th elementary symmetric poly."""
        n = len(roots)
        if order is None:
            order = n
        classes = [Polynomial.const(1)] + [Polynomial.zero()] * order
        for root in roots:
            # multiply the truncated series by (1 + root t)
            for i in range(min(order, n), 0, -1):
                classes[i] = classes[i] + root * classes[i - 1]
        return ChernSeries(classes, rank=n)

    @staticmethod
    def from_alphabet(kind: int, n: int, order: int | None = None) -> "ChernSeries":
        roots = [Polynomial.variable((kind, i)) for i in range(1, n + 1)]
        return ChernSeries.from_roots(roots, order)

    def c(self, i: int) -> Polynomial:
        if i < 0:
            return Polynomial.zero()
        if i <= self.order:
            return self.classes[i]
        if self.rank is not None and i > self.rank:
            return Polynomial.zero()
        raise TruncationTooLow(
            "c_%d requested from a series truncated at order %d" % (i, self.order)
        )


def schur(lam: Partition, c: ChernSeries) -> Polynomial:
    """Jacobi-Trudi determinant det(c_{lam_i + j - i})_{i,j=1..r}."""
    r = len(lam)
    if r == 0:
        return Polynomial.const(1)
    needed = lam[0] + r - 1
    if c.rank is None and needed > c.order:
        raise TruncationTooLow(
            "need c_%d but series is truncated at %d" % (needed, c.order)
        )
    entries = [[c.c(lam[i] + j - i) for j in range(r)] for i in range(r)]
    return _det(entries)


def _det(rows):
    """Determinant of a small matrix of polynomials, by minor expansion
    memoized on column subsets."""
    n = len(rows)
    cache: dict = {}

    def minor(i: int, cols: frozenset) -> Polynomial:
        if i == n:
            return Polynomial.const(1)
        key = cols
        got = cache.get(key)
        if got is not None:
            return got
        total = Polynomial.zero()
        sign = 1
        for j in sorted(cols):
            entry = rows[i][j]
            if not entry.is_zero():
                total = total + sign * entry * minor(i + 1, cols - {j})
            sign = -sign
        cache[key] = total
        return total

    return minor(0, frozenset(range(n)))


def sym_degeneracy_class(r: int, e: int) -> Polynomial:
    """Class of symmetric 2-forms on a rank-e space with corank >= r,
    expanded in the Chern roots a_1..a_e: 2^r s_(r,...,1)(c(roots))."""
    if not 0 <= r <= e:
        raise ValueError("need 0 <= r <= e")
    series = ChernSeries.from_alphabet(ALPHA, e)
    return (QQ(2) ** r) * schur(Partition.staircase(r), series)


def _elem_values(values: Sequence[int], k: int) -> list:
    """Elementary symmetric values e_0..e_k of a list of integers."""
    es = [1] + [0] * k
    for v in values:
        for i in range(min(k, len(values)), 0, -1):
            es[i] += v * es[i - 1]
    return es


def a_const(e: int, r: int, method: str = "product"):
    """Degree of the corank->=r symmetric matrix variety.

    method="product":      prod_i C(e+i, r-i) / C(2i+1, i)
    method="determinant":  2^(-C(r,2)) det( C(e, r+1-2i+j) )
    """
    if not 0 <= r <= e:
        raise ValueError("need 0 <= r <= e")
    if method == "product":
        num = 1
        den = 1
        for i in range(r):
            num *= comb(e + i, r - i)
            den *= comb(2 * i + 1, i)
        return QQ(num, den)
    if method == "determinant":
        if r == 0:
            return QQ(1)
        rows = [
            [_comb0(e, r + 1 - 2 * i + j) for j in range(1, r + 1)]
            for i in range(1, r + 1)
        ]
        return QQ(_int_det(rows), 2 ** (r * (r - 1) // 2))
    raise ValueError("unknown method %r" % method)


def b_const(e: int, r: int):
    """-(2/e) C(r+1, 2) a_const(e, r)."""
    if e < 1:
        raise ValueError("need e >= 1")
    return -QQ(2, e) * comb(r + 1, 2) * a_const(e, r)


def _comb0(n: int, k: int) -> int:
    # out-of-range binomials vanish, matching the c_(<0) = 0 convention
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def _int_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: after step k every entry is a (k+1) x (k+1) minor, so each
    division by the previous pivot is exact and the entries stay integers."""
    mat = [list(row) for row in rows]
    n = len(mat)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not mat[k][k]:
            piv = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if piv is None:
                return 0
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        top = mat[k]
        p = top[k]
        for row in mat[k + 1:]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - a * top[j]) // prev
        prev = p
    return sign * mat[-1][-1] if n else 1
