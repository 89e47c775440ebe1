"""Schur polynomials, symmetric degeneracy-locus classes and their degrees.

Two Jacobi-Trudi functions, exported by ``quadloci``, used by the tests as
references and timed by the benchmark's tracer.  No other library code
calls them: the residue producer in ``loci`` forms its corank class on
graded arrays of ``Polynomial`` numerators, in the algebra's product loop.

* ``schur(lam, c)`` evaluates the Jacobi-Trudi determinant
  det(c_{lam_i + j - i}) for a partition ``lam``, a sequence of ints, and
  the total Chern class ``c = [c_0, ..., c_n]``, with c_k = 0 outside 0..n.
* ``sym_degeneracy_class`` is the class of symmetric forms with an
  r-dimensional kernel, 2^r * s_(r, r-1, ..., 1)(c), expanded in Chern roots.

``a_const``/``b_const`` are the divisorial-case constants: a_const is the
degree of the variety of symmetric e x e matrices of corank >= r, available
both as a product of binomials and as a determinant (the two must agree).
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .algebra import Polynomial, QQ, _elementary, alpha


def schur(lam: Sequence[int], c: Sequence[Polynomial]) -> Polynomial:
    """Jacobi-Trudi determinant det(c_{lam_i + j - i})_{i,j=1..r} of the
    total Chern class c = [c_0, ..., c_n], with c_k = 0 outside 0..n."""
    r, n = len(lam), len(c)
    zero = Polynomial.zero()
    return _det([[c[k] if 0 <= k < n else zero for k in range(lam[i] - i, lam[i] - i + r)]
                 for i in range(r)])


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
    roots = [alpha(i) for i in range(1, e + 1)]
    c = [_elementary(roots, k) for k in range(e + 1)]
    return (QQ(2) ** r) * schur(range(r, 0, -1), c)


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
