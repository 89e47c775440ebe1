"""Classes of loci of quadric-bundle maps with degenerate kernels.

Setting: a map of bundles phi from Sym^2(E) to F, ranks e and f.  The locus
where Ker(phi) contains a quadric of corank >= r has an equivariant class in
the Chern roots a_1..a_e, b_1..b_f.  Write n = C(e+1,2), d = n - f, W for the
Sym^2 weights a_i + a_j (i <= j) and g(z) = h_r(a - z/2) prod_j(z - b_j).
The class is (-1)^(d+1) times the divided difference of g over W.  It has
one producer and one independent certificate:

* ``residue_class`` -- the residue at infinity, formed in the Chern symbols
  c_iE, c_jF: the z-coefficients of g, with h_r(a - z/2) a Jacobi-Trudi
  determinant of the twisted Chern classes of E, against the complete
  homogeneous functions of W.  Both pieces and their products are formed
  in Python ints on graded arrays (numerator dicts of ``Polynomial``, one
  per c-degree), only up to the class degree, in the algebra's one product
  loop; the class takes their keys as they are, with c_jF joined by
  addition.  ``residue_divisor_class`` is its divisorial case.
* ``resolution_value`` -- the class at integer roots from a resolution of
  the locus by a Grassmannian bundle, pushed down by localization at the
  fixed points of the Grassmannian.  No corank class h_r and no Segre
  class of Sym^2 E enter it, so it shares no formula with the producer.
  ``localization_class`` returns ``residue_class``'s answer only after
  ``resolution_value`` has matched it at 3 seeded integer points
  (`_check_at_points`).

The paper's fixed-point sum over pairs (H, gamma) of a d-subset H of W and
a marked weight gamma in H is, by the residue theorem, the same identity
as the residue form: its terms are the finite residues of
g(z) / prod_{w in W}(z - w), and the residue form is the residue at
infinity.  It builds the same h_r, so it is kept only as a test oracle,
summed literally for small triples.  ``closed_divisor_class``, the
divisorial closed form A_e^r (c1(F) - (2f/e) c1(E)), is a further
reference.

``divisorial_combination`` is the one home of the divisorial class
c1(F) - (2f/e) c1(E), in units of A_e^r, at f = ``divisorial_f``(e, r)
for ints or rational functions.  Its five callers are
``closed_divisor_class`` and the four moduli applications in ``moduli``:
``petri_class``, ``k3_rank4_class``, ``hurwitz_report`` and
``virtual_slope_from_pushforward``.

``residue_class``, ``localization_class`` and ``closed_divisor_class``
answer in the symbols c_iE, c_jF, as the paper states the class.
``to_roots`` expands such a class in the roots a_i, b_j, and
``to_chern_symbols`` is its inverse.

Also here: projectivization of an invariant-cone class and its fixed-point
restrictions, and the degenerate-pencil class of a pencil S in Sym^2 E,
pushed forward once from P(S) and put in the roots of either presentation.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import combinations, combinations_with_replacement
from math import comb, lcm, prod
from typing import Sequence

from .algebra import (
    ALPHA,
    BETA,
    DenominatorSurvives,
    Polynomial,
    QQ,
    RationalFunction,
    _SHIFTS,
    _key,
    _mul_into,
    _nonzero,
    alpha,
    beta,
    expand_symmetric,
    gamma_var,
    sym,
    symmetric_reduce,
    xi,
    zvar,
)
from .symfunc import _elem_values, a_const


class PreconditionViolated(Exception):
    pass


class NotDivisorial(Exception):
    pass


class ScalarConditionViolated(Exception):
    pass


def _cE(i: int):
    return sym("c%dE" % i)


def _cF(j: int):
    return sym("c%dF" % j)


def c1E() -> Polynomial:
    return Polynomial.variable(_cE(1))


def c1F() -> Polynomial:
    return Polynomial.variable(_cF(1))


# ---------------------------------------------------------------------------
# scalar data and projectivization
# ---------------------------------------------------------------------------

class ScalarData(namedtuple("ScalarData", "r_weights r_total")):
    """Integers r_1..r_k and r_total witnessing that a representation
    contains the scalars: sum_i r_i s_{j,i} = r_total for every weight j."""

    __slots__ = ()

    def __new__(cls, r_weights: tuple, r_total: int):
        if r_total == 0:
            raise ValueError("r_total must be nonzero")
        return super().__new__(cls, r_weights, r_total)


def _validate_scalars(weights: Sequence[Polynomial], scalars: ScalarData):
    # the a_i-coefficient of a weight is its numerator at the key of a_i over
    # its denominator; a variable with no slot is in no weight
    keys = [1 << _SHIFTS[alpha(i)] if alpha(i) in _SHIFTS else None
            for i in range(1, len(scalars.r_weights) + 1)]
    for w in weights:
        num = w._num
        total = QQ(sum(rv * num.get(k, 0) for rv, k in zip(scalars.r_weights, keys)),
                   w._den)
        if total != scalars.r_total:
            raise ScalarConditionViolated(
                "weight %s pairs to %s, expected %s" % (w, total, scalars.r_total)
            )


def _shift_roots(cls: Polynomial, scalars: ScalarData, x: Polynomial) -> Polynomial:
    """cls with a_i -> a_i - (r_i/r) x."""
    mapping = {
        alpha(i): Polynomial.variable(alpha(i)) - QQ(rv, scalars.r_total) * x
        for i, rv in enumerate(scalars.r_weights, start=1)
    }
    return cls.substitute_poly(mapping)


def projectivize(cls: Polynomial, scalars: ScalarData,
                 weights: Sequence[Polynomial]) -> Polynomial:
    """Class of the projectivized cone: replace a_i by a_i - (r_i/r) xi."""
    _validate_scalars(weights, scalars)
    return _shift_roots(cls, scalars, Polynomial.variable(xi()))


def fixed_point_restriction(
    cls: Polynomial, weights: Sequence[Polynomial], j: int, scalars: ScalarData
) -> Polynomial:
    """Restriction to the j-th coordinate fixed point: xi specializes to the
    j-th weight, so a_i -> a_i - (r_i/r) w_j."""
    _validate_scalars(weights, scalars)
    if not 0 <= j < len(weights):
        raise PreconditionViolated(
            "fixed point %d is not in 0..%d" % (j, len(weights) - 1))
    return _shift_roots(cls, scalars, weights[j])


# ---------------------------------------------------------------------------
# localization sum
# ---------------------------------------------------------------------------

def _check_counts(types: tuple, **counts):
    """TypeError naming the first count that is a bool or of none of `types`."""
    for name, x in counts.items():
        if isinstance(x, bool) or not isinstance(x, types):
            raise TypeError("%s must be %s, not %s" % (
                name, " or ".join(t.__name__ for t in types), type(x).__name__))


def _check_loc_preconditions(e: int, f: int, r: int):
    _check_counts((int,), e=e, f=f, r=r)
    if not 1 <= r <= e:
        raise PreconditionViolated("need 1 <= r <= e")
    if f < 1:
        raise PreconditionViolated("need f >= 1")
    d = comb(e + 1, 2) - f
    if not 1 <= d <= comb(r + 1, 2):
        raise PreconditionViolated(
            "d = C(e+1,2) - f = %d must lie in [1, C(r+1,2) = %d]"
            % (d, comb(r + 1, 2))
        )
    return d


def target_degree(e: int, f: int, r: int) -> int:
    """Codimension of the locus = degree of its class."""
    d = comb(e + 1, 2) - f
    return comb(r + 1, 2) - d + 1


def localization_class(e: int, f: int, r: int) -> Polynomial:
    """The corank->=r class in the symbols c_iE, c_jF (`to_roots` expands
    it in the Chern roots): `residue_class`'s answer, returned only after
    the independent `resolution_value` has matched it at 3 seeded integer
    points (`_check_at_points`).  A point where the two differ raises
    DenominatorSurvives."""
    _check_loc_preconditions(e, f, r)
    cls = residue_class(e, f, r)
    _check_at_points(cls, e, f, r)
    return cls


def _check_at_points(cls, e, f, r):
    """Raise DenominatorSurvives unless `cls` equals `resolution_value` at
    3 seeded integer points.

    Each point takes distinct roots a_1..a_e and roots b_1..b_f drawn from
    [10^3, 10^6], and evaluates the class at c_iE = e_i(a), c_jF = e_j(b)
    on its integer numerators, with one rational per point.
    `resolution_value` forms neither the corank class h_r nor the complete
    homogeneous functions of all of W, so a fault in either shows here.

    The e_i of independent roots are algebraically independent, so a class
    that differs from the reference differs as a polynomial of degree
    t = `target_degree` in the roots, and by Schwartz-Zippel a point with
    coordinates drawn from 10^6 values misses that difference with
    probability at most about t / 10^6.  The points are seeded by (e, f, r),
    so the check is deterministic.
    """
    rng = random.Random(0xC0FFEE + 1000003 * e + 1009 * f + r)
    for _ in range(3):
        avals = rng.sample(range(10**3, 10**6 + 1), e)
        bvals = [rng.randint(10**3, 10**6) for _ in range(f)]
        ea, eb = _elem_values(avals, e), _elem_values(bvals, f)
        point = {_cE(i): ea[i] for i in range(1, e + 1)}
        point.update((_cF(j), eb[j]) for j in range(1, f + 1))
        if cls.evaluate(point) != resolution_value(e, f, r, avals, bvals):
            raise DenominatorSurvives(
                "resolution value for (e,f,r)=(%d,%d,%d) differs from the "
                "residue class at a seeded point" % (e, f, r))


def resolution_value(e: int, f: int, r: int, a: Sequence[int], b: Sequence[int]):
    """The corank->=r class at distinct integer roots a_1..a_e and integer
    roots b_1..b_f, from a resolution of the locus: a reference for every
    (e, f, r) that shares no formula with `residue_class`.

    A quadric q has corank >= r exactly when q lies in Sym^2 S for a
    rank-(e-r) subbundle S of E.  On the Grassmannian bundle G(e-r, E) the
    pairs (S, [q]) with [q] in P(Sym^2 S) and phi(q) = 0 are the zero locus
    of O(-1) -> F, of class c_f(F (x) O(1)), and they map birationally onto
    the locus (Kempf-Laksov).  Push down P(Sym^2 S) with
    pi_* zeta^(N-1+m) = (-1)^m h_m(W_S), N = C(e-r+1,2) (Fulton,
    Intersection Theory, 3.1), and then G by localization at the fixed
    points S = span(a_j : j in J), with tangent space Hom(S, E/S):
        sum_{|J| = e-r} [sum_{m=0..f-N+1} (-1)^m e_(f-N+1-m)(b) h_m(W_J)]
                        / prod_{j in J, k not in J}(a_k - a_j),
    W_J = {a_i + a_j : i <= j in J}.  No corank class h_r and no Segre
    class of Sym^2 E enter.  At r = e - 1 (|J| = 1, W_J = {2 a_j}) it is
    the Veronese class of the squares; at r = e, and for f < N - 1, it is 0.
    Formed in ints, with one rational at the end.
    """
    if len(a) != e or len(b) != f or len(set(a)) != e:
        raise PreconditionViolated("need e distinct roots a and f roots b")
    top = f - comb(e - r + 1, 2) + 1
    if top < 0:
        return QQ(0)
    eb = _elem_values(b, top)
    terms = []
    for J in combinations(range(e), e - r):
        hs = [1] + [0] * top
        for i, j in combinations_with_replacement(J, 2):
            w = a[i] + a[j]
            for m in range(1, top + 1):
                hs[m] += w * hs[m - 1]
        num = sum((-1) ** m * eb[top - m] * hs[m] for m in range(top + 1))
        den = prod(a[k] - a[j] for j in J for k in range(e) if k not in J)
        terms.append((num, den))
    L = lcm(*(den for _, den in terms))
    return QQ(sum(num * (L // den) for num, den in terms), L)


# ---------------------------------------------------------------------------
# divisorial closed form and residue form
# ---------------------------------------------------------------------------

def divisorial_f(e, r):
    """f = C(e+1,2) - C(r+1,2), the rank of F at which the corank-r locus
    is a divisor: an int for ints e and r, a rational function for rational
    functions, and never a float."""
    _check_counts((int, RationalFunction), e=e, r=r)
    if isinstance(e, int) and isinstance(r, int):
        return comb(e + 1, 2) - comb(r + 1, 2)
    return (e * (e + 1) - r * (r + 1)) * QQ(1, 2)


def divisorial_combination(e, f, c1E, c1F):
    """c1F - (2f/e) c1E: the divisorial class in units of A_e^r.

    The one place 2f/e is formed.  e and f are ints (the ratio is then a
    rational) or rational functions; c1E and c1F are classes of one type
    with a `scale` (a Polynomial in c1E, c1F, or a TautClass).  A caller
    with a corank r passes f = `divisorial_f(e, r)`."""
    if isinstance(e, int) and e < 1:
        raise PreconditionViolated("need e >= 1")
    return c1F - c1E.scale(f * QQ(2) / e)


def closed_divisor_class(e: int, r: int) -> Polynomial:
    """A_e^r (c1F - (2f/e) c1E) in the symbols c1E, c1F."""
    if not 0 <= r <= e or e < 1:
        raise PreconditionViolated("need e >= 1 and 0 <= r <= e")
    f = divisorial_f(e, r)
    if f < 1:
        raise NotDivisorial(
            "f = C(e+1,2) - C(r+1,2) = %d is not >= 1; the locus is not a "
            "virtual divisor" % f
        )
    return divisorial_combination(e, f, c1E(), c1F()).scale(a_const(e, r))


# The residue producer works on integer graded arrays.  A class in z and
# the c_jE that is homogeneous of degree D is a list over the c-degree g
# (c_jE has degree j) of `Polynomial` numerator dicts, formed in the
# algebra's product loop; each term of part g carries z^(D-g).  Their keys
# are `Polynomial`'s, so z and the c_jF join a term by integer addition.

def _twisted_corank(r: int, e: int, max_c: int) -> list:
    """2^(D-r) h_r(a - z/2), D = C(r+1,2), as a graded array in z and the
    c_jE holding only the parts of c-degree <= max_c.

    h is homogeneous of degree D in the roots, so 2^D h(a - z/2) =
    h(2a - z) = 2^r s_(r,...,1) of the Chern classes of the roots 2a - z.
    Those are E twisted by a line bundle of first Chern class -z, with E's
    classes scaled by 2^j, so (Fulton, Intersection Theory, Ex. 3.2.2) they
    are c_k = sum_{j<=k} C(e-j, k-j) 2^j c_jE (-z)^(k-j): integers.  The
    Jacobi-Trudi determinant det(c_(r-2i+j))_(i,j<r) is expanded by minors
    memoized on column subsets, as `symfunc.schur` does, and a product
    term of c-degree above max_c is never formed: c-degree only adds up.
    """
    top = min(max_c, comb(r + 1, 2))
    # every c_jE of E takes its slot here, the first time a class is
    # formed, so the kernel's keys stay short
    unit = [0] + [_key(_cE(j)) for j in range(1, e + 1)]

    def entry(k):
        if not 0 <= k <= e:
            return None
        return [{unit[j]: (-1) ** (k - j) * comb(e - j, k - j) << j}
                for j in range(min(k, top) + 1)]

    rows = [[entry(r - 2 * i + j) for j in range(r)] for i in range(r)]
    cache: dict = {}

    def minor(i, cols):
        """The minor of rows i.. on the columns of the bit set cols."""
        if i == r:
            return [{0: 1}]
        got = cache.get(cols)
        if got is not None:
            return got
        total = [{} for _ in range(top + 1)]
        sign = 1
        for j in range(r):
            if not cols >> j & 1:
                continue
            if rows[i][j] is not None:
                sub = minor(i + 1, cols & ~(1 << j))
                for ge, x in enumerate(rows[i][j]):
                    for gs, y in enumerate(sub[:top - ge + 1]):
                        if y:  # most parts of a minor are empty
                            _mul_into(total[ge + gs], x, y, sign)
            sign = -sign
        total = [_nonzero(part) if part else part for part in total]
        cache[cols] = total
        return total

    return minor(0, (1 << r) - 1)


def shifted_corank_class(r: int, e: int, max_c: int) -> Polynomial:
    """h_r(a - z/2), the corank class with every root shifted by x = -z/2,
    in z and the symbols c_jE, with only its terms of c-degree <= max_c
    formed (c_jE has degree j, z has degree 1, and every term has degree
    D = C(r+1,2)); max_c >= D gives the whole class.

    The shifted roots are those of E twisted by a line bundle of first
    Chern class x, and the class is 2^r s_(r,...,1) of their Chern series
    (`_twisted_corank`, in ints).
    """
    D = comb(r + 1, 2)
    terms = {}
    for g, part in enumerate(_twisted_corank(r, e, max_c)):
        z = _key(zvar(), D - g)
        terms.update((key + z, v) for key, v in part.items())
    return Polynomial._normal(terms, 1 << (D - r))


def _sym2_complete(e: int, top: int) -> list:
    """h_0..h_top of the Sym^2 weights a_i + a_j (i <= j), each a numerator
    dict in the c_iE.

    Newton's identities give the power sums p_m of the a_i, with p_0 = e.
    The weights' power sums are
        p_k(W) = (sum_m C(k,m) p_m p_(k-m) + 2^k p_k) / 2
               = sum_(m<k/2) C(k,m) p_m p_(k-m) + C(k-1,k/2-1) p_(k/2)^2
                 + 2^(k-1) p_k,
    the middle term only for even k (pairing m with k-m, and
    C(k,k/2) = 2 C(k-1,k/2-1)).  Then m h_m(W) = sum_(i=1..m) p_i(W)
    h_(m-i)(W), and the division by m is exact: h_m(W) is an integer
    polynomial in the c_iE.
    """
    c = [{0: 1}] + [{_key(_cE(i)): 1} for i in range(1, min(e, top) + 1)]
    p = [{0: e}]
    for m in range(1, top + 1):
        acc = {k: (-1) ** (m - 1) * m * v for k, v in c[m].items()} if m <= e else {}
        for i in range(1, min(m - 1, e) + 1):
            _mul_into(acc, c[i], p[m - i], (-1) ** (i - 1))
        p.append(_nonzero(acc))
    pW = [None]
    for k in range(1, top + 1):
        acc = {key: (e + (1 << (k - 1))) * v for key, v in p[k].items()}
        for m in range(1, (k + 1) // 2):
            _mul_into(acc, p[m], p[k - m], comb(k, m))
        if k % 2 == 0:
            _mul_into(acc, p[k // 2], p[k // 2], comb(k - 1, k // 2 - 1))
        pW.append(_nonzero(acc))
    hW = [{0: 1}]
    for m in range(1, top + 1):
        acc = {}
        for i in range(1, m + 1):
            _mul_into(acc, pW[i], hW[m - i])
        part = {}
        for key, v in _nonzero(acc).items():
            q, rem = divmod(v, m)
            if rem:
                raise AssertionError("m h_m(W) is not divisible by m")
            part[key] = q
        hW.append(part)
    return hW


def residue_class(e: int, f: int, r: int) -> Polynomial:
    """The corank->=r class as the residue at infinity of the localization
    sum, in the symbols c_iE, c_jF.

    With n = C(e+1,2), d = n - f and g(z) = h_r(a - z/2) prod_j(z - b_j),
    localization's sum over the weights W is (-1)^(d+1) times the divided
    difference of g over W, so by the residue theorem
        class = (-1)^(d+1) sum_{k >= n-1} [z^k] g(z) h_(k-n+1)(W).
    Collecting by the power z^s of the shifted corank class this is
    (-1)^(d+1) sum_s [z^s] h_r(a - z/2) q_(s-d+1), with
    q_m = sum_j (-1)^j c_jF h_(m-j)(W).  The class has degree
    t = C(r+1,2) - d + 1, so only Chern classes of degree <= t enter.
    The domain is localization's, plus r = d = 0, where the divided
    difference is exact and gives c1F - (e+1) c1E.

    Everything is formed in ints on graded arrays: 2^(D-r) h_r(a - z/2),
    D = C(r+1,2), up to c-degree t (`_twisted_corank`), and h_m(W) up to
    m = t (`_sym2_complete`).  The coefficient of (-1)^j c_jF is
    sum_g [c-degree g of h] h_(t-j-g)(W); c_jF joins its keys by addition,
    and the one division by 2^(D-r) comes at the end.
    """
    _check_counts((int,), e=e, f=f, r=r)
    n = comb(e + 1, 2)
    d = n - f
    if not (r == d == 0 and e >= 1):
        _check_loc_preconditions(e, f, r)
    t = target_degree(e, f, r)
    h = _twisted_corank(r, e, t)
    hW = _sym2_complete(e, t)
    den = 1 << (comb(r + 1, 2) - r)
    terms = {}
    for j in range(min(f, t) + 1):
        # (-1)^(d+1) (-1)^j c_jF
        sign = -1 if (d + j) % 2 == 0 else 1
        acc = {}
        for g, part in enumerate(h[:t - j + 1]):
            _mul_into(acc, part, hW[t - j - g], sign)
        cF = _key(_cF(j)) if j else 0
        terms.update((key + cF, v) for key, v in _nonzero(acc).items())
    return Polynomial._normal(terms, den)


def residue_divisor_class(e: int, r: int) -> Polynomial:
    """`residue_class` at the divisorial f = C(e+1,2) - C(r+1,2)."""
    f = divisorial_f(e, r)
    if f < 1:
        raise NotDivisorial("not in the divisorial range")
    return residue_class(e, f, r)


def to_chern_symbols(p: Polynomial, e: int, f: int) -> Polynomial:
    """Rewrite a bi-symmetric polynomial in the symbols ciE, cjF."""
    p = symmetric_reduce(p, ALPHA, e, symbol=_cE)
    return symmetric_reduce(p, BETA, f, symbol=_cF)


def to_roots(p: Polynomial, e: int, f: int) -> Polynomial:
    """Inverse of `to_chern_symbols`: expand the symbols ciE, cjF in the
    Chern roots a_1..a_e, b_1..b_f."""
    p = expand_symmetric(p, ALPHA, e, symbol=_cE)
    return expand_symmetric(p, BETA, f, symbol=_cF)


# ---------------------------------------------------------------------------
# degenerate pencils (discriminant loci)
# ---------------------------------------------------------------------------

def _root_sum(var, n: int) -> Polynomial:
    """var(1) + ... + var(n)."""
    return Polynomial._make({_key(var(i)): 1 for i in range(1, n + 1)})


def _pencil_class(e: int, c1S: Polynomial, n_beta: int = 0) -> Polynomial:
    """Branch divisor pi_*(Z (Z + K)) of the singular members of the pencil
    P(S) -> X, formed in c1E, c1F and c1S, then put in the roots a_1..a_e
    and b_1..b_n_beta.  Z = e zeta + 2 c1E is the discriminant and
    K = -2 zeta - c1S the relative canonical class, zeta = c1(O(1)).  By
    zeta^2 = -c1S zeta - c2(S), pi_* zeta = 1 and pi_* 1 = 0 (Fulton,
    Intersection Theory, 3.2) c2(S) drops out."""
    if e < 2:
        raise PreconditionViolated("need e >= 2")
    zeta = Polynomial.variable(xi())
    z = e * zeta + 2 * c1E()
    zk = z * (z - 2 * zeta - c1S)
    cls = zk.coefficient_of(xi(), 1) - c1S * zk.coefficient_of(xi(), 2)
    return cls.substitute_poly({_cE(1): _root_sum(alpha, e), _cF(1): _root_sum(beta, n_beta)})


def pencil_class_sub(e: int) -> Polynomial:
    """The degenerate-pencil class in the sub-bundle presentation,
    c1S = g_1 + g_2: (e-1)(4 sum a_i - e (g_1 + g_2))."""
    return _pencil_class(e, _root_sum(gamma_var, 2))


def pencil_class_quot(e: int) -> Polynomial:
    """Quotient-bundle presentation, c1S = (e+1) c1E - c1F with
    N = e(e+1)/2 - 2 quotient roots b_j: (e-1)(e sum b_j - (e^2+e-4) sum a_i)."""
    return _pencil_class(e, (e + 1) * c1E() - c1F(), e * (e + 1) // 2 - 2)


def pencil_sub_from_quot(e: int) -> Polynomial:
    """Rewrite the sub-presentation using g_1 + g_2 =
    (e+1) sum a_i - sum b_j (exactness of 0 -> S -> Sym^2 E -> Q -> 0)."""
    n_beta = comb(e + 1, 2) - 2
    # split the gamma-sum between the two roots; only the sum matters
    mapping = {
        gamma_var(1): (e + 1) * _root_sum(alpha, e) - _root_sum(beta, n_beta),
        gamma_var(2): Polynomial.zero(),
    }
    return pencil_class_sub(e).substitute_poly(mapping)


def discriminant_monomial_weight(e: int) -> Polynomial:
    """Torus weight of the monomial (prod_i K_ii)^(e-1) (prod_i L_ii)^(e-1)
    of the discriminant of det(x K + L): K_ii has weight 2 a_i - g_1 and
    L_ii has weight 2 a_i - g_2.  Must equal pencil_class_sub(e)."""
    total = Polynomial.zero()
    for i in range(1, e + 1):
        total = total + (2 * Polynomial.variable(alpha(i)) - Polynomial.variable(gamma_var(1)))
        total = total + (2 * Polynomial.variable(alpha(i)) - Polynomial.variable(gamma_var(2)))
    return (e - 1) * total
