"""Classes of loci of quadric-bundle maps with degenerate kernels.

Setting: a map of bundles phi from Sym^2(E) to F, ranks e and f.  The locus
where Ker(phi) contains a quadric of corank >= r has an equivariant class in
the Chern roots a_1..a_e, b_1..b_f, computed here three independent ways:

* ``localization_class``   -- the fixed-point sum over pairs (H, gamma) of a
  d-subset H of the Sym^2 weight set W and a marked weight gamma in H, with
  tangent-weight denominators (d = C(e+1,2) - f).  At a point the sum is
  evaluated in Cauchy-Binet form: the pairs of one H give a divided
  difference of f(w) = h_r(a - w/2), the sum over all H is one d x d
  moment determinant, and that determinant collapses to
  sum_i f(w_i) prod_j(b_j - w_i) / prod_{k != i}(w_k - w_i), one term per
  weight (`_fixed_point_sum`).
* ``residue_divisor_class`` -- the constant-term (residue at infinity) form
  of the same class in auxiliary variables z, u_1..u_d; only the divisorial
  case is needed, where the answer has degree 1, so only two z-coefficients
  of the shifted corank class enter, and they are read off monomial by
  monomial rather than expanded.
* ``closed_divisor_class``  -- the divisorial closed form
  A_e^r (c1(F) - (2f/e) c1(E)).

The three must agree exactly; the test suite enforces it.

Also here: projectivization of an invariant-cone class and its fixed-point
restrictions, and the two presentations of the degenerate-pencil
(discriminant) divisor class.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb, lcm, prod
from typing import Sequence

from .algebra import (
    ALPHA,
    BETA,
    SYM,
    DenominatorSurvives,
    FactoredDenominator,
    Polynomial,
    QQ,
    RationalFunction,
    Variable,
    _merge_exponents,
    alpha,
    beta,
    elementary_symmetric,
    gamma_var,
    integer_scaled,
    sym,
    symmetric_reduce,
    xi,
)
from .symfunc import ChernSeries, a_const, sym_degeneracy_class


class PreconditionViolated(Exception):
    pass


class NotDivisorial(Exception):
    pass


class ScalarConditionViolated(Exception):
    pass


def c1E() -> Polynomial:
    return Polynomial.variable(sym("c1E"))


def c1F() -> Polynomial:
    return Polynomial.variable(sym("c1F"))


# ---------------------------------------------------------------------------
# weight sets and scalar data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSet:
    """Ordered list of degree-1 weight forms of a torus representation."""

    forms: tuple

    def __len__(self):
        return len(self.forms)

    def __iter__(self):
        return iter(self.forms)

    def __getitem__(self, i):
        return self.forms[i]


@dataclass(frozen=True)
class ScalarData:
    """Integers r_1..r_k and r_total witnessing that a representation
    contains the scalars: sum_i r_i s_{j,i} = r_total for every weight j."""

    r_weights: tuple
    r_total: int

    def __post_init__(self):
        if self.r_total == 0:
            raise ValueError("r_total must be nonzero")


def sym2_weights(e: int) -> WeightSet:
    """Weights a_i + a_j (i <= j, lexicographic) of Sym^2 of a rank-e space."""
    if e < 1:
        raise PreconditionViolated("need e >= 1")
    forms = []
    for i in range(1, e + 1):
        for j in range(i, e + 1):
            forms.append(Polynomial.variable(alpha(i)) + Polynomial.variable(alpha(j)))
    return WeightSet(tuple(forms))


def _validate_scalars(weights: WeightSet, scalars: ScalarData, vars_: list):
    for w in weights:
        total = 0
        terms = dict(w.terms)
        for rv, v in zip(scalars.r_weights, vars_):
            coeff = terms.get(((v, 1),), QQ(0))
            total += rv * coeff
        if total != scalars.r_total:
            raise ScalarConditionViolated(
                "weight %s pairs to %s, expected %s" % (w, total, scalars.r_total)
            )


def projectivize(cls: Polynomial, scalars: ScalarData, weights: WeightSet) -> Polynomial:
    """Class of the projectivized cone: substitute a_i -> a_i - (r_i/r) xi."""
    vars_ = [alpha(i) for i in range(1, len(scalars.r_weights) + 1)]
    _validate_scalars(weights, scalars, vars_)
    xv = Polynomial.variable(xi())
    mapping = {
        v: Polynomial.variable(v) - QQ(rv, scalars.r_total) * xv
        for v, rv in zip(vars_, scalars.r_weights)
    }
    return cls.substitute_poly(mapping)


def fixed_point_restriction(
    cls: Polynomial, weights: WeightSet, j: int, scalars: ScalarData
) -> Polynomial:
    """Restriction to the j-th coordinate fixed point: xi specializes to the
    j-th weight, so a_i -> a_i - (r_i/r) w_j."""
    vars_ = [alpha(i) for i in range(1, len(scalars.r_weights) + 1)]
    _validate_scalars(weights, scalars, vars_)
    wj = weights[j]
    mapping = {
        v: Polynomial.variable(v) - QQ(rv, scalars.r_total) * wj
        for v, rv in zip(vars_, scalars.r_weights)
    }
    return cls.substitute_poly(mapping)


# ---------------------------------------------------------------------------
# localization sum
# ---------------------------------------------------------------------------

def _check_loc_preconditions(e: int, f: int, r: int):
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


# Measured crossover on e <= 3: "lines" is faster up to 18 unknowns
# ((3,3,3): 0.014 s against 0.24 s) and "direct" from 32 on ((3,4,3):
# 0.079 s against 0.11 s; (3,5,3): 0.019 s against 1.7 s).  On e = 4
# "direct" loses at every size ((4,9,1): 3.6 s against 0.003 s).
_DIRECT_MIN_UNKNOWNS = 24


def localization_class(
    e: int,
    f: int,
    r: int,
    strategy: str = "auto",
    jobs: int = 1,
    subset_order: Sequence[int] | None = None,
) -> Polynomial:
    """Fixed-point sum for the corank->=r locus, as a polynomial in the
    Chern roots a_1..a_e, b_1..b_f.

    The sum runs over the pairs (H, gamma) of a d-subset H of the Sym^2
    weights W and a marked weight gamma in H, d = C(e+1,2) - f.  Write
    B_i = prod_j(b_j - w_i), P_i = prod_{k != i}(w_k - w_i), x_i = B_i/P_i
    and f(w) = h(a - w/2).  The terms of one H sum to
    (-1)^(C(d,2)+d-1) Delta(H)^2 f[H] prod_{i in H} x_i, with Delta(H) the
    Vandermonde product of the weights in H and f[H] the divided difference
    of f over them.  By Cauchy-Binet the sum over all H is one d x d moment
    determinant, and that determinant collapses to sum_i x_i f(w_i): one
    term per weight instead of C(|W|, d) * d pairs (`_fixed_point_sum`).

    strategy:
      "direct" -- exact rational-function summation over a maintained least
                  common denominator of linear forms (the denominator of
                  every fixed-point term is such a product).  The symmetric
                  functions of the b-roots are carried as formal symbols of
                  bounded weight, which keeps the numerators small.
      "lines"  -- exact evaluation of the sum at deterministic integer
                  points plus reconstruction in the elementary-symmetric
                  basis forced by the (S_e x S_f)-symmetry and the
                  homogeneity degree of every term.  At an integer point
                  every tangent weight is an integer and h(a - w/2) has a
                  power-of-2 denominator, so each point's sum is taken in
                  Python ints in the collapsed form of `_fixed_point_sum`,
                  and the interpolation system is solved by fraction-free
                  elimination.  Over-determined and re-verified at fresh
                  points, so an inconsistency (the sum failing to be
                  polynomial) raises DenominatorSurvives.
      "auto"   -- "direct" for a source of rank e <= 3 whose interpolation
                  basis has more than _DIRECT_MIN_UNKNOWNS elements, else
                  "lines".  The basis size sets the number of points and
                  the size of the solve; the symbolic denominator lattice
                  stays small only up to rank 3.

    `jobs` is accepted and has no effect: a point costs one sum over the
    weights, so everything runs in this process.  `subset_order` permutes
    the order of the weights, which reorders the subset enumeration of
    "direct" and the sum over the weights of "lines" (the result must not
    depend on it; tested).
    """
    d = _check_loc_preconditions(e, f, r)
    W = sym2_weights(e)
    if subset_order is not None:
        W = WeightSet(tuple(W[i] for i in subset_order))
    if strategy == "auto":
        n_unknown = len(_symmetric_basis(e, f, target_degree(e, f, r)))
        use_direct = e <= 3 and n_unknown > _DIRECT_MIN_UNKNOWNS
        strategy = "direct" if use_direct else "lines"
    if strategy == "direct":
        return _localization_direct(e, f, r, d, W)
    if strategy == "lines":
        return _localization_points(e, f, r, W)
    raise ValueError("unknown strategy %r" % strategy)


def _h_poly(r: int, e: int) -> Polynomial:
    return sym_degeneracy_class(r, e)


def _fvar(m: int) -> Variable:
    return sym("F%d" % m)


def _b_factor_symbolic(delta: Polynomial, f: int, cap: int) -> Polynomial:
    """prod_j (b_j - delta) written in the symbols F_m = e_m(b-roots),
    keeping only F-weight <= cap (higher sectors cannot reach the answer's
    homogeneity degree)."""
    out = Polynomial.zero()
    neg = -delta
    power = [Polynomial.const(1)]
    for _ in range(f):
        power.append(power[-1] * neg)
    for m in range(0, min(f, cap) + 1):
        fm = Polynomial.variable(_fvar(m)) if m else Polynomial.const(1)
        out = out + fm * power[f - m]
    return out


def _fweight(mono) -> int:
    w = 0
    for v, exp in mono:
        if v[0] == SYM and v[1].startswith("F"):
            w += int(v[1][1:]) * exp
    return w


def _mul_fcapped(p: Polynomial, q: Polynomial, cap: int) -> Polynomial:
    out: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = _merge_exponents(m1, m2)
            if _fweight(m) > cap:
                continue
            s = out.get(m)
            if s is None:
                out[m] = c1 * c2
            else:
                s = s + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
    return Polynomial._raw(out)


def _expand_fvars(p: Polynomial, f: int) -> Polynomial:
    mapping = {}
    for v in p.variables():
        if v[0] == SYM and v[1].startswith("F"):
            m = int(v[1][1:])
            mapping[v] = elementary_symmetric(BETA, f, m)
    return p.substitute_poly(mapping) if mapping else p


def _loc_terms(W, d):
    """Yield the (H, gamma) pairs, as indices into W, in a deterministic
    order."""
    for combo in itertools.combinations(range(len(W)), d):
        for g in combo:
            yield combo, g


def _localization_direct(e, f, r, d, W):
    cap = target_degree(e, f, r)
    h = _h_poly(r, e)
    avars = [alpha(i) for i in range(1, e + 1)]
    half = QQ(1, 2)
    bfac_cache = {
        i: _b_factor_symbolic(W[i], f, cap) for i in range(len(W))
    }

    def make_term(combo, g):
        gam = W[g]
        shift = {v: Polynomial.variable(v) - half * gam for v in avars}
        num = h.substitute_poly(shift)
        for i in combo:
            num = _mul_fcapped(num, bfac_cache[i], cap)
        den_forms = []
        for i in range(len(W)):
            if i != g:
                den_forms.append(W[i] - gam)
        comp = [i for i in range(len(W)) if i not in combo]
        for i in combo:
            if i == g:
                continue
            for j in comp:
                den_forms.append(W[j] - W[i])
        return RationalFunction.from_factored(
            num, FactoredDenominator.from_linear_factors(den_forms)
        )

    terms = [make_term(combo, g) for combo, g in _loc_terms(W, d)]
    from .algebra import sum_fractions

    total = sum_fractions(terms)
    result = _expand_fvars(total, f)
    _check_class_shape(result, e, f, r)
    return result


def _check_class_shape(p: Polynomial, e: int, f: int, r: int):
    deg = target_degree(e, f, r)
    if not p.is_homogeneous(deg) and not p.is_zero():
        raise AssertionError(
            "class for (e,f,r)=(%d,%d,%d) is not homogeneous of degree %d"
            % (e, f, r, deg)
        )


def _symmetric_basis(e: int, f: int, deg: int):
    """Monomials in e_i(alpha), e_j(beta) of total weighted degree `deg`."""

    def weighted(parts_max: int, total: int):
        # partitions of `total` into parts <= parts_max, as multiplicity dicts
        def rec(remaining, largest):
            if remaining == 0:
                yield {}
                return
            for part in range(min(largest, remaining), 0, -1):
                for rest in rec(remaining - part, part):
                    out = dict(rest)
                    out[part] = out.get(part, 0) + 1
                    yield out

        yield from rec(total, parts_max)

    basis = []
    for p in range(deg + 1):
        q = deg - p
        for pa in weighted(e, p):
            for pb in weighted(f, q):
                basis.append((tuple(sorted(pa.items())), tuple(sorted(pb.items()))))
    return basis


def _basis_polynomial(item, e: int, f: int) -> Polynomial:
    pa, pb = item
    out = Polynomial.const(1)
    for part, mult in pa:
        out = out * elementary_symmetric(ALPHA, e, part) ** mult
    for part, mult in pb:
        out = out * elementary_symmetric(BETA, f, part) ** mult
    return out


def _elem_values(values, k: int):
    """Elementary symmetric values e_0..e_k of a list of integers."""
    es = [1] + [0] * k
    for v in values:
        for i in range(min(k, len(values)), 0, -1):
            es[i] += v * es[i - 1]
    return es


def _integer_form(p: Polynomial, variables):
    """p as (L, terms) with L*p integral: terms are (integer coefficient,
    ((position in `variables`, exponent), ...)), for evaluation in ints."""
    scale, ints = integer_scaled(p.terms.values())
    pos = {v: k for k, v in enumerate(variables)}
    terms = [(n, tuple((pos[v], x) for v, x in m)) for m, n in zip(p.terms, ints)]
    return scale, terms


def _eval_integer_form(terms, values) -> int:
    total = 0
    for c, mono in terms:
        for k, x in mono:
            c *= values[k] ** x
        total += c
    return total


def _fixed_point_sum(wvals, bvals, fvals, scale) -> QQ:
    """The fixed-point sum over the pairs (H, gamma) at an integer point.

    `wvals` are the weight values w_1..w_n, `bvals` the b-roots, and
    fvals[i] = scale * f(w_i) are integers, with f(w) = h(a - w/2).  For a
    d-subset H (d = n - len(bvals)) and gamma in H, the (H, gamma) term is
    f(w_gamma) prod_{i in H} B_i over
    P_gamma prod_{i in H, i != gamma} prod_{k not in H}(w_k - w_i), where
    B_i = prod_j(b_j - w_i) and P_i = prod_{k != i}(w_k - w_i).

    Cauchy-Binet.  Put x_i = B_i/P_i and Delta(H) = prod_{i<k in H}(w_k - w_i).
    The terms of one H sum to (-1)^(C(d,2)+d-1) Delta(H)^2 f[H]
    prod_{i in H} x_i, where f[H] is the divided difference of f over the
    weights of H, and Delta(H) f[H] is the alternant
    det(w_i^0, .., w_i^(d-2), f(w_i))_{i in H}.  Summed over the d-subsets
    this is (-1)^(C(d,2)+d-1) det(V^T X F): the d x d moment matrix with
    entries m_(j+k) = sum_i x_i w_i^(j+k) for k < d-1, and
    sum_i x_i w_i^j f(w_i) in the last column.

    The determinant collapses.  m_s is (-1)^(n-1) times the divided
    difference over all n weights of B(w) w^s, B(w) = prod_j(b_j - w), a
    polynomial of degree n - d + s.  So m_s = 0 for s < d-1, and
    m_(d-1) = (-1)^(d-1).  The matrix is zero above its anti-diagonal,
    which holds sum_i x_i f(w_i) in row 0 and m_(d-1) below it, so the
    determinant is (-1)^(C(d,2)+d-1) sum_i x_i f(w_i), the signs cancel,
    and the sum is sum_i B_i f(w_i) / P_i.  It is accumulated in ints over
    L = lcm|P_i| and returned as a fraction over L * scale.
    """
    P = [prod(wk - wi for k, wk in enumerate(wvals) if k != i)
         for i, wi in enumerate(wvals)]
    L = lcm(*P)
    total = sum(
        prod(bv - wi for bv in bvals) * fi * (L // Pi)
        for wi, fi, Pi in zip(wvals, fvals, P)
    )
    return QQ(total, L * scale)


def _localization_points(e, f, r, W):
    deg = target_degree(e, f, r)
    h = _h_poly(r, e)
    avars = [alpha(i) for i in range(1, e + 1)]
    bvars = [beta(j) for j in range(1, f + 1)]
    if not h.is_homogeneous():
        raise AssertionError("the corank class h must be homogeneous")
    # h(a - w/2) = h(2a - w) / 2^deg(h), so M * h(a - w/2) is an integer
    hscale, hterms = _integer_form(h, avars)
    M = hscale << h.degree()
    basis = _symmetric_basis(e, f, deg)
    n_unknown = len(basis)
    rng = random.Random(0xC0FFEE + 1000003 * e + 1009 * f + r)

    def sample_point():
        while True:
            avals = [rng.randint(10**3, 10**6) for _ in range(e)]
            # the weights have integer coefficients, so their values are ints
            point = dict(zip(avars, avals))
            wvals = [wf.evaluate(point).numerator for wf in W]
            if len(set(wvals)) == len(wvals):
                bvals = [rng.randint(10**3, 10**6) for _ in range(f)]
                return avals, bvals, wvals

    def sum_at(avals, bvals, wvals):
        fvals = [
            _eval_integer_form(hterms, [2 * av - wi for av in avals])
            for wi in wvals
        ]
        return _fixed_point_sum(wvals, bvals, fvals, M)

    def basis_row(avals, bvals):
        ea = _elem_values(avals, e)
        eb = _elem_values(bvals, f)
        row = []
        for pa, pb in basis:
            val = 1
            for part, mult in pa:
                val *= ea[part] ** mult
            for part, mult in pb:
                val *= eb[part] ** mult
            row.append(val)
        return row

    points = [sample_point() for _ in range(n_unknown + 4)]
    evals = [sum_at(*pt) for pt in points]
    rows = [basis_row(avals, bvals) for avals, bvals, _ in points]
    for _ in range(3):
        try:
            coeffs = _solve_overdetermined(rows, evals)
            break
        except _RankDeficient:
            # a degenerate sample; widen the point set and try again
            extra = [sample_point() for _ in range(n_unknown)]
            evals = evals + [sum_at(*pt) for pt in extra]
            rows = rows + [basis_row(avals, bvals) for avals, bvals, _ in extra]
            points = points + extra
    else:
        raise AssertionError("interpolation system stayed rank-deficient")
    if coeffs is None:
        raise DenominatorSurvives(
            "localization sum for (e,f,r)=(%d,%d,%d) is inconsistent with a "
            "polynomial of its homogeneity degree" % (e, f, r)
        )
    result = Polynomial.zero()
    for c, item in zip(coeffs, basis):
        if c:
            result = result + c * _basis_polynomial(item, e, f)

    # re-verify at fresh points
    rscale, rterms = _integer_form(result, avars + bvars)
    for _ in range(3):
        avals, bvals, wvals = sample_point()
        direct = sum_at(avals, bvals, wvals)
        got = QQ(_eval_integer_form(rterms, avals + bvals), rscale)
        if direct != got:
            raise DenominatorSurvives(
                "localization sum disagrees with reconstructed polynomial "
                "at a verification point"
            )
    _check_class_shape(result, e, f, r)
    return result


class _RankDeficient(Exception):
    pass


def _solve_overdetermined(rows, rhs):
    """Exact solve of the full overdetermined system by fraction-free
    (Bareiss) elimination: each equation, right-hand side included, is
    scaled to integers by the lcm of its denominators, and every division
    in the elimination is exact.  Returns None if inconsistent, raises
    _RankDeficient if the solution is not unique, and otherwise returns the
    solution as QQ values."""
    m = len(rows)
    if not m:
        return []
    n = len(rows[0])
    aug = []
    for row, val in zip(rows, rhs):
        aug.append(integer_scaled(list(row) + [val])[1])
    pivots = []
    prev = 1  # the previous pivot, which divides every update exactly
    for col in range(n):
        k = len(pivots)
        piv = next((i for i in range(k, m) if aug[i][col]), None)
        if piv is None:
            continue
        aug[k], aug[piv] = aug[piv], aug[k]
        top = aug[k]
        p = top[col]
        for i in range(k + 1, m):
            row = aug[i]
            a = row[col]
            aug[i] = row[:col] + [
                (p * x - a * y) // prev for x, y in zip(row[col:], top[col:])
            ]
        prev = p
        pivots.append(col)
    # inconsistent?
    if any(aug[i][n] for i in range(len(pivots), m)):
        return None
    if len(pivots) != n:
        raise _RankDeficient("interpolation system needs more points")
    # back substitution for det * x, integral by Cramer's rule
    det = prev
    y = [0] * n
    for j in range(n - 1, -1, -1):
        row = aug[j]
        acc = det * row[n] - sum(row[k] * y[k] for k in range(j + 1, n))
        y[j] = acc // row[j]
    return [QQ(v, det) for v in y]


# ---------------------------------------------------------------------------
# divisorial closed form and residue form
# ---------------------------------------------------------------------------

def divisorial_f(e: int, r: int) -> int:
    return comb(e + 1, 2) - comb(r + 1, 2)


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
    A = a_const(e, r)
    return A * c1F() - A * QQ(2 * f, e) * c1E()


def chern_difference(e: int, f: int, order: int) -> ChernSeries:
    """Chern series of the virtual difference F-dual minus Sym^2(E)-dual,
    i.e. prod_j(1 - b_j t) / prod_{w in W}(1 - w t) to the given order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    bneg = [-Polynomial.variable(beta(j)) for j in range(1, f + 1)]
    wneg = [-w for w in sym2_weights(e)]
    num = ChernSeries.from_roots(bneg, order)
    den = ChernSeries.from_roots(wneg, order)
    return num.quotient_by(den, order)


def _antisym_coeff(vec) -> QQ:
    """Coefficient of u^vec in prod_{i<j}(1 - u_i/u_j), via the Vandermonde
    determinant: the product equals det(u_j^{sigma(j)-j}) summed with signs,
    so the coefficient is the sign of j -> vec_j + j when that is a
    permutation, else 0."""
    d = len(vec)
    images = [vec[j] + j for j in range(d)]
    if sorted(images) != list(range(d)):
        return QQ(0)
    sign = 1
    seen = [False] * d
    for start in range(d):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return QQ(sign)


def _exponent_splits(caps, k: int):
    """Tuples (j_1..j_n) with 0 <= j_i <= caps[i] and sum j_i = k."""
    if not caps:
        if k == 0:
            yield ()
        return
    rest = caps[1:]
    for j in range(max(0, k - sum(rest)), min(caps[0], k) + 1):
        for tail in _exponent_splits(rest, k - j):
            yield (j,) + tail


def _shift_coefficient(h: Polynomial, k: int) -> Polynomial:
    """Coefficient of z^k in h(a - z/2), read off monomial by monomial.

    (a_i - z/2)^n = sum_j C(n, j) a_i^(n-j) (-z/2)^j, so a monomial's z^k
    coefficient sums, over the ways to take j_i of the n_i factors a_i with
    sum j_i = k, the products of C(n_i, j_i), times (-1/2)^k.  The other
    z-powers of h(a - z/2) are never formed.
    """
    scale = QQ(-1, 2) ** k
    out: dict = {}
    for m, c in h.terms.items():
        caps = [n if v[0] == ALPHA else 0 for v, n in m]
        for js in _exponent_splits(caps, k):
            mono = tuple((v, n - j) for (v, n), j in zip(m, js) if n > j)
            w = c * scale * prod(comb(n, j) for (_, n), j in zip(m, js))
            s = out.get(mono, 0) + w
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return Polynomial._raw(out)


def residue_divisor_class(e: int, r: int, basis: str = "chern") -> Polynomial:
    """Divisorial class via the residue-at-infinity constant-term formula.

    The class is the constant term in z and u_1..u_d of
        (-1)^(d+1) h_r|_{a -> a - z/2} * prod_{i<j}(1 - u_i/u_j)
                   / (z^(d-1) prod_j (1 - u_j/z))
                   * prod_j sum_i c_i(Fdual - Sym2Edual) u_j^{-i}.
    The answer has degree 1, so by homogeneity only the z^(d-1) and z^d
    coefficients of the shifted class and the c-series orders 0 and 1
    contribute.  Those two coefficients are read off h directly
    (`_shift_coefficient`); h(a - z/2) is never expanded.  The formula needs
    at least one u_j, so r = 0 (d = 0) is rejected.
    """
    if not 1 <= r <= e:
        raise PreconditionViolated(
            "need 1 <= r <= e: the residue formula needs d = C(r+1,2) >= 1"
        )
    f = divisorial_f(e, r)
    if f < 1:
        raise NotDivisorial("not in the divisorial range")
    d = comb(e + 1, 2) - f  # = C(r+1,2)
    h = _h_poly(r, e)
    c1 = chern_difference(e, f, 1).c(1)

    # z-power d-1: no u_j/z insertions, all c_0
    total = _shift_coefficient(h, d - 1) * _antisym_coeff((0,) * d)
    # z-power d: one u_{j0}/z insertion, one c_1 (u-balance kills the rest)
    p1 = _shift_coefficient(h, d)
    if not p1.is_zero():
        acc = QQ(0)
        for j0 in range(d):
            for m in range(d):
                vec = [0] * d
                vec[m] += 1
                vec[j0] -= 1
                acc += _antisym_coeff(tuple(vec))
        total = total + acc * (p1 * c1)
    sign = QQ(1) if (d + 1) % 2 == 0 else QQ(-1)
    result = sign * total
    if basis == "roots":
        return result
    return to_chern_symbols(result, e, f)


def to_chern_symbols(p: Polynomial, e: int, f: int) -> Polynomial:
    """Rewrite a bi-symmetric polynomial in the symbols ciE, cjF."""
    p = symmetric_reduce(p, ALPHA, e, symbol=lambda i: sym("c%dE" % i))
    p = symmetric_reduce(p, BETA, f, symbol=lambda j: sym("c%dF" % j))
    return p


# ---------------------------------------------------------------------------
# degenerate pencils (discriminant loci)
# ---------------------------------------------------------------------------

def pencil_class_sub(e: int) -> Polynomial:
    """Class of tangent 2-planes in the sub-bundle presentation:
    (e-1)(4 sum a_i - e (g_1 + g_2))."""
    if e < 2:
        raise PreconditionViolated("need e >= 2")
    suma = sum(
        (Polynomial.variable(alpha(i)) for i in range(1, e + 1)), Polynomial.zero()
    )
    sumg = Polynomial.variable(gamma_var(1)) + Polynomial.variable(gamma_var(2))
    return (e - 1) * (4 * suma - e * sumg)


def pencil_class_quot(e: int) -> Polynomial:
    """Quotient-bundle presentation: (e-1)(e sum b_i - (e^2+e-4) sum a_i),
    with N = C(e+1,2) - 2 quotient roots."""
    if e < 2:
        raise PreconditionViolated("need e >= 2")
    n_beta = comb(e + 1, 2) - 2
    suma = sum(
        (Polynomial.variable(alpha(i)) for i in range(1, e + 1)), Polynomial.zero()
    )
    sumb = sum(
        (Polynomial.variable(beta(j)) for j in range(1, n_beta + 1)),
        Polynomial.zero(),
    )
    return (e - 1) * (e * sumb - (e * e + e - 4) * suma)


def pencil_sub_from_quot(e: int) -> Polynomial:
    """Rewrite the sub-presentation using g_1 + g_2 =
    (e+1) sum a_i - sum b_j (exactness of 0 -> S -> Sym^2 E -> Q -> 0)."""
    n_beta = comb(e + 1, 2) - 2
    suma = sum(
        (Polynomial.variable(alpha(i)) for i in range(1, e + 1)), Polynomial.zero()
    )
    sumb = sum(
        (Polynomial.variable(beta(j)) for j in range(1, n_beta + 1)),
        Polynomial.zero(),
    )
    g1 = gamma_var(1)
    g2 = gamma_var(2)
    # split the gamma-sum between the two roots; only the sum matters
    mapping = {
        g1: (e + 1) * suma - sumb,
        g2: Polynomial.zero(),
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
