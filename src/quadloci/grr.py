"""Codimension-1 Riemann-Roch pushforwards for curve and K3 fibrations.

The engine is a formal one.  A class on the total space (a Chern
character, the Todd class, a jet-bundle class) is a ``Polynomial`` in a few
tag generators, ``sym`` variables made by ``tag``: c1L for the twisting line
bundle, c1omega for the relative dualizing sheaf, c2T for the relative
second Chern class, T2 for the degree-2 Todd term of a curve fibration, and
v1/v2 for classes pulled back from the base.  Its coefficients are
polynomials in the formal parameters.  A ``FiberRuleTable`` records what the
fibration integrates each tag monomial to, by the monomial's tag degree
(``TAG_DEGREE``).  ``grr_c1`` computes the first Chern class of a
pushforward sheaf: it forms ch * todd and integrates the part of tag degree
relative_dim + 1; ``grr_rank`` integrates the part of degree relative_dim.

Outputs live in ``TautClass``: linear combinations of named divisor classes
(lambda, boundary classes, kappa classes, ...) whose coefficients are exact
rational functions in the formal parameters (g, k, n, i, ...).  ``rf`` lifts
a number, a polynomial or a parameter name to a rational function:
``rf("g")`` is the parameter g, so a genus, degree or index may be passed
as an int or by name alike.  Numbers need no lift where they meet a rational
function: its operators take ints and QQ values on either side.
"""

from __future__ import annotations

from functools import cache
from typing import Mapping, NamedTuple

from .algebra import (FrozenDict, Polynomial, QQ, RationalFunction, _decode, _key, _new,
                      _slot_mask, _split, param, sym)


class MissingRule(Exception):
    """A fibration was asked to integrate a monomial it has no rule for."""


class IdentityFailed(Exception):
    """A derivation missed the closed form or span it must land in."""


def rf(x) -> RationalFunction:
    """x as a rational function; a string names a formal parameter."""
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Polynomial):
        return RationalFunction._raw(x)
    if isinstance(x, str):
        return RationalFunction._raw(Polynomial.variable(param(x)))
    return RationalFunction._raw(Polynomial.const(x))


_SYMBOL_ORDER = [
    "lambda", "delta", "delta0", "delta1", "delta2", "delta3",
    "kappa1", "frak_a", "frak_b", "gamma", "kappa30", "kappa11",
    "c1V", "D0", "D2", "D3", "D11", "Hrk4", "twist", "alpha*D11",
]


def _symbol_key(s: str):
    try:
        return (0, _SYMBOL_ORDER.index(s))
    except ValueError:
        return (1, s)


class TautClass:
    """Linear combination of named divisor symbols with rational-function
    coefficients in formal parameters; `coeffs` is a FrozenDict."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[str, RationalFunction] | None = None):
        clean = {s: rf(c) for s, c in (coeffs or {}).items()}
        _set_coeffs(self, FrozenDict({s: c for s, c in clean.items() if c.num}))

    @staticmethod
    def _raw(coeffs: dict) -> "TautClass":
        """Wrap coefficients that are already nonzero."""
        t = _new(TautClass)
        _set_coeffs(t, FrozenDict(coeffs))
        return t

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("TautClass is immutable")
    __delattr__ = __setattr__

    def __reduce__(self):
        return TautClass, (self.coeffs,)

    @staticmethod
    def symbol(name: str, coeff=1) -> "TautClass":
        return TautClass({name: rf(coeff)})

    @staticmethod
    def zero() -> "TautClass":
        return TautClass()

    def coefficient(self, name: str) -> RationalFunction:
        return self.coeffs.get(name, _ZERO)

    def __add__(self, other: "TautClass") -> "TautClass":
        # only a coefficient both sides carry can become zero
        out = self.coeffs.copy()
        for s, c in other.coeffs.items():
            c = out[s] + c if s in out else c
            if c.num:
                out[s] = c
            else:
                del out[s]
        return TautClass._raw(out)

    def __sub__(self, other: "TautClass") -> "TautClass":
        return self + (-other)

    def __neg__(self) -> "TautClass":
        # -n/d is nonzero and reduced when n/d is
        return TautClass._raw({s: -c for s, c in self.coeffs.items()})

    def scale(self, c) -> "TautClass":
        c = rf(c)
        return TautClass({s: v * c for s, v in self.coeffs.items()})

    def substitute_symbol(self, name: str, value: "TautClass") -> "TautClass":
        if name not in self.coeffs:
            return self
        c = self.coeffs[name]
        rest = TautClass._raw({s: v for s, v in self.coeffs.items() if s != name})
        return rest + value.scale(c)

    def __eq__(self, other):
        if not isinstance(other, TautClass):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(s) == other.coefficient(s) for s in keys)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for s in sorted(self.coeffs, key=_symbol_key):
            bits.append("(%s)*%s" % (self.coeffs[s], s))
        return " + ".join(bits)

    __repr__ = __str__


_set_coeffs = TautClass.coeffs.__set__
_ZERO = RationalFunction(0)


# ---------------------------------------------------------------------------
# total-space classes
# ---------------------------------------------------------------------------

TAG_DEGREE = {"c1L": 1, "c1omega": 1, "c2T": 2, "T2": 2, "v1": 1, "v2": 2}
_TAGS = [sym(name) for name in TAG_DEGREE]


def tag(name: str) -> Polynomial:
    """The tag generator `name` (a key of TAG_DEGREE) as a variable."""
    return Polynomial.variable(sym(name))


def _tag_part(expr: Polynomial, deg: int, rules: dict):
    """Yield (rule, coefficient) for each tag monomial of tag degree deg in expr.

    The int numerators of one tag monomial (a key's part in the tags' slots,
    as `_mono` gives it), over expr's denominator, are its coefficient, a
    polynomial in the parameters.  Only a monomial with no rule is decoded."""
    for tags, num in _split(expr._num, _slot_mask(_TAGS)).items():
        rule = rules.get(tags)
        if rule is None:
            key = tuple((v[1], e) for v, e in _decode(tags))
            if sum(TAG_DEGREE[t] * e for t, e in key) == deg:
                raise MissingRule("no degree-%d rule for %s" % (deg, key))
            continue
        yield rule, rf(Polynomial._normal(num, expr._den))


class FiberRuleTable(NamedTuple):
    """Pushforward rules for one fibration type.

    top_rules:    monomials of degree relative_dim + 1  ->  TautClass
    scalar_rules: monomials of degree relative_dim      ->  RationalFunction or number
    Other degrees integrate to zero.  Both maps are FrozenDicts.
    """

    relative_dim: int
    top_rules: FrozenDict
    scalar_rules: FrozenDict
    todd: Polynomial

    def push_top(self, expr: Polynomial) -> TautClass:
        pieces = _tag_part(expr, self.relative_dim + 1, self.top_rules)
        return sum((rule.scale(c) for rule, c in pieces), TautClass.zero())

    def push_scalar(self, expr: Polynomial) -> RationalFunction:
        pieces = _tag_part(expr, self.relative_dim, self.scalar_rules)
        return sum((rule * c for rule, c in pieces), _ZERO)


def _mono(*pairs):
    """The key of the tag monomial with these (name, exponent) pairs."""
    return sum(_key(sym(name), e) for name, e in pairs)


def curve_rules(genus, degL, boundary: str = "delta") -> FiberRuleTable:
    """Pushforward table for a genus-g curve fibration carrying a degree-d
    line bundle.  `boundary` names the symbol subtracted from 12*lambda in
    the kappa_1 rule: "delta" (total boundary), "delta0", or "D0" on the
    space of admissible covers.  Identities emitted with "delta0"/"D0" hold
    on the partial compactification only.
    """
    g = rf(genus)
    d = rf(degL)
    lam = TautClass.symbol("lambda")
    kappa1 = lam.scale(12) - TautClass.symbol(boundary)
    two_g_2 = 2 * g - 2
    top = FrozenDict({
        _mono(("c1L", 2)): TautClass.symbol("frak_a"),
        _mono(("c1L", 1), ("c1omega", 1)): TautClass.symbol("frak_b"),
        _mono(("c1omega", 2)): kappa1,
        _mono(("T2", 1)): lam,
        _mono(("c1L", 1), ("v1", 1)): TautClass.symbol("c1V", d),
        _mono(("c1omega", 1), ("v1", 1)): TautClass.symbol("c1V", two_g_2),
        _mono(("v1", 2)): TautClass.zero(),
        _mono(("v2", 1)): TautClass.zero(),
    })
    scalar = FrozenDict({
        _mono(("c1L", 1)): d,
        _mono(("c1omega", 1)): two_g_2,
        _mono(("v1", 1)): 0,
    })
    todd = 1 - tag("c1omega") * QQ(1, 2) + tag("T2")
    return FiberRuleTable(1, top, scalar, todd)


@cache
def k3_rules(genus) -> FiberRuleTable:
    """Pushforward table for a polarized K3 fibration of genus g: the
    relative dualizing sheaf is pulled back from the base (so its square
    integrates to zero against degree-1 classes), the relative Euler number
    is 24, and the polarization has self-intersection 2g-2 on fibers.

    Cached per genus, an int or a polynomial in the parameters, whose stored
    form is canonical."""
    g = rf(genus)
    lam = TautClass.symbol("lambda")
    two_g_2 = 2 * g - 2
    top = FrozenDict({
        _mono(("c1L", 3)): TautClass.symbol("kappa30"),
        _mono(("c1L", 1), ("c2T", 1)): TautClass.symbol("kappa11"),
        _mono(("c1L", 2), ("c1omega", 1)): lam.scale(two_g_2),
        _mono(("c1omega", 1), ("c2T", 1)): lam.scale(24),
        _mono(("c1L", 1), ("c1omega", 2)): TautClass.zero(),
        _mono(("c1omega", 3)): TautClass.zero(),
    })
    scalar = FrozenDict({
        _mono(("c1L", 2)): two_g_2,
        _mono(("c2T", 1)): 24,
        _mono(("c1L", 1), ("c1omega", 1)): 0,
        _mono(("c1omega", 2)): 0,
    })
    w, c2 = tag("c1omega"), tag("c2T")
    todd = 1 - w * QQ(1, 2) + (w ** 2 + c2) * QQ(1, 12) + w * c2 * QQ(1, 24)
    return FiberRuleTable(2, top, scalar, todd)


def line_bundle_ch(aL, bOmega) -> Polynomial:
    """ch of L^aL tensor omega^bOmega through degree 3: the truncated
    exp(aL c1L + bOmega c1omega).  aL and bOmega are numbers, parameter
    names or polynomials in the parameters."""
    c1 = rf(aL).as_polynomial() * tag("c1L") + rf(bOmega).as_polynomial() * tag("c1omega")
    return 1 + c1 + c1 ** 2 * QQ(1, 2) + c1 ** 3 * QQ(1, 6)


def grr_c1(ch: Polynomial, rules: FiberRuleTable) -> TautClass:
    """First Chern class of the derived pushforward: integrate the
    degree-(relative_dim + 1) part of ch * Todd."""
    return rules.push_top(ch * rules.todd)


def grr_rank(ch: Polynomial, rules: FiberRuleTable) -> RationalFunction:
    """Rank of the derived pushforward: integrate the degree-relative_dim
    part of ch * Todd."""
    return rules.push_scalar(ch * rules.todd)


# ---------------------------------------------------------------------------
# derived identities
# ---------------------------------------------------------------------------

def chern_of_power_pushforward(n, genus) -> TautClass:
    """c1 of the pushforward of the n-th power of the polarization on a K3
    fibration: (n/12) kappa11 + (n^3/6) kappa30 - ((n^2/2)(g-1) - 1) lambda."""
    rules = k3_rules(genus)
    return grr_c1(line_bundle_ch(n, 0), rules)


def gamma_hurwitz(k) -> TautClass:
    """Twist-invariant combination frak_b - ((2k-2)/k) frak_a on the space
    of degree-k covers."""
    k = rf(k)
    return TautClass.symbol("frak_b") - TautClass.symbol(
        "frak_a", (2 * k - 2) / k
    )


def gamma_k3(genus) -> TautClass:
    """Twist-invariant combination kappa30 - ((g-1)/4) kappa11."""
    g = rf(genus)
    return TautClass.symbol("kappa30") - TautClass.symbol(
        "kappa11", (g - 1) * QQ(1, 4)
    )


def _twist(cls: TautClass, shifts) -> TautClass:
    """cls with each symbol s of the (s, c) pairs replaced by s + c twist."""
    t = TautClass.symbol("twist")
    for name, shift in shifts:
        cls = cls.substitute_symbol(name, TautClass.symbol(name) + t.scale(shift))
    return cls


def hurwitz_twist(cls: TautClass, k) -> TautClass:
    """Effect on (frak_a, frak_b) of twisting the degree-k pencil by a class
    pulled back from the base (symbol "twist"): frak_a shifts by 2k twist,
    frak_b by (2g-2) twist with g = 2k-1."""
    k = rf(k)
    return _twist(cls, (("frak_a", 2 * k), ("frak_b", 4 * k - 4)))


def k3_twist(cls: TautClass, genus) -> TautClass:
    """Effect on (kappa30, kappa11) of twisting the polarization by a class
    pulled back from the base: kappa30 shifts by 6(g-1) twist, kappa11 by
    24 twist."""
    g = rf(genus)
    return _twist(cls, (("kappa30", 6 * (g - 1)), ("kappa11", 24)))


def _cover_space(k):
    """The pushforward table of the space of degree-k covers of the line by
    genus-(2k-1) curves (boundary D0), and c1(V) = frak_a / k of its rank-2
    pencil bundle V."""
    kk = rf(k)
    rules = curve_rules(genus=2 * kk - 1, degL=kk, boundary="D0")
    return rules, TautClass.symbol("frak_a", 1 / kk)


def hurwitz_sheaf_chern(k="k"):
    """c1 of the two multiplication-map bundles on the space of degree-k
    covers of the line by genus-(2k-1) curves:

      E = pushforward of omega tensor L-dual           (rank k)
      F = pushforward of omega^2 tensor L^(-2)         (rank 4k-6)

    E has a first derived pushforward dual to the rank-2 pencil bundle V,
    so its c1 carries the correction -c1(V); the relation
    frak_a = k c1(V) (push of the Porteous class of the base-point-free
    evaluation) eliminates c1(V).
    """
    rules, c1V = _cover_space(k)
    c1F = grr_c1(line_bundle_ch(-2, 2), rules)
    c1E_virtual = grr_c1(line_bundle_ch(-1, 1), rules)
    c1E = c1E_virtual - c1V
    c1E = c1E.substitute_symbol("c1V", c1V)
    c1F = c1F.substitute_symbol("c1V", c1V)
    return c1E, c1F


def jet_porteous_d3(k="k"):
    """Ramification divisor of the degree-k pencil, by the Porteous class of
    the evaluation into second-order jets along the fibers, corrected by the
    boundary (nodal fibers are simply degenerate for the jet evaluation):

        D3 = push c2( J^2(L) / V ) - D0 = 6 gamma + 24 lambda - 3 D0.

    Returns (d3, intermediates) where intermediates records the pushforward
    of c2 of the jet quotient before boundary correction.
    """
    rules, c1V = _cover_space(k)
    c1L, w, v1 = tag("c1L"), tag("c1omega"), tag("v1")
    c1J = 3 * c1L + 3 * w
    c2J = 3 * c1L ** 2 + 6 * c1L * w + 2 * w ** 2
    c2_quotient = c2J - c1J * v1 + v1 * v1 - tag("v2")
    pushed = rules.push_top(c2_quotient).substitute_symbol("c1V", c1V)
    d3 = pushed - TautClass.symbol("D0")
    return d3, {"push_c2_jet_quotient": pushed}


def in_gamma_basis(cls: TautClass, gamma_def: TautClass, pivot: str) -> TautClass:
    """Rewrite a class using the symbol "gamma" for gamma_def, eliminating
    the pivot symbol.  Raises IdentityFailed if the class is not in the
    span."""
    c = cls.coefficient(pivot) / gamma_def.coefficient(pivot)
    rest = cls - gamma_def.scale(c)
    if not rest.coefficient(pivot).is_zero():
        raise IdentityFailed("gamma elimination failed on pivot %s" % pivot)
    for s in gamma_def.coeffs:
        if s != pivot and not rest.coefficient(s).is_zero():
            raise IdentityFailed(
                "class is not in the (gamma, ...) span: residual %s" % s
            )
    return rest + TautClass.symbol("gamma", c)


class LambdaTorsionReport(NamedTuple):
    """Outcome of the rank-2 endomorphism pushforward on the even-genus
    locus with a distinguished rank-2 stable bundle: c1(pushforward) equals
    lambda on the nose, while the fiber integral evaluates to a multiple of
    lambda, forcing lambda to be torsion (hence zero rationally)."""

    c2_pushforward: RationalFunction       # the stated rank bookkeeping
    c2_pushforward_direct: RationalFunction  # fiberwise Riemann-Roch value
    rhs_lambda_multiple: RationalFunction  # fiber integral, stated chain


def lm_lambda_relation(i="i") -> LambdaTorsionReport:
    """Even genus g = 2i: apply the pushforward engine to End(E) of the
    distinguished rank-2 bundle E with det E = L and fiberwise h^0 = i + 2.

    The auxiliary integral of c2(E) over fibers is taken from the rank
    bookkeeping  (1/2) k20 + (1/12) k01 - (i+2)  =  i - 1; the direct
    fiberwise Riemann-Roch count (which keeps the rank factor on the
    degree-2 Todd term) gives i + 1 instead.  Either value makes the fiber
    integral a strict multiple of lambda, which is all the conclusion needs;
    both are reported.
    """
    ii = rf(i)
    g = 2 * ii
    rules = k3_rules(g)
    k20 = rules.push_scalar(tag("c1L") ** 2)   # 2g-2
    k01 = rules.push_scalar(tag("c2T"))        # 24
    c2_push = k20 * QQ(1, 2) + k01 * QQ(1, 12) - (ii + 2)

    # direct route: the rank of the pushforward of E itself is i + 2, and
    # the degree-2 part of ch(E) * Todd integrates to
    # (g-1) - push(c2 E) + 2*(1/12)*24, so push(c2 E) = i + 1.
    c2_push_direct = (g - 1) + 4 - (ii + 2)

    # ch(End E) = 4 + 0 + (c1L^2 - 4 c2(E)) + 0; integrate against Todd.
    # Degree-3 part of ch*Todd:
    #   4 * (1/24) c1omega c2T  +  (c1L^2 - 4 c2E) * (-1/2) c1omega
    # and the c2E term integrates fiberwise to c2_push.
    four_todd3 = rules.push_top(4 * QQ(1, 24) * tag("c1omega") * tag("c2T"))
    c1sq_term = rules.push_top(tag("c1L") ** 2 * tag("c1omega") * QQ(-1, 2))
    # -4 c2E * (-1/2) c1omega integrates to 2 * c2_push * lambda
    rhs = (
        four_todd3.coefficient("lambda")
        + c1sq_term.coefficient("lambda")
        + 2 * c2_push
    )
    return LambdaTorsionReport(
        c2_pushforward=c2_push,
        c2_pushforward_direct=c2_push_direct,
        rhs_lambda_multiple=rhs,
    )
