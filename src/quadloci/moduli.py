"""Divisor classes and slopes on moduli of curves, K3 surfaces, and covers.

Slope convention: a divisor class a*lambda - sum_i b_i delta_i has slope
a / min_i b_i.  Classes coming from different published normalizations are
compared through slopes only, never through raw coefficients.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import comb, factorial, prod
from typing import Mapping, NamedTuple

from .algebra import FrozenDict, Polynomial, QQ, RationalFunction, alpha, beta, param
from .grr import (
    IdentityFailed,
    TautClass,
    chern_of_power_pushforward,
    gamma_k3,
    grr_c1,
    in_gamma_basis,
    k3_rules,
    line_bundle_ch,
    rf,
)
from .loci import divisorial_combination, divisorial_f, pencil_class_quot
from .symfunc import _comb0, a_const


class UnsupportedParam(Exception):
    pass


class InvariantViolated(Exception):
    pass


class BetaDidNotCancel(Exception):
    pass


class BoundaryCoefficientNonpositive(Exception):
    pass


class ModuliDivisor(NamedTuple):
    """a*lambda - sum b_i delta_i with exact (possibly symbolic) coefficients.

    `deltas` maps boundary index -> b_i (the positive-sign convention), in
    a FrozenDict for the library's divisors.
    """

    genus: object
    lam: RationalFunction
    deltas: Mapping
    note: str = ""

    def slope(self) -> RationalFunction:
        if not self.deltas:
            raise BoundaryCoefficientNonpositive("no boundary coefficient present")
        values = list(self.deltas.values())
        # each distinct coefficient is read once: petri_class shares one
        distinct = {id(b): b for b in values}
        if all(_is_number(b) for b in distinct.values()):
            number = {key: rf(b).constant_value() for key, b in distinct.items()}
            least = min(number.values())
            if least <= 0:
                raise BoundaryCoefficientNonpositive(
                    "boundary coefficients must be positive, got %s"
                    % [number[id(b)] for b in values]
                )
            return rf(self.lam) / least
        first = rf(values[0])
        if not all(v == first for v in distinct.values()):
            raise BoundaryCoefficientNonpositive(
                "symbolic slope needs equal boundary coefficients"
            )
        return rf(self.lam) / first


def _is_number(x) -> bool:
    if isinstance(x, (int, QQ)):
        return True
    if isinstance(x, RationalFunction):
        return x.is_polynomial() and x.num.is_constant()
    if isinstance(x, Polynomial):
        return x.is_constant()
    return False


# ---------------------------------------------------------------------------
# the rank-3 quadric (Petri) divisor
# ---------------------------------------------------------------------------

# c1 of the bundle of quadratic differentials pi_* omega^2 on the moduli of
# curves (Mumford); the verify row "quadratic differentials" checks it
# against the pushforward engine
C1_QUADRATIC_DIFFERENTIALS = TautClass({"lambda": 13, "delta": -1})


def petri_class(g) -> ModuliDivisor:
    """Class of the locus of curves whose canonical model lies on a rank-3
    quadric, all boundary classes with equal coefficient.

    It is the divisorial class of the multiplication map
    Sym^2 pi_* omega -> pi_* omega^2 at corank g-3: e = g, c1E = lambda,
    f = 3g-3 and c1F = 13 lambda - delta, which gives
    A_g^{g-3} ((7g+6)/g lambda - delta).  For symbolic g the positive
    prefactor A_g^{g-3} (not a rational function of g) is dropped; it does
    not affect the slope.
    """
    if isinstance(g, int) and g < 4:
        raise UnsupportedParam("need g >= 4")
    gg = g if isinstance(g, int) else rf(g)
    cls = divisorial_combination(gg, divisorial_f(gg, gg - 3),
                                 TautClass.symbol("lambda"),
                                 C1_QUADRATIC_DIFFERENTIALS)
    if isinstance(g, int):
        cls = cls.scale(a_const(g, g - 3))
        b = -cls.coefficient("delta")
        return ModuliDivisor(g, cls.coefficient("lambda"),
                             FrozenDict({i: b for i in range(0, g // 2 + 1)}))
    return ModuliDivisor(
        gg, cls.coefficient("lambda"), FrozenDict({0: -cls.coefficient("delta")}),
        note="prefactor A_g^(g-3) omitted for symbolic genus",
    )


def known_divisor(kind: str, k_or_g: int):
    """Published divisor classes on moduli of curves.

    kind="theta"         genus g: curves with a vanishing theta-null.
    kind="gonality"      k: the k-gonal divisor in genus 2k-1.
    kind="branch"        k: branch divisor of degree-(k+1) covers, genus 2k
                         (only lambda, delta_0, delta_1 are published).
    kind="next_gonality" k: slope of the (k+1)-gonal divisor in genus 2k-1
                         (slope only).
    """
    if kind == "theta":
        g = k_or_g
        if g < 3:
            raise UnsupportedParam("theta-null divisor needs g >= 3")
        pre = QQ(2) ** (g - 3)
        lam = pre * (2**g + 1)
        deltas = {0: pre * QQ(2) ** (g - 3)}
        for i in range(1, g // 2 + 1):
            deltas[i] = pre * (2 ** (g - i) - 1) * (2**i - 1)
    elif kind == "gonality":
        k = k_or_g
        if k < 2:
            raise UnsupportedParam("gonality divisor needs k >= 2")
        g = 2 * k - 1
        pre = QQ(comb(2 * k - 2, k - 1), (2 * k - 2) * (2 * k - 3))
        lam = pre * 6 * (k + 1)
        deltas = {0: pre * k}
        for i in range(1, k):
            deltas[i] = pre * 3 * i * (2 * k - i - 1)
    elif kind == "branch":
        k = k_or_g
        if k < 2:
            raise UnsupportedParam("branch divisor needs k >= 2")
        g = 2 * k
        pre = QQ(2 * factorial(2 * k - 2), factorial(k - 1) * factorial(k + 1))
        lam = pre * (6 * k * k + 13 * k + 1)
        deltas = {
            0: pre * k * (k + 1),
            1: pre * (2 * k - 1) * (3 * k + 1),
        }
    elif kind == "next_gonality":
        k = k_or_g
        if k < 2:
            raise UnsupportedParam("need k >= 2")
        return QQ(6 * k * k + 14 * k + 3, k * (k + 1))
    else:
        raise UnsupportedParam("unknown divisor kind %r" % kind)
    return ModuliDivisor(g, rf(lam), FrozenDict({i: rf(b) for i, b in deltas.items()}))


class PetriDecomposition(NamedTuple):
    petri_slope: object
    components: tuple         # (name, conjectured weight 4^(g-1-k), slope)
    slope_in_component_hull: bool


def petri_decomposition_report(g: int) -> PetriDecomposition:
    """Compare the rank-3 quadric divisor with its known components in
    genus 4..7 at the level of slopes (published normalizations differ, so
    coefficient-level comparison is not meaningful)."""
    if g not in (4, 5, 6, 7):
        raise UnsupportedParam("decomposition catalog covers g = 4..7")
    comps = []
    for k in range((g + 2) // 2, g):
        weight = QQ(4) ** (g - 1 - k)
        if k == g - 1:
            cls = known_divisor("theta", g)
            comps.append(("theta(g=%d)" % g, weight, _slope_q(cls)))
        elif g % 2 == 1 and k == (g + 1) // 2:
            # minimal pencil degree in odd genus: the gonality divisor
            cls = known_divisor("gonality", k)
            comps.append(("gonality(k=%d)" % k, weight, _slope_q(cls)))
        elif g % 2 == 0 and k == g // 2 + 1:
            # minimal pencil degree in even genus: the branch divisor
            cls = known_divisor("branch", g // 2)
            comps.append(("branch(k=%d)" % (g // 2), weight, _slope_q(cls)))
        elif g % 2 == 1 and k == (g + 3) // 2:
            # one above the gonality: only the slope is published
            kk = (g + 1) // 2
            comps.append(
                ("next_gonality(k=%d)" % kk, weight, known_divisor("next_gonality", kk))
            )
        else:
            comps.append(("unknown(k=%d)" % k, weight, None))
    petri = petri_class(g)
    ps = _slope_q(petri)
    known_slopes = [s for _, _, s in comps if s is not None]
    hull = (
        min(known_slopes) <= ps <= max(known_slopes) if known_slopes else False
    )
    return PetriDecomposition(
        petri_slope=ps,
        components=tuple(comps),
        slope_in_component_hull=hull,
    )


def _slope_q(cls: ModuliDivisor):
    return cls.slope().constant_value()


# ---------------------------------------------------------------------------
# small-slope series
# ---------------------------------------------------------------------------

class SeriesParams(namedtuple("SeriesParams", "r s a")):
    """A linear series g^r_d of vanishing Brill-Noether number, fixed by
    (r, s): g = rs+s and d = rs+r, so g - (r+1)(g-d+r) = 0.  `a` is the
    quadric-rank parameter (rank bound a+2), a root of 2(r-1)s = a(2r-1-a);
    for r >= 1 exactly one of its roots a and 2r-1-a gives a corank r-1-a
    >= 0, and the other is refused.  `a` is None for the degenerate-pencil
    application, which has no rank condition.
    """

    __slots__ = ()

    def __new__(cls, r: int, s: int, a: int | None):
        if a is not None:
            if 2 * (r - 1) * s != a * (2 * r - 1 - a):
                raise InvariantViolated("2(r-1)s = a(2r-1-a) must hold")
            if r >= 1 and a >= r:
                raise InvariantViolated(
                    "a = %d gives the negative corank r-1-a = %d; the other root "
                    "of 2(r-1)s = a(2r-1-a) is a = %d" % (a, r - 1 - a, 2 * r - 1 - a))
        return super().__new__(cls, r, s, a)

    @property
    def g(self):
        return self.r * self.s + self.s

    @property
    def d(self):
        return self.r * self.s + self.r


def _series_rsa(series: int, ell) -> tuple:
    """(r, s, a) of the two infinite families of quadric-rank divisors at
    ell, an int or a rational function."""
    if series == 1:
        return 9 * ell - 2, 4 * ell - 1, 6 * ell - 2
    if series == 2:
        return 8 * ell + 3, 3 * ell + 1, 4 * ell + 1
    raise UnsupportedParam("series must be 1 or 2")


def series_params(series: int, ell: int) -> SeriesParams:
    """The series at an int ell >= 1."""
    if ell < 1:
        raise UnsupportedParam("need ell >= 1")
    return SeriesParams(*_series_rsa(series, ell))


def series_genus(series: int, ell):
    """Genus s(r+1) of the series: (4l-1)(9l-1) for series 1, 4(3l+1)(2l+1)
    for series 2; an int for an int ell, a rational function for a rational
    function ell."""
    r, s, _ = _series_rsa(series, ell)
    return s * (r + 1)


# the integer polynomials in ell behind the series slopes, low degree first
_SER1_A = (122, -6101, 105656, -899433, 4419720, -13594392, 26605584,
           -30233088, 15116544)
_SER1_B6 = (2, -107, 1181, -6102, 17484, -25920, 15552)
_SER2_C6 = (5, 41, 248, 1128, 2992, 4128, 2304)


def _at(coeffs: tuple, l: RationalFunction) -> RationalFunction:
    """sum_k coeffs[k] * l^k, by Horner."""
    total = 0
    for c in reversed(coeffs):
        total = total * l + c
    return total


def pelda_slope(series: int, ell, form: str = "closed") -> RationalFunction:
    """Slope of the quadric-rank divisor closures, as an exact rational
    function of the series parameter.

    Series 1 has both a closed form a/b and a deficit form
    6 + 12/(g+1) - correction; they agree identically.  Series 2 is
    published in deficit form only (the closed form returned here is its
    reduction), so it ignores `form`.  An int ell evaluates the symbolic
    slope of (series, form) (`_series_slope`) at ell; any other ell is built
    at it, by Horner."""
    if isinstance(ell, int) and ell < 1:
        raise UnsupportedParam("need ell >= 1")
    if type(ell) is int:  # not a bool: rf refuses that below
        slope = _series_slope(series, form if series == 1 else "closed")
        return rf(slope.evaluate({param("ell"): ell}))
    l = rf(ell)
    if series == 1:
        b = 2 * (9 * l - 2) * (9 * l - 1) * _at(_SER1_B6, l)
        if form == "closed":
            return _at(_SER1_A, l) / b
        if form == "deficit":
            num = (
                (13 * l - 2)
                * (36 * l - 13)
                * (27 * l * l - 19 * l + 2)
                * (36 * l * l - 13 * l - 1)
            )
            den = b * (36 * l * l - 13 * l + 2)
            return brill_noether_bound(series_genus(1, l)) - num / den
        raise UnsupportedParam("form must be 'closed' or 'deficit'")
    if series == 2:
        num = (
            (11 * l + 5)
            * (2 * l - 1)
            * (12 * l * l + 10 * l + 1)
            * (24 * l * l + 20 * l + 3)
        )
        den = (
            (3 * l + 2)
            * (8 * l + 3)
            * _at(_SER2_C6, l)
            * (24 * l * l + 20 * l + 5)
        )
        return brill_noether_bound(series_genus(2, l)) - num / den
    raise UnsupportedParam("series must be 1 or 2")


@cache
def _series_slope(series: int, form: str) -> RationalFunction:
    """The slope of (series, form) at the symbolic ell; cached per
    (series, form), three keys, as series 2 has one form."""
    return pelda_slope(series, "ell", form)


def brill_noether_bound(g):
    """6 + 12/(g+1): a rational at an int g, a rational function otherwise."""
    if type(g) is int:  # not a bool: rf refuses that below
        return QQ(6 * g + 18, g + 1)
    gg = rf(g)
    return 6 + 12 / (gg + 1)


# ---------------------------------------------------------------------------
# pushforwards to the moduli of curves and the fitted multiplier
# ---------------------------------------------------------------------------

class PushforwardTable(NamedTuple):
    """Images under the forgetful map sigma of the tautological classes of
    the linear-series space, on the (lambda, delta_0) compactification.

    Each entry is a class in lambda and delta0 carrying the overall
    positive constant beta as a formal factor.  The remaining multiplier
    N/beta of sigma_* sigma^* lambda = N lambda is the number
    `virtual_slope_from_pushforward` takes.
    """

    params: SeriesParams
    frak_a: TautClass
    frak_b: TautClass
    c1E: TautClass

    @staticmethod
    def build(p: SeriesParams) -> "PushforwardTable":
        g, d, r, s = p.g, p.d, p.r, p.s
        if (g - 1) * (g - 2) * (r + s + 1) == 0:
            raise UnsupportedParam(
                "no pushforward table at g = %d, r + s = %d: its denominators "
                "carry (g-1)(g-2)(r+s+1), which vanishes" % (g, r + s))
        beta = rf("beta")
        a_l = beta * QQ(d, (g - 1) * (g - 2)) * (d * g * g - 2 * g * g + 8 * d - 8 * g + 4)
        a_d = -beta * QQ(d, (g - 1) * (g - 2)) * (d * g - 2 * g * g + 4 * d - 3 * g + 2)
        b_l = beta * QQ(6 * d, g - 1)
        b_d = -beta * QQ(d, 2 * (g - 1))
        den = 2 * (r + s + 1) * (g - 2) * (g - 1)
        e_l = -beta * QQ(
            r
            * (r + 2)
            * (
                r * r * s**3
                + 2 * r * s**3
                - r * r * s
                + 6 * r * s * s
                + s**3
                - 2 * r * s
                + 6 * s * s
                - 8 * r
                + 3 * s
                - 8
            ),
            den,
        )
        e_d = beta * QQ(r * (s - 1) * (s + 1) * (r + 2) * (r + 1) * (g + 4), 6 * den)
        return PushforwardTable(
            p,
            frak_a=TautClass({"lambda": a_l, "delta0": a_d}),
            frak_b=TautClass({"lambda": b_l, "delta0": b_d}),
            c1E=TautClass({"lambda": e_l, "delta0": e_d}),
        )


class VirtualSlopeResult(NamedTuple):
    slope: RationalFunction
    lam: RationalFunction
    delta0: RationalFunction
    boundary_effective: bool   # True when the delta_0 coefficient has the
    # effective-divisor sign (class = a lambda - b delta_0 with b > 0)


def virtual_slope_from_pushforward(p: SeriesParams, n_over_beta) -> VirtualSlopeResult:
    """Push the virtual quadric-rank class through the table and take the
    slope.  The class is the divisorial combination c1(F) - (2f/e) c1(E)
    at e = r+1 and f = 2d+1-g, the ranks of E and F for a g^r_d, with
    c1(F) = sigma^* lambda - frak_b + 2 frak_a and sigma^* lambda pushed
    forward to n_over_beta * beta * lambda.

    The formal constant beta must cancel in the slope (BetaDidNotCancel
    otherwise).  A delta_0 coefficient with the non-effective sign is
    reported through `boundary_effective`, not raised.
    """
    table = PushforwardTable.build(p)
    beta = rf("beta")
    n_lambda = TautClass.symbol("lambda", n_over_beta * beta)
    c1F = n_lambda - table.frak_b + table.frak_a.scale(2)
    cls = divisorial_combination(p.r + 1, 2 * p.d + 1 - p.g, table.c1E, c1F)
    lam, dl = cls.coefficient("lambda"), cls.coefficient("delta0")
    if dl.is_zero():
        raise BoundaryCoefficientNonpositive("delta_0 coefficient vanished")
    s = lam / (-dl)
    if param("beta") in s.num.variables() | s.den.variables():
        raise BetaDidNotCancel(str(s))
    lam_red = lam / beta
    dl_red = dl / beta
    effective = _is_number(dl_red) and dl_red.constant_value() < 0
    return VirtualSlopeResult(slope=s, lam=lam_red, delta0=dl_red,
                              boundary_effective=effective)


class CalibrationReport(NamedTuple):
    fitted: object             # the multiplier n_over_beta
    fit_target: object
    fit_point: SeriesParams
    series2_computed: object
    series2_expected: object
    series2_matches: bool
    dp12_computed: object
    dp12_expected: object
    dp12_matches: bool
    multiplier_positive: bool
    notes: tuple


@cache
def fit_calibration() -> CalibrationReport:
    """Fit the single free multiplier on the first series at l=1 and
    cross-validate on the second series and the degenerate-pencil locus.
    Cached with no key: the fit takes no input.

    The fit is exact and unique (the slope is a Moebius function of the
    multiplier).  The cross-validation outcome is reported, not asserted:
    under the naive reading of the table the fitted multiplier comes out
    negative and does not transport across families, which points at a
    normalization convention in the table entries that the published slope
    values do not share.  The slope values themselves are carried by
    `pelda_slope` and `dp12_slope` independently of this table.
    """
    p1 = series_params(1, 1)
    target1 = pelda_slope(1, 1)
    # solve slope(x) = target on the lambda-linear pencil
    zero = virtual_slope_from_pushforward(p1, 0)
    x = target1 * (-zero.delta0) - zero.lam
    check1 = virtual_slope_from_pushforward(p1, x)
    if check1.slope != target1:
        raise IdentityFailed("calibration fit misses its target slope %s" % target1)
    p2 = series_params(2, 1)
    got2 = virtual_slope_from_pushforward(p2, x).slope
    want2 = pelda_slope(2, 1)
    # the e = 6 degenerate pencil, (e-1)(6 c1F - 38 c1E): f = 19 and
    # 38/6 = 2f/e, so its slope is that of the divisorial combination
    got3 = virtual_slope_from_pushforward(SeriesParams(r=5, s=2, a=None), x).slope
    want3 = dp12_slope().slope
    positive = _is_number(x) and x.constant_value() > 0
    notes = []
    if not positive:
        notes.append(
            "fitted multiplier is negative; a positive covering degree "
            "cannot reproduce the published slopes under the naive reading"
        )
    if got2 != want2:
        notes.append("series-2 cross-validation fails (convention discrepancy)")
    if got3 != want3:
        notes.append("degenerate-pencil cross-validation fails "
                     "(convention discrepancy)")
    return CalibrationReport(
        fitted=x,
        fit_target=target1,
        fit_point=p1,
        series2_computed=got2,
        series2_expected=want2,
        series2_matches=(got2 == want2),
        dp12_computed=got3,
        dp12_expected=want3,
        dp12_matches=(got3 == want3),
        multiplier_positive=positive,
        notes=tuple(notes),
    )


class Dp12Result(NamedTuple):
    slope: object
    below_bound: bool
    pencil_coefficients: tuple   # c1F, -c1E in pencil_class_quot(6) / (e-1)
    prefactor_from_formula: int  # e - 1
    prefactor_in_application: int


def dp12_slope() -> Dp12Result:
    """Slope of the degenerate-pencil divisor in genus 12: 373/54, below
    the classical bound 6 + 12/13.  The underlying virtual class is the
    e = 6 degenerate-pencil class `pencil_class_quot`(6), (e-1)(6 c1F -
    38 c1E); the application uses it with an overall factor 10 instead of
    e-1 = 5, an overall-scale discrepancy that slopes do not see.
    """
    e = 6
    val = QQ(373, 54)
    quot = pencil_class_quot(e)
    f_coeff, e_coeff = (quot.coefficient_of(v, 1).constant_value() // (e - 1)
                        for v in (beta(1), alpha(1)))
    return Dp12Result(
        slope=val,
        below_bound=val < brill_noether_bound(12),
        pencil_coefficients=(f_coeff, -e_coeff),
        prefactor_from_formula=e - 1,
        prefactor_in_application=10,
    )


# ---------------------------------------------------------------------------
# the rank-4 divisor on moduli of polarized surfaces
# ---------------------------------------------------------------------------

def k3_rank4_class(g="g") -> TautClass:
    """Class of quasi-polarized surfaces of genus g lying on a rank-4
    quadric, in the (lambda, gamma) basis and in units of the prefactor
    A_{g+1}^{g-3}:

        ((2g^2 - 13g + 9)/(g+1)) lambda + (2/(g+1)) gamma.

    Derived by pushing the divisorial class of the multiplication map
    Sym^2(U_1) -> U_2 (e = g+1 and corank g-3, so f = 4g-2) through the
    fibration engine and rewriting the kappa classes in the twist-invariant
    basis.  An int g evaluates each coefficient of the class derived at the
    symbolic g (`_k3_rank4_symbolic`) at g (ZeroDivisionError at the pole
    g = -1), and any other argument is derived at it.  Raises IdentityFailed
    if the derivation does not reproduce the closed form.
    """
    if type(g) is int:  # not a bool: rf refuses that below
        point = {param("g"): g}
        return TautClass({s: c.evaluate(point)
                          for s, c in _k3_rank4_symbolic().coeffs.items()})
    if g == "g":
        return _k3_rank4_symbolic()
    gg = rf(g)
    result = in_gamma_basis(_k3_rank4_combination(gg), gamma_k3(gg), pivot="kappa30")
    if result != k3_rank4_closed_form(gg):
        raise IdentityFailed("rank-4 class does not match its closed form")
    return result


def k3_rank4_closed_form(g: RationalFunction) -> TautClass:
    """The closed form that `k3_rank4_class` must reproduce."""
    return TautClass({"lambda": (2 * g * g - 13 * g + 9) / (g + 1), "gamma": 2 / (g + 1)})


@cache
def _k3_rank4_symbolic() -> TautClass:
    """The rank-4 class derived at the symbolic g; cached with no key."""
    return k3_rank4_class(rf("g"))


def _k3_rank4_combination(g: RationalFunction) -> TautClass:
    """The divisorial class of Sym^2(U_1) -> U_2 in the kappa classes, U_n
    the pushforward of the n-th power of the polarization (rank
    2 + n^2 (g-1)), at e = g+1 and corank g-3."""
    c1 = chern_of_power_pushforward(1, g)
    c2 = chern_of_power_pushforward(2, g)
    return divisorial_combination(g + 1, divisorial_f(g + 1, g - 3), c1, c2)


# ---------------------------------------------------------------------------
# the middle-syzygy divisor in odd genus g = 2i+3
# ---------------------------------------------------------------------------

def _binom_shift(c: int, cp: int, i: RationalFunction) -> RationalFunction:
    """C(2i + c, i + cp) / C(2i - 1, i) as a rational function of i.

    Expands the three factorial quotients as finite products of linear
    factors, multiplied into one numerator and one denominator polynomial;
    valid for all large integers i, hence as an identity of rational
    functions.
    """
    x = i.as_polynomial()
    q = c - cp
    # (2i+c)!/(2i-1)!, i!/(i+cp)! and (i-1)!/(i+q)!: each quotient has its
    # linear factors on one side only, so one range of each pair is empty
    num = ([2 * x + t for t in range(c + 1)] + [x + t for t in range(cp + 1, 1)]
           + [x + t for t in range(q + 1, 0)])
    den = ([2 * x + t for t in range(c + 1, 0)] + [x + t for t in range(1, cp + 1)]
           + [x + t for t in range(q + 1)])
    one = Polynomial.const(1)
    return RationalFunction(prod(num, start=one), prod(den, start=one))


# (j+2)^p expanded in the binomial basis C(j, t): coefficients a[p][t]
_J2_BINOMIAL = {
    0: [1],
    1: [2, 1],
    2: [4, 5, 2],
    3: [8, 19, 18, 6],
}

_T_SIDE, _U_SIDE = 0, 1


def _shift_key(side: int, t: int) -> tuple:
    """(c, cp) of the t-th term of T_p or U_p (see `_alternating_sum`)."""
    return (2 + side - t, side - 1 - t)


def _sum_keys(sums) -> set:
    """The shift keys read by the alternating sums (p, side)."""
    return {_shift_key(side, t) for p, side in sums for t in range(p + 1)}


def _alternating_sum(p: int, side: int, shifts: dict) -> RationalFunction:
    """Closed form, in units of C(2i-1, i), of one alternating binomial sum
    driving the syzygy-bundle recursion at g = 2i+3:

      T_p = sum_j (-1)^j (j+2)^p C(g, i-1-j)      (side _T_SIDE)
      U_p = sum_j (-1)^j (j+2)^p C(g+1, i-j)      (side _U_SIDE)

    via sum_j (-1)^j C(j,t) C(n, K-j) = (-1)^t C(n-t-1, K-t): the t-th term
    is C(2i + (2-t), i + (-1-t)) for T_p and C(2i + (3-t), i - t) for U_p.
    `shifts` maps each key (c, cp) of `_sum_keys` to its `_binom_shift`;
    given the numerators over a shared denominator D instead, the result
    is the sum times D.
    """
    out = 0
    for t, a in enumerate(_J2_BINOMIAL[p]):
        out = out + (a if t % 2 == 0 else -a) * shifts[_shift_key(side, t)]
    return out


class KoszulClass(NamedTuple):
    """Class of the middle-syzygy divisor in genus 2i+3, in units of the
    binomial C(2i-1, i), plus an undetermined multiple of the non-globally-
    generated locus D11."""

    i: object
    lam: RationalFunction
    gamma: RationalFunction
    prefactor_units: str = "C(2i-1, i)"


def kosz_class(i="i") -> KoszulClass:
    """Middle-syzygy divisor class, in units of C(2i-1, i): the closed form
    (4/(i+2)) ((i^2-4i-3) lambda + gamma/2) at i, symbolic or an integer.

    The alternating sums of the two bundle recursions derive it:
    `kosz_sums_over_d` at the symbolic i, and `kosz_direct_sums` term by term
    at an integer i.  The verify rows "middle-syzygy class: alternating sum
    vs closed form (sym i)" and "middle-syzygy class numeric i=1..8" compare
    each with the closed form.
    """
    ii = _koszul_index(i)
    pre = 4 / (ii + 2)
    return KoszulClass(i=ii, lam=pre * (ii * ii - 4 * ii - 3), gamma=pre * QQ(1, 2))


def _koszul_index(i) -> RationalFunction:
    """i as a rational function; UnsupportedParam for an int i < 1, where
    the genus 2i+3 carries no middle syzygy."""
    if isinstance(i, int) and i < 1:
        raise UnsupportedParam("need i >= 1")
    return rf(i)


def kosz_sums_over_d(i="i") -> tuple:
    """The (lambda, gamma) coefficients of the symbolic middle-syzygy class,
    derived from the alternating sums (Vandermonde-type binomial identities)
    and multiplied by D = i(i+1)(i+2)(i+3): a pair of polynomials in i.

    Every shift key (c, cp) read here has c - cp = 3, so the (i-1)!/(i+3)!
    factor of `_binom_shift` stores each shifted binomial over the same D,
    and the sums are taken on the numerators over D.  A shift stored over
    any other denominator raises IdentityFailed.  `kosz_rank` still adds
    the shifted binomials as rational functions, because it prints those
    sums unreduced; they move to lowest terms with the canonical gcd of
    ROADMAP item 23.
    """
    ii = _koszul_index(i)
    g = 2 * ii + 3
    d = ii * (ii + 1) * (ii + 2) * (ii + 3)
    used = ((0, _T_SIDE), (2, _T_SIDE)) + tuple((p, _U_SIDE) for p in range(4))
    over_d = {}
    for key in _sum_keys(used):
        shift = _binom_shift(*key, ii)
        if shift.den != d.num:
            raise IdentityFailed("shifted binomial C(2i%+d, i%+d) is not stored "
                                 "over i(i+1)(i+2)(i+3)" % key)
        over_d[key] = rf(shift.num)
    T = {p: _alternating_sum(p, _T_SIDE, over_d) for p in (0, 2)}
    U = {p: _alternating_sum(p, _U_SIDE, over_d) for p in range(4)}
    c1U1 = chern_of_power_pushforward(1, g)
    # G-side: sum_j (-1)^j [rk(U_{2+j}) C(g, i-1-j) c1U1 + C(g+1, i-j) c1U_{2+j}]
    rank_weight = 2 * T[0] + (g - 1) * T[2]
    cG = c1U1.scale(rank_weight) + TautClass(
        {
            "kappa11": U[1] * QQ(1, 12),
            "kappa30": U[3] * QQ(1, 6),
            "lambda": -((g - 1) * QQ(1, 2) * U[2] - U[0]),
        }
    )
    # H-side: the double alternating sum telescopes to (g+2) C(g, i) c1U1
    h_weight = (g + 2) * over_d[(3, 0)]
    cH = c1U1.scale(h_weight)
    diff = in_gamma_basis(cG - cH, gamma_k3(g), pivot="kappa30")
    return diff.coefficient("lambda"), diff.coefficient("gamma")


def kosz_direct_sums(i: int) -> KoszulClass:
    """The middle-syzygy class at an integer i from the alternating sums of
    the two bundle recursions, summed term by term in integers and pushed
    forward: the reference that `verify` holds the closed form to."""
    _koszul_index(i)
    g = 2 * i + 3
    base = comb(2 * i - 1, i)
    # the difference cG - cH as sum_n weight[n] c1(U_n)
    weight = {1: 0}
    for j in range(0, i + 1):
        sign = 1 if j % 2 == 0 else -1
        rank_u = 2 + (j + 2) ** 2 * (g - 1)
        cH_weight = sign * (
            _comb0(g + j + 2, g) * _comb0(g, i - j - 1)
            + _comb0(g + 1, i - j) * _comb0(g + j + 2, g + 1)
        )
        weight[1] += sign * rank_u * _comb0(g, i - j - 1) - cH_weight
        weight[j + 2] = sign * _comb0(g + 1, i - j)
    # c1(U_n) is a cubic in n, as ch(L^n) stops at degree 3: fold the weights
    # into one integer per n^k and push forward the four n^k parts of ch(L^n)
    ch, n, rules = line_bundle_ch("n", 0), param("n"), k3_rules(g)
    diff = sum((grr_c1(ch.coefficient_of(n, k), rules).scale(
                    sum(w * m ** k for m, w in weight.items()))
                for k in range(4)), TautClass.zero())
    diff = in_gamma_basis(diff, gamma_k3(g), pivot="kappa30")
    return KoszulClass(
        i=i,
        lam=diff.coefficient("lambda") / base,
        gamma=diff.coefficient("gamma") / base,
    )


def kosz_intro_form(i="i") -> KoszulClass:
    """The alternative published display C(g-2, (g-3)/2) *
    (2(g^2-14g+21)/(g+1) lambda + 4/(g+1) gamma) at g = 2i+3, converted to
    units of C(2i-1, i).  Its inner (lambda : gamma) vector matches the
    closed form exactly; the binomial prefactor differs by the ratio
    C(2i+1, i)/C(2i-1, i) = 2(2i+1)/(i+1)."""
    ii = _koszul_index(i)
    g = 2 * ii + 3
    ratio = _binom_shift(1, 0, ii)  # C(2i+1, i) / C(2i-1, i)
    lam = ratio * 2 * (g * g - 14 * g + 21) / (g + 1)
    gam = ratio * 4 / (g + 1)
    return KoszulClass(i=ii, lam=lam, gamma=gam)


def kosz_prefactor_ratio(i="i") -> RationalFunction:
    """Ratio intro-form / closed-form = 2(2i+1)/(i+1)."""
    return _binom_shift(1, 0, _koszul_index(i))


def kosz_rank(i) -> tuple:
    """(rank from the syzygy-side recursion, rank from the polynomial-side
    recursion, the closed count (i+1) C(2i+5, i+2)) -- all three agree."""
    ii = _koszul_index(i)
    if isinstance(i, int):
        g = 2 * i + 3
        rank_g = sum(
            (-1) ** j * _comb0(g + 1, i - j) * (2 + (j + 2) ** 2 * (g - 1))
            for j in range(i + 1)
        )
        rank_h = sum(
            (-1) ** j * _comb0(g + 1, i - j) * _comb0(g + j + 2, g)
            for j in range(i + 1)
        )
        closed = (i + 1) * comb(2 * i + 5, i + 2)
        return rank_g, rank_h, closed
    g = 2 * ii + 3
    printed = ((0, _U_SIDE), (2, _U_SIDE))
    shifts = {key: _binom_shift(*key, ii) for key in _sum_keys(printed)}
    u0, u2 = (_alternating_sum(p, side, shifts) for p, side in printed)
    rank_g = 2 * u0 + (g - 1) * u2
    # H-side rank sum closes to (g+1) C(g+1, i+1) - C(g+1, i+2)
    rank_h = (g + 1) * _binom_shift(4, 1, ii) - _binom_shift(4, 2, ii)
    closed = (ii + 1) * _binom_shift(5, 2, ii)
    return rank_g, rank_h, closed


# ---------------------------------------------------------------------------
# covers of the line: canonical class and the rank-4 divisor
# ---------------------------------------------------------------------------

def _hodge_coeff(i: int, lcm_mu: int, inv_sum, k):
    """lcm(mu) ( i(6k-4-i)/(8(6k-5)) - (1/12)(k - sum 1/mu_j) ), for a
    rational k or a rational-function k alike."""
    return lcm_mu * (i * (6 * k - 4 - i) / (8 * (6 * k - 5)) - QQ(1, 12) * (k - inv_sum))


class HurwitzReport(NamedTuple):
    """Divisor-class identities on the space of degree-k covers of the line
    from genus 2k-1 curves (symbolic k).

    The rank-4 class is carried in units of its prefactor A_k^(k-4); the
    symbol Hrk4 stands for the class in those units.
    """

    hodge_d0: RationalFunction            # 3(k-1)/(4(6k-5))
    hodge_d2_derived: RationalFunction    # -1/(2(6k-5)) from the general sum
    hodge_d2_published: RationalFunction  # -1/(4(6k-5))
    hodge_d2_factor_two: bool
    hodge_d3: RationalFunction            # (3k-7)/(12(6k-5))
    canonical_in_gamma: TautClass         # 12 lambda + gamma - 2 D0
    structural_lhs: TautClass             # (k-6) K, gamma eliminated
    structural_rhs: TautClass             # (k-12)(7 lambda - D0) + k Hrk4
    structural_identity_holds: bool
    rank4_class: TautClass                # (5k+12)/k l + (k-6)/k g - D0
    hrk4_published_coeff: object          # 1/6
    hrk4_coeff_samples: FrozenDict        # k -> (k/A_k^(k-4), equals 1/6?)
    alpha_solved: RationalFunction        # k * gamma-coeff, k - 6


@cache
def hurwitz_report(k="k") -> HurwitzReport:
    """Derive the canonical-class identities of the cover space and compare
    the two published normalizations of the rank-4-quadric term.  Every
    field is formed at k: symbolic for a parameter name, the specialization
    for an integer.  Cached per k; the `hurwitz` command and `verify` ask
    only for the symbolic report."""
    from .grr import gamma_hurwitz, hurwitz_sheaf_chern, jet_porteous_d3

    if isinstance(k, int) and k < 4:
        raise UnsupportedParam("need k >= 4")
    kk = rf(k)
    # boundary coefficients of the Hodge class at k and i = 2, from the
    # ordered-cover ones for mu = 1^k, 2,2,1^(k-4) and 3,1^(k-3); the
    # unordered D0 and D3 absorb a factor 2 under the quotient by the
    # symmetric group, D2 does not (its generic cover has extra automorphisms)
    c_d0 = _hodge_coeff(2, 1, kk, kk) / 2
    c_d2 = _hodge_coeff(2, 2, kk - 3, kk)
    c_d3 = _hodge_coeff(2, 3, kk - 3 + QQ(1, 3), kk) / 2
    published_d2 = -1 / (4 * (6 * kk - 5))

    canonical = TautClass({"lambda": 8, "D3": QQ(1, 6), "D0": QQ(-3, 2)})
    d3, _ = jet_porteous_d3(k)
    gam = gamma_hurwitz(kk)
    can_gamma = in_gamma_basis(
        canonical.substitute_symbol("D3", d3), gam, pivot="frak_b"
    )

    c1E, c1F = hurwitz_sheaf_chern(k)
    combo = divisorial_combination(kk, divisorial_f(kk, kk - 4), c1E, c1F)
    rank4 = in_gamma_basis(combo, gam, pivot="frak_b")

    # eliminate gamma between K = 12 lambda + gamma - 2 D0 and the rank-4
    # class: gamma = (Hrk4 - (rank4 without its gamma term)) / gamma-coeff
    gcoef = rank4.coefficient("gamma")
    if gcoef.is_zero():
        raise UnsupportedParam(
            "hurwitz report at k = %s: the gamma coefficient (k-6)/k of the "
            "rank-4 class vanishes, so gamma cannot be eliminated" % k)
    rank4_rest = rank4 - TautClass.symbol("gamma", gcoef)
    gamma_expr = (TautClass.symbol("Hrk4") - rank4_rest).scale(1 / gcoef)
    # the multiplier that clears gcoef's denominator: k (k-6)/k = k - 6
    alpha_solved = kk * gcoef
    lhs = can_gamma.substitute_symbol("gamma", gamma_expr).scale(alpha_solved)
    rhs = TautClass({"lambda": 7, "D0": -1}).scale(kk - 12) + TautClass.symbol(
        "Hrk4", kk
    )
    samples = {}
    for kv in (6, 7, 8, 9, 12):
        ratio = QQ(kv) / a_const(kv, kv - 4)
        samples[kv] = (ratio, ratio == QQ(1, 6))
    return HurwitzReport(
        hodge_d0=c_d0,
        hodge_d2_derived=c_d2,
        hodge_d2_published=published_d2,
        hodge_d2_factor_two=(c_d2 == published_d2 * 2),
        hodge_d3=c_d3,
        canonical_in_gamma=can_gamma,
        structural_lhs=lhs,
        structural_rhs=rhs,
        structural_identity_holds=(lhs == rhs),
        rank4_class=rank4,
        hrk4_published_coeff=QQ(1, 6),
        hrk4_coeff_samples=FrozenDict(samples),
        alpha_solved=alpha_solved,
    )
