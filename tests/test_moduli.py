import itertools
from collections import Counter
from math import comb, isqrt

import pytest

from quadloci import grr, moduli
from quadloci.algebra import Polynomial, QQ, RationalFunction, param
from quadloci.grr import TautClass, rf
from quadloci.loci import ScalarData
from quadloci.moduli import (
    BoundaryCoefficientNonpositive,
    IdentityFailed,
    InvariantViolated,
    KoszulClass,
    ModuliDivisor,
    SeriesParams,
    UnsupportedParam,
    brill_noether_bound,
    dp12_slope,
    fit_calibration,
    hurwitz_report,
    _k3_rank4_combination,
    k3_rank4_class,
    known_divisor,
    kosz_class,
    kosz_direct_sums,
    kosz_intro_form,
    kosz_prefactor_ratio,
    kosz_rank,
    kosz_sums_over_d,
    pelda_slope,
    petri_class,
    petri_decomposition_report,
    series_genus,
    series_params,
    virtual_slope_from_pushforward,
)
from quadloci.verify import CheckResult, checks_hurwitz, checks_k3, checks_petri

G = rf("g")
K = rf("k")
I = rf("i")


def q(x):
    return x.constant_value()


def _row_status(checks, tag):
    return {row.tag: row.status for row in checks()}[tag]


# -- rank-3 quadric divisor -------------------------------------------------

def test_petri_small_genus():
    p4 = petri_class(4)
    assert p4.lam == rf(34)
    assert all(p4.deltas[i] == rf(4) for i in (0, 1, 2))
    assert q(p4.slope()) == QQ(17, 2)
    assert petri_class(5).lam == rf(164) and petri_class(5).deltas[0] == rf(20)
    assert petri_class(6).lam == rf(896) and petri_class(6).deltas[0] == rf(112)
    assert petri_class(7).lam == rf(5280) and petri_class(7).deltas[0] == rf(672)


def test_petri_symbolic_slope():
    assert petri_class("g").slope() == (rf(7) * G + rf(6)) / G


def test_petri_guard():
    with pytest.raises(UnsupportedParam):
        petri_class(3)


def test_known_divisor_theta():
    th = known_divisor("theta", 5)
    assert th.lam == rf(4 * 33)
    assert th.deltas[0] == rf(16)
    assert th.deltas[1] == rf(4 * 15)
    assert th.deltas[2] == rf(4 * 21)


def test_known_divisor_gonality():
    gon = known_divisor("gonality", 3)
    assert gon.lam == rf(12)
    assert gon.deltas[0] == rf(QQ(3, 2))
    assert q(gon.slope()) == 8


def test_known_divisor_branch_matches_petri_g4():
    br = known_divisor("branch", 2)
    assert br.lam == rf(34) and br.deltas[0] == rf(4)


def test_known_divisor_next_gonality():
    assert known_divisor("next_gonality", 3) == QQ(6 * 9 + 14 * 3 + 3, 12)


def test_known_divisor_guards():
    with pytest.raises(UnsupportedParam):
        known_divisor("theta", 2)
    with pytest.raises(UnsupportedParam):
        known_divisor("mystery", 5)


def test_decomposition_reports():
    # the slopes of the published displays 34/4, 164/20, 896/112, 5280/672
    displays = {4: QQ(17, 2), 5: QQ(41, 5), 6: QQ(8), 7: QQ(55, 7)}
    for g, slope in displays.items():
        rep = petri_decomposition_report(g)
        assert rep.petri_slope == slope
        assert rep.slope_in_component_hull
    rep7 = petri_decomposition_report(7)
    slopes = dict((n, s) for n, _, s in rep7.components)
    assert slopes["gonality(k=4)"] == QQ(15, 2)
    assert slopes["next_gonality(k=4)"] == QQ(31, 4)
    assert slopes["theta(g=7)"] == QQ(129, 16)
    weights = [w for _, w, _ in rep7.components]
    assert weights == [QQ(16), QQ(4), QQ(1)]
    with pytest.raises(UnsupportedParam):
        petri_decomposition_report(8)


# -- slope series -----------------------------------------------------------

def test_series_params_values():
    p = series_params(1, 1)
    assert (p.r, p.s, p.a, p.g, p.d) == (7, 3, 4, 24, 28)
    p2 = series_params(2, 1)
    assert (p2.r, p2.s, p2.a, p2.g, p2.d) == (11, 4, 5, 48, 55)
    assert series_params(1, 2).g == 7 * 17


def test_series_genus_takes_only_the_two_series():
    assert (series_genus(1, 1), series_genus(2, 1)) == (24, 48)
    assert series_genus(2, G) == 4 * (3 * G + 1) * (2 * G + 1)
    ell = rf("ell")
    assert series_genus(1, ell) == (4 * ell - 1) * (9 * ell - 1)
    assert series_genus(2, ell) == 4 * (3 * ell + 1) * (2 * ell + 1)
    for ell in range(1, 31):
        for series in (1, 2):
            assert series_genus(series, ell) == series_params(series, ell).g
    for series in (0, 3):
        with pytest.raises(UnsupportedParam, match="series must be 1 or 2"):
            series_genus(series, 1)


def test_series_params_invariants_range():
    for ell in range(1, 26):
        for series in (1, 2):
            p = series_params(series, ell)
            assert 2 * (p.r - 1) * p.s == p.a * (2 * p.r - 1 - p.a)
            assert p.g == (p.r + 1) * (p.g - p.d + p.r)


def test_series_params_guards():
    with pytest.raises(UnsupportedParam):
        series_params(3, 1)
    with pytest.raises(UnsupportedParam):
        series_params(1, 0)
    with pytest.raises(InvariantViolated, match=r"2\(r-1\)s = a\(2r-1-a\) must hold"):
        SeriesParams(r=7, s=3, a=3)
    with pytest.raises(InvariantViolated, match="negative corank r-1-a = -3"):
        SeriesParams(r=7, s=3, a=9)


def _invariant_roots(r: int, s: int) -> list:
    """The integer roots a of a^2 - (2r-1)a + 2(r-1)s = 0, the invariant
    2(r-1)s = a(2r-1-a); the discriminant is odd, so each is an int."""
    disc = (2 * r - 1) ** 2 - 8 * (r - 1) * s
    root = isqrt(disc) if disc >= 0 else -1
    if root * root != disc:
        return []
    return [(2 * r - 1 - root) // 2, (2 * r - 1 + root) // 2]


def test_series_params_holds_the_root_of_nonnegative_corank():
    kept = refused = 0
    for r in range(1, 31):
        for s in range(1, 31):
            for a in _invariant_roots(r, s):
                if a <= r - 1:
                    p = SeriesParams(r, s, a)
                    assert (p.g, p.d) == (r * s + s, r * s + r)
                    kept += 1
                else:
                    with pytest.raises(InvariantViolated,
                                       match="negative corank r-1-a = %d;" % (r - 1 - a)):
                        SeriesParams(r, s, a)
                    refused += 1
    # each pair with an integer root has one on either side of r - 1/2
    assert kept == refused > 30
    assert SeriesParams._fields == ("r", "s", "a")
    # _replace skips the constructor, so it checks nothing; g and d follow r
    moved = SeriesParams(7, 3, 4)._replace(r=8)
    assert (moved.g, moved.d) == (27, 32)


def test_records_are_immutable_values():
    """The records keep the keyword construction, defaults, immutability,
    value equality, repr and constructor checks they had as dataclasses."""
    kc = KoszulClass(i=2, lam=rf(1), gamma=rf(QQ(1, 2)))
    assert kc.prefactor_units == "C(2i-1, i)"
    assert ModuliDivisor(4, rf(34), {0: rf(4)}).note == ""
    assert CheckResult("t", "1", "1", "PASS").note == ""
    records = [
        (kc, KoszulClass(2, rf(1), rf(QQ(1, 2)), "C(2i-1, i)"), "i"),
        (ModuliDivisor(genus=4, lam=rf(34), deltas={0: rf(4)}),
         ModuliDivisor(4, rf(34), {0: rf(4)}, ""), "genus"),
        (SeriesParams(r=7, s=3, a=4), series_params(1, 1), "r"),
        (ScalarData(r_weights=(2, 1, 1), r_total=6), ScalarData((2, 1, 1), 6), "r_weights"),
        (CheckResult(tag="t", computed="1", expected="1", status="PASS"),
         CheckResult("t", "1", "1", "PASS", ""), "tag"),
    ]
    for record, same, field in records:  # field: the first field
        assert record == same
        assert repr(record).startswith("%s(%s=" % (type(record).__name__, field))
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None
    assert repr(ScalarData((2, 1, 1), 6)) == "ScalarData(r_weights=(2, 1, 1), r_total=6)"
    assert hash(series_params(1, 1)) == hash(SeriesParams(7, 3, 4))
    assert kc != kc._replace(lam=rf(2))
    with pytest.raises(InvariantViolated):
        SeriesParams(r=4, s=2, a=4)
    with pytest.raises(ValueError, match="r_total must be nonzero"):
        ScalarData(r_weights=(1, 1), r_total=0)


def test_pelda_slope_values():
    assert pelda_slope(1, 1) == rf(QQ(34423, 5320))
    assert pelda_slope(1, 1, "deficit") == rf(QQ(34423, 5320))
    v = pelda_slope(2, 1)
    assert q(v) < QQ(6) + QQ(12, 49)
    # frozen reduction of the second-series deficit at l=1:
    # 6 + 12/49 - 16*23*47/(5*11*10846*49)
    assert q(v) == QQ(6) + QQ(12, 49) - QQ(16 * 23 * 47, 5 * 11 * 10846 * 49)


def test_pelda_closed_equals_deficit_symbolically():
    assert pelda_slope(1, "ell", "closed") == pelda_slope(1, "ell", "deficit")


def test_pelda_below_brill_noether():
    for ell in range(1, 11):
        g1 = (4 * ell - 1) * (9 * ell - 1)
        assert q(pelda_slope(1, ell)) < QQ(6) + QQ(12, g1 + 1)
        g2 = 4 * (3 * ell + 1) * (2 * ell + 1)
        assert q(pelda_slope(2, ell)) < QQ(6) + QQ(12, g2 + 1)


def test_pelda_slope_values_beyond_ell_one():
    # at ell = 1 a reversed coefficient list gives the same sum, so these
    # pin the order of the stored polynomials in ell
    for ell, want in ((2, QQ(6165127, 1010752)), (3, QQ(618582007, 102384880))):
        assert pelda_slope(1, ell) == rf(want)
        assert pelda_slope(1, ell, "deficit") == rf(want)
    assert pelda_slope(2, 2) == rf(QQ(3854141, 633384))
    assert pelda_slope(2, 3) == rf(QQ(294913661, 48805152))


def test_pelda_slope_rejects_ell_below_one():
    for series, ell in ((1, 0), (2, 0), (1, -1), (2, -1)):
        for form in ("closed", "deficit"):
            with pytest.raises(UnsupportedParam):
                pelda_slope(series, ell, form)


def test_brill_noether_bound():
    # a rational at an int genus, as loci.divisorial_f gives an int there
    bound = brill_noether_bound(24)
    assert bound == QQ(162, 25) and type(bound) is QQ
    assert brill_noether_bound("g") == 6 + 12 / (G + 1)
    assert str(brill_noether_bound("g")) == "(6*g + 18)/(g + 1)"


# -- pushforward machinery --------------------------------------------------

def test_beta_cancellation_and_rescale_invariance():
    p = series_params(1, 1)
    res = virtual_slope_from_pushforward(p, QQ(1))
    assert param("beta") not in res.slope.num.variables()
    # the class with beta divided out has the same slope
    assert res.slope == res.lam / -res.delta0


def test_dp12_calibration_slope_is_pinned():
    # the degenerate pencil (e-1)(6 c1F - 38 c1E) is 6 (e-1) times the
    # divisorial combination at e = 6, f = 19, so its slope is the
    # combination's, at every multiplier
    assert fit_calibration().dp12_computed == rf(QQ(40973507, 490314))


def test_calibration_fit_is_exact_on_target():
    rep = fit_calibration()
    check = virtual_slope_from_pushforward(rep.fit_point, rep.fitted)
    assert check.slope == rep.fit_target
    # the cross-validation outcome is reported, not silently absorbed
    assert rep.series2_matches == (rep.series2_computed == rep.series2_expected)
    assert rep.dp12_matches == (rep.dp12_computed == rep.dp12_expected)
    if not (rep.series2_matches and rep.dp12_matches and rep.multiplier_positive):
        assert rep.notes


def test_dp12():
    d = dp12_slope()
    assert d.slope == QQ(373, 54)
    assert d.below_bound
    assert d.pencil_coefficients == (6, 38)
    assert d.prefactor_from_formula == 5
    assert d.prefactor_in_application == 10


def test_dp12_class_matches_pencil_module():
    # the genus-12 locus is the e=6 degenerate-pencil class: its reported
    # coefficients must be the ones the pencil presentation produces
    from quadloci.algebra import ALPHA, BETA, symmetric_reduce, sym, Polynomial
    from quadloci.loci import pencil_class_quot

    d = dp12_slope()
    e = 6
    n_beta = 19  # C(7,2) - 2
    reduced = symmetric_reduce(
        symmetric_reduce(pencil_class_quot(e), ALPHA, e), BETA, n_beta
    )
    X = Polynomial.variable
    cE, cF = X(sym("e1(a)")), X(sym("e1(b)"))
    f_coeff, e_coeff = d.pencil_coefficients
    assert d.prefactor_from_formula == e - 1
    assert reduced == (e - 1) * (f_coeff * cF - e_coeff * cE)


# -- surface moduli ----------------------------------------------------------

def test_k3_rank4_symbolic():
    cls = k3_rank4_class()
    assert cls.coefficient("lambda") == (rf(2) * G * G - rf(13) * G + rf(9)) / (G + rf(1))
    assert cls.coefficient("gamma") == rf(2) / (G + rf(1))
    assert cls.coefficient("kappa11").is_zero()


def test_k3_rank4_numeric_instance():
    cls = k3_rank4_class(11)
    assert cls.coefficient("lambda") == rf(9)
    assert cls.coefficient("gamma") == rf(QQ(1, 6))


def test_decomposition_row_fails_on_a_wrong_petri_slope(monkeypatch):
    """A genus-7 slope of 39/5 in place of 55/7 stays in the component hull,
    so only the comparison with the published display can catch it."""
    tag = "decomposition slopes genus 7"
    petri = moduli.petri_class

    def off(g):
        cls = petri(g)
        return cls._replace(lam=cls.lam * rf(QQ(273, 275))) if g == 7 else cls

    assert _row_status(checks_petri, tag) == "PASS"
    monkeypatch.setattr(moduli, "petri_class", off)
    rep = petri_decomposition_report(7)
    assert rep.petri_slope == QQ(39, 5) and rep.slope_in_component_hull
    assert _row_status(checks_petri, tag) == "FAIL"


def test_k3_rank4_row_fails_on_a_wrong_derivation(monkeypatch, clear_caches):
    """The library refuses a derivation off its closed form, and `verify`
    records that as a FAIL row instead of ending the run."""
    tag = "rank-4 quadric divisor on surface moduli (sym g)"
    combo = moduli._k3_rank4_combination
    assert _row_status(checks_k3, tag) == "PASS"
    monkeypatch.setattr(moduli, "_k3_rank4_combination",
                        lambda g: combo(g).scale(rf(2)))
    clear_caches()  # the row above derived the class
    with pytest.raises(IdentityFailed):
        k3_rank4_class()
    assert _row_status(checks_k3, tag) == "FAIL"


def test_k3_rank4_kappa11_before_basis_change():
    got = _k3_rank4_combination(G).coefficient("kappa11")
    assert got == -(G - rf(1)) / (rf(2) * (G + rf(1)))


def test_kosz_numeric_small():
    k1 = kosz_direct_sums(1)
    assert (k1.lam, k1.gamma) == (rf(-8), rf(QQ(2, 3)))
    k2 = kosz_direct_sums(2)
    assert (k2.lam, k2.gamma) == (rf(-7), rf(QQ(1, 2)))


def test_kosz_numeric_matches_closed():
    for i in range(1, 9):
        kn = kosz_direct_sums(i)
        kc = kosz_class(i)
        assert kn.lam == kc.lam and kn.gamma == kc.gamma


def test_kosz_numeric_row_fails_on_wrong_direct_sums(monkeypatch):
    """The row holds the closed form to the direct sums, so a fault in the
    sums turns it to FAIL; the closed form alone could not."""
    tag = "middle-syzygy class numeric i=1..8"
    direct = moduli.kosz_direct_sums

    def off(i):
        cls = direct(i)
        return cls._replace(gamma=cls.gamma * 2) if i == 5 else cls

    assert _row_status(checks_k3, tag) == "PASS"
    monkeypatch.setattr(moduli, "kosz_direct_sums", off)
    assert _row_status(checks_k3, tag) == "FAIL"


def test_evaluation_equals_the_derivation_past_the_golden():
    """An integer request evaluates a class derived once at its symbolic
    parameter; past the golden's range it equals, value and string, the
    class derived at the constant (and the Koszul closed form equals the
    direct sums)."""
    for g in range(3, 41):
        got, want = k3_rank4_class(g), k3_rank4_class(rf(g))
        assert got == want and str(got) == str(want)
    for series, form, ell in itertools.product((1, 2), ("closed", "deficit"), range(1, 31)):
        got, want = pelda_slope(series, ell, form), pelda_slope(series, rf(ell), form)
        assert got == want and str(got) == str(want)
    for i in range(1, 41):
        got, want = kosz_class(i), kosz_direct_sums(i)
        assert (got.lam, got.gamma) == (want.lam, want.gamma)
        assert (str(got.lam), str(got.gamma)) == (str(want.lam), str(want.gamma))


D = I * (I + rf(1)) * (I + rf(2)) * (I + rf(3))


def test_kosz_symbolic_matches_closed():
    lam, gamma = kosz_sums_over_d("i")
    kc = kosz_class("i")
    assert lam == kc.lam * D and gamma == kc.gamma * D


def test_kosz_intro_prefactor_ratio():
    ratio = kosz_prefactor_ratio("i")
    assert ratio == rf(2) * (rf(2) * I + rf(1)) / (I + rf(1))
    ki = kosz_intro_form("i")
    kc = kosz_class("i")
    assert ki.lam == kc.lam * ratio
    assert ki.gamma == kc.gamma * ratio
    # the two displays carry the same (lambda : gamma) direction
    assert ki.lam / ki.gamma == kc.lam / kc.gamma


def test_kosz_ranks():
    for i in range(1, 9):
        rg, rh, closed = kosz_rank(i)
        assert rg == rh == closed
    assert kosz_rank(2)[2] == 378
    rg, rh, closed = kosz_rank("i")
    assert rg == rh == closed


def test_kosz_guard():
    with pytest.raises(UnsupportedParam):
        kosz_class(0)


@pytest.mark.parametrize("i", [0, -2])
def test_kosz_rank_refuses_what_kosz_class_refuses(i):
    for fn in (kosz_class, kosz_rank, kosz_intro_form,
               kosz_prefactor_ratio, kosz_sums_over_d):
        with pytest.raises(UnsupportedParam, match="need i >= 1"):
            fn(i)


def _at(r, i):
    point = {param("i"): i}
    return r.num.evaluate(point) / r.den.evaluate(point)


def test_kosz_alternating_sums_match_their_defining_sums():
    """T_p and U_p, as the rational-function sums and as the sums of the
    numerators over D, against the defining sums in math.comb."""
    sums = [(p, side) for p in range(4) for side in (moduli._T_SIDE, moduli._U_SIDE)]
    shifts = {key: moduli._binom_shift(*key, I) for key in moduli._sum_keys(sums)}
    d = I * (I + rf(1)) * (I + rf(2)) * (I + rf(3))
    over_d = {key: rf(s.num) for key, s in shifts.items()}
    for i in range(1, 9):
        g = 2 * i + 3
        for p in range(4):
            want = {
                moduli._T_SIDE: sum((-1) ** j * (j + 2) ** p * comb(g, i - 1 - j)
                                    for j in range(i)),
                moduli._U_SIDE: sum((-1) ** j * (j + 2) ** p * comb(g + 1, i - j)
                                    for j in range(i + 1)),
            }
            for side, total in want.items():
                expected = QQ(total, comb(2 * i - 1, i))
                assert _at(moduli._alternating_sum(p, side, shifts), i) == expected
                assert _at(moduli._alternating_sum(p, side, over_d), i) == expected * _at(d, i)


def _count_shift_keys(monkeypatch):
    calls = Counter()
    shift = moduli._binom_shift

    def counted(c, cp, i):
        calls[(c, cp)] += 1
        return shift(c, cp, i)

    monkeypatch.setattr(moduli, "_binom_shift", counted)
    return calls


@pytest.mark.parametrize("fn", [kosz_sums_over_d, kosz_rank])
def test_kosz_symbolic_forms_each_shifted_binomial_once(monkeypatch, fn):
    calls = _count_shift_keys(monkeypatch)
    fn("i")
    assert calls and max(calls.values()) == 1


def _symbolic_kosz_row_status():
    tag = "middle-syzygy class: alternating sum vs closed form (sym i)"
    return _row_status(checks_k3, tag)


def test_kosz_symbolic_rejects_a_wrong_closed_form(monkeypatch):
    closed = moduli.kosz_class

    def off_by_one(i="i"):
        c = closed(i)
        return c._replace(lam=c.lam + rf(1))

    assert _symbolic_kosz_row_status() == "PASS"
    monkeypatch.setattr(moduli, "kosz_class", off_by_one)
    assert _symbolic_kosz_row_status() == "FAIL"


@pytest.mark.parametrize("p, t", [(p, t) for p in range(4) for t in range(p + 1)])
def test_kosz_symbolic_rejects_a_wrong_binomial_coefficient(monkeypatch, p, t):
    coeffs = list(moduli._J2_BINOMIAL[p])
    coeffs[t] += 1
    monkeypatch.setitem(moduli._J2_BINOMIAL, p, coeffs)
    assert _symbolic_kosz_row_status() == "FAIL"


def test_kosz_symbolic_rejects_a_shift_over_another_denominator(monkeypatch):
    """The same value stored over D (i+5) is refused, not summed some other
    way."""
    shift = moduli._binom_shift
    extra = (I + rf(5)).num

    def widened(c, cp, i):
        s = shift(c, cp, i)
        if (c, cp) == (2, -1):
            return RationalFunction._raw(s.num * extra, s.den * extra)
        return s

    monkeypatch.setattr(moduli, "_binom_shift", widened)
    with pytest.raises(IdentityFailed, match="C\\(2i\\+2, i-1\\)"):
        kosz_sums_over_d("i")
    assert _symbolic_kosz_row_status() == "FAIL"


# -- cover spaces -----------------------------------------------------------

def test_hurwitz_report_core():
    rep = hurwitz_report()
    assert rep.canonical_in_gamma == TautClass(
        {"lambda": 12, "gamma": 1, "D0": -2}
    )
    assert rep.structural_identity_holds
    assert rep.rank4_class == TautClass(
        {"lambda": (rf(5) * K + rf(12)) / K, "gamma": (K - rf(6)) / K, "D0": -1}
    )
    assert rep.alpha_solved == K - rf(6)


def test_hurwitz_hodge_coefficients():
    rep = hurwitz_report()
    six = rf(6) * K - rf(5)
    assert rep.hodge_d0 == rf(3) * (K - rf(1)) / (rf(4) * six)
    assert rep.hodge_d3 == (rf(3) * K - rf(7)) / (rf(12) * six)
    assert rep.hodge_d2_derived == rf(-1) / (rf(2) * six)
    assert rep.hodge_d2_published == rf(-1) / (rf(4) * six)
    assert rep.hodge_d2_factor_two


def test_hurwitz_report_at_integer_k_specializes_every_field():
    # the report at an integer k0 is the symbolic report at k = k0, the
    # Hodge boundary coefficients included
    sym_rep = hurwitz_report()
    def at(c, k0):
        k_at = {param("k"): Polynomial.const(k0)}
        return rf(c.num.substitute_poly(k_at)) / rf(c.den.substitute_poly(k_at))
    for k0 in range(-1, 15):
        if k0 < 4:
            # the rank-4 class's prefactor A_k^(k-4) needs k >= 4
            with pytest.raises(UnsupportedParam, match="need k >= 4"):
                hurwitz_report(k0)
            continue
        if k0 == 6:
            # the gamma coefficient (k - 6)/k of the rank-4 class vanishes,
            # so gamma cannot be eliminated
            with pytest.raises(UnsupportedParam, match=r"k = 6: .*\(k-6\)/k"):
                hurwitz_report(k0)
            continue
        rep = hurwitz_report(k0)
        for name in ("hodge_d0", "hodge_d2_derived", "hodge_d2_published",
                     "hodge_d3", "alpha_solved"):
            got, want = getattr(rep, name), getattr(sym_rep, name)
            assert got.is_polynomial() and got == at(want, k0), (k0, name)
        for name in ("canonical_in_gamma", "structural_lhs",
                     "structural_rhs", "rank4_class"):
            got, want = getattr(rep, name), getattr(sym_rep, name)
            assert set(got.coeffs) <= set(want.coeffs), (k0, name)
            for s, c in want.coeffs.items():
                assert got.coefficient(s) == at(c, k0), (k0, name, s)
        assert rep.hodge_d2_factor_two and rep.structural_identity_holds


def test_solved_multiplier_row_fails_on_a_wrong_target_bundle(monkeypatch, clear_caches):
    """alpha_solved is k times the rank-4 class's gamma coefficient, so a
    c1 of the quadratic multiplication target off by gamma moves it off
    k - 6."""
    tag = "solved canonical-class multiplier"
    chern = grr.hurwitz_sheaf_chern

    def perturbed(k="k"):
        c1E, c1F = chern(k)
        return c1E, c1F + grr.gamma_hurwitz(k)

    assert _row_status(checks_hurwitz, tag) == "PASS"
    monkeypatch.setattr(grr, "hurwitz_sheaf_chern", perturbed)
    clear_caches()  # the row above derived the report
    assert hurwitz_report().alpha_solved != K - rf(6)
    assert _row_status(checks_hurwitz, tag) == "FAIL"


def test_rank4_coefficient_row_reads_the_samples(monkeypatch, clear_caches):
    """The row is WARN because no sampled k / A_k^(k-4) is 1/6; with
    A_k^(k-4) = 6k every sample is, and the row passes."""
    tag = "rank-4 locus coefficient in the canonical-class relation"
    assert _row_status(checks_hurwitz, tag) == "WARN"
    monkeypatch.setattr(moduli, "a_const", lambda e, r: QQ(6 * e))
    clear_caches()  # the row above derived the report
    assert _row_status(checks_hurwitz, tag) == "PASS"


def test_hurwitz_published_coefficient_differs():
    rep = hurwitz_report()
    # k / A_k^(k-4) never equals the published 1/6 on the sampled range
    assert all(not match for _, match in rep.hrk4_coeff_samples.values())
    assert rep.hrk4_coeff_samples[6][0] == QQ(6, 35)


def test_shared_hurwitz_report_is_read_only():
    # every caller in the process gets the one report, so none may edit it
    rep = hurwitz_report()
    assert hurwitz_report() is rep
    with pytest.raises(TypeError):
        rep.hrk4_coeff_samples[6] = (QQ(1, 6), True)
    assert rep.hrk4_coeff_samples[6][0] == QQ(6, 35)


# -- slope functional ---------------------------------------------------------

def test_slope_examples():
    d = ModuliDivisor(4, rf(34), {0: rf(4)})
    assert q(d.slope()) == QQ(17, 2)
    gon = known_divisor("gonality", 3)
    assert q(gon.slope()) == 8
    triv = ModuliDivisor(2, rf(1), {0: rf(1)})
    assert q(triv.slope()) == 1


def test_slope_uses_minimum():
    d = ModuliDivisor(5, rf(10), {0: rf(2), 1: rf(1)})
    assert q(d.slope()) == 10


def test_slope_guards():
    with pytest.raises(BoundaryCoefficientNonpositive):
        ModuliDivisor(4, rf(34), {}).slope()
    with pytest.raises(BoundaryCoefficientNonpositive):
        ModuliDivisor(4, rf(34), {0: rf(-4)}).slope()


def test_slope_reads_distinct_deltas():
    # slope reads each distinct coefficient once; the least one still sets
    # the slope, and one nonpositive coefficient, shared or not, still
    # raises with every delta_i's value in the message
    b, g = rf(QQ(3, 2)), rf(Polynomial.variable(param("g")))
    assert ModuliDivisor(5, rf(10), {0: rf(4), 1: b, 2: QQ(5), 3: b}).slope() == QQ(20, 3)
    for deltas, got in (
        ({0: rf(4), 1: rf(-1), 2: QQ(5)}, "4, 1), Fraction(-1, 1), Fraction(5, 1"),
        ({0: b, 1: rf(0), 2: b}, "3, 2), Fraction(0, 1), Fraction(3, 2"),
    ):
        with pytest.raises(BoundaryCoefficientNonpositive) as err:
            ModuliDivisor(5, rf(10), deltas).slope()
        assert str(err.value) == (
            "boundary coefficients must be positive, got [Fraction(%s)]" % got)
    with pytest.raises(BoundaryCoefficientNonpositive,
                       match="^symbolic slope needs equal boundary coefficients$"):
        ModuliDivisor(5, rf(10), {0: g, 1: g, 2: g + 1}).slope()
    assert ModuliDivisor(5, rf(10), {0: g, 1: g}).slope() == rf(10) / g
