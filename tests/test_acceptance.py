"""Acceptance gate: one test per criterion, exact tolerances throughout.

Every expected value below is either a published identity the library must
reproduce exactly, or a value derived by an independent oracle inside the
test.  Documented normalization discrepancies between published displays
are asserted quantitatively and flagged as WARN in the printed line; they
are never silently absorbed.
"""

from math import comb

from quadloci.algebra import Polynomial, QQ, alpha, beta, param
from quadloci.grr import TautClass, rf
from quadloci import grr, loci, moduli, symfunc, verify

X = Polynomial.variable


def _report(criterion, detail=""):
    print("[acceptance] %s PASS %s" % (criterion, detail))


def test_criterion_01_divisor_class_golden_set():
    golden = {
        (2, 2, 1): (-4, 2),
        (3, 5, 1): (-10, 3),
        (4, 9, 1): (-18, 4),
        (3, 3, 2): (-8, 4),
        (4, 7, 2): (-35, 10),
        (5, 12, 2): (-96, 20),
    }
    for (e, f, r), (ce, cf) in golden.items():
        want = cf * loci.c1F() + ce * loci.c1E()
        assert loci.localization_class(e, f, r) == want
        assert loci.closed_divisor_class(e, r) == want
        assert loci.residue_divisor_class(e, r) == want
    _report("criterion 1: golden divisor classes, three methods, exact")


def test_criterion_02_degree_constants():
    for e in range(13):
        for r in range(e + 1):
            assert symfunc.a_const(e, r, "product") == symfunc.a_const(
                e, r, "determinant"
            )
    assert symfunc.a_const(2, 1) == 2
    assert symfunc.a_const(5, 2) == 20
    assert symfunc.a_const(7, 4) == 672
    _report("criterion 2: degree constants, product == determinant, e <= 12")


def test_criterion_03_projectivization_example():
    w1 = 3 * X(alpha(1)) - X(alpha(2)) + X(alpha(3))
    w2 = X(alpha(1)) + 2 * X(alpha(2)) + 2 * X(alpha(3))
    weights = (w1, w2)
    scal = loci.ScalarData((2, 1, 1), 6)
    cls = w2
    assert loci.fixed_point_restriction(cls, weights, 0, scal) == (
        -2 * X(alpha(1)) + 3 * X(alpha(2)) + X(alpha(3))
    )
    assert loci.fixed_point_restriction(cls, weights, 1, scal) == Polynomial.zero()
    _report("criterion 3: projectivization fixed-point restrictions, exact")


def test_criterion_04_pencil_classes():
    for e in range(2, 9):
        assert loci.pencil_sub_from_quot(e) == loci.pencil_class_quot(e)
    n6 = comb(7, 2) - 2
    sumb = sum((X(beta(j)) for j in range(1, n6 + 1)), Polynomial.zero())
    suma = sum((X(alpha(i)) for i in range(1, 7)), Polynomial.zero())
    assert loci.pencil_class_quot(6) == 5 * (6 * sumb - 38 * suma)
    _report("criterion 4: pencil presentations agree e=2..8; e=6 gives (6, 38)")


def test_criterion_05_pushforward_engine():
    g, n, k = rf("g"), rf("n"), rf("k")
    # (a) power pushforward for symbolic n, g
    assert grr.chern_of_power_pushforward(n, g) == TautClass(
        {
            "kappa11": n * rf(QQ(1, 12)),
            "kappa30": n ** 3 * rf(QQ(1, 6)),
            "lambda": rf(1) - n ** 2 * rf(QQ(1, 2)) * (g - rf(1)),
        }
    )
    # (b) quadratic differentials
    rules = grr.curve_rules(genus=g, degL=rf(4) * g - rf(4))
    assert grr.grr_c1(grr.line_bundle_ch(0, 2), rules) == TautClass(
        {"lambda": 13, "delta": -1}
    )
    # (c) both cover-space multiplication bundles
    c1E, c1F = grr.hurwitz_sheaf_chern()
    assert c1E == TautClass(
        {"lambda": 1, "frak_b": QQ(-1, 2), "frak_a": (k - rf(2)) / (rf(2) * k)}
    )
    assert c1F == TautClass({"lambda": 13, "frak_a": 2, "frak_b": -3, "D0": -1})
    # (d) squared bundle on the linear-series space
    rules2 = grr.curve_rules(genus=g, degL=rf("d"))
    assert grr.grr_c1(grr.line_bundle_ch(2, 0), rules2) == TautClass(
        {"lambda": 1, "frak_a": 2, "frak_b": -1}
    )
    # (e) the lambda-torsion fiber integral evaluates to 3 lambda
    rep = grr.lm_lambda_relation()
    assert rep.rhs_lambda_multiple == rf(3)
    # (f) jet Porteous ramification divisor
    d3, _ = grr.jet_porteous_d3()
    want = grr.gamma_hurwitz(k).scale(6) + TautClass({"lambda": 24, "D0": -3})
    assert d3 == want
    _report("criterion 5: six pushforward-engine identities, exact")


def test_criterion_06_rank4_identity():
    g = rf("g")
    cls = moduli.k3_rank4_class()
    assert cls.coefficient("lambda") == (rf(2) * g * g - rf(13) * g + rf(9)) / (
        g + rf(1)
    )
    assert cls.coefficient("gamma") == rf(2) / (g + rf(1))
    _report("criterion 6: rank-4 divisor identity for symbolic g, exact")


def test_criterion_07_koszul():
    for i in range(1, 9):
        rg, rh, closed = moduli.kosz_rank(i)
        assert rg == rh == closed == (i + 1) * comb(2 * i + 5, i + 2)
    ks = moduli.kosz_class("i")
    kc = moduli.kosz_class("i")
    assert ks.lam == kc.lam and ks.gamma == kc.gamma
    # the two published displays: identical (lambda : gamma) vectors, and
    # the prefactors differ by exactly the binomial ratio 2(2i+1)/(i+1);
    # the alternating sum itself matches the first display, so the second
    # display's prefactor carries a documented normalization discrepancy.
    ki = moduli.kosz_intro_form("i")
    ii = rf("i")
    ratio = moduli.kosz_prefactor_ratio("i")
    assert ratio == rf(2) * (rf(2) * ii + rf(1)) / (ii + rf(1))
    assert ki.lam == kc.lam * ratio
    assert ki.gamma == kc.gamma * ratio
    assert ki.lam / ki.gamma == kc.lam / kc.gamma
    _report(
        "criterion 7: syzygy ranks and class identities, exact",
        "(WARN: the two published prefactors differ by 2(2i+1)/(i+1); "
        "the alternating sum matches the (4/(i+2)) C(2i-1,i) prefactor)",
    )


def test_criterion_08_slope_series():
    assert moduli.pelda_slope(1, "ell", "closed") == moduli.pelda_slope(
        1, "ell", "deficit"
    )
    assert moduli.pelda_slope(1, 1) == rf(QQ(34423, 5320))
    d = moduli.dp12_slope()
    assert d.slope == QQ(373, 54)
    assert QQ(34423, 5320) < QQ(6) + QQ(12, 25)
    assert QQ(373, 54) < QQ(6) + QQ(12, 13)
    _report("criterion 8: slope values and bounds, exact")


def test_criterion_09_hurwitz():
    rep = moduli.hurwitz_report()
    k = rf("k")
    assert rep.canonical_in_gamma == TautClass({"lambda": 12, "gamma": 1, "D0": -2})
    assert rep.structural_identity_holds
    assert rep.structural_rhs == TautClass(
        {"lambda": rf(7) * k - rf(84), "D0": rf(12) - k, "Hrk4": k}
    )
    six = rf(6) * k - rf(5)
    assert rep.hodge_d0 == rf(3) * (k - rf(1)) / (rf(4) * six)
    assert rep.hodge_d3 == (rf(3) * k - rf(7)) / (rf(12) * six)
    # D2: derived coefficient is exactly twice the published one
    assert rep.hodge_d2_derived == rep.hodge_d2_published * rf(2)
    _report(
        "criterion 9: cover-space identities, exact",
        "(WARN: D2 boundary coefficient differs from the published display "
        "by the documented factor 2)",
    )


def test_criterion_10_property_suites():
    # localization polynomiality, homogeneity, bi-symmetry
    tested = []
    for e in range(2, 5):
        wsize = comb(e + 1, 2)
        for r in range(1, e + 1):
            dmax = min(r * (r + 1) // 2, wsize - 1)
            for d in range(1, dmax + 1):
                if e == 4 and (comb(wsize, d) * d > 4000
                               or loci.target_degree(e, wsize - d, r) > 5):
                    continue
                tested.append((e, wsize - d, r))
    for e, f, r in tested:
        p = loci.to_roots(loci.localization_class(e, f, r), e, f)
        t = loci.target_degree(e, f, r)
        assert all(sum(e for _, e in m) == t for m in p.terms)
        for i in range(1, e):
            assert p.rename({alpha(i): alpha(i + 1), alpha(i + 1): alpha(i)}) == p
        for j in range(1, f):
            assert p.rename({beta(j): beta(j + 1), beta(j + 1): beta(j)}) == p
    # divisorial triple agreement including a rank-5 source
    for e, r in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2)]:
        f = loci.divisorial_f(e, r)
        want = loci.closed_divisor_class(e, r)
        assert loci.residue_divisor_class(e, r) == want
        assert loci.localization_class(e, f, r) == want
    # twist invariance on both sides
    k, g = rf("k"), rf("g")
    assert grr.hurwitz_twist(grr.gamma_hurwitz(k), k) == grr.gamma_hurwitz(k)
    assert grr.k3_twist(grr.gamma_k3(g), g) == grr.gamma_k3(g)
    # overall-constant cancellation in the slope machinery
    res = moduli.virtual_slope_from_pushforward(moduli.series_params(1, 1), QQ(1))
    assert param("beta") not in res.slope.num.variables() | res.slope.den.variables()
    # order independence of the certificate's sum over the Grassmannian
    # fixed points J: reversing or rotating the roots a permutes the J
    import random

    rng = random.Random(3)
    a = rng.sample(range(10**3, 10**6 + 1), 3)
    b = [rng.randint(10**3, 10**6) for _ in range(3)]
    point = {alpha(i + 1): v for i, v in enumerate(a)}
    point.update((beta(j + 1), v) for j, v in enumerate(b))
    want = loci.to_roots(loci.localization_class(3, 3, 2), 3, 3).evaluate(point)
    for roots in (a, a[::-1], a[1:] + a[:1]):
        assert loci.resolution_value(3, 3, 2, roots, b) == want
    _report(
        "criterion 10: property suites",
        "(%d localization triples; divisorial agreement through rank-5 "
        "sources; twist invariance; constant cancellation; order "
        "independence)" % len(tested),
    )


def test_verification_suite_has_no_failures():
    results = verify.run_all(max_e=5)
    fails = verify.failures(results)
    assert not fails, [row.tag for row in fails]
    warns = [row for _, row in results if row.status == verify.WARN]
    _report(
        "verification suite: %d checks, %d documented WARNs, 0 failures"
        % (len(results), len(warns))
    )
