import pytest

from quadloci.algebra import QQ, Polynomial, sym
from quadloci.grr import (
    MissingRule,
    TautClass,
    _mono,
    chern_of_power_pushforward,
    curve_rules,
    gamma_hurwitz,
    gamma_k3,
    grr_c1,
    grr_rank,
    hurwitz_sheaf_chern,
    hurwitz_twist,
    in_gamma_basis,
    jet_porteous_d3,
    k3_rules,
    k3_twist,
    line_bundle_ch,
    lm_lambda_relation,
    rf,
    tag,
)

G = rf("g")
K = rf("k")
N = rf("n")
I = rf("i")


def test_curve_table_entries():
    rules = curve_rules(genus=G, degL=rf("d"))
    assert rules.top_rules[_mono(("c1omega", 2))] == TautClass(
        {"lambda": 12, "delta": -1}
    )
    assert rules.scalar_rules[_mono(("c1L", 1))] == rf("d")
    assert rules.scalar_rules[_mono(("c1omega", 1))] == rf(2) * G - rf(2)
    assert rules.push_top(Polynomial.const(1)) == TautClass.zero()
    assert rules.push_scalar(Polynomial.const(1)) == rf(0)


def test_curve_todd_factor():
    rules = curve_rules(genus=G, degL=rf(1))
    assert rules.todd.terms == {
        (): 1,
        ((sym("c1omega"), 1),): QQ(-1, 2),
        ((sym("T2"), 1),): 1,
    }


def test_k3_todd_factor_displayed_coefficients():
    rules = k3_rules(G)
    assert rules.todd.terms == {
        (): 1,
        ((sym("c1omega"), 1),): QQ(-1, 2),
        ((sym("c1omega"), 2),): QQ(1, 12),
        ((sym("c2T"), 1),): QQ(1, 12),
        ((sym("c1omega"), 1), (sym("c2T"), 1)): QQ(1, 24),
    }


def test_k3_table_entries():
    rules = k3_rules(G)
    assert rules.push_scalar(tag("c2T")) == rf(24)
    assert rules.push_scalar(tag("c1L") ** 2) == rf(2) * G - rf(2)
    assert rules.push_top(tag("c1L") * tag("c1omega") ** 2) == TautClass.zero()
    assert rules.push_top(tag("c1omega") * tag("c2T")) == TautClass.symbol("lambda", 24)


def test_missing_rule():
    rules = k3_rules(G)
    with pytest.raises(MissingRule):
        rules.push_top(tag("T2") * tag("c1L"))


def test_structure_sheaf_pushforward_is_lambda():
    rules = curve_rules(genus=G, degL=rf(0))
    assert grr_c1(line_bundle_ch(0, 0), rules) == TautClass.symbol("lambda")


def test_quadratic_differentials():
    rules = curve_rules(genus=G, degL=rf(2) * (rf(2) * G - rf(2)))
    got = grr_c1(line_bundle_ch(0, 2), rules)
    assert got == TautClass({"lambda": 13, "delta": -1})


def test_squared_bundle_pushforward():
    rules = curve_rules(genus=G, degL=rf("d"))
    got = grr_c1(line_bundle_ch(2, 0), rules)
    assert got == TautClass({"lambda": 1, "frak_a": 2, "frak_b": -1})


def test_power_pushforward_symbolic():
    got = chern_of_power_pushforward(N, G)
    want = TautClass(
        {
            "kappa11": N * rf(QQ(1, 12)),
            "kappa30": N ** 3 * rf(QQ(1, 6)),
            "lambda": rf(1) - N ** 2 * rf(QQ(1, 2)) * (G - rf(1)),
        }
    )
    assert got == want
    # numeric instances
    got2 = chern_of_power_pushforward(2, 11)
    assert got2 == TautClass(
        {"kappa11": QQ(1, 6), "kappa30": QQ(4, 3), "lambda": -19}
    )


def test_grr_additivity_in_character():
    rules = k3_rules(G)
    a = line_bundle_ch(1, 0)
    b = line_bundle_ch(3, 1)
    s = a + b
    assert grr_c1(s, rules) == grr_c1(a, rules) + grr_c1(b, rules)
    assert grr_rank(s, rules) == grr_rank(a, rules) + grr_rank(b, rules)


def test_power_pushforward_rank():
    # rank of the pushforward of the n-th power is 2 + n^2 (g-1)
    rules = k3_rules(G)
    got = grr_rank(line_bundle_ch(N, 0), rules)
    assert got == rf(2) + N ** 2 * (G - rf(1))


def test_hurwitz_sheaf_chern():
    c1E, c1F = hurwitz_sheaf_chern()
    assert c1F == TautClass({"lambda": 13, "frak_a": 2, "frak_b": -3, "D0": -1})
    assert c1E == TautClass(
        {"lambda": 1, "frak_b": QQ(-1, 2), "frak_a": (K - rf(2)) / (rf(2) * K)}
    )
    # lambda-coefficient of c1F with the other classes switched off is 13
    assert c1F.coefficient("lambda") == rf(13)


def test_jet_porteous():
    d3, inter = jet_porteous_d3()
    gam = gamma_hurwitz(K)
    assert d3 == gam.scale(6) + TautClass({"lambda": 24, "D0": -3})
    kappa1 = TautClass({"lambda": 12, "D0": -1})
    assert inter["push_c2_jet_quotient"] == gam.scale(6) + kappa1.scale(2)
    in_basis = in_gamma_basis(d3, gam, pivot="frak_b")
    assert in_basis == TautClass({"gamma": 6, "lambda": 24, "D0": -3})


def test_gamma_twist_invariance():
    gam_h = gamma_hurwitz(K)
    assert hurwitz_twist(gam_h, K) == gam_h
    gam_k = gamma_k3(G)
    assert k3_twist(gam_k, G) == gam_k
    # the raw kappa classes are not invariant
    assert k3_twist(TautClass.symbol("kappa30"), G) != TautClass.symbol("kappa30")
    assert hurwitz_twist(TautClass.symbol("frak_a"), K) != TautClass.symbol("frak_a")


def test_lambda_torsion_relation():
    rep = lm_lambda_relation()
    assert rep.c2_pushforward == I - rf(1)
    assert rep.c2_pushforward_direct == I + rf(1)
    assert rep.rhs_lambda_multiple == rf(3)


def test_tautclass_arithmetic():
    a = TautClass({"lambda": 2, "D0": -1})
    b = TautClass({"lambda": 1, "gamma": QQ(1, 3)})
    assert (a + b).coefficient("lambda") == rf(3)
    assert (a - b).coefficient("gamma") == rf(QQ(-1, 3))
    assert a.scale(3) == TautClass({"lambda": 6, "D0": -3})
    assert a.substitute_symbol("D0", b) == TautClass(
        {"lambda": 1, "gamma": QQ(-1, 3)}
    )


_TABLES = {
    **{"curve %s %s" % (boundary, kind): (curve_rules(genus, degL, boundary),
                                          genus, degL, boundary)
       for boundary in ("delta", "delta0", "D0")
       for kind, genus, degL in (("symbolic", G, K), ("numeric", 5, 3))},
    "k3 symbolic": (k3_rules(G), G, None, None),
    "k3 numeric": (k3_rules(11), 11, None, None),
}


@pytest.mark.parametrize("table", sorted(_TABLES))
def test_line_bundle_pushforward_matches_closed_forms(table):
    """c1 and rank of the pushforward of L^a omega^b, the whole product
    ch * todd pushed, against closed forms worked out by hand: on a curve
    fibration with kappa_1 = 12 lambda - boundary (Mumford's formula),

        c1 = lambda + (a^2/2) frak_a + ((2ab - a)/2) frak_b + ((b^2 - b)/2) kappa_1,
        rank = a d + (2b - 1)(g - 1),

    and on a K3 fibration

        c1 = (a/12) kappa11 + (a^3/6) kappa30 + ((2b - 1)(g - 1) a^2/2 + 2b + 1) lambda,
        rank = 2 + a^2 (g - 1)."""
    rules, genus, degL, boundary = _TABLES[table]
    g1 = rf(genus) - rf(1)
    for a in range(-2, 3):
        for b in range(-2, 3):
            ch = line_bundle_ch(a, b)
            if boundary is not None:
                kappa1 = TautClass({"lambda": 12, boundary: -1})
                want = TautClass({"lambda": 1, "frak_a": QQ(a * a, 2),
                                  "frak_b": QQ(2 * a * b - a, 2)})
                want = want + kappa1.scale(QQ(b * b - b, 2))
                want_rank = rf(a) * rf(degL) + rf(2 * b - 1) * g1
            else:
                want = TautClass({
                    "kappa11": QQ(a, 12),
                    "kappa30": QQ(a ** 3, 6),
                    "lambda": rf(QQ((2 * b - 1) * a * a, 2)) * g1 + rf(2 * b + 1),
                })
                want_rank = rf(2) + rf(a * a) * g1
            assert grr_c1(ch, rules) == want, (a, b)
            assert grr_rank(ch, rules) == want_rank, (a, b)
