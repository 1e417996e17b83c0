"""Stieltjes-Wigert and Rogers-Szego polynomial families."""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qsw.identities import BY_ID
from qsw.series import (
    DEFAULT_TABLE, Monomial, caps, equals_mod_caps, make_series, mono,
    monomial_series, one, q_power, variable, zero,
)
from qsw.qfunctions import phi, poch, poch_inf_inv, qbinom_coeffs, qfact_inv
from qsw.verify import VerifyConfig
from qsw.polynomials import (
    _gauss_form, rogers_szego, sw_classic, sw_star, sw_star_op,
)

C = caps(20)


def assert_equal(f, g):
    ok, w = equals_mod_caps(f, g)
    assert ok, f"first mismatch: {w}"


def test_sw_classic_zero_and_one():
    assert sw_classic(0, C) == one(caps_=C)
    got = sw_classic(1, C)
    expect = (1 - q_power(1, caps_=C) * variable("x", caps_=C)) \
        / (1 - q_power(1, caps_=C))
    assert_equal(got, expect)


def test_sw_classic_constant_coefficient():
    # coefficient of x^0 in S_n(x;q) is 1/(q;q)_n
    for n in range(5):
        f = sw_classic(n, C)
        g = qfact_inv(n, C)
        for e in range(C.qmax + 1):
            assert f.coeff(mono(e)) == g.coeff(mono(e))


def _sw_by_defining_sum(c, nmax):
    """Reference S_n(x;q) for n = 0..nmax: the terminating 1phi1 written out
    term by term, sum_k q^(k^2) (-x)^k / ((q;q)_k (q;q)_(n-k)), each
    1/(q;q)_j a Pochhammer product inverted by Series.reciprocal."""
    inv = [poch([q_power(1, DEFAULT_TABLE, c)], j, c).reciprocal()
           for j in range(nmax + 1)]
    return [sum((monomial_series((-1) ** k, k * k, {"x": k}, DEFAULT_TABLE, c)
                 * inv[k] * inv[n - k] for k in range(n + 1)), zero(caps_=c))
            for n in range(nmax + 1)]


@pytest.mark.parametrize("top, xcap", [(200, 8), (12, 3), (5, 1)]
                         + [(top, 8) for top in range(5)])
def test_sw_classic_matches_phi_construction(top, xcap):
    c = caps(top, x=xcap)
    for n, want in enumerate(_sw_by_defining_sum(c, 40)):
        got = sw_classic(n, c)
        assert got == want and got.caps == want.caps, n


def test_sw_generating_functions_do_not_build_through_phi(monkeypatch):
    # the left sides of I-GF1..3 (sums of S_n) must not share phi with their
    # right sides: with every module binding of phi replaced by one that
    # raises, the left sides still build and the right sides do not
    def refuse(*args, **kwargs):
        raise AssertionError("phi called")
    for name, mod in list(sys.modules.items()):
        if name == "qsw" or name.startswith("qsw."):
            for binding, value in list(vars(mod).items()):
                if value is phi:
                    monkeypatch.setattr(mod, binding, refuse)
    for ident in ("I-GF1", "I-GF2", "I-GF3"):
        spec = BY_ID[ident]
        for env in spec.cases(VerifyConfig(qmax=12), None):
            assert not spec.build_lhs(env).is_zero(), ident
            with pytest.raises(AssertionError, match="phi called"):
                spec.build_rhs(env)


def test_sw_classic_window_below_its_degree():
    # a window top below a row's least q-exponent k^2 builds no row for
    # that k, and the result is still the wide one truncated at its caps
    for n in range(4):
        wide = sw_classic(n, caps(12))
        for top in range(5):
            got = sw_classic(n, caps(top))
            assert got == wide.truncate(caps(top)), (n, top)
            assert got.caps == caps(top)


def test_sw_star_small():
    x, y = variable("x", caps_=C), variable("y", caps_=C)
    q = q_power(1, caps_=C)
    assert sw_star(0, C) == one(caps_=C)
    assert sw_star(1, C) == x + q * y
    assert sw_star(2, C) == x * x + (q + q * q) * x * y \
        + q_power(4, caps_=C) * y * y


def test_sw_star_homogeneous_scaling():
    lam = Fraction(3, 2)
    for n in range(5):
        f = sw_star(n, C)
        scaled = f.substitute("x", lam, mono(0, {"x": 1})) \
            .substitute("y", lam, mono(0, {"y": 1}))
        assert scaled == lam ** n * f


def test_sw_star_specializations():
    for n in range(1, 6):
        f = sw_star(n, caps(40))
        aty0 = f.substitute("y", 0, mono(0))
        assert aty0 == variable("x", caps_=caps(40)) ** n
        atx0 = f.substitute("x", 0, mono(0))
        assert atx0 == q_power(n * n, caps_=caps(40)) \
            * variable("y", caps_=caps(40)) ** n


def test_sw_star_cut_to_the_caps():
    # only the rows x^(n-k) y^k the caps admit, and of each only the powers
    # of q up to the top, are built: the result is the wide one truncated
    wc = caps(100, default=10)
    for n in range(11):
        wide = sw_star(n, wc)
        for top in range(7):
            for cx in range(4):
                for cy in range(4):
                    c = caps(top, x=cx, y=cy)
                    got = sw_star(n, c)
                    assert got.json_text() == wide.truncate(c).json_text(), \
                        (n, top, cx, cy)


_bound_value = st.one_of(st.none(), st.tuples(
    st.sampled_from([Fraction(-3), Fraction(-1, 2), Fraction(2, 3),
                     Fraction(1), Fraction(5, 2)]),
    st.integers(0, 2)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(sw_star, "x", "y", lambda k: k * k),
                        (rogers_szego, "a", "b", lambda k: 0)]),
       st.integers(0, 8), _bound_value, _bound_value, st.integers(0, 12),
       st.integers(0, 4), st.integers(0, 4))
def test_gauss_form_bound_bases_match_substitution(family, n, ub, vb, top,
                                                   cu, cv):
    # a bound value c*q^d enters as the one-term base (c, q^d); the oracle
    # builds the formal polynomial with n more of each bound variable,
    # substitutes the values and truncates back to the caps
    poly, u, v, weight = family
    cap = {u: cu, v: cv}
    c = caps(top, **cap)
    bound = {name: b for name, b in ((u, ub), (v, vb)) if b is not None}
    want = poly(n, caps(top, **{name: cap[name] + n * (name in bound)
                                for name in cap}))
    for name, (cb, d) in bound.items():
        want = want.substitute(name, cb, mono(d))
    want = want.truncate(c)

    def base(name):
        if name in bound:
            cb, d = bound[name]
            return cb, mono(d)
        return 1, mono(0, {name: 1})
    got = _gauss_form(n, c, DEFAULT_TABLE, base(u), base(v), weight)
    assert got.json_text() == want.json_text()


def _gauss_by_monomials(n, c, u, v, weight):
    """Reference _gauss_form: every coefficient of every row as a Monomial,
    scaled by cu^(n-k) cv^k in Fraction arithmetic, normalised by
    make_series, which drops what lies outside the caps."""
    (cu, mu), (cv, mv) = u, v
    entries = []
    for k in range(n + 1):
        ve = tuple((n - k) * a + k * b for a, b in zip(mu.vexps, mv.vexps))
        low = weight(k) + (n - k) * mu.qexp + k * mv.qexp
        ck = Fraction(cu) ** (n - k) * Fraction(cv) ** k
        entries += [(ck * b, Monomial(low + d, ve))
                    for d, b in enumerate(qbinom_coeffs(n, k))]
    return make_series(entries, c)


def _base(bv, name):
    return (1, mono(0, {name: 1})) if bv is None else (bv[0], mono(bv[1]))


@settings(max_examples=200, deadline=None)
# a bound Fraction base times q^2; rows above the top (k*k > 3); rows
# outside the x-cap 1; both bases bound, so every row is the pure-q one
@example(3, (Fraction(-1, 2), 2), None, True, 12, 4, 4)
@example(4, None, None, True, 3, 4, 4)
@example(3, None, None, False, 10, 1, 4)
@example(4, (Fraction(2, 3), 1), (Fraction(-3), 0), True, 15, 0, 0)
@given(st.integers(0, 10), _bound_value, _bound_value, st.booleans(),
       st.integers(0, 15), st.integers(0, 4), st.integers(0, 4))
def test_gauss_form_matches_monomial_construction(n, ub, vb, squares, top,
                                                  cx, cy):
    c = caps(top, x=cx, y=cy)
    u, v = _base(ub, "x"), _base(vb, "y")
    weight = (lambda k: k * k) if squares else (lambda k: 0)
    got = _gauss_form(n, c, DEFAULT_TABLE, u, v, weight)
    want = _gauss_by_monomials(n, c, u, v, weight)
    assert got == want and got.caps == want.caps
    assert got.json_text() == want.json_text()


def test_sw_star_custom_variables():
    f = sw_star(2, C, x="w", y="z")
    w, z = variable("w", caps_=C), variable("z", caps_=C)
    q = q_power(1, caps_=C)
    assert f == w * w + (q + q * q) * w * z + q_power(4, caps_=C) * z * z


def test_sw_star_op_matches_direct():
    big = caps(145, default=12)
    for n in range(13):
        ok, w = equals_mod_caps(sw_star_op(n, big), sw_star(n, big))
        assert ok, f"n={n}: {w}"


def test_rogers_szego_small():
    a, b = variable("a", caps_=C), variable("b", caps_=C)
    assert rogers_szego(0, C) == one(caps_=C)
    assert rogers_szego(1, C) == a + b
    assert rogers_szego(2, C) == a * a + (1 + q_power(1, caps_=C)) * a * b \
        + b * b


def test_rogers_szego_symmetry():
    for n in range(7):
        f = rogers_szego(n, C)
        ai, bi = f.table.slot("a"), f.table.slot("b")
        for m, c in f.monomials():
            swapped = list(m.vexps)
            swapped[ai], swapped[bi] = swapped[bi], swapped[ai]
            assert f.coeff(type(m)(m.qexp, tuple(swapped))) == c


def test_rogers_szego_homogeneous_scaling():
    lam = Fraction(-2, 3)
    for n in range(5):
        f = rogers_szego(n, C)
        scaled = f.substitute("a", lam, mono(0, {"a": 1})) \
            .substitute("b", lam, mono(0, {"b": 1}))
        assert scaled == lam ** n * f


def test_rogers_szego_generating_function():
    # sum r_n(a,b) w^n/(q;q)_n = 1/(aw, bw;q)inf up to w-order N
    c = caps(10, default=4)
    N = 4
    wv = variable("w", caps_=c)
    total = None
    wpow = one(caps_=c)
    for n in range(N + 1):
        term = rogers_szego(n, c) * wpow * qfact_inv(n, c)
        total = term if total is None else total + term
        wpow = wpow * wv
    rhs = poch_inf_inv([variable("a", caps_=c) * wv,
                        variable("b", caps_=c) * wv], c)
    ws = total.table.slot("w")
    lhs_cut, rhs_cut = (
        make_series([(v, m) for m, v in s.monomials() if m.vexps[ws] <= N],
                    s.caps, s.table)
        for s in (total, rhs))
    assert_equal(lhs_cut, rhs_cut)
