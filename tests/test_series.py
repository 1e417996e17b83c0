"""Core series-ring behaviour: construction, arithmetic, the quotient by a
power of q, truncation, substitution, comparison, and rendering."""

import ast
import json
import math
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import qsw
from qsw.operators import dq
from qsw.polynomials import sw_classic, sw_star
from qsw.qfunctions import phi
from qsw.series import (
    DEFAULT_TABLE, DivisionByNonUnit, Monomial, Series, TruncationSpec,
    VarTable, VarTableMismatch, VariableNotFound, caps, constant,
    divide_q_power, equals_mod_caps, from_rows, make_series, mono,
    monomial_series, one, q_power, sum_series, variable, zero,
)

Q = Fraction
C = caps(5)


def var(name, c=C):
    return variable(name, caps_=c)


def qp(e, c=C):
    return q_power(e, caps_=c)


# -- construction ---------------------------------------------------------------


def test_make_series_constant_one():
    s = make_series([(1, mono(0))], C)
    assert s == one(caps_=C)
    assert s.text() == "1"


def test_make_series_merges_duplicates():
    s = make_series([(1, mono(0, {"x": 1})), (1, mono(0, {"x": 1}))], C)
    assert s.text() == "2*x"


def test_make_series_drops_outside_caps():
    s = make_series([(1, mono(7))], C)
    assert s.is_zero()
    assert s == zero(caps_=C)


_NEGATIVE_VEXP = "non-q variables cannot carry negative exponents"
_NEGATIVE_Q = "q cannot carry negative exponents"
_NEGATIVE_TOP = "qmax must be non-negative"


@pytest.mark.parametrize("build, message", [
    (lambda: monomial_series(1, 0, {"x": -1}, caps_=C), _NEGATIVE_VEXP),
    (lambda: make_series([(1, mono(0, {"x": -1}))], C), _NEGATIVE_VEXP),
    (lambda: (1 + var("x")).substitute("x", 1, mono(0, {"x": -1})),
     _NEGATIVE_VEXP),
    (lambda: (1 + var("x")).substitute("x", 1, mono(0, {"y": -1})),
     _NEGATIVE_VEXP),
    (lambda: (1 + var("x")).substitute({"x": (1, mono(1)),
                                        "y": (1, mono(0, {"z": -2}))}),
     _NEGATIVE_VEXP),
    (lambda: q_power(-1, caps_=C), _NEGATIVE_Q),
    (lambda: monomial_series(2, -3, {"x": 1}, caps_=C), _NEGATIVE_Q),
    (lambda: make_series([(1, mono(0)), (0, mono(-1))], C), _NEGATIVE_Q),
    (lambda: from_rows([(DEFAULT_TABLE.zero_vexps, -2, (1, 2, 3), 1)], C),
     _NEGATIVE_Q),
    (lambda: caps(-1), _NEGATIVE_TOP),
    (lambda: TruncationSpec(-3, C.vcaps), _NEGATIVE_TOP),
], ids=["monomial_series", "make_series", "substitute", "substitute-other",
        "substitute-dict", "q_power-q", "monomial_series-q", "make_series-q",
        "from_rows-q", "caps-qmax", "TruncationSpec-qmax"])
def test_no_entry_point_builds_a_negative_non_q_exponent(build, message):
    # x^-1 would break the invariants every row map relies on (reciprocal's
    # search for reachable parts never ends); q^-1 too, since every series
    # is ordinary, even at a zero coefficient, and so is a window below q^0
    with pytest.raises(ValueError, match=message) as err:
        build()
    assert "\n" not in str(err.value)


def test_reserved_q_and_unknown_variable():
    with pytest.raises(VariableNotFound):
        DEFAULT_TABLE.slot("nope")
    with pytest.raises(VariableNotFound):
        DEFAULT_TABLE.slot("q")
    with pytest.raises(ValueError):
        VarTable(("x", "q"))


# -- add/sub/neg -----------------------------------------------------------------


def test_add_basic():
    x = var("x")
    assert ((1 + x) + (1 - x)).text() == "2"


def test_add_identity():
    f = 3 * var("x") + qp(2)
    assert f + zero(caps_=C) == f


def test_add_caps_meet():
    f = one(caps_=caps(5))
    g = one(caps_=caps(9))
    assert (f + g).caps.qmax == 5


def test_table_mismatch():
    other = VarTable(("q", "u"))
    f = one(caps_=C)
    g = one(other, TruncationSpec(5, (3,)))
    with pytest.raises(VarTableMismatch):
        f + g


# -- mul -------------------------------------------------------------------------


def test_mul_hand_expansion():
    x = var("x")
    p = (1 - x) * (1 - qp(1) * x)
    assert p.text() == "1 - x - q*x + q*x^2"


def test_mul_identity():
    f = 2 * var("y") + qp(3) * var("x")
    assert f * one(caps_=C) == f


def test_mul_ideal_membership():
    x = var("x")
    assert (x ** 5 * x ** 4).is_zero()  # x-cap is 8


# -- div -------------------------------------------------------------------------


def test_div_geometric():
    c2 = caps(2)
    g = one(caps_=c2) - q_power(1, caps_=c2)
    assert (one(caps_=c2) / g).text() == "1 + q + q^2"


def test_div_self():
    f = 1 + qp(1) * var("x") - 2 * var("y")
    assert (f / f) == one(caps_=C)


def test_div_nonunit_raises():
    with pytest.raises(DivisionByNonUnit):
        one(caps_=C) / var("x")
    # a divisor of positive valuation has no ordinary inverse
    with pytest.raises(DivisionByNonUnit):
        one(caps_=C) / (qp(2) * (1 + var("x")))


# -- the quotient by q^s -----------------------------------------------------------


def test_divide_q_power_lowers_the_window_top():
    # q^5 + ... + q^10 at caps(10) is known through q^10, so its quotient
    # by q^5 claims nothing above q^5
    c = caps(10)
    s = divide_q_power(make_series([(1, mono(i)) for i in range(5, 11)], c),
                       5)
    assert s.caps == caps(5)
    assert s.text() == "1 + q + q^2 + q^3 + q^4 + q^5"
    assert divide_q_power(s, 0) is s


@pytest.mark.parametrize("f, s", [
    (make_series([(1, mono(0)), (1, mono(2))], C), 1),
    (make_series([(Q(1, 2), mono(3, {"x": 1})), (1, mono(1, {"y": 2}))], C),
     2),
    (qp(2), 3),
    (qp(2), -1),
], ids=["constant-term", "one-row-below", "above-the-top", "negative"])
def test_divide_q_power_refuses_an_indivisible_operand(f, s):
    # a nonzero entry below q^s, a window top below q^s, or a negative s
    # would leave a Laurent quotient
    with pytest.raises(ValueError) as err:
        divide_q_power(f, s)
    assert "\n" not in str(err.value)


# -- coeff / substitution ----------------------------------------------------------


def test_coeff_hand_expansion():
    x = var("x")
    p = (1 - x) * (1 - qp(1) * x)
    assert p.coeff(mono(1, {"x": 1})) == -1


def test_coeff_zero_series():
    assert zero(caps_=C).coeff(mono(3, {"y": 2})) == 0


def test_coeff_geometric():
    f = one(caps_=C) / (1 - qp(1))
    assert f.coeff(mono(2)) == 1


def test_coeff_integral_values_are_ints():
    # an integral coefficient is an int, a zero or out-of-window one too
    f = var("x") + Q(1, 2) * qp(1)
    got = [f.coeff(m) for m in (mono(0, {"x": 1}), mono(3), mono(9),
                                mono(-1), mono(0, {"x": 9}))]
    assert got == [1, 0, 0, 0, 0]
    assert all(type(c) is int for c in got)
    assert type(f.coeff(mono(1))) is Fraction


def test_coeff_rejects_a_monomial_of_another_width():
    with pytest.raises(VarTableMismatch):
        var("x").coeff(Monomial(0, (1,)))


def test_substitute_scale_by_q():
    x = var("x")
    s = (x * x).substitute("x", 1, mono(1, {"x": 1}))
    assert s.text() == "q^2*x^2"


def test_substitute_rational_binding():
    x = var("x")
    s = (1 - x).substitute("x", Q(1, 2), mono(0))
    assert s == constant(Q(1, 2), caps_=C)


def test_substitute_unknown_variable():
    with pytest.raises(VariableNotFound):
        one(caps_=C).substitute("nope", 1, mono(0))


@pytest.mark.parametrize("subs", [
    {"x": (1, mono(-1, {"x": 1}))},
    {"x": (1, mono(0, {"y": 1}))},
    {"x": (1, mono(0, {"x": 2}))},
    {"x": (2, mono(1)), "y": (1, mono(0, {"x": 1, "y": 1}))},
], ids=["negative-q", "other-name", "square", "dict"])
def test_substitute_refuses_all_but_bind_and_dilate(subs):
    # a name is bound to r q^d or dilated to r q^d times itself, d >= 0
    f = 1 + var("x") + var("y")
    with pytest.raises(ValueError) as err:
        f.substitute(subs)
    assert "\n" not in str(err.value)


# -- equals_mod_caps ----------------------------------------------------------------


def test_equals_self():
    f = 1 + qp(1) + var("x") * var("y")
    ok, w = equals_mod_caps(f, f)
    assert ok and w is None


def test_equals_meet_window():
    f = make_series([(1, mono(0)), (1, mono(1))], caps(5))
    g = make_series([(1, mono(0)), (1, mono(1)), (1, mono(7))], caps(10))
    ok, _ = equals_mod_caps(f, g)
    assert ok


def test_equals_witness_least_monomial():
    f = one(caps_=C)
    g = one(caps_=C) + qp(1)
    ok, (m, cf, cg) = equals_mod_caps(f, g)
    assert not ok
    assert m == mono(1) and cf == 0 and cg == 1


# -- truncate / windows --------------------------------------------------------------


def test_truncate_to_smaller_caps():
    f = (1 + qp(1)) ** 3
    g = f.truncate(caps(1))
    assert g.text() == "1 + 3*q"


# -- rendering ------------------------------------------------------------------------


def test_text_canonical_order_and_signs():
    s = make_series(
        [(Q(-3, 2), mono(2, {"x": 1})), (1, mono(0)), (-1, mono(0, {"y": 1}))],
        C)
    assert s.text() == "1 - y - 3/2*q^2*x"


def test_text_zero():
    assert zero(caps_=C).text() == "0"


def test_render_bit_exact_for_equal_series():
    a = make_series([(1, mono(0, {"x": 1})), (2, mono(3))], C)
    b = make_series([(2, mono(3)), (1, mono(0, {"x": 1}))], C)
    assert a.text() == b.text()
    assert a.json_text() == b.json_text()


def test_json_fields():
    # qFloor stays in the schema, pinned at 0: every series is ordinary
    s = qp(1) * (1 + qp(1) * var("x"))
    d = s.to_json_dict()
    assert set(d) == {"qFloor", "caps", "terms"}
    assert d["qFloor"] == 0
    assert d["caps"]["qMax"] == 5
    assert d["terms"][0] == {"coeff": "1/1", "mono": {"q": 1}}
    assert d["terms"][1] == {"coeff": "1/1", "mono": {"q": 2, "x": 1}}
    assert zero(caps_=C).to_json_dict()["qFloor"] == 0
    json.dumps(d)  # serializable


# -- integer exponent identities -------------------------------------------------------


def test_binomial_exponent_identities():
    for n in range(51):
        for k in range(n + 1):
            assert math.comb(n + k, 2) == math.comb(n, 2) + math.comb(k, 2) + n * k
            assert math.comb(n - k, 2) == math.comb(n, 2) + math.comb(k, 2) + k * (1 - n)


# -- randomized ring properties ----------------------------------------------------------

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
exps = st.tuples(st.integers(min_value=0, max_value=4),
                 st.integers(min_value=0, max_value=2),
                 st.integers(min_value=0, max_value=2))


@st.composite
def series_st(draw, min_terms=0):
    pcaps = caps(6, default=0, x=3, y=3)
    entries = draw(st.lists(st.tuples(coeffs, exps), min_size=min_terms,
                            max_size=4))
    return make_series(
        [(c, mono(qe, {"x": xe, "y": ye})) for c, (qe, xe, ye) in entries],
        pcaps)


@st.composite
def unit_series_st(draw):
    c0 = draw(st.fractions(min_value=-4, max_value=4, max_denominator=3)
              .filter(lambda f: f != 0))
    return constant(c0, caps_=caps(6, default=0, x=3, y=3)) + draw(series_st())


@settings(max_examples=250, deadline=None)
@given(series_st(), series_st(), series_st())
def test_add_associative_commutative(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f


@settings(max_examples=250, deadline=None)
@given(series_st(), series_st(), series_st())
def test_mul_associative(f, g, h):
    assert (f * g) * h == f * (g * h)


@settings(max_examples=250, deadline=None)
@given(series_st(), series_st())
def test_mul_commutative(f, g):
    assert f * g == g * f


@settings(max_examples=250, deadline=None)
@given(series_st(), series_st(), series_st())
def test_mul_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h


@settings(max_examples=150, deadline=None)
@given(series_st(), unit_series_st())
def test_div_exact(f, g):
    assume(g.coeff(mono(0)) != 0)
    h = f / g
    ok, _ = equals_mod_caps(g * h, f)
    assert ok


@settings(max_examples=150, deadline=None)
@given(series_st(), series_st())
def test_truncation_coherence_mul(f, g):
    small = caps(3, default=0, x=1, y=1)
    assert (f * g).truncate(small) == f.truncate(small) * g.truncate(small)


@settings(max_examples=150, deadline=None)
@given(series_st(), series_st())
def test_truncation_coherence_add(f, g):
    small = caps(3, default=0, x=2, y=1)
    assert (f + g).truncate(small) == f.truncate(small) + g.truncate(small)


@settings(max_examples=100, deadline=None)
@given(series_st(), unit_series_st())
def test_truncation_coherence_div(f, g):
    assume(g.coeff(mono(0)) != 0)
    small = caps(3, default=0, x=1, y=1)
    assert (f / g).truncate(small) == f.truncate(small) / g.truncate(small)


@settings(max_examples=100, deadline=None)
@given(series_st())
def test_substitute_identity(f):
    assert f.substitute("x", 1, mono(0, {"x": 1})) == f


# -- integer-numerator mul against the per-pair Fraction product ---------------------


def _schoolbook_mul(f, g):
    """Reference product: Fraction arithmetic once per pair of terms, known
    through the narrower of the two windows."""
    raw: dict = {}
    for ma, ca in f.monomials():
        for mb, cb in g.monomials():
            k = Monomial(ma.qexp + mb.qexp,
                         tuple(a + b for a, b in zip(ma.vexps, mb.vexps)))
            raw[k] = raw.get(k, 0) + Fraction(ca) * Fraction(cb)
    return make_series([(c, m) for m, c in raw.items()],
                       f.caps.meet(g.caps), f.table)


# denominators that share factors, so an operand's lcm is not their product
rationals = st.builds(Fraction, st.integers(-6, 6),
                      st.sampled_from([1, 2, 3, 4, 6, 12]))
scalars = st.one_of(st.integers(-6, 6), rationals)


@st.composite
def varied_series_st(draw):
    """Caps drawn per operand, terms up to q^8, int / mixed coefficients."""
    pcaps = caps(draw(st.integers(2, 6)), default=0,
                 x=draw(st.integers(0, 3)), y=draw(st.integers(0, 3)))
    coeff = st.integers(-6, 6) if draw(st.booleans()) else scalars
    entries = draw(st.lists(
        st.tuples(coeff, st.integers(0, 8), st.integers(0, 3),
                  st.integers(0, 3)), max_size=6))
    return make_series(
        [(c, mono(qe, {"x": xe, "y": ye})) for c, qe, xe, ye in entries],
        pcaps)


# (name, r, p, dilate): name -> r q^p, or r q^p name when dilate
_binds = st.lists(st.tuples(st.sampled_from("xyz"), scalars,
                            st.integers(0, 2), st.booleans()),
                  min_size=1, max_size=3, unique_by=lambda b: b[0])


@settings(max_examples=300, deadline=None)
# a den != 1 operand; rows that cancel once both names are bound; a name
# absent from the series; the zero series; and x dilated past the top,
# beside y bound to a Fraction
@example(make_series([(Q(1, 2), mono(0, {"x": 1})),
                      (Q(1, 3), mono(1, {"y": 2}))], C),
         [("x", Q(2, 3), 0, False), ("y", Q(-3, 2), 1, False)])
@example(make_series([(1, mono(0, {"x": 1})), (-1, mono(0, {"y": 1}))], C),
         [("x", 2, 0, False), ("y", 2, 0, False)])
@example(make_series([(1, mono(1, {"x": 1}))], C), [("z", 3, 1, True)])
@example(zero(caps_=C), [("x", Q(1, 2), 2, True), ("y", 3, 0, False)])
@example(make_series([(1, mono(0, {"x": 1})), (1, mono(3, {"x": 2})),
                      (1, mono(0, {"y": 1}))], caps(5, x=3, y=1)),
         [("x", Q(-1, 2), 2, True), ("y", Q(2, 3), 1, False)])
@given(varied_series_st(), _binds)
def test_substitute_of_several_names_is_the_fold_of_one_name_ones(f, binds):
    subs = {name: (r, mono(p, {name: 1} if dilate else {}))
            for name, r, p, dilate in binds}
    fold = f
    for name, (r, m) in subs.items():
        fold = fold.substitute(name, r, m)
    got = f.substitute(subs)
    assert got == fold
    assert (got.caps, got.den, got.rows) == (fold.caps, fold.den, fold.rows)


def _assert_same_product(got, want):
    assert got == want
    assert got.json_text() == want.json_text()
    assert _canonical(got)


@settings(max_examples=300, deadline=None)
@example(zero(caps_=C), make_series([(Q(1, 2), mono(0)), (3, mono(3))], C))
# one-term operands: a key at the window top of the narrower operand, a
# sum of variable exponents above a cap, a Fraction scalar of value -1 or
# 1, and two Fractions whose product is an integer
@example(make_series([(Q(1, 2), mono(0, {"x": 1}))], C),
         make_series([(3, mono(0)), (Q(2, 3), mono(5, {"y": 1}))], caps(6)))
@example(make_series([(3, mono(5))], C),
         make_series([(1, mono(0)), (Q(2, 3), mono(1))], C))
@example(make_series([(2, mono(0, {"x": 2}))], caps(5, x=3)),
         make_series([(1, mono(0, {"x": 1})), (Q(1, 4), mono(1, {"x": 2})),
                      (Q(1, 2), mono(0, {"y": 1}))], caps(5, x=3)))
@example(make_series([(Q(-1), mono(0))], C),
         make_series([(Q(1, 2), mono(1)), (Q(3, 4), mono(2, {"x": 1}))], C))
@example(make_series([(Q(1), mono(1))], C),
         make_series([(Q(1, 2), mono(0)), (3, mono(3))], caps(4)))
@example(make_series([(Q(2, 3), mono(0))], C),
         make_series([(Q(3, 2), mono(1)), (Q(1, 2), mono(2))], C))
# a pure-q one-term operand with the narrower x-cap: the unmoved x^3 row
# of the other operand must still be tested against the meet and dropped
@example(make_series([(1, mono(1))], caps(5, x=1)),
         make_series([(1, mono(0)), (1, mono(0, {"x": 3}))], caps(5, x=3)))
# (x + y)(y - x) cancels its whole xy row, which must not be stored
@example(make_series([(1, mono(0, {"x": 1})), (1, mono(0, {"y": 1}))], C),
         make_series([(1, mono(0, {"y": 1})), (-1, mono(0, {"x": 1}))], C))
@given(varied_series_st(), varied_series_st())
def test_mul_matches_schoolbook_fraction_product(f, g):
    _assert_same_product(f * g, _schoolbook_mul(f, g))


def _row(c, count, top=None, qmax=60, start=0, **vexps):
    """c times q^start + ... + q^(start+count-1) times prod v^e, and -c
    times q^top, at caps(qmax, x=3, y=3)."""
    entries = [(c, mono(start + i, vexps)) for i in range(count)]
    if top is not None:
        entries.append((-c, mono(top, vexps)))
    return make_series(entries, caps(qmax, x=3, y=3))


@st.composite
def wide_series_st(draw):
    """Up to 40 terms over q, x and y with numerators up to 2^80 in size,
    some over a denominator, at q-windows up to 60."""
    pcaps = caps(draw(st.integers(0, 60)), default=0,
                 x=draw(st.integers(0, 3)), y=draw(st.integers(0, 3)))
    wide = st.integers(-2 ** 80, 2 ** 80)
    coeff = wide if draw(st.booleans()) else st.builds(
        Fraction, wide, st.sampled_from([1, 2, 3, 6, 2 ** 40]))
    entries = draw(st.lists(
        st.tuples(coeff, st.integers(0, 66), st.integers(0, 3),
                  st.integers(0, 3)), max_size=40))
    return make_series(
        [(c, mono(qe, {"x": xe, "y": ye})) for c, qe, xe, ye in entries],
        pcaps)


@settings(max_examples=100, deadline=None)
# a slot of 1, 2, 4, 8 and 11 bytes (4 terms, numerators of 1, 5, 12, 25
# and 40 bits); a bound of 8, 9, 64 and 65 bits, every numerator
# -(2^a - 1) over 2^t - 1 terms, so that the middle slot sums 2^t - 1
# products and fills 7 of 8, 9 of 9, 64 of 64 and 65 of 65 bits
@example(_row(1, 4), _row(-1, 4, x=1))
@example(_row(2 ** 5 - 1, 4), _row(-(2 ** 5 - 1), 4, y=2))
@example(_row(2 ** 12 - 1, 4), _row(2 ** 12 - 1, 4))
@example(_row(2 ** 25 - 1, 4, x=1), _row(-(2 ** 25 - 1), 4))
@example(_row(2 ** 40 - 1, 4), _row(2 ** 40 - 1, 4, y=3))
@example(_row(-3, 7), _row(-3, 7))
@example(_row(-3, 15), _row(-3, 15))
@example(_row(-(2 ** 30 - 1), 7), _row(-(2 ** 30 - 1), 7))
@example(_row(-(2 ** 30 - 1), 15), _row(-(2 ** 30 - 1), 15))
# a negative numerator at the window top of both operands, so that the
# product borrows out of the top slot
@example(_row(1, 4, top=8, qmax=8), _row(1, 4, top=8, qmax=8))
@example(_row(2 ** 40, 4, top=8, qmax=8), _row(3, 4, top=8, qmax=8))
# the zero series, and an operand whose terms all lie above the window
@example(zero(caps_=caps(8)), _row(5, 6, qmax=8))
@example(_row(5, 6, qmax=3), _row(7, 4, start=5, qmax=12))
# a smaller operand of 3 and of 4 terms, with terms past a variable cap
@example(_row(-2, 3, x=2), _row(3, 9, x=2, qmax=20))
@example(_row(-2, 4, x=2), _row(3, 9, x=2, qmax=20))
# a 2-term and a 3-term operand over a den != 1: only a one-term operand
# skips the packed rows
@example(make_series([(Q(1, 2), mono(0)), (Q(-3, 4), mono(3, {"x": 1}))],
                     caps(20, x=3, y=3)),
         _row(5, 9, x=1, qmax=20))
@example(make_series([(Q(2, 3), mono(0, {"y": 1})), (Q(1, 6), mono(1)),
                      (-1, mono(4, {"x": 2}))], caps(20, x=3, y=3)),
         make_series([(Q(5, 7), mono(0)), (Q(-1, 3), mono(5, {"x": 1})),
                      (4, mono(8, {"y": 2}))], caps(18, x=3, y=3)))
# 9- to 16-byte slots, which move as int64s plus a sign fill: every entry
# in and out fits in int64 (a 9-byte bound over 41- and 21-bit
# numerators); outputs of 82 bits, read back per slot; an input of 71
# bits, packed per slot beside a bulk-packed operand; and over dens 6 and
# 5, where one output row leaves int64 and the others are read in bulk
@example(_row(2 ** 40, 4), _row(-(2 ** 20), 4, x=1))
@example(_row(-(2 ** 40), 4), _row(2 ** 40, 4, x=1))
@example(_row(2 ** 70, 4), _row(-1, 4, x=1))
@example(make_series([(Q(2 ** 40, 3), mono(0)), (Q(-1, 2), mono(1, {"x": 1})),
                      (Q(5, 6), mono(4)), (1, mono(8, {"y": 1}))],
                     caps(20, x=3, y=3)),
         make_series([(Q(2 ** 21, 5), mono(0)), (Q(-3, 5), mono(2, {"x": 1})),
                      (2 ** 21, mono(4)), (-1, mono(9, {"x": 2}))],
                     caps(20, x=3, y=3)))
@given(wide_series_st(), wide_series_st())
def test_packed_mul_matches_schoolbook_fraction_product(f, g):
    _assert_same_product(f * g, _schoolbook_mul(f, g))


@settings(max_examples=150, deadline=None)
@given(varied_series_st(), scalars)
def test_scalar_mul_matches_schoolbook_fraction_product(f, c):
    want = _schoolbook_mul(f, constant(c, caps_=f.caps))
    _assert_same_product(c * f, want)
    _assert_same_product(f * c, want)


@settings(max_examples=150, deadline=None)
# den 6 over two variables, a row that starts at q^0 and one at the top
@example(make_series([(Q(1, 2), mono(0, {"x": 1})), (5, mono(6)),
                      (Q(-1, 3), mono(2, {"y": 2}))], caps(6, x=3, y=3)), 3)
@given(varied_series_st(), st.integers(0, 6))
def test_divide_q_power_undoes_the_product_by_a_q_power(f, s):
    # q^s f is known through the top of f, so its quotient by q^s is f,
    # known through s powers of q less
    s %= f.caps.qmax + 1
    got = divide_q_power(qp(s, f.caps) * f, s)
    want = f.truncate(TruncationSpec(f.caps.qmax - s, f.caps.vcaps))
    assert got == want and got.caps == want.caps
    assert got.json_text() == want.json_text()
    assert _canonical(got)


# -- one stored form per series ------------------------------------------------------


def _canonical(s):
    """One q-row per variable part: a tuple of int numerators, none empty,
    each ending in a nonzero entry, inside the variable caps and at or
    below the top; an int den >= 1 that shares no factor with all the
    numerators, so den is 1 for an integral or zero series."""
    rows = s.rows.values()
    ns = [n for r in rows for n in r]
    return (all(type(r) is tuple and r and r[-1] for r in rows)
            and all(s.caps.admits(ve) and len(r) - 1 <= s.caps.qmax
                    for ve, r in s.rows.items())
            and all(type(n) is int for n in ns) and type(s.den) is int
            and s.den >= 1 and math.gcd(s.den, *ns) == 1)


def test_canonical_rejects_other_forms():
    zv, xv = DEFAULT_TABLE.zero_vexps, mono(0, {"x": 1}).vexps
    assert _canonical(Series(DEFAULT_TABLE, {zv: (1,)}, C, 2))
    assert _canonical(Series(DEFAULT_TABLE, {zv: (0, 0, 2)}, C))
    assert not _canonical(Series(DEFAULT_TABLE, {zv: (2,)}, C, 2))
    assert not _canonical(Series(DEFAULT_TABLE, {zv: (Q(1, 2),)}, C))
    assert not _canonical(Series(DEFAULT_TABLE, {zv: (1,)}, C, 0))
    assert not _canonical(Series(DEFAULT_TABLE, {}, C, 3))
    # a trailing zero, an empty row, a row outside a cap, a row above the
    # top and a list row
    assert not _canonical(Series(DEFAULT_TABLE, {zv: (1, 0)}, C))
    assert not _canonical(Series(DEFAULT_TABLE, {zv: (1,), xv: ()}, C))
    assert not _canonical(Series(DEFAULT_TABLE,
                                 {mono(0, {"x": 9}).vexps: (1,)}, C))
    assert not _canonical(Series(DEFAULT_TABLE, {zv: (1,) * 7}, C))
    assert not _canonical(Series(DEFAULT_TABLE, {zv: [1]}, C))


@settings(max_examples=150, deadline=None)
@example(make_series([(Q(1, 2), mono(1))], C),
         make_series([(Q(1, 2), mono(1))], C), Q(2, 1))
@example(make_series([(Q(1, 2), mono(0, {"x": 1})),
                      (Q(-3, 2), mono(1, {"x": 1})), (Q(3, 2), mono(1))], C),
         zero(caps_=C), Q(4, 2))
@example(make_series([(2, mono(0)), (-4, mono(1))], C), zero(caps_=C), 1)
@example(make_series([(Q(3, 2), mono(0, {"x": 1}))], C), zero(caps_=C), 1)
@given(varied_series_st(), varied_series_st(), scalars)
def test_coefficients_stay_canonical(f, g, c):
    # q/2 + q/2 as duplicate entries or as h + h for h = q/2 give den 1;
    # D_q(x/2 - 3/2 q x) = 1/2 - 2q + 3/2 q^2, x/2 + 3/2 q under x -> q and
    # 1/(2 - 4q) = 1/2 + q + ... each give an integer coefficient over den
    # 2, and 3/2 x under x -> (2/3) q x is q x over den 1
    half = (Q(1, 2), mono(1))
    results = [make_series([(c, mono(0)), half, half], f.caps),
               f + g, f - g, -f, dq(f, "x"), f.substitute("x", c, mono(1)),
               f.substitute("x", Q(2, 3), mono(1, {"x": 1}))]
    if f.coeff(mono(0)):
        results.append(f.reciprocal())
    for s in results:
        assert _canonical(s), s.rows


@settings(max_examples=100, deadline=None)
@given(varied_series_st())
def test_terms_view_matches_monomials(s):
    # the flat (qexp, vexps) -> numerator view of the rows
    assert s.terms == {(m.qexp, m.vexps): Fraction(c) * s.den
                       for m, c in s.monomials()}
    assert all(type(n) is int and n for n in s.terms.values())


# -- sums, D_q, substitution and truncation against per-term Fractions ---------------


def _per_term(op, f, g, c):
    """Reference values of op on f (and g): each term's contribution taken
    one at a time in Fraction arithmetic, by absolute monomial, with the
    caps the result is known to; substitute is x -> c q."""
    xs = f.table.slot("x")
    raw: dict = {}

    def put(m, v):
        raw[m] = raw.get(m, 0) + Fraction(v)
    if op == "dq":
        for m, v in f.monomials():
            k = m.vexps[xs]
            if k:
                ve = list(m.vexps)
                ve[xs] -= 1
                put(Monomial(m.qexp, tuple(ve)), v)
                put(Monomial(m.qexp + k, tuple(ve)), -v)
        return raw, f.caps
    if op == "substitute":
        for m, v in f.monomials():
            e = m.vexps[xs]
            ve = list(m.vexps)
            ve[xs] = 0
            put(Monomial(m.qexp + e, tuple(ve)), v * Fraction(c) ** e)
        return raw, f.caps
    for m, v in f.monomials():
        put(m, v)
    if op in ("add", "sub"):
        for m, v in g.monomials():
            put(m, v if op == "add" else -v)
    return raw, f.caps.meet(g.caps)


@settings(max_examples=300, deadline=None)
# q/2 + q/2 has den 1, q/2 + q^2/3 den 6, and x -> (2/3) q scales the
# numerator at x^e by 2^e 3^(2-e) and den by 3^2
@example("add", make_series([(Q(1, 2), mono(1))], C),
         make_series([(Q(1, 2), mono(1))], C), 1)
@example("add", make_series([(Q(1, 2), mono(1))], C),
         make_series([(Q(1, 3), mono(2))], C), 1)
@example("substitute",
         make_series([(1, mono(0)), (Q(1, 2), mono(0, {"x": 1})),
                      (3, mono(1, {"x": 2}))], C), zero(caps_=C), Q(2, 3))
# a row that cancels to zero in a sum; a lowest row that cancels, leaving
# rows that start above q^0; a row cut by truncate, ending in zeros there;
# D_q emptying the row at x^0, and cutting 1 - q^2 at the top q^1
@example("add", make_series([(1, mono(0)), (Q(1, 2), mono(1, {"x": 1}))], C),
         make_series([(Q(-1, 2), mono(1, {"x": 1}))], C), 1)
@example("sub", make_series([(1, mono(0)), (2, mono(1, {"x": 1})),
                             (1, mono(3, {"y": 1}))], C),
         make_series([(1, mono(0))], C), 1)
@example("truncate", make_series([(1, mono(0, {"x": 1})),
                                  (Q(1, 3), mono(3, {"x": 1})),
                                  (1, mono(5))], C), zero(caps_=caps(2)), 1)
@example("dq", make_series([(2, mono(0)), (3, mono(1)),
                            (1, mono(0, {"x": 1})), (1, mono(1, {"x": 1}))],
                           caps(1)), zero(caps_=C), 1)
@given(st.sampled_from(["add", "sub", "dq", "substitute", "truncate"]),
       varied_series_st(), varied_series_st(), scalars)
def test_linear_ops_match_per_term_fraction_reference(op, f, g, c):
    got = {"add": lambda: f + g, "sub": lambda: f - g,
           "dq": lambda: dq(f, "x"),
           "substitute": lambda: f.substitute("x", c, mono(1)),
           "truncate": lambda: f.truncate(g.caps)}[op]()
    raw, wcaps = _per_term(op, f, g, c)
    assert got.caps == wcaps
    assert dict(got.monomials()) == {
        m: v for m, v in raw.items()
        if v and m.qexp <= wcaps.qmax and wcaps.admits(m.vexps)}
    assert all(type(v) is int or v.denominator > 1
               for _, v in got.monomials())
    want = make_series([(v, m) for m, v in raw.items()], wcaps, f.table)
    assert got == want
    assert got.json_text() == want.json_text()
    assert _canonical(got)


def test_den_is_the_reduced_lcm():
    half = make_series([(Q(1, 2), mono(1))], C)
    third = make_series([(Q(1, 3), mono(2))], C)
    assert (half + half).den == 1 and (half + half) == qp(1)
    assert (half + third).den == 6
    assert (half * third).den == 6 and (half * 6).den == 1
    assert equals_mod_caps(half + third.with_caps(caps(5)) * qp(3),
                           half.truncate(caps(3))) == (True, None)


# -- sum_series against the two-operand sum it replaced ------------------------------


def _pair_add(f, g):
    """Reference sum of two series, the accumulation Series.__add__ ran
    before sum_series: both operands truncated to the meet of the caps,
    scaled to the lcm of the dens and added into one dict."""
    mcaps = f.caps.meet(g.caps)
    f, g = (s if s.caps == mcaps else s.truncate(mcaps) for s in (f, g))
    den = math.lcm(f.den, g.den)
    raw: dict = {}
    for src in (f, g):
        for k, c in src.terms.items():
            raw[k] = raw.get(k, 0) + c * (den // src.den)
    return Series._reduced(f.table, mcaps, _rows_of(raw), den)


def _rows_of(raw):
    """Rows of the nonzero numerators of a (qexp, vexps) -> numerator map."""
    rows: dict = {}
    for (qr, ve), c in sorted(raw.items()):
        if c:
            r = rows.setdefault(ve, [])
            r += [0] * (qr - len(r))
            r.append(c)
    return {ve: tuple(r) for ve, r in rows.items()}


@settings(max_examples=150, deadline=None)
# terms that cancel to zero, lowest terms that cancel, a zero part that
# narrows the window, dens 2, 2 and 3 that reduce, and a single part
@example([make_series([(Q(1, 2), mono(0)), (3, mono(3, {"x": 1}))], C),
          make_series([(Q(-1, 2), mono(0)), (-3, mono(3, {"x": 1}))], C)])
@example([make_series([(1, mono(0)), (2, mono(3))], C),
          make_series([(-1, mono(0)), (Q(1, 3), mono(4))], caps(4)),
          make_series([(1, mono(1, {"y": 1}))], caps(5, y=0))])
@example([make_series([(Q(1, 2), mono(0))], C), zero(caps_=caps(3, x=1)),
          make_series([(2, mono(3)), (1, mono(0, {"x": 2}))], C)])
@example([make_series([(Q(1, 2), mono(1))], C),
          make_series([(Q(1, 2), mono(1))], C),
          make_series([(Q(1, 3), mono(2))], C)])
@example([make_series([(Q(1, 2), mono(0)), (1, mono(1, {"x": 1}))], C)])
@given(st.lists(varied_series_st(), min_size=1, max_size=5))
def test_sum_series_matches_left_fold_of_pair_sums(parts):
    want = reduce(_pair_add, parts)
    got = sum_series(iter(parts))  # read once, as a stream
    assert got == want and got.caps == want.caps
    assert got.json_text() == want.json_text()
    assert _canonical(got)
    if len(parts) == 2:
        for two in (parts[0] + parts[1], parts[1] + parts[0]):
            assert two == want and two.caps == want.caps


def test_sum_series_needs_a_part():
    with pytest.raises(ValueError):
        sum_series(iter(()))


# -- the column walk against the per-monomial renderers it replaced -------------


def _sorted_monomials(s):
    return sorted(s.monomials(), key=lambda t: (t[0].qexp, t[0].vexps))


def _per_term_text(s):
    """Reference rendering, one monomial at a time: its factors, then the
    magnitude of its coefficient unless that is 1 before a factor."""
    names = s.table.names
    parts = []
    for m, c in _sorted_monomials(s):
        factors = []
        if m.qexp != 0:
            factors.append("q" if m.qexp == 1 else f"q^{m.qexp}")
        for j, e in enumerate(m.vexps):
            if e:
                nm = names[j + 1]
                factors.append(nm if e == 1 else f"{nm}^{e}")
        mag = abs(Fraction(c))
        coeff = str(mag.numerator) if mag.denominator == 1 \
            else f"{mag.numerator}/{mag.denominator}"
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = coeff + "*" + "*".join(factors)
        else:
            body = coeff
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _per_term_json_terms(s):
    """Reference JSON terms: one per monomial in sorted order, its exponents
    in table order after q."""
    names = s.table.names
    return [{"coeff": f"{Fraction(c).numerator}/{Fraction(c).denominator}",
             "mono": {"q": m.qexp, **{names[j + 1]: e
                                      for j, e in enumerate(m.vexps) if e}}}
            for m, c in _sorted_monomials(s)]


C45 = caps(45, x=3, y=3)
# Fraction coefficients, +-1 with and without factors, bare constants,
# terms over three variables, the zero series; rows of different lengths
# with zeros inside them over more than 32 q-columns, at den != 1; and two
# family values deep in q
_RENDER_EXAMPLES = (
    make_series([(Q(-3, 2), mono(3, {"x": 1})), (Q(7, 3), mono(1)),
                 (Q(1, 6), mono(0, {"y": 2}))], C),
    make_series([(-1, mono(0)), (1, mono(1)), (-1, mono(0, {"x": 1})),
                 (1, mono(2, {"x": 2, "y": 1}))], C),
    make_series([(1, mono(0)), (-1, mono(1)), (Q(-1, 1), mono(3))], C),
    constant(-1, caps_=C),
    constant(Q(5, 3), caps_=C),
    make_series([(2, mono(3, {"x": 1, "y": 2, "z": 3})),
                 (Q(-1, 2), mono(0, {"z": 1})),
                 (-1, mono(2, {"x": 1, "z": 1}))], C),
    zero(caps_=C),
    make_series([(1, mono(0)), (Q(-3, 4), mono(2, {"x": 1})), (2, mono(42)),
                 (-1, mono(39, {"x": 2})), (Q(1, 2), mono(14, {"y": 1})),
                 (1, mono(7, {"x": 1})), (Q(5, 4), mono(1, {"x": 2}))],
                C45),
    make_series([(-1, mono(0)), (1, mono(33)), (-1, mono(1, {"x": 1})),
                 (1, mono(34, {"x": 1, "y": 2})), (3, mono(20, {"y": 1})),
                 (-7, mono(44, {"x": 1})), (1, mono(2, {"y": 1}))], C45),
    sw_classic(40, caps(200)),
    sw_star(12, caps(60)),
)


def _render_examples(test):
    for s in _RENDER_EXAMPLES:
        test = example(s)(test)
    return test


@settings(max_examples=150, deadline=None)
@_render_examples
@given(varied_series_st())
def test_text_matches_per_term_renderer(s):
    assert s.text() == _per_term_text(s)


@settings(max_examples=150, deadline=None)
@_render_examples
@given(varied_series_st())
def test_json_terms_are_the_sorted_monomials(s):
    # dumped, so that the order of terms and of exponents is compared too
    assert json.dumps(s.to_json_dict()["terms"]) \
        == json.dumps(_per_term_json_terms(s))


# -- equals_mod_caps against the per-monomial comparison -----------------------------


def _equals_by_monomial(f, g):
    """Reference comparison: every monomial either side stores inside the
    meet of the two windows, compared one at a time through coeff()."""
    mcaps = f.caps.meet(g.caps)
    seen = set()
    for s in (f, g):
        for qa, ve in s.terms:
            if qa <= mcaps.qmax and mcaps.admits(ve):
                seen.add((qa, ve))
    bad = []
    for qa, ve in seen:
        m = Monomial(qa, ve)
        cf, cg = f.coeff(m), g.coeff(m)
        if cf != cg:
            bad.append((qa, ve, cf, cg))
    if not bad:
        return True, None
    qa, ve, cf, cg = min(bad, key=lambda t: (t[0], t[1]))
    return False, (Monomial(qa, ve), cf, cg)


@st.composite
def compared_pair_st(draw):
    """f and a g that is equal to it, perturbed by one term, the same
    entries at other caps, or drawn on its own."""
    f = draw(varied_series_st())
    kind = draw(st.sampled_from(["equal", "perturbed", "recapped", "other"]))
    if kind == "other":
        return f, draw(varied_series_st())
    entries = [(c, m) for m, c in f.monomials()]
    if kind == "perturbed":
        entries.append((draw(scalars), mono(draw(st.integers(0, 9)), {
            "x": draw(st.integers(0, 3)), "y": draw(st.integers(0, 3))})))
    pcaps = f.caps
    if kind == "recapped":
        pcaps = caps(draw(st.integers(0, 6)), default=0,
                     x=draw(st.integers(0, 3)), y=draw(st.integers(0, 3)))
    return f, make_series(entries, pcaps)


@settings(max_examples=300, deadline=None)
@example((make_series([(1, mono(0)), (2, mono(1))], C),
          make_series([(1, mono(0)), (3, mono(1))], C)))
@example((make_series([(1, mono(0)), (Q(1, 2), mono(5, {"x": 1}))], C),
          make_series([(1, mono(1)), (Q(1, 2), mono(5, {"x": 1}))],
                      caps(4, x=0))))
# den 6 against den 2: inside the meet (to q^3) both are q/2
@example((make_series([(Q(1, 2), mono(1)), (Q(1, 3), mono(5))], caps(5)),
          make_series([(Q(1, 2), mono(1))], caps(3))))
@given(compared_pair_st())
def test_equals_mod_caps_matches_per_monomial_oracle(pair):
    f, g = pair
    assert equals_mod_caps(f, g) == _equals_by_monomial(f, g)
    assert equals_mod_caps(g, f) == _equals_by_monomial(g, f)


# -- the absolute q-window against the same entries at a wider one ------------------

WIDEN = 30

_window_entries = st.lists(
    st.tuples(scalars, st.integers(0, 12), st.integers(0, 3)), max_size=4)


def _at(entries, qmax, **var_caps):
    return make_series([(c, mono(qe, {"x": xe})) for c, qe, xe in entries],
                       caps(qmax, **var_caps))


def _top(s):
    """The top of the claimed window, read from the JSON rendering: the
    series is known from q^0 through q^top."""
    return s.to_json_dict()["caps"]["qMax"]


def _window_op(op, fe, ge, fq, gq, widen):
    """op on the entries fe (at qmax fq) and ge (at qmax gq), every window
    widened by widen; returns (result, the top derived from its inputs)."""
    f, g = _at(fe, fq + widen), _at(ge, gq + widen)
    ft, gt = _top(f), _top(g)
    if op in ("add", "mul"):
        return (f + g if op == "add" else f * g), min(ft, gt)
    if op == "truncate":
        return f.truncate(caps(gq + widen)), min(ft, gq + widen)
    if op == "dilate":
        # x -> q^p x, p >= 0, moves an unknown term only up in q
        return f.substitute("x", 1, mono(gq % 4, {"x": 1})), ft
    if op == "reciprocal":
        # a unit: the constant term 3
        u = _at([t for t in fe if t[1:] != (0, 0)] + [(3, 0, 0)], fq + widen)
        return u.reciprocal(), _top(u)
    # the weight-certified 2phi1(a, a q^2; a q; q, z): z the first entry
    # of positive weight and a ordinary, each exact inside the window
    c = caps(fq + widen)
    z = _at([t for t in fe if 0 <= t[1] <= fq and t[1] + t[2] > 0][:1],
            fq + widen)
    a = _at([t for t in ge if 0 <= t[1] <= fq], fq + widen)
    return phi([a, a * q_power(2, caps_=c)], [a * q_power(1, caps_=c)], z,
               c), fq + widen


@settings(max_examples=200, deadline=None)
@example("add", [(1, 0, 0)], [(1, 2, 0)], 12, 8)
@example("phi", [(1, 0, 1)], [(2, 0, 0), (1, 1, 1)], 12, 4)
@example("mul", [(1, 6, 0)], [(1, 1, 0)], 5, 5)
@example("dilate", [(1, 0, 1), (1, 3, 3)], [], 5, 2)
@given(st.sampled_from(["add", "mul", "truncate", "reciprocal", "phi",
                        "dilate"]),
       _window_entries, _window_entries, st.integers(0, 12),
       st.integers(0, 12))
def test_window_is_sound(op, fe, ge, fq, gq):
    # the result at caps C must agree with the result at C widened by
    # WIDEN on the whole window it claims, and claim at least the top
    # derived from its inputs: 1 (to q^12) + q^2 (to q^8) is known to q^8,
    # 2phi1(a, a q^2; a q; q, x) at caps(12) to q^12, 0 (q^6 at caps(5))
    # times q to q^5, and x + q^3 x^3 at caps(5) under x -> q^2 x to q^5,
    # where the dilated q^9 x^3 is above the window
    r, derived = _window_op(op, fe, ge, fq, gq, 0)
    wide, _ = _window_op(op, fe, ge, fq, gq, WIDEN)
    assert _top(r) >= derived
    assert _top(wide) >= _top(r)
    ok, witness = equals_mod_caps(r, wide)
    assert ok, witness


# -- the graded reciprocal against Newton's iteration --------------------------------


def _newton_reciprocal(f):
    """Reference inverse: Newton's iteration x <- x + x (1 - f x), at the
    whole window of f every step."""
    x = constant(Fraction(1) / f.coeff(mono(0)), f.table, f.caps)
    unit = one(f.table, f.caps)
    for _ in range(f.caps.qmax + sum(f.caps.vcaps) + 2):
        err = unit - f * x
        if err.is_zero():
            break
        x = x + x * err
    else:
        raise AssertionError("Newton's iteration failed to converge")
    return x


@st.composite
def unit_st(draw):
    """A multivariate unit c0 + (terms above it): caps per variable, int
    or mixed coefficients, c0 not +-1."""
    pcaps = caps(draw(st.integers(0, 8)), default=0,
                 x=draw(st.integers(1, 3)), y=draw(st.integers(1, 3)),
                 z=draw(st.integers(0, 2)))
    coeff = st.integers(-6, 6) if draw(st.booleans()) else scalars
    c0 = draw(coeff.filter(lambda c: c not in (0, 1, -1)))
    rest = draw(st.lists(
        st.tuples(coeff, st.integers(0, 6), st.integers(0, 2),
                  st.integers(0, 2), st.integers(0, 1))
        .filter(lambda t: any(t[1:])), max_size=6))
    return make_series(
        [(c0, mono(0))] + [(c, mono(i, {"x": a, "y": b, "z": d}))
                           for c, i, a, b, d in rest], pcaps)


def _unit(entries, qmax, **vcaps):
    """A divisor from (coefficient, qexp, vexps) triples at caps over x, y."""
    return make_series([(c, mono(e, ve)) for c, e, ve in entries],
                       caps(qmax, default=0, **vcaps))


@settings(max_examples=200, deadline=None)
# c0 = -3 at an even and at an odd top grade T (the sign of the den is that
# of c0^(T+1)), c0 = +-1 over den 2 and 3, c0 = -1 over den 1, a width-0
# window, c0 = 3 over den 2, and x^2, which the x-cap 1 makes unreachable
# from the parts x and q y
@example(_unit([(-3, 0, {}), (1, 1, {}), (2, 0, {"x": 1})], 3, x=1))
@example(_unit([(-3, 0, {}), (1, 1, {}), (2, 0, {"x": 1})], 4, x=1))
@example(_unit([(Q(1, 2), 0, {}), (1, 1, {}), (1, 0, {"x": 1})], 5, x=2))
@example(_unit([(Q(-1, 3), 0, {}), (1, 1, {"x": 1}), (2, 2, {})], 5, x=2))
@example(_unit([(-1, 0, {}), (1, 1, {}), (1, 0, {"x": 1})], 5, x=2))
@example(_unit([(-3, 0, {}), (2, 0, {"x": 1}), (1, 0, {"y": 1})], 0, x=2,
               y=1))
@example(_unit([(Q(3, 2), 0, {}), (1, 1, {"x": 1}), (2, 3, {})], 4, x=2))
@example(_unit([(2, 0, {}), (1, 0, {"x": 1}), (-1, 1, {"y": 1})], 5, x=1,
               y=2))
@given(unit_st())
def test_reciprocal_matches_newton(u):
    got, want = u.reciprocal(), _newton_reciprocal(u)
    assert got == want
    assert got.json_text() == want.json_text()


class _NoFraction:
    def __new__(cls, *args):
        raise AssertionError("reciprocal built a Fraction")


def test_reciprocal_builds_no_fraction(monkeypatch):
    # 1 - (2/3) x - (2/3) q x is stored as (3 - 2x - 2qx)/3, so c0 = 3
    units = [_unit([(1, 0, {}), (Q(-2, 3), 0, {"x": 1}),
                    (Q(-2, 3), 1, {"x": 1})], 8, x=3),
             _unit([(-3, 0, {}), (1, 1, {}), (2, 0, {"y": 1})], 6, y=2)]
    want = [_newton_reciprocal(u) for u in units]
    monkeypatch.setattr("qsw.series.Fraction", _NoFraction)
    got = [u.reciprocal() for u in units]
    monkeypatch.undo()
    assert [u.rows[u.table.zero_vexps][0] for u in units] == [3, -3]
    for g, w in zip(got, want):
        assert g == w
        assert g.json_text() == w.json_text()


# -- the one row constructor and the layout boundary ---------------------------


_scale_st = st.one_of(st.integers(-3, 3),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=4))
_part_st = st.tuples(
    st.fixed_dictionaries({"x": st.integers(0, 3), "y": st.integers(0, 2)}),
    st.integers(0, 12), st.lists(st.integers(-3, 3), max_size=6), _scale_st)


@settings(max_examples=200, deadline=None)
@example([({"x": 0, "y": 0}, 10 ** 12, [1], 1)], 5, 1)  # far above the top
@example([({"x": 0, "y": 0}, 0, [1, 2], Q(1, 2)),
          ({"x": 0, "y": 0}, 1, [2], Q(-1, 3))], 4, 1)  # lcm 6, gcd 2 out
@example([({"x": 2, "y": 0}, 0, [1], 1)], 3, 1)  # outside the x-cap
@example([({"x": 1, "y": 0}, 7, [1, -1], 2)], 7, 2)  # a row cut at the top
@example([({"x": 0, "y": 1}, 1, [0, 5], 1)], 0, 2)  # wholly above the top
@given(st.lists(_part_st, max_size=5), st.integers(0, 12), st.integers(0, 3))
def test_from_rows_matches_its_terms_one_at_a_time(parts, qmax, xcap):
    c = TruncationSpec(qmax, caps(0, x=xcap).vcaps)
    got = from_rows([(mono(0, v).vexps, off, row, scale)
                     for v, off, row, scale in parts], c, DEFAULT_TABLE)
    terms = [monomial_series(scale * n, off + i, v, caps_=c)
             for v, off, row, scale in parts for i, n in enumerate(row)]
    want = sum_series([zero(caps_=c)] + terms)
    assert got == want and got.caps == want.caps
    assert got.json_text() == want.json_text()


def test_only_series_knows_the_row_layout():
    """No qsw module but series reads the stored rows or den, reaches a
    private of the kernel, or imports an underscore name from it."""
    forbidden = {"rows", "den", "_add_at"} | {
        n for n in vars(Series) if n.startswith("_") and not n.startswith("__")}
    found = []
    for path in sorted(Path(qsw.__file__).parent.glob("*.py")):
        if path.name == "series.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in forbidden:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) \
                    and (node.module or "").split(".")[-1] == "series":
                found += [f"{path.name}:{node.lineno} imports {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert not found
