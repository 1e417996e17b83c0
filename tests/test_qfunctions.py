"""q-Pochhammer symbols, Gaussian binomials, hypergeometric sums, the
q-exponentials, the Ramanujan q-exponential, and Garrett polynomials."""

from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import count, islice
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

import qsw.qfunctions as qfunctions
from qsw.polynomials import MAX_QMAX
from qsw.series import (
    DEFAULT_TABLE, DivisionByNonUnit, Monomial, Series, VarTable,
    VarTableMismatch, caps, constant, equals_mod_caps, make_series, mono, one,
    q_power, variable, zero,
)
from qsw.qfunctions import (
    INFINITY, NegativeQOrderInInfiniteProduct, NonTerminatingSeries,
    _dense, _poch_ratios, _qbinom_sum, _qexp_sum, _qfact_inv_coeffs, eq_big,
    eq_small, garrett_a, garrett_b,
    phi, poch, poch_inf_inv, qbinom_coeffs, qfact_coeffs, qfact_inv, rq,
    rq_at_power,
)

C = caps(12)


def var(name, c=C):
    return variable(name, caps_=c)


def qp(e, c=C):
    return q_power(e, caps_=c)


def assert_equal(f, g):
    ok, w = equals_mod_caps(f, g)
    assert ok, f"first mismatch: {w}"


# -- Pochhammer ---------------------------------------------------------------


def test_poch_empty_count():
    assert poch([var("a")], 0, C) == one(caps_=C)


def test_poch_two_factors():
    x = var("x")
    assert poch([x], 2, C).text() == "1 - x - q*x + q*x^2"


def test_poch_base5_truncation():
    c5 = caps(5)
    assert poch([q_power(1, caps_=c5)], INFINITY, c5, base=5).text() == "1 - q"


def test_poch_multi_args_is_product():
    a, x = var("a"), var("x")
    assert_equal(poch([a, x], 3, C), poch([a], 3, C) * poch([x], 3, C))


def test_poch_splitting_and_shift():
    a = var("a")
    for n in range(4):
        for k in range(4):
            assert_equal(poch([a], n + k, C),
                         poch([a], n, C) * poch([a * qp(n)], k, C))
            assert_equal(poch([a * qp(n)], k, C) * poch([a], n, C),
                         poch([a], k, C) * poch([a * qp(k)], n, C))


def test_poch_quotient_identity():
    a = var("a")
    for n in range(5):
        assert_equal(poch([a], n, C),
                     poch([a], INFINITY, C) / poch([a * qp(n)], INFINITY, C))


def test_poch_inf_rejects_laurent_arg():
    # every Pochhammer product, at a finite count too, its ratio stream and
    # the weighted sums take ordinary arguments only, and phi's certificate
    # refuses a q^-m parameter; each refusal is one line
    refusals = [
        (NegativeQOrderInInfiniteProduct,
         lambda: poch([qp(-1)], INFINITY, C)),
        (NegativeQOrderInInfiniteProduct,
         lambda: poch_inf_inv([qp(-2) * var("x")], C)),
        (NegativeQOrderInInfiniteProduct,
         lambda: poch([qp(-3) * var("x")], 4, C)),
        (NonTerminatingSeries,
         lambda: phi([qp(-2)], [], qp(1) * var("x"), C)),
        (NegativeQOrderInInfiniteProduct,
         lambda: next(_poch_ratios([var("x")], [qp(-1) + var("a")], C,
                                   DEFAULT_TABLE))),
        (NegativeQOrderInInfiniteProduct, lambda: rq(qp(-1), C)),
    ]
    for exc, build in refusals:
        with pytest.raises(exc) as info:
            build()
        assert str(info.value) and "\n" not in str(info.value)


def _poch_by_factors(args, count, caps, table=DEFAULT_TABLE, base=1):
    """The reference product: the left fold of * by every factor
    1 - a q^(base k), each factor formed as a Series of its own."""
    infinite = count is INFINITY
    if infinite:
        count = caps.qmax // base + 1
    result = one(table, caps)
    for a in args:
        s = qfunctions._coerce(a, table, caps)
        for k in range(count):
            result = result * (one(table, caps) - s * q_power(base * k, table, caps))
    return result


_poch_scalar = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def _poch_inputs(draw):
    """(args, count, caps, base) of every kind poch accepts: int, Fraction
    and zero arguments; one- and multi-term ordinary series at the
    product's caps, at narrower or at wider ones; one to three arguments;
    counts 0, finite and INFINITY."""
    c = caps(draw(st.integers(0, 12)), default=3)
    count = draw(st.one_of(st.integers(0, 6), st.just(INFINITY)))
    windows = (c, caps(4, default=3, x=1), caps(20, default=4))

    def arg():
        if draw(st.booleans()):
            return draw(_poch_scalar)
        at = draw(st.sampled_from(windows))
        terms = draw(st.lists(st.tuples(
            st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
            st.integers(0, 6), st.integers(0, 2), st.integers(0, 1)),
            max_size=4))
        return make_series([(k, mono(i, {"x": j, "a": h}))
                            for k, i, j, h in terms], at)
    args = [arg() for _ in range(draw(st.integers(1, 3)))]
    return args, count, c, draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@example(([var("x")], 0, C, 1))  # count 0: f itself, caps untouched
@example(([0, zero(caps_=C)], 5, C, 1))  # zero arguments
@example(([make_series([(1, mono(15, {"x": 1}))], caps(20))], INFINITY, C,
          1))  # an argument wholly above the window top
@example(([Fraction(1, 3)], INFINITY, caps(300), 1))  # den 3 per factor
@example(([make_series([(2, mono(1, {"x": 1})), (1, mono(0, {"a": 1}))],
                       caps(6, x=1))], 4, C, 2))  # narrower argument caps
@given(_poch_inputs())
def test_poch_matches_factor_by_factor_products(inputs):
    args, count, c, base = inputs
    got, want = poch(args, count, c, base=base), \
        _poch_by_factors(args, count, c, base=base)
    assert got == want and got.caps == want.caps


def test_poch_builds_no_series_product(monkeypatch):
    x, a = var("x"), var("a")
    cases = [([x], 6), ([x * qp(2) - a + Fraction(1, 2)], 4),
             ([Fraction(1, 2), a], INFINITY)]
    want = [_poch_by_factors(args, n, C) for args, n in cases]

    def refuse(*_):
        raise AssertionError("poch formed a Series product or q-power")
    monkeypatch.setattr(Series, "__mul__", refuse)
    monkeypatch.setattr(Series, "__sub__", refuse)
    monkeypatch.setattr(qfunctions, "q_power", refuse)
    got = [poch(args, n, C) for args, n in cases]
    monkeypatch.undo()
    assert got == want


def test_poch_rejects_an_argument_over_another_table():
    other = VarTable(("q", "y", "x", "z", "t", "s", "w", "a", "b"))
    with pytest.raises(VarTableMismatch):
        poch([variable("x", other, C)], 3, C)


def _poch_ratios_by_factors(ups, lows, caps, table):
    """The reference ratio stream: each step of every parameter formed as
    Series arithmetic, one - s * q_power, the steps of one index folded by
    * and then multiplied into, or divided out of, the ratio."""
    ups, lows = ([s.with_caps(replace(s.caps, qmax=caps.qmax))
                  for s in ps if not s.is_zero()] for ps in (ups, lows))

    def step(params, j):
        return reduce(mul, (one(table, caps) - s * q_power(j, table, caps)
                            for s in params))
    ratio = one(table, caps)
    for n in count():
        yield ratio
        if ups:
            ratio = ratio * step(ups, n)
        if lows:
            ratio = ratio / step(lows, n)


def _first_ratios(stream, k):
    """The first k items of a ratio stream as (caps, ratio) pairs, ended by
    DivisionByNonUnit at the index whose lower step is no unit."""
    out = []
    try:
        for r in islice(stream, k):
            out.append((r.caps, r))
    except DivisionByNonUnit:
        out.append(DivisionByNonUnit)
    return out


@st.composite
def _ratio_inputs(draw):
    """(ups, lows, caps, k): ups only, lows only or both, each parameter
    zero, a Fraction constant, or a one- to three-term ordinary series, at
    the stream's caps, at narrower or at wider ones."""
    c = caps(draw(st.integers(0, 10)), default=2)
    windows = (c, caps(4, default=2, x=1), caps(16, default=3))

    def param():
        at = draw(st.sampled_from(windows))
        kind = draw(st.sampled_from(("zero", "fraction", "series")))
        if kind == "zero":
            return zero(caps_=at)
        if kind == "fraction":
            return constant(draw(_poch_scalar), caps_=at)
        terms = draw(st.lists(st.tuples(
            st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
            st.integers(0, 5), st.integers(0, 2), st.integers(0, 1)),
            min_size=1, max_size=3))
        return make_series([(k, mono(i, {"x": j, "a": h}))
                            for k, i, j, h in terms], at)
    shape = draw(st.sampled_from(("ups", "lows", "both")))
    ups = [param() for _ in range(draw(st.integers(1, 2)))] \
        if shape != "lows" else []
    lows = [param() for _ in range(draw(st.integers(1, 2)))] \
        if shape != "ups" else []
    return ups, lows, c, draw(st.integers(1, 7))


@settings(max_examples=500, deadline=None)
@example(([var("x")], [var("a") * qp(1) + 1], C, 6))  # ordinary, both
@example(([], [constant(Fraction(1, 2), caps_=caps(4))], C, 5))  # Fraction
@example(([zero(caps_=C), var("x")], [zero(caps_=C)], C, 4))  # zeros
@example(([var("x")], [constant(1, caps_=C)], C, 3))  # 1 - 1 at index 0
@given(_ratio_inputs())
def test_poch_ratios_match_factor_by_factor_steps(inputs):
    ups, lows, c, k = inputs
    got = _first_ratios(_poch_ratios(ups, lows, c, DEFAULT_TABLE), k)
    want = _first_ratios(_poch_ratios_by_factors(ups, lows, c,
                                                 DEFAULT_TABLE), k)
    assert got == want


def test_poch_ratios_builds_no_q_power(monkeypatch):
    # ordinary parameters: every step is one times_binomials pass
    x, a = var("x"), var("a")
    ups = [x, a * qp(2) - Fraction(1, 2)]
    lows = [qp(1) * x, constant(Fraction(2, 3), caps_=C)]
    want = _first_ratios(_poch_ratios_by_factors(ups, lows, C,
                                                 DEFAULT_TABLE), 6)

    def refuse(*_):
        raise AssertionError("_poch_ratios formed a q-power")
    monkeypatch.setattr(qfunctions, "q_power", refuse)
    got = _first_ratios(_poch_ratios(ups, lows, C, DEFAULT_TABLE), 6)
    monkeypatch.undo()
    assert got == want


def test_poch_inf_inv_matches_reciprocal():
    a, x = var("a"), var("x")
    assert_equal(poch_inf_inv([a * x], C),
                 poch([a * x], INFINITY, C).reciprocal())
    assert_equal(poch_inf_inv([qp(1), qp(4)], C, base=5),
                 poch([qp(1), qp(4)], INFINITY, C, base=5).reciprocal())
    # a rational argument has no weight certificate, so the truncated
    # product is inverted by reciprocal
    assert_equal(poch_inf_inv([constant(Fraction(1, 2), caps_=C)], C),
                 poch([Fraction(1, 2)], INFINITY, C).reciprocal())
    # bare q-powers share one dense row: the Rogers-Ramanujan products at
    # a deep window, several powers at one base, and powers beside an
    # argument that keeps the Euler sum
    deep = caps(150)
    for exps in ((1, 4), (2, 3)):
        args = [qp(j, deep) for j in exps]
        assert_equal(poch_inf_inv(args, deep, base=5),
                     poch(args, INFINITY, deep, base=5).reciprocal())
    for base in (1, 3):
        assert_equal(poch_inf_inv([qp(1), qp(2)], C, base=base),
                     poch([qp(1), qp(2)], INFINITY, C, base=base)
                     .reciprocal())
    assert_equal(poch_inf_inv([qp(2), a * x], C),
                 poch([qp(2), a * x], INFINITY, C).reciprocal())


def test_poch_inf_inv_of_q_powers_makes_no_euler_sum(monkeypatch):
    want = poch([qp(1), qp(4)], INFINITY, C, base=5).reciprocal()

    def refuse(*_, **__):
        raise AssertionError("a bare q-power went through _qexp_sum")
    monkeypatch.setattr(qfunctions, "_qexp_sum", refuse)
    assert poch_inf_inv([qp(1), qp(4)], C, base=5) == want


# a weighted argument: monomials c q^i x^j with i + j >= 1
_weighted_arg = st.lists(
    st.tuples(st.sampled_from([1, -1, 2, Fraction(2, 3), Fraction(-3, 2)]),
              st.integers(0, 4), st.integers(0, 2))
    .filter(lambda t: t[1] + t[2] >= 1), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.lists(_weighted_arg, min_size=1, max_size=2), st.integers(1, 5))
def test_poch_inf_inv_matches_reciprocal_property(arg_terms, base):
    c = caps(12, default=3)
    args = [make_series([(k, mono(i, {"x": j})) for k, i, j in terms], c)
            for terms in arg_terms]
    assert poch_inf_inv(args, c, base=base) \
        == poch(args, INFINITY, c, base=base).reciprocal()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 15), st.integers(0, 60), st.integers(1, 5))
def test_qfact_inv_coeffs_match_reciprocal(n, qmax, base):
    # (q^base; q^base)_n is pure q, so reciprocal solves a single row: the
    # dense recurrence in q
    c = caps(qmax)
    qfact_at_base = make_series(
        [(k, mono(i * base)) for i, k in enumerate(qfact_coeffs(n))], c)
    inv = qfact_at_base.reciprocal()
    assert _qfact_inv_coeffs(n, qmax, base) \
        == tuple(inv.coeff(mono(i)) for i in range(qmax + 1))


def _cold_qfact_inv():
    _qfact_inv_coeffs.cache_clear()
    qfunctions._QFACT_INV_LAST.clear()


def _qfact_inv_from_scratch(n, qmax, base):
    """1/(q^base; q^base)_n, dividing 1 by all n factors afresh."""
    h = [1] + [0] * qmax
    for k in range(1, n + 1):
        for i in range(base * k, qmax + 1):
            h[i] += h[i - base * k]
    return tuple(h)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=6),
       st.integers(-2, 40), st.integers(1, 4))
def test_qfact_inv_coeffs_rows_match_division_from_scratch(ns, qmax, base):
    # rows asked for in any order: each continues from the last row built
    # at (qmax, base), or starts afresh when that row is above it; n beyond
    # qmax // base is clamped
    _cold_qfact_inv()
    for n in ns:
        assert _qfact_inv_coeffs(n, qmax, base) \
            == _qfact_inv_from_scratch(n, qmax, base)


def test_qfact_inv_coeffs_cold_at_max_qmax():
    # one cold call at the widest window builds its rows by iteration, with
    # no recursion per row; 1/(q;q)_N counts partitions, checked here by
    # Euler's pentagonal recurrence
    _cold_qfact_inv()
    row = _qfact_inv_coeffs(MAX_QMAX, MAX_QMAX)
    p = [1] + [0] * MAX_QMAX
    for m in range(1, MAX_QMAX + 1):
        j = 1
        while (g := j * (3 * j - 1) // 2) <= m:
            sign = 1 if j % 2 else -1
            p[m] += sign * p[m - g]
            if g + j <= m:
                p[m] += sign * p[m - g - j]
            j += 1
    assert row == tuple(p)


# an ordinary series: monomials c q^i x^j, possibly none
_ordinary = st.lists(
    st.tuples(st.sampled_from([1, -1, 2, Fraction(2, 3)]),
              st.integers(0, 3), st.integers(0, 2)), max_size=3)


@settings(max_examples=100, deadline=None)
@given(_ordinary, st.lists(_ordinary, max_size=8), st.integers(0, 2),
       st.integers(0, 10))
def test_qexp_sum_factor_stream_matches_explicit_sum(z_terms, f_terms, wi,
                                                     qmax):
    # the explicit sum runs over the whole stream; the primitive must stop
    # only where every later term vanishes
    c = caps(qmax, default=3)

    def series(terms):
        return make_series([(k, mono(i, {"x": j})) for k, i, j in terms], c)
    z, fs = series(z_terms), [series(t) for t in f_terms]
    weight = (lambda n: 0, lambda n: n * (n - 1) // 2, lambda n: n * n)[wi]
    explicit = zero(caps_=c)
    for n, f in enumerate(fs):
        explicit = explicit + q_power(weight(n), caps_=c) * z ** n * f \
            * qfact_inv(n, c)
    assert _qexp_sum(z, c, weight, factors=iter(fs)) == explicit


def _qbinom(n, k, c):
    """[n k]_q at caps c, placed monomial by monomial by make_series."""
    coeffs = qbinom_coeffs(n, k)
    return make_series([(x, mono(i)) for i, x in enumerate(coeffs)], c)


def _qfact(n, c):
    """(q; q)_n at caps c as a Pochhammer product."""
    return poch([q_power(1, caps_=c)], n, c)


def _covers(oracle, r):
    """The exact oracle claims at least the window of r, so comparing on
    the meet of the two windows checks all of r."""
    return oracle.caps.qmax >= r.caps.qmax


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5), st.lists(_ordinary, max_size=7),
       st.integers(0, 2), st.integers(0, 10))
def test_qbinom_sum_matches_explicit_sum(n, f_terms, wi, qmax):
    # an explicit Laurent sum at a far wider window is the oracle; the
    # primitive must agree on the whole of caps and claim all of it
    c = caps(qmax, default=3)
    wide = caps(qmax + 20, default=3)

    def series(terms, at):
        return make_series([(k, mono(i, {"x": j})) for k, i, j in terms], at)
    weight = (lambda k: 0, lambda k: k * (k - n), lambda k: k * k - 3 * k)[wi]
    explicit = zero(caps_=wide)
    for k, t in zip(range(n + 1), f_terms):
        explicit = explicit + _qbinom(n, k, wide) \
            * q_power(weight(k), caps_=wide) * series(t, wide)
    r = _qbinom_sum(n, weight, lambda work: (series(t, work) for t in f_terms),
                    c, explicit.table)
    assert r.caps == c
    assert _covers(explicit, r)
    assert_equal(r, explicit)


# -- Gaussian binomials ----------------------------------------------------------


def test_qbinom_edges():
    assert _qbinom(5, 0, C) == one(caps_=C)
    assert _qbinom(4, -1, C).is_zero()
    assert _qbinom(4, 5, C).is_zero()


def test_qbinom_small_values():
    assert _qbinom(2, 1, C).text() == "1 + q"
    assert _qbinom(4, 2, C).text() == "1 + q + 2*q^2 + q^3 + q^4"


def test_qbinom_against_division_oracle():
    big = caps(30)
    for n in range(7):
        for k in range(n + 1):
            oracle = _qfact(n, big) / (_qfact(k, big) * _qfact(n - k, big))
            assert_equal(_qbinom(n, k, big), oracle)


def test_qbinom_symmetry_and_pascal():
    for n in range(1, 21):
        for k in range(n + 1):
            assert qbinom_coeffs(n, k) == qbinom_coeffs(n, n - k)
    for n in range(1, 21):
        for k in range(1, n):
            lhs = qbinom_coeffs(n, k)
            a = qbinom_coeffs(n - 1, k - 1)
            b = qbinom_coeffs(n - 1, k)
            acc = [0] * len(lhs)
            for i, c in enumerate(a):
                acc[i] += c
            for i, c in enumerate(b):
                acc[i + k] += c
            assert tuple(acc) == lhs
            # symmetric variant: [n k] = q^(n-k) [n-1 k-1] + [n-1 k]
            acc2 = [0] * len(lhs)
            for i, c in enumerate(a):
                acc2[i + n - k] += c
            for i, c in enumerate(b):
                acc2[i] += c
            assert tuple(acc2) == lhs


def test_qfact_inv_is_inverse():
    for n in range(6):
        assert_equal(_qfact(n, C) * qfact_inv(n, C), one(caps_=C))


# -- basic hypergeometric series ----------------------------------------------------


def test_phi_q_binomial_theorem():
    c = caps(20, default=6)
    a, z = var("a", c), var("z", c)
    lhs = phi([a], [], z, c)
    rhs = poch([a * z], INFINITY, c) / poch([z], INFINITY, c)
    assert_equal(lhs, rhs)


def test_phi_zero_argument():
    assert phi([], [], zero(caps_=C), C) == one(caps_=C)


def test_phi_requires_certificate():
    with pytest.raises(NonTerminatingSeries):
        phi([var("a")], [], constant(Fraction(1, 3), caps_=C), C)
    # a Laurent parameter voids the stop certificate of a weighted z
    with pytest.raises(NonTerminatingSeries):
        phi([qp(-1) * var("x")], [], qp(1) * var("y"), C)


@pytest.mark.parametrize("build, ok", [
    (lambda: var("x"), True), (lambda: qp(1), True),
    (lambda: qp(-1) * var("x"), True), (lambda: zero(caps_=C), True),
    (lambda: one(caps_=C), False), (lambda: qp(-1), False),
    (lambda: var("x") + Fraction(1, 2), False),
])
def test_weight_certificate(build, ok):
    assert qfunctions._weight_certificate(build()) is ok


def test_phi_nonunit_lower_parameter():
    from qsw.series import DivisionByNonUnit
    with pytest.raises(DivisionByNonUnit):
        phi([], [1], var("z"), C)


# -- q-exponentials -------------------------------------------------------------------


def test_eq_small_product_is_one():
    z = var("z")
    assert_equal(eq_small(z) * poch([z], INFINITY, C), one(caps_=C))


def test_eq_big_is_poch():
    z = var("z")
    assert_equal(eq_big(z), poch([-z], INFINITY, C))


def test_eq_small_zero():
    assert eq_small(zero(caps_=C)) == one(caps_=C)


def test_eq_small_rejects_constant():
    with pytest.raises(NonTerminatingSeries):
        eq_small(constant(2, caps_=C))


# -- Ramanujan q-exponential --------------------------------------------------------------


def test_rq_zero():
    assert rq(zero(caps_=C)) == one(caps_=C)


def test_rq_z_coefficient():
    # coefficient of z^1 is q/(1-q)
    c = caps(8, default=3)
    f = rq(variable("z", caps_=c))
    expect = q_power(1, caps_=c) / (1 - q_power(1, caps_=c))
    for e in range(9):
        assert f.coeff(mono(e, {"z": 1})) == expect.coeff(mono(e))


def test_rq_at_one_leading_terms():
    # direct summation oracle for n <= 4 at qmax 20
    c = caps(20)
    total = one(caps_=c)
    for n in range(1, 5):
        total = total + q_power(n * n, caps_=c) * qfact_inv(n, c)
    got = rq(1, c)
    for e in range(9):
        assert got.coeff(mono(e)) == total.coeff(mono(e))
    assert [got.coeff(mono(e)) for e in range(6)] == [1, 1, 1, 1, 2, 2]


def test_rq_difference_equation():
    c = caps(14, default=6)
    z = variable("z", caps_=c)
    lhs = rq(z) - rq(q_power(1, caps_=c) * z)
    rhs = q_power(1, caps_=c) * z * rq(q_power(2, caps_=c) * z)
    assert_equal(lhs, rhs)


def test_rq_printed_difference_equation_fails():
    # the (1-q)z variant contradicts the n-th q-derivative formula and
    # fails already at the z*q^0 coefficient
    c = caps(14, default=6)
    z = variable("z", caps_=c)
    lhs = rq(z) - rq(q_power(1, caps_=c) * z)
    rhs = (1 - q_power(1, caps_=c)) * z * rq(q_power(2, caps_=c) * z)
    ok, (m, cl, cr) = equals_mod_caps(lhs, rhs)
    assert not ok
    assert m == mono(0, {"z": 1}) and cl == 0 and cr == 1


def test_rogers_ramanujan_products():
    c = caps(40)
    assert_equal(rq(1, c),
                 poch([q_power(1, caps_=c), q_power(4, caps_=c)],
                      INFINITY, c, base=5).reciprocal())
    assert_equal(rq(q_power(1, caps_=c), c),
                 poch([q_power(2, caps_=c), q_power(3, caps_=c)],
                      INFINITY, c, base=5).reciprocal())


# -- rq_at_power and Garrett ----------------------------------------------------------------


def test_rq_at_power_matches_rq():
    c = caps(18)
    assert_equal(rq_at_power(0, c), rq(1, c))
    assert_equal(rq_at_power(1, c), rq(q_power(1, caps_=c), c))


def test_rq_at_power_two_oracle():
    c = caps(8)
    got = rq_at_power(2, c)
    assert [got.coeff(mono(e)) for e in range(9)] == [1, 0, 0, 1, 1, 1, 1, 1, 2]


def test_garrett_initial_values():
    assert garrett_a(0, C) == one(caps_=C)
    assert garrett_b(0, C).is_zero()


def test_garrett_small_values():
    assert garrett_a(1, C).is_zero()
    assert garrett_b(1, C) == one(caps_=C)
    assert garrett_a(2, C) == one(caps_=C)
    assert garrett_b(2, C) == one(caps_=C)
    assert garrett_a(3, C) == one(caps_=C)
    assert garrett_b(3, C).text() == "1 + q"


# -- dense builders against their monomial-list constructions ---------------------------


def _dense_by_monomials(coeffs, c, shift=0):
    """Reference _dense: one Monomial per nonzero coefficient, whatever its
    exponent, normalised by make_series."""
    zv = DEFAULT_TABLE.zero_vexps
    return make_series([(x, Monomial(i + shift, zv))
                        for i, x in enumerate(coeffs) if x], c)


@settings(max_examples=200, deadline=None)
@example((1, 0, 2), -2, 5)  # a negative shift: a Laurent floor
@example((0, 0, 4, 1), -3, 4)  # the first nonzero coefficient sets it
@example((3, -1), 9, 5)  # every term above the top
@example((0, 0, 0), -1, 5)  # an all-zero row
@example((1, 2, 3), -3, -2)  # a negative absolute top
@example((1, 2, 3), -3, -5)  # ... below every term: a negative slice stop
@given(st.lists(st.integers(-3, 3), max_size=12).map(tuple),
       st.integers(-8, 14), st.integers(-6, 12))
def test_dense_matches_monomial_construction(coeffs, shift, qmax):
    c = replace(C, qmax=qmax)
    got, want = _dense(coeffs, c, DEFAULT_TABLE, shift), \
        _dense_by_monomials(coeffs, c, shift)
    assert got == want and got.caps == want.caps
    assert got.json_text() == want.json_text()


def _garrett_by_monomials(k, exp_coef, offset, c):
    """Reference Garrett polynomial: every term of every signed, shifted
    q-binomial as a monomial, summed by make_series."""
    entries = []
    for i in range(-k, k + 1):
        coeffs = qbinom_coeffs(k - 1, (k + offset - 5 * i) // 2)
        w = i * (5 * i + exp_coef) // 2
        entries += [(-x if i % 2 else x, mono(w + d))
                    for d, x in enumerate(coeffs) if x]
    return make_series(entries, c)


@settings(max_examples=60, deadline=None)
@example(4, 0)
@example(9, -1)
@given(st.integers(1, 14), st.integers(-2, 60))
def test_garrett_row_matches_monomial_construction(k, qmax):
    c = replace(C, qmax=qmax)
    for got, want in ((garrett_a(k, c), _garrett_by_monomials(k, -3, 1, c)),
                      (garrett_b(k, c), _garrett_by_monomials(k, 1, -1, c))):
        assert got == want and got.caps == want.caps
        assert got.json_text() == want.json_text()
