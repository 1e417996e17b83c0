"""q-derivative, Leibniz rule, and the Rogers-Ramanujan operator."""

import random
from fractions import Fraction

import pytest

from qsw.series import (
    Monomial, TruncationSpec, caps, constant, equals_mod_caps, make_series,
    mono, q_power, variable,
)
from qsw.qfunctions import INFINITY, poch, poch_inf_inv, rq
from qsw.operators import OperatorContext, dq, dq_pow, leibniz_rhs, rr_op

C = caps(20)


def var(name, c=C):
    return variable(name, caps_=c)


def qp(e, c=C):
    return q_power(e, caps_=c)


def assert_equal(f, g):
    ok, w = equals_mod_caps(f, g)
    assert ok, f"first mismatch: {w}"


def rand_poly(rng, c=C):
    entries = []
    for _ in range(rng.randint(1, 4)):
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
        entries.append((coeff, mono(rng.randint(0, 5), {"x": rng.randint(0, 4)})))
    return make_series(entries, c)


def test_dq_constant():
    assert dq(constant(7, caps_=C), "x").is_zero()


def test_dq_x_squared():
    x = var("x")
    assert dq(x * x, "x") == (1 - qp(2)) * x


def test_dq_inverse_poch():
    a = var("a")
    p = poch_inf_inv([a * var("x")], C)
    assert_equal(dq(p, "x"), a * p)


def test_dq_matches_divided_difference():
    rng = random.Random(7)
    for _ in range(25):
        f = rand_poly(rng)
        shifted = f.substitute("x", 1, mono(1, {"x": 1}))
        # (f(x) - f(qx)) / x, computed by exponent shift since x | numerator
        num = f - shifted
        direct = []
        xs = f.table.slot("x")
        for m, c in num.monomials():
            assert m.vexps[xs] >= 1
            nv = list(m.vexps)
            nv[xs] -= 1
            direct.append((c, Monomial(m.qexp, tuple(nv))))
        assert dq(f, "x") == make_series(direct, f.caps, f.table)


def test_dq_linearity():
    rng = random.Random(11)
    for _ in range(25):
        f, g = rand_poly(rng), rand_poly(rng)
        al = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        be = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert dq(al * f + be * g, "x") == al * dq(f, "x") + be * dq(g, "x")


def test_dq_pow_x_cubed():
    x3 = make_series([(1, mono(0, {"x": 3}))], C)
    got = dq_pow(x3, "x", 2)
    expect = (1 - qp(2)) * (1 - qp(3)) * var("x")
    assert got == expect


def test_dq_pow_zero_iterations():
    f = rand_poly(random.Random(3))
    assert dq_pow(f, "x", 0) == f


def test_dq_pow_poch_closed_form():
    # D_q^n (ax;q)inf = (-a)^n q^C(n,2) (a q^n x;q)inf
    a = var("a")
    for n in range(4):
        w = caps(20, default=8 + n)
        aw, xw = variable("a", caps_=w), variable("x", caps_=w)
        lhs = dq_pow(poch([aw * xw], INFINITY, w), "x", n).truncate(C)
        sign = 1 if n % 2 == 0 else -1
        rhs = sign * a ** n * qp(n * (n - 1) // 2) \
            * poch([a * qp(n) * var("x")], INFINITY, C)
        assert_equal(lhs, rhs)


def test_leibniz_order_zero_and_one():
    rng = random.Random(5)
    f, g = rand_poly(rng), rand_poly(rng)
    assert_equal(leibniz_rhs(f, g, "x", 0), f * g)
    x = var("x")
    assert leibniz_rhs(x, x, "x", 1) == dq(x * x, "x")


def test_leibniz_matches_dq_pow_randomized():
    rng = random.Random(42)
    w = TruncationSpec(C.qmax + 60, C.vcaps)
    for _ in range(30):
        n = rng.randint(0, 5)
        f = rand_poly(rng, w)
        g = rand_poly(rng, w)
        lhs = leibniz_rhs(f, g, "x", n).truncate(C)
        rhs = dq_pow(f * g, "x", n).truncate(C)
        assert_equal(lhs, rhs)


def test_leibniz_poch_pair():
    # f = (x;q)_2, g = 1/(x;q)inf, n <= 3
    w = caps(20, default=12)
    xw = variable("x", caps_=w)
    f = poch([xw], 2, w)
    g = poch_inf_inv([xw], w)
    for n in range(4):
        assert_equal(leibniz_rhs(f, g, "x", n).truncate(C),
                     dq_pow(f * g, "x", n).truncate(C))


def test_operator_context_validation():
    with pytest.raises(ValueError):
        OperatorContext("x", "x")
    with pytest.raises(ValueError):
        OperatorContext("q", "y")


def test_rr_op_constant():
    assert rr_op(constant(5, caps_=C), OperatorContext("x", "y")) \
        == constant(5, caps_=C)


def test_rr_op_x():
    x, y = var("x"), var("y")
    assert rr_op(x, OperatorContext("x", "y")) == x + qp(1) * y


def test_rr_op_inverse_poch():
    # R(yD_q){1/(ax;q)inf} = R_q(ay)/(ax;q)inf
    nmax = 4
    w = caps(20, default=8, x=8 + nmax, a=8 + nmax)
    f = poch_inf_inv([variable("a", caps_=w) * variable("x", caps_=w)], w)
    lhs = rr_op(f, OperatorContext("x", "y"), w).truncate(C)
    a, y = var("a"), var("y")
    rhs = rq(a * y) * poch_inf_inv([a * var("x")], C)
    assert_equal(lhs, rhs)


@pytest.mark.parametrize("r", [Fraction(1), Fraction(-2, 3), Fraction(5, 2)])
def test_rr_op_bound_weight_is_the_substituted_image(r):
    # the y-cap (8) is at least isqrt(qmax), so the formal image drops no
    # term that the bound weight keeps
    rng = random.Random(11)
    a, x = var("a"), var("x")
    for f in (poch_inf_inv([a * x], C), rand_poly(rng), rand_poly(rng)):
        ctx = OperatorContext("x", "y")
        got = rr_op(f, ctx, C, constant(r, caps_=C))
        want = rr_op(f, ctx, C).substitute("y", r, mono())
        assert got == want and got.caps == want.caps


def test_rq_derivative_closed_form():
    # D_q^n R_q(ax) = a^n q^(n^2) R_q(a q^(2n) x)
    for n in range(4):
        w = caps(25, default=8 + n)
        f = rq(variable("a", caps_=w) * variable("x", caps_=w))
        lhs = dq_pow(f, "x", n).truncate(caps(25))
        a = variable("a", caps_=caps(25))
        rhs = a ** n * q_power(n * n, caps_=caps(25)) \
            * rq(a * q_power(2 * n, caps_=caps(25)) * variable("x", caps_=caps(25)))
        assert_equal(lhs, rhs)
