"""q-Pochhammer symbols, Gaussian binomials, basic hypergeometric series,
the q-exponentials, Garrett's coefficient polynomials, and the Ramanujan
q-exponential, all as exact truncated series.

The pure-q rows (Gaussian binomials, (q;q)_n, 1/(q;q)_n, Garrett's a_k and
b_k) are int coefficient tuples; the builders place them through
series.from_rows, which cuts each at the window top, with no monomial
objects.  A Pochhammer product takes one pass of series.times_binomials
per argument, which multiplies by every factor 1 - a q^(base k) in int
rows, with the infinite product truncated at qmax // base + 1 factors; a
running ratio (_poch_ratios) takes one pass per parameter and index.
The weighted sums _qexp_sum and _qbinom_sum, which build the
q-exponentials, phi, R(yD_q), 1/(c;q)_inf and the identities' sums, place
their int rows through one helper, _placed_sum: the argument of _qexp_sum
is zero or one term c q^d v^e, so its n-th term is the row 1/(q;q)_n
placed at q^(w(n) + nd) v^(ne) and scaled by c^n, and a sum with no
factor stream is one from_rows call.  An infinite product is inverted
without Series.reciprocal: the arguments that are bare powers q^j share
one dense int row, divided in place by each factor 1 - q^p as
1/(q^base; q^base)_n is, and every other argument of positive weight takes
the Euler sum.  A finite Gaussian sum whose weights go negative (the
q-Leibniz rule) places every term at its weight plus one shift S that
makes them all >= 0, and divides the sum by q^S exactly
(series.divide_q_power).  Nothing here reads the stored rows.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count
from typing import Sequence, Union

from .series import (
    DEFAULT_TABLE, Monomial, Scalar, Series, TruncationSpec, VarTable,
    constant, divide_q_power, from_rows, one, q_power, sum_series,
    times_binomials, zero,
)

INFINITY = math.inf

Arg = Union[Series, int, Fraction]


class NonTerminatingSeries(ValueError):
    """No termination certificate for an infinite sum."""


def _coerce(x: Arg, table: VarTable, caps: TruncationSpec) -> Series:
    if isinstance(x, Series):
        return x
    return constant(x, table, caps)


def poch(args: Sequence[Arg], count, caps: TruncationSpec,
         table: VarTable = DEFAULT_TABLE, base: int = 1) -> Series:
    """Multiple q-shifted factorial (a1, ..., am; q^base)_count.

    count is a non-negative integer or INFINITY.  Each argument a takes one
    pass of series.times_binomials over the factors 1 - a q^(base k),
    k < count.  The infinite
    product is truncated at qmax // base + 1 factors, k <= qmax // base;
    all later factors are units modulo the ideal.
    """
    if base < 1:
        raise ValueError("base must be a positive integer")
    if count is INFINITY:
        count = caps.qmax // base + 1
    elif not isinstance(count, int) or count < 0:
        raise ValueError("count must be a non-negative integer or INFINITY")
    result = one(table, caps)
    for a in args:
        result = times_binomials(result, _coerce(a, table, caps),
                                 range(0, base * count, base))
    return result


def _dense(coeffs: Sequence[int], caps: TruncationSpec,
           table: VarTable) -> Series:
    """The pure q-series sum_i coeffs[i] q^i of int coeffs at caps, placed
    as the one row of a Series, cut at the window top."""
    return from_rows([(table.zero_vexps, 0, coeffs, 1)], caps, table)


@lru_cache(maxsize=None)
def qfact_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of (q; q)_n as a polynomial in q."""
    coeffs = [1]
    for k in range(1, n + 1):
        # multiply by (1 - q^k)
        new = coeffs + [0] * k
        for i, c in enumerate(coeffs):
            new[i + k] -= c
        coeffs = new
    return tuple(coeffs)


@lru_cache(maxsize=None)
def qbinom_coeffs(n: int, k: int) -> tuple[int, ...]:
    """Integer coefficients of the Gaussian polynomial [n choose k]_q.

    Zero polynomial () when k < 0 or k > n.
    """
    if k < 0 or k > n:
        return ()
    if k == 0 or k == n:
        return (1,)
    # Pascal: [n k] = [n-1 k-1] + q^k [n-1 k]
    a = qbinom_coeffs(n - 1, k - 1)
    b = qbinom_coeffs(n - 1, k)
    out = [0] * (k * (n - k) + 1)
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i + k] += c
    return tuple(out)


def _divide_by_one_minus_q_power(h: list, step: int) -> None:
    """Divide the dense int row h by 1 - q^step in place, modulo
    q^len(h): h[i] += h[i - step] sums the geometric series."""
    for i in range(step, len(h)):
        h[i] += h[i - step]


# (qmax, base) -> (n, row n) of the last _qfact_inv_coeffs row built there
_QFACT_INV_LAST: dict = {}


@lru_cache(maxsize=None)
def _qfact_inv_coeffs(n: int, qmax: int, base: int = 1) -> tuple[int, ...]:
    """Dense coefficients of 1/(q^base; q^base)_n modulo q^(qmax+1).

    Divides by each factor (1 - q^(base*k)) in place
    (_divide_by_one_minus_q_power), so the result has integer coefficients.
    The division starts from the last row built at (qmax, base) unless
    that row is above n, so rows asked for in order, as _qexp_sum asks,
    take one pass each.  A factor with base*k > qmax is 1 modulo the
    window, so n is clamped at qmax // base."""
    top = qmax // base
    if n > top:
        return _qfact_inv_coeffs(top, qmax, base)
    k, row = _QFACT_INV_LAST.get((qmax, base), (0, (1,) + (0,) * qmax))
    if k > n:
        k, row = 0, (1,) + (0,) * qmax
    h = list(row)
    for k in range(k + 1, n + 1):
        _divide_by_one_minus_q_power(h, base * k)
    row = tuple(h)
    _QFACT_INV_LAST[(qmax, base)] = (n, row)
    return row


def qfact_inv(n: int, caps: TruncationSpec,
              table: VarTable = DEFAULT_TABLE) -> Series:
    """1/(q; q)_n as a series, cached densely."""
    return _dense(_qfact_inv_coeffs(n, caps.qmax, 1), caps, table)


def _one_term(z: Series) -> tuple:
    """(c, d, e) with z = c q^d v^e, e the exponents of the non-q
    variables, and c = 0 for z = 0; a z of two terms raises ValueError."""
    terms = z.monomials()
    m, c = next(terms, (Monomial(0, z.table.zero_vexps), 0))
    if next(terms, None) is not None:
        raise ValueError("the argument must be zero or one term c q^d v^e")
    return c, m.qexp, m.vexps


def _weight_certificate(z: Series) -> bool:
    """True iff z = c q^d v^e (_one_term) has c = 0, d >= 1 or e != 0."""
    c, d, e = _one_term(z)
    return c == 0 or d >= 1 or any(e)


def _placed_sum(parts, window: TruncationSpec, table: VarTable,
                factors=None) -> Series:
    """sum f_i scale_i q^off_i row_i v^vexps_i over the from_rows parts
    (vexps, off, row, scale) at window, f_i the i-th item of the iterator
    factors, or 1 when it is None: then the sum is one from_rows call.
    A part is drawn before its factor, so a stream is read no further than
    the parts reach; a stream that ends means every later f_i is zero."""
    if factors is None:
        return from_rows(parts, window, table)
    terms = (from_rows((p,), window, table) * f
             for p, f in zip(parts, factors))
    # the empty sum at window: a sum with no terms is zero there
    return sum_series(chain((zero(table, window),), terms))


def _qexp_sum(z: Series, caps: TruncationSpec, weight, base: int = 1,
              factors=None) -> Series:
    """sum_n q^weight(n) z^n f_n / (q^base; q^base)_n modulo caps and
    z.caps, z = c q^d v^e (_one_term), f_n as in _placed_sum.

    Term n is the row 1/(q^base; q^base)_n placed at q^(weight(n) + nd)
    v^(ne) and scaled by c^n.  weight must be >= 0 and make weight(n) + nd
    eventually increasing: the sum stops at the first n where that exponent
    exceeds the window top, v^(ne) leaves the variable caps, c^n is 0 or
    factors runs out, and every later term vanishes too.
    """
    c, d, e = _one_term(z)
    window = caps.meet(z.caps)

    def parts():
        scale = 1
        for n in count():
            off, ve = weight(n) + n * d, tuple(n * i for i in e)
            if not scale or off > window.qmax or not window.admits(ve):
                return
            yield ve, off, _qfact_inv_coeffs(n, window.qmax, base), scale
            scale *= c
    return _placed_sum(parts(), window, z.table, factors)


def _poch_ratios(ups: Sequence[Series], lows: Sequence[Series],
                 caps: TruncationSpec, table: VarTable):
    """(u1, ..., ur; q)_n / (l1, ..., ls; q)_n at caps for n = 0, 1, ...,
    one factor step at a time; zero parameters are skipped ((0; q)_n = 1).

    Each step 1 - u q^j is one series.times_binomials pass, over the ratio
    for an upper parameter and over the divisor one(caps) for a lower one.
    Parameters are exact representatives, read at caps.qmax.
    """
    ups, lows = ([s.with_caps(replace(s.caps, qmax=caps.qmax))
                  for s in ps if not s.is_zero()] for ps in (ups, lows))

    def times_steps(f, params, j):
        for s in params:
            f = times_binomials(f, s, (j,))
        return f
    ratio = one(table, caps)
    for n in count():
        yield ratio
        ratio = times_steps(ratio, ups, n)
        if lows:
            ratio = ratio / times_steps(one(table, caps), lows, n)


def _qbinom_sum(n: int, weight, factors, caps: TruncationSpec,
                table: VarTable) -> Series:
    """sum_{k=0..n} [n k]_q q^weight(k) f_k modulo caps, the finite
    counterpart of _qexp_sum, for a sum that is an ordinary series.

    With S = max(0, -min_k weight(k)), every term is placed at the
    ordinary weight weight(k) + S, summed at work, caps widened by S, and
    the sum divided by q^S exactly; a sum with a nonzero entry below q^S
    raises ValueError.  factors(work) yields f_0, f_1, ... at work;
    callers keep every power of q in the weight.  A stream that ends means
    every later f_k is zero."""
    ws = [weight(k) for k in range(n + 1)]
    shift = max(0, -min(ws))
    work = replace(caps, qmax=caps.qmax + shift)
    parts = ((table.zero_vexps, ws[k] + shift, qbinom_coeffs(n, k), 1)
             for k in range(n + 1))
    return divide_q_power(_placed_sum(parts, work, table, factors(work)),
                          shift)


def _q_power_poch_inv_row(exps: Sequence[int], qmax: int,
                          base: int) -> list[int]:
    """Dense coefficients of 1/(q^j1, q^j2, ...; q^base)_inf modulo
    q^(qmax+1), for exps = (j1, j2, ...), each >= 1: a partition count,
    the row 1 divided in place by every factor 1 - q^(j + base*k) with
    j + base*k <= qmax."""
    h = [1] + [0] * qmax
    for j in exps:
        for p in range(j, qmax + 1, base):
            _divide_by_one_minus_q_power(h, p)
    return h


def poch_inf_inv(args: Sequence[Arg], caps: TruncationSpec,
                 table: VarTable = DEFAULT_TABLE, base: int = 1) -> Series:
    """1 / (a1, ..., am; q^base)_inf, each argument zero or one term
    c q^d v^e of positive weight (d >= 1 or e != 0).

    The arguments that are bare powers q^j, j >= 1 (the Rogers-Ramanujan
    products), share one dense int row, divided in place by each factor
    1 - q^(j + base*k) (_q_power_poch_inv_row).  Every other argument is
    expanded by the Euler sum 1/(c; q^base)_inf = sum c^m / (q^base;
    q^base)_m.  An argument of two or more terms raises ValueError, and
    one of weight 0, such as a constant, NonTerminatingSeries.
    """
    result = one(table, caps)
    exps = []
    for a in args:
        s = _coerce(a, table, caps)
        if not _weight_certificate(s):
            raise NonTerminatingSeries("(a;q)inf needs a of positive weight")
        c, d, e = _one_term(s)
        if c == 1 and not any(e):
            exps.append(d)
        else:
            result = result * _qexp_sum(s, caps, lambda n: 0, base)
    if not exps:
        return result
    return result * _dense(_q_power_poch_inv_row(exps, caps.qmax, base),
                           caps, table)


# -- basic hypergeometric series ------------------------------------------------


def phi(upper: Sequence[Arg], lower: Sequence[Arg], z: Arg,
        caps: TruncationSpec, table: VarTable = DEFAULT_TABLE) -> Series:
    """Basic hypergeometric series r_phi_s(upper; lower; q, z), truncated.

    The n-th term carries [(-1)^n q^C(n,2)]^(1+s-r).  A weight certificate
    is required: r <= s + 1, and z is zero or one term c q^d v^e with
    d >= 1 or e != 0.  Arguments are treated as exact representatives.
    """
    if isinstance(z, Series):
        table = z.table
    ups = [_coerce(u, table, caps) for u in upper]
    lows = [_coerce(l, table, caps) for l in lower]
    zs = _coerce(z, table, caps)
    e = 1 + len(lows) - len(ups)
    if e < 0 or not _weight_certificate(zs):
        raise NonTerminatingSeries("z does not increase weight or r > s + 1")
    return _qexp_sum(-zs if e % 2 else zs, caps,
                     lambda n: e * (n * (n - 1) // 2),
                     factors=_poch_ratios(ups, lows, caps, table))


def eq_small(z: Series, caps: TruncationSpec = None) -> Series:
    """q-exponential e_q(z) = sum z^n / (q; q)_n of a one-term z."""
    if not _weight_certificate(z):
        raise NonTerminatingSeries("e_q needs z with positive weight")
    return _qexp_sum(z, caps if caps is not None else z.caps, lambda n: 0)


def eq_big(z: Series, caps: TruncationSpec = None) -> Series:
    """q-exponential E_q(z) = sum q^C(n,2) z^n / (q; q)_n of a one-term z."""
    if not _weight_certificate(z):
        raise NonTerminatingSeries("E_q needs z with positive weight")
    return _qexp_sum(z, caps if caps is not None else z.caps,
                     lambda n: n * (n - 1) // 2)


# -- Ramanujan q-exponential -----------------------------------------------------


def rq(z: Union[Series, Scalar], caps: TruncationSpec = None,
       table: VarTable = DEFAULT_TABLE) -> Series:
    """Ramanujan q-exponential sum q^(n^2) z^n / (q; q)_n, truncated.

    z is a scalar or a one-term series c q^d v^e; the exponent n^2 + nd
    of term n diverges, so the sum terminates against any caps.
    """
    if isinstance(z, Series):
        table = z.table
        caps = caps if caps is not None else z.caps
    elif caps is None:
        raise ValueError("caps required when z is a scalar")
    return _qexp_sum(_coerce(z, table, caps), caps, lambda n: n * n)


def rq_at_power(k: int, caps: TruncationSpec,
                table: VarTable = DEFAULT_TABLE) -> Series:
    """Direct summation of sum q^(n^2 + k*n) / (q; q)_n (oracle form)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return _qexp_sum(q_power(k, table, caps), caps, lambda n: n * n)


# -- Garrett coefficient polynomials ----------------------------------------------


def _garrett_poly(k: int, exp_coef: int, offset: int, caps: TruncationSpec,
                  table: VarTable) -> Series:
    # sum over the integers i with a nonzero q-binomial: its lower index
    # j = (k + offset - 5i) // 2 lies in [0, k-1] exactly for i in lo..hi.
    # w >= 0 for every integer i when |exp_coef| <= 5, so each part sits
    # at or above q^0
    lo, hi = -((k - 1 - offset) // 5), (k + offset) // 5
    return from_rows([(table.zero_vexps, i * (5 * i + exp_coef) // 2,
                       qbinom_coeffs(k - 1, (k + offset - 5 * i) // 2),
                       -1 if i % 2 else 1) for i in range(lo, hi + 1)],
                     caps, table)


def garrett_a(k: int, caps: TruncationSpec,
              table: VarTable = DEFAULT_TABLE) -> Series:
    """Garrett coefficient a_k(q); a_0 = 1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return one(table, caps)
    return _garrett_poly(k, -3, 1, caps, table)


def garrett_b(k: int, caps: TruncationSpec,
              table: VarTable = DEFAULT_TABLE) -> Series:
    """Garrett coefficient b_k(q); b_0 = 0."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return zero(table, caps)
    return _garrett_poly(k, 1, -1, caps, table)
