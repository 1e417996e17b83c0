"""q-Pochhammer symbols, Gaussian binomials, basic hypergeometric series,
the q-exponentials, Garrett's coefficient polynomials, and the Ramanujan
q-exponential, all as exact truncated series.

The pure-q rows (Gaussian binomials, (q;q)_n, 1/(q;q)_n, Garrett's a_k and
b_k) are int coefficient tuples; _dense and the Garrett polynomials place
them through series.from_rows, which cuts each at the window top, with no
monomial objects.  A Pochhammer product takes one pass of
series.times_binomials per argument, which multiplies by every factor
1 - a q^(base k) in int rows, with the infinite product truncated at
qmax // base + 1 factors; a running ratio (_poch_ratios) takes one pass
per parameter and index.  An infinite
product is inverted through its cheapest exact inverse: the arguments
that are bare powers q^j share one dense int row, divided in place by
each factor 1 - q^p as 1/(q^base; q^base)_n is; other weighted arguments
take the Euler sum; Series.reciprocal is the fallback.  The
weighted sums _qexp_sum and _qbinom_sum, which build the q-exponentials,
phi, R(yD_q) and the identities' sums, stream their terms into one
series.sum_series, so the running total is never copied.  A finite
Gaussian sum whose weights go negative (the q-Leibniz rule) places every
term at its weight plus one shift S that makes them all >= 0, and divides
the sum by q^S exactly (series.divide_q_power).
The termination and weight certificates are Series comparisons and
truncations; nothing here reads the stored rows.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count
from typing import Sequence, Union

from .series import (
    DEFAULT_TABLE, Scalar, Series, TruncationSpec, VarTable, constant,
    divide_q_power, from_rows, one, q_power, sum_series, times_binomials,
    zero,
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


def _dense(coeffs: Sequence[int], caps: TruncationSpec, table: VarTable,
           shift: int = 0) -> Series:
    """The pure q-series sum_i coeffs[i] q^(i + shift) of int coeffs at caps,
    shift >= 0, placed as the one row of a Series, cut at the window top."""
    return from_rows([(table.zero_vexps, shift, coeffs, 1)], caps, table)


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


def _qexp_sum(z: Series, caps: TruncationSpec, weight, base: int = 1,
              factors=None) -> Series:
    """sum_n q^weight(n) z^n f_n / (q^base; q^base)_n modulo caps, where f_n
    is the n-th item of the iterator factors (f_n = 1 when it is None).

    weight must be >= 0 and make weight(n) + n*val(z) eventually
    increasing, where val(z) >= 0 is the
    least q-exponent of z: the sum stops at the first n where that bound
    exceeds qmax, z^n vanishes or factors runs out (a stream that ends
    means every later f_n is zero), and every later term vanishes too.
    """
    table = z.table
    v = z.min_qexp()

    def terms():
        # the empty sum, which keeps the sum's window inside caps
        yield zero(table, caps)
        zpow = one(table, caps)
        for n in count():
            w = weight(n)
            if w + n * v > caps.qmax:
                return
            if n:
                zpow = zpow * z
                if zpow.is_zero():
                    return
            if factors is not None:
                f = next(factors, None)
                if f is None:
                    return
            term = zpow * _dense(_qfact_inv_coeffs(n, caps.qmax, base), caps,
                                 table, w)
            yield term if factors is None else term * f
    return sum_series(terms())


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
    terms = (_dense(qbinom_coeffs(n, k), work, table, ws[k] + shift) * f
             for k, f in zip(range(n + 1), factors(work)))
    # zero if empty
    return divide_q_power(sum_series(chain((zero(table, work),), terms)),
                          shift)


def _bare_q_power(s: Series) -> int:
    """j when s is exactly q^j with j >= 1, else 0."""
    terms = s.monomials()
    first, second = next(terms, None), next(terms, None)
    if first is None or second is not None:
        return 0
    m, c = first
    return m.qexp if c == 1 and m.qexp >= 1 and not any(m.vexps) else 0


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
    """1 / (a1, ..., am; q^base)_inf.

    The arguments that are bare powers q^j, j >= 1 (the Rogers-Ramanujan
    products), share one dense int row, divided in place by each factor
    1 - q^(j + base*k) (_q_power_poch_inv_row).  Other arguments with
    positive weight are expanded by the q-exponential sum
    1/(c; q^base)_inf = sum c^m / (q^base; q^base)_m, which needs fewer
    products than the graded recurrence of Series.reciprocal; anything else
    falls back to inverting the truncated product with it.
    """
    result = one(table, caps)
    exps = []
    for a in args:
        s = _coerce(a, table, caps)
        j = _bare_q_power(s)
        if j:
            exps.append(j)
        elif _weight_certificate(s):
            result = result * _qexp_sum(s, caps, lambda n: 0, base)
        else:
            result = result * poch([s], INFINITY, caps, table,
                                   base=base).reciprocal()
    if not exps:
        return result
    return result * _dense(_q_power_poch_inv_row(exps, caps.qmax, base),
                           caps, table)


# -- basic hypergeometric series ------------------------------------------------


def _weight_certificate(z: Series) -> bool:
    """True iff every monomial of z has positive q-exponent or variable content."""
    return z.truncate(TruncationSpec(0, (0,) * z.table.nvars)).is_zero()


def phi(upper: Sequence[Arg], lower: Sequence[Arg], z: Arg,
        caps: TruncationSpec, table: VarTable = DEFAULT_TABLE) -> Series:
    """Basic hypergeometric series r_phi_s(upper; lower; q, z), truncated.

    The n-th term carries [(-1)^n q^C(n,2)]^(1+s-r).  A weight certificate
    is required: r <= s + 1, and every monomial of z has positive
    q-exponent or nonzero variable degree.  Arguments are treated as exact
    representatives.
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
    """q-exponential e_q(z) = sum z^n / (q; q)_n."""
    if not _weight_certificate(z):
        raise NonTerminatingSeries("e_q needs z with positive weight")
    return _qexp_sum(z, caps if caps is not None else z.caps, lambda n: 0)


def eq_big(z: Series, caps: TruncationSpec = None) -> Series:
    """q-exponential E_q(z) = sum q^C(n,2) z^n / (q; q)_n."""
    if not _weight_certificate(z):
        raise NonTerminatingSeries("E_q needs z with positive weight")
    return _qexp_sum(z, caps if caps is not None else z.caps,
                     lambda n: n * (n - 1) // 2)


# -- Ramanujan q-exponential -----------------------------------------------------


def rq(z: Union[Series, Scalar], caps: TruncationSpec = None,
       table: VarTable = DEFAULT_TABLE) -> Series:
    """Ramanujan q-exponential sum q^(n^2) z^n / (q; q)_n, truncated.

    z must be a series or a scalar; the per-term q-valuation
    n^2 + n*val(z) diverges, so the sum terminates against any caps.
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
