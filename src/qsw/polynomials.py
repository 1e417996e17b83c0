"""Stieltjes-Wigert polynomial families and generalized Rogers-Szego
polynomials.

Every family is one Gaussian form sum_k [n k]_q q^weight(k) u^(n-k) v^k
over one-term bases u, v = (c, Monomial), each with a q-exponent >= 0
(_gauss_form): sw_star uses (1, x) and (1, y) with weight k^2,
rogers_szego (1, a) and (1, b) with weight 0, and the classical S_n(x; q)
is S*_n(1, -x; q)/(q;q)_n, the bases (1, 1) and (-1, x).  sw_star_op
realizes S*_n as the Rogers-Ramanujan operator image of x^n, giving an
independent cross-check path.
"""

from __future__ import annotations

from .series import DEFAULT_TABLE, Series, TruncationSpec, VarTable, \
    from_rows, mono, monomial_series
from .qfunctions import qbinom_coeffs, qfact_inv
from .operators import OperatorContext, rr_op

MAX_ORDER = 64
# the highest q-window top a request may ask for: dense q-rows hold
# qmax + 1 entries per term, so time and memory grow with it
MAX_QMAX = 2000


class OrderOutOfRange(ValueError):
    """A polynomial order outside 0..MAX_ORDER was requested."""


def _check_order(n: int):
    if not 0 <= n <= MAX_ORDER:
        raise OrderOutOfRange(f"order must be in 0..{MAX_ORDER}")


def _gauss_form(n: int, caps: TruncationSpec, table: VarTable, u, v,
                weight) -> Series:
    """sum_k [n k]_q q^weight(k) u^(n-k) v^k at caps, for one-term bases
    u, v = (c, Monomial) of q-exponent >= 0 and weight(k) >= 0: (1, x) for
    a variable x, (c, q^d) for a bound value, and (1, 1), (-1, x) for
    S_n(x; q).  Each k the caps admit is one row part: the row of [n k]_q
    at its least q-exponent, scaled by cu^(n-k) cv^k; a k the caps drop
    computes no row."""
    _check_order(n)
    (cu, mu), (cv, mv) = u, v
    parts = []
    for k in range(n + 1):
        ve = tuple((n - k) * a + k * b for a, b in zip(mu.vexps, mv.vexps))
        low = weight(k) + (n - k) * mu.qexp + k * mv.qexp
        if low <= caps.qmax and caps.admits(ve):
            parts.append((ve, low, qbinom_coeffs(n, k), cu ** (n - k) * cv ** k))
    return from_rows(parts, caps, table)


def sw_star(n: int, caps: TruncationSpec, table: VarTable = DEFAULT_TABLE,
            x: str = "x", y: str = "y") -> Series:
    """Bivariate Stieltjes-Wigert polynomial
    sum_k [n k]_q q^(k^2) x^(n-k) y^k (homogeneous of degree n)."""
    return _gauss_form(n, caps, table, (1, mono(0, {x: 1}, table)),
                       (1, mono(0, {y: 1}, table)), lambda k: k * k)


def sw_classic(n: int, caps: TruncationSpec,
               table: VarTable = DEFAULT_TABLE, x: str = "x") -> Series:
    """Classical Stieltjes-Wigert polynomial
    S_n(x; q) = S*_n(1, -x; q)/(q;q)_n
              = sum_k [n k]_q q^(k^2) (-x)^k / (q;q)_n."""
    return _gauss_form(n, caps, table, (1, mono(0, table=table)),
                       (-1, mono(0, {x: 1}, table)), lambda k: k * k) \
        * qfact_inv(n, caps, table)


def sw_star_op(n: int, caps: TruncationSpec, table: VarTable = DEFAULT_TABLE,
               x: str = "x", y: str = "y") -> Series:
    """Operator image R(y D_q){x^n}; must agree with sw_star.

    Runs with enough x-headroom to hold x^n even when n exceeds the
    requested cap, then truncates back.
    """
    _check_order(n)
    xslot = table.slot(x)
    vc = list(caps.vcaps)
    if vc[xslot] < n:
        vc[xslot] = n
    work = TruncationSpec(caps.qmax, tuple(vc))
    xn = monomial_series(1, 0, {x: n}, table, work)
    return rr_op(xn, OperatorContext(x, y), work).truncate(caps)


def rogers_szego(n: int, caps: TruncationSpec,
                 table: VarTable = DEFAULT_TABLE,
                 a: str = "a", b: str = "b") -> Series:
    """Generalized Rogers-Szego polynomial sum_k [n k]_q a^(n-k) b^k."""
    return _gauss_form(n, caps, table, (1, mono(0, {a: 1}, table)),
                       (1, mono(0, {b: 1}, table)), lambda k: 0)
