"""The q-derivative, its powers and Leibniz rule, and the Rogers-Ramanujan
operator R(y D_q) = sum q^(n^2) y^n D_q^n / (q; q)_n.

All operators act on exact representatives: D_q is the coefficientwise map
x^k -> (1 - q^k) x^(k-1), equivalent to (f(x) - f(qx)) / x by linearity.
Callers verifying identities about infinite objects are responsible for
building inputs with enough headroom in the differentiation variable.

D_q is series.dq, a map of the kernel's rows, called here as this module's
global dq; everything else here uses Series operations only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .series import Series, TruncationSpec, dq, mono, variable
from .qfunctions import _qbinom_sum, _qexp_sum


@dataclass(frozen=True)
class OperatorContext:
    """Differentiation variable x and operator weight variable y."""

    x: str
    y: str

    def __post_init__(self):
        if self.x == self.y or "q" in (self.x, self.y):
            raise ValueError("operator variables must be distinct and not q")


def dq_pow(f: Series, x: str, n: int) -> Series:
    """n-fold iterate of the q-derivative."""
    if n < 0:
        raise ValueError("n must be non-negative")
    for _ in range(n):
        f = dq(f, x)
    return f


def leibniz_rhs(f: Series, g: Series, x: str, n: int) -> Series:
    """Right side of the D_q Leibniz rule:

        sum_k q^(k(k-n)) [n k]_q  D_q^k{f(x)}  *  D_q^(n-k){g(q^k x)}

    D_q^(n-k) acts on the dilated function x -> g(q^k x); the chain-rule
    factor q^(k(n-k)) it produces is what the q^(k(k-n)) weight cancels.
    A _qbinom_sum with weight k(k-n): it places each term at
    k(k-n) + floor(n^2/4) >= 0 and divides the ordinary sum by
    q^floor(n^2/4).  f and g are exact representatives, so the result is
    exact modulo meet(f.caps, g.caps).
    """
    def factors(work):
        fw = f.with_caps(replace(f.caps, qmax=work.qmax))
        gw = g.with_caps(replace(g.caps, qmax=work.qmax))
        for k in range(n + 1):
            yield dq_pow(fw, x, k) \
                * dq_pow(gw.substitute(x, 1, mono(k, {x: 1}, f.table)), x,
                         n - k)
    return _qbinom_sum(n, lambda k: k * (k - n), factors,
                       f.caps.meet(g.caps), f.table)


def rr_op(f: Series, ctx: OperatorContext, caps: TruncationSpec = None,
          weight: Series = None) -> Series:
    """Apply R(y D_q) = sum q^(n^2) y^n D_q^n / (q; q)_n to f.

    y is the variable ctx.y, or the given weight series (an ordinary series,
    e.g. a bound constant y), which takes its place in the same sum.  The
    sum truncates at the least of the certified bounds: the order at which
    D_q^n f vanishes, isqrt(qmax) (the q^(n^2) weight alone kills later
    terms) and, for the formal y only, the y-cap.
    """
    caps = f.caps if caps is None else f.caps.meet(caps)
    f.table.slot(ctx.x)
    z = variable(ctx.y, f.table, caps) if weight is None else weight

    def derivatives(d):
        while not d.is_zero():
            yield d
            d = dq(d, ctx.x)
    return _qexp_sum(z, caps, lambda n: n * n, factors=derivatives(f))
