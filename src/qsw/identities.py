"""Registry of verifiable identities.

Every entry pairs an independently-built left and right side: operator-image
sides go through dq / rr_op machinery, closed-form sides through Pochhammer
products, hypergeometric sums, and the Garrett polynomials.  Sides never
share intermediate series values.

A side reuses work across the cases of one verify() call in one way only,
declared at the side (_bind_late): it is built once per call with the
names a case binds left formal, each cap widened to a derived bound on
the name's degree, and each case substitutes its rationals into it.  Both
sides of the Garrett forms (T4-BY1, T4-2PROD, T4-SRIAGA-YZ1, T4-RSGF-BZY1)
and the left sides of the Rogers formulas (T6-ROGERS, T6-ROGERS-ALT) are
built that way: the Garrett right sides read b, y and z through Env.sym
and their kernel R_q(q^m by) does not read by, so only the identity, not
the side, needs by = 1.  The other sides stay per case, for the reasons
given at their entries.

Each right-hand formula is written once, as a builder over one-letter
parameter names; registry entries that are specialisations of a formula
(a -> az, b -> bz, ...) call the same builder with other names.  A
Pochhammer weight per index is declared as up and down names and read
from one running ratio stream: up a in the left sides of I-GF3, T4-SRIAGA
and T4-SRIAGA-YZ1, up a and down b in that of T4-ABGF, and bx and ax in
the D_q^n closed forms of I-DQ-7/8/9 (_dq_rhs).

The generating, Mehler and Rogers left sides are one generating sum
(_gf_lhs) of S*_n(x, y)/(q;q)_n times a second Gaussian form whose signed
bases and weight each entry declares (_sw_star_times).  The Rogers double
sums over n + m <= order are one sum over N = n + m: the terms of one N
are S*_N(x, y) G_N / (q;q)_N, G_N = sum_n [N n]_q T_n s^(N-n), with T_n =
t^n or (-1)^n q^C(n,2) t^n.

Every working window is derived: an operator image widens only the
differentiated variable, by the operator's order; Laurent-weighted sums
(Garrett forms, and the finite Gaussian sums whose window _qbinom_sum derives
from their weights) widen q; a bound value enters S*_n and r_n as a base.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Callable, Optional

from .series import (
    DEFAULT_TABLE, Series, TruncationSpec, caps, constant, mono,
    monomial_series, one, q_power, sum_series,
)
from .qfunctions import (
    INFINITY, _poch_ratios, _qbinom_sum, _qexp_sum, eq_big, eq_small,
    garrett_a, garrett_b, phi, poch, poch_inf_inv, qfact_inv, rq, rq_at_power,
)
from .operators import OperatorContext, dq_pow, leibniz_rhs, rr_op
from .polynomials import _gauss_form, sw_classic, sw_star, sw_star_op

# the variable table of every case and side
TABLE = DEFAULT_TABLE
# random bindings drawn per identity with free parameters, unless set
TRIALS = 5


@dataclass
class Env:
    """One verification case: caps, sum order, bindings, sweep integers."""

    caps: TruncationSpec
    order: int
    bindings: dict
    convention: Optional[str]
    ints: dict = field(default_factory=dict)
    # formal values one late side reuses across its cases (_bind_late);
    # verify() gives each side its own dict, so the two sides share nothing
    memo: Optional[dict] = field(default=None, repr=False, compare=False)

    # series shorthands, all at self.caps
    def one(self):
        return one(TABLE, self.caps)

    def qpow(self, e):
        return q_power(e, TABLE, self.caps)

    def base(self, name):
        """One-term value (c, Monomial) of name: the variable, or its bound
        value c*q^d; of "-" + name, that value negated."""
        if name.startswith("-"):
            c, m = self.base(name[1:])
            return -c, m
        bv = self.bindings.get(name)
        if bv is None:
            return 1, mono(0, {name: 1}, TABLE)
        c, d = bv if isinstance(bv, tuple) else (bv, 0)
        return c, mono(d, {}, TABLE)

    def sym(self, name):
        """The variable, or its bound value c*q^d when the case binds it."""
        bv = self.bindings.get(name)
        if bv is None:
            return monomial_series(1, 0, {name: 1}, TABLE, self.caps)
        c, d = bv if isinstance(bv, tuple) else (bv, 0)
        return monomial_series(c, d, {}, TABLE, self.caps)

    def syms(self, names: str):
        """Product of the one-letter symbols in names, e.g. "az" -> a*z."""
        return reduce(mul, map(self.sym, names))

    def pochn(self, args, n):
        return poch(args, n, self.caps, TABLE)

    def pochinf(self, args, base=1):
        return poch(args, INFINITY, self.caps, TABLE, base=base)

    def pochinf_inv(self, args, base=1):
        return poch_inf_inv(args, self.caps, TABLE, base=base)

    def qfact_inv(self, n):
        return qfact_inv(n, self.caps, TABLE)

    def inflated(self, dq: int = 0, **dvars: int) -> "Env":
        """Copy of this env with widened caps (working precision)."""
        vc = list(self.caps.vcaps)
        for name, d in dvars.items():
            vc[TABLE.slot(name)] += d
        return replace(self, caps=TruncationSpec(self.caps.qmax + dq, tuple(vc)))

    def vcap(self, name) -> int:
        return self.caps.vcaps[TABLE.slot(name)]

    def caps_dict(self) -> dict:
        return {
            "qMax": self.caps.qmax,
            "varCaps": {TABLE.names[j + 1]: c
                        for j, c in enumerate(self.caps.vcaps)},
            "sumOrder": self.order,
        }

    def bindings_dict(self) -> dict:
        out = {k: v for k, v in self.ints.items() if isinstance(v, int)}
        for name, bv in sorted(self.bindings.items()):
            c, d = bv if isinstance(bv, tuple) else (bv, 0)  # a bound d >= 1
            tail = f"*q^{d}" if d else ""
            out[name] = f"{c.numerator}/{c.denominator}{tail}"
        return out


class BindingViolation(ValueError):
    """User bindings are inconsistent with an identity's constraints."""


def _stable_seed(seed: int, ident: str) -> int:
    return seed ^ zlib.crc32(ident.encode())


def _pick(v, default):  # an unset VerifyConfig field falls back to default
    return default if v is None else v


# _nonzero_frac's numerators; over denominators 1..3 they give 14 values
_NUMERATORS = (-3, -2, -1, 1, 2, 3)
_RATIONALS = len({Fraction(n, d) for n in _NUMERATORS for d in (1, 2, 3)})


def _nonzero_frac(rng) -> Fraction:
    return Fraction(rng.choice(_NUMERATORS), rng.randint(1, 3))


@dataclass(frozen=True)
class Params:
    """The free parameters of an identity, declared as data: each name is
    bound to a nonzero rational, or to a q-monomial c*q^d (c != 0, d >= 1)
    when monomial, and the values differ when distinct.  inverse names the
    parameter tied to them by inverse * prod(names) = 1, derived unless
    bound too.  No other name may be bound."""

    names: tuple
    inverse: Optional[str] = None
    distinct: bool = False
    monomial: bool = False

    def draw(self, ident: str, rng, trials: int) -> list[dict]:
        """trials distinct random bindings: per name a rational, then a
        degree in 1..3 when monomial; a distinct clash redraws only the
        later name.  With no names there is one case, with no bindings."""
        if not self.names:
            return [{}]
        values = _RATIONALS * (3 if self.monomial else 1)  # d in 1..3
        k = len(self.names)
        count = math.perm(values, k) if self.distinct else values ** k
        if trials > count:
            raise BindingViolation(f"{ident} has only {count} distinct random "
                                   f"bindings, {trials} trials requested")
        out: list = []
        while len(out) < trials:
            b: dict = {}
            for name in self.names:
                v = self._value(rng)
                while self.distinct and v in b.values():
                    v = self._value(rng)
                b[name] = v
            b = self.validate(ident, b)
            if b not in out:
                out.append(b)
        return out

    def _value(self, rng):
        c = _nonzero_frac(rng)
        return (c, rng.randint(1, 3)) if self.monomial else c

    def validate(self, ident: str, bindings: dict) -> dict:
        """The user's bindings, checked, with inverse derived if unbound."""
        extra = sorted(set(bindings) - {*self.names, self.inverse})
        if extra:
            raise BindingViolation(f"{ident} has no free parameter {extra[0]}")
        vals = [bindings.get(name) for name in self.names]
        kind = ("a q-monomial c*q^d with c != 0, d >= 1 (a rational makes "
                "the sum formally divergent)" if self.monomial
                else "a nonzero rational")
        for name, v in zip(self.names, vals):
            if not (isinstance(v, tuple) and v[0] != 0 and v[1] >= 1
                    if self.monomial else isinstance(v, Fraction) and v != 0):
                raise BindingViolation(f"{name} must be bound to {kind}")
        if self.distinct and len(set(vals)) < len(vals):
            raise BindingViolation(f"{' and '.join(self.names)} must differ")
        if self.inverse is not None:
            inv = 1 / math.prod(vals)
            if bindings.setdefault(self.inverse, inv) != inv:
                raise BindingViolation(f"constraint {self.inverse}"
                                       f"{''.join(self.names)} = 1 violated")
        return bindings


@dataclass(frozen=True)
class IdentitySpec:
    """A named LHS/RHS pair with default truncation and case generation."""

    id: str
    description: str
    build_lhs: Callable[[Env], Series]
    build_rhs: Callable[[Env], Series]
    qmax: int = 25
    deg: int = 8  # also the default sum order
    var_caps: dict = field(default_factory=dict)
    window: Optional[tuple] = None  # compare only up to total degree `order`
    sweep: Optional[Callable] = None  # (cfg, rng) -> list of ints dicts
    params: Params = Params(())  # free parameters to bind; none by default
    uses_garrett: bool = False

    def cases(self, cfg, convention) -> list[Env]:
        cps = caps(_pick(cfg.qmax, self.qmax), TABLE,
                   _pick(cfg.deg, self.deg),
                   **{**self.var_caps, **cfg.var_caps})
        order = _pick(cfg.sum_order, self.deg)
        rng = random.Random(_stable_seed(cfg.seed, self.id))
        sweeps = self.sweep(cfg, rng) if self.sweep else [{}]
        if cfg.bindings:
            blist = [self.params.validate(self.id, dict(cfg.bindings))]
        else:
            blist = self.params.draw(self.id, rng, _pick(cfg.trials, TRIALS))
        return [Env(cps, order, b, convention, dict(sw))
                for b in blist for sw in sweeps]


REGISTRY: list[IdentitySpec] = []


def _ident(**kw) -> None:
    REGISTRY.append(IdentitySpec(**kw))


# -- late binding ------------------------------------------------------------------


def _beside_x(e: Env) -> int:
    """Degree bound of a name that enters only beside x or beside y, and
    the order of the bound-z sums.  The degree of b in a term of (bx;q)inf
    is that term's x-degree, and an R(yD_q) operand is built with
    isqrt(qmax) more x (_rr_image).  A sum over n of S*_n(x, y) z^n with z
    bound has no surviving term past n = x-cap + isqrt(qmax), since the
    x-degree n-k of S*_n is capped and its y^k carries q^(k^2); z^n and
    the b^k of r_n(a, b), k <= n, stop there too.  In the Garrett right
    sides b and z enter only beside x, in (bx;q) and (zx;q) products at
    the case's x-cap, or beside y, in y^k terms weighted by at least
    q^(k^2), so k <= isqrt(qmax)."""
    return e.vcap("x") + math.isqrt(e.caps.qmax)


def _q_square(e: Env) -> int:
    """Degree bound of y, whose y^k carries q^(k^2) in R(yD_q), in
    S*_n(x, y) and in the Garrett right sides' sums (weights k^2 and
    k(3k-1)/2): a term with k > isqrt(qmax) is above the window top.  The
    kernel R_q(q^m by) of those sides does not read y (_garrett_kernel)."""
    return math.isqrt(e.caps.qmax)


def _sum_order(e: Env) -> int:
    """Degree bound of t and s in the Rogers sums, whose terms t^n s^m
    have n + m <= order."""
    return e.order


# the names the Garrett forms and the Rogers formulas bind, with their bounds
_BY1_BOUNDS = (("y", _q_square), ("b", _beside_x))
_YZ1_BOUNDS = (("z", _beside_x), ("y", _q_square))
_BZY1_BOUNDS = (("z", _beside_x), ("y", _q_square), ("b", _beside_x))
_TS_BOUNDS = (("t", _sum_order), ("s", _sum_order))


def _bind_late(build, degrees):
    """Side build(e) at the case's rational bindings, by one formal build
    per call and one substitution per case.

    The formal build is build at e with the bound names of degrees left
    formal (build reads them through Env.sym), each cap widened to
    max(cap, bound(e)); bound(e) bounds the name's degree in the value, so
    the formal value keeps every term that a bound one would.  It is stored
    in the side's memo (Env.memo; without one, every call builds), keyed by
    the formal caps, order, ints and the bindings left in place.  Each case
    binds its values into it in one row pass (Series.substitute, which sets
    each bound name's slot to 0 and keeps the formal caps, whose widened
    cap covers the name's degree) and truncates the result to e.caps, which
    gives build(e) in value, window and stored form."""
    def late(e: Env) -> Series:
        bounds = {name: bound(e) for name, bound in degrees
                  if name in e.bindings}
        vc = list(e.caps.vcaps)
        for name, d in bounds.items():
            i = TABLE.slot(name)
            vc[i] = max(vc[i], d)
        fcaps = TruncationSpec(e.caps.qmax, tuple(vc))
        left = {k: v for k, v in e.bindings.items() if k not in bounds}
        key = ("formal", fcaps, e.order, tuple(sorted(e.ints.items())),
               tuple(sorted(left.items())))
        memo = {} if e.memo is None else e.memo
        if key not in memo:
            memo[key] = build(replace(e, caps=fcaps, bindings=left))
        return memo[key].substitute({name: e.base(name) for name in bounds}) \
            .truncate(e.caps)
    late.__wrapped__ = build
    late.degrees = degrees
    return late


# -- shared combinators -----------------------------------------------------------


def _gf_lhs(coeff, z=None, nmax=lambda e: e.order, up=(), down=()):
    """Left side sum_{n <= nmax(e)} coeff(e, n) z^n (up; q)_n / (down; q)_n;
    z is a variable name, replaced by its value when the case binds it, or
    None for no z^n, and up and down name products such as "a".  The
    Pochhammer ratio of term n is the n-th item of one running stream
    (_poch_ratios), read only when the side declares parameters."""
    def build(e):
        terms = (coeff(e, n) for n in range(nmax(e) + 1))
        if z is not None:
            zv = e.sym(z)
            terms = (c * zv ** n for n, c in enumerate(terms))
        if up or down:
            ratios = _poch_ratios([e.syms(s) for s in up],
                                  [e.syms(s) for s in down], e.caps, TABLE)
            terms = (t * r for t, r in zip(terms, ratios))
        return sum_series(terms)
    return build


def _dq_image(operand):
    """Left side D_q^n{operand(w)} in x, n = ints["n"]: D_q^n lowers the
    x-degree by n, so w is e with n more x and nothing else widened (D_q
    maps the cap ideal of every other variable into itself); the image is
    truncated to e.caps."""
    def build(e):
        n = e.ints["n"]
        return dq_pow(operand(e.inflated(x=n)), "x", n).truncate(e.caps)
    return build


def _rr_image(operand, x="x"):
    """Left side R(yD_q){operand(w)} in x, with y replaced by its value when
    the case binds it.  w is e with headroom in x alone, by the operator's
    certified order: isqrt(qmax) for a bound y, min(y-cap, isqrt(qmax))
    for a formal one.  D_q and the factor y^n (formal or bound) map the cap
    ideal of every other variable into itself, so no other cap is widened;
    the image is truncated to e.caps."""
    def build(e):
        nmax = math.isqrt(e.caps.qmax)
        if "y" not in e.bindings:
            nmax = min(e.vcap("y"), nmax)
        w = e.inflated(**{x: nmax})
        out = rr_op(operand(w), OperatorContext(x, "y"), w.caps, w.sym("y"))
        return out.truncate(e.caps)
    return build


def _poch_sum(e: Env, u: Series, weight, kernel, up=(), down=()) -> Series:
    """sum_k q^weight(k) u^k (up; q)_k / (down; q)_k kernel(k) / (q;q)_k at
    e.caps, by the weighted sum of qfunctions: kernel(k) is built only for
    the k that sum reaches before its certified stop."""
    ratios = _poch_ratios(up, down, e.caps, TABLE)
    return _qexp_sum(u, e.caps, weight,
                     factors=(r * kernel(k) for k, r in enumerate(ratios)))


def _garrett_form(e: Env, k: int, first, second) -> Series:
    """q^(-s) * (a_k(q) first(w) - b_k(q) second(w)) at e.caps, s = C(k, 2).

    first and second build pure q-series at w, a copy of e whose q-window
    is widened by s so the ordinary combination is exact at e.caps.  The
    per-term negative powers cancel only in this combination, never in the
    a- and b-sums separately.
    """
    s = k * (k - 1) // 2
    w = e.inflated(dq=s)
    body = garrett_a(k, w.caps, TABLE) * first(w) \
        - garrett_b(k, w.caps, TABLE) * second(w)
    return e.qpow(-s) * body


def _garrett_rq(e: Env, k: int) -> Series:
    """Garrett's expansion of sum q^(n^2+kn)/(q;q)_n with its printed sign:
    q^(-C(k,2)) (a_k(q) R_q(1) - b_k(q) R_q(q))."""
    return _garrett_form(e, k, lambda w: rq(1, w.caps, TABLE),
                         lambda w: rq(w.qpow(1)))


def _rq_kernel(e: Env, m: int, v: Series) -> Series:
    """R_q(q^m v) by its direct sum."""
    return rq(e.qpow(m) * v)


def _garrett_kernel(e: Env, m: int, v: Series) -> Series:
    """R_q(q^m v) at v = 1, which the bindings of the Garrett forms impose,
    for even m by Garrett's expansion over the Rogers-Ramanujan products:
    q^(-C(m,2)) (a_m(q)/(q,q^4;q^5)inf - b_m(q)/(q^2,q^3;q^5)inf).  Even m
    makes the measured sign convention immaterial.  v is not read, so a
    side built with b and y formal stays a formal series in them."""
    return _garrett_form(
        e, m, lambda w: w.pochinf_inv([w.qpow(1), w.qpow(4)], base=5),
        lambda w: w.pochinf_inv([w.qpow(2), w.qpow(3)], base=5))


def _range_sweep(name, hi):
    return lambda cfg, rng: [{name: n} for n in range(hi + 1)]


def _pair_sweep(hi):
    return lambda cfg, rng: [{"n": n, "k": k} for n in range(hi + 1)
                             for k in range(hi + 1)]


# -- Pochhammer identities (I-POCH-*) --------------------------------------------


def _poch_split(n, k):
    """(a;q)_n (aq^n;q)_k, with n and k the named sweep integers."""
    def build(e):
        a, n_, k_ = e.sym("a"), e.ints[n], e.ints[k]
        return e.pochn([a], n_) * e.pochn([a * e.qpow(n_)], k_)
    return build


_ident(
    id="I-POCH-1",
    description="finite q-shifted factorial as ratio of infinite products",
    build_lhs=lambda e: e.pochn([e.sym("a")], e.ints["n"]),
    build_rhs=lambda e: e.pochinf([e.sym("a")])
    * e.pochinf_inv([e.sym("a") * e.qpow(e.ints["n"])]),
    sweep=_range_sweep("n", 8),
)

_ident(
    id="I-POCH-2",
    description="index splitting rule for q-shifted factorials",
    build_lhs=lambda e: e.pochn([e.sym("a")], e.ints["n"] + e.ints["k"]),
    build_rhs=_poch_split("n", "k"),
    sweep=_pair_sweep(8),
)

_ident(
    id="I-POCH-3",
    description="shift exchange rule for q-shifted factorials",
    build_lhs=_poch_split("n", "k"), build_rhs=_poch_split("k", "n"),
    sweep=_pair_sweep(8),
)


# -- q-binomial theorem and q-exponentials ----------------------------------------


_ident(
    id="I-QBINTHM",
    description="q-binomial theorem: 1phi0(a; q, z) = (az;q)inf / (z;q)inf",
    build_lhs=lambda e: phi([e.sym("a")], [], e.sym("z"), e.caps, TABLE),
    build_rhs=lambda e: e.pochinf([e.sym("a") * e.sym("z")])
    * e.pochinf_inv([e.sym("z")]),
    qmax=30, var_caps={"a": 10, "z": 10},
)

_ident(
    id="I-EQ-PROD",
    description="e_q(z) * (z;q)inf = 1",
    build_lhs=lambda e: eq_small(e.sym("z")) * e.pochinf([e.sym("z")]),
    build_rhs=lambda e: e.one(),
)

_ident(
    id="I-EQBIG-PROD",
    description="E_q(z) = (-z;q)inf",
    build_lhs=lambda e: eq_big(e.sym("z")),
    build_rhs=lambda e: e.pochinf([-e.sym("z")]),
)


# -- classical Stieltjes-Wigert generating functions -------------------------------


def _sw_arg(e):
    """-qtx, the argument of the generating functions of S_n(x;q)."""
    return -(e.qpow(1) * e.sym("t") * e.sym("x"))


_ident(
    id="I-GF1",
    description="generating function sum S_n(x;q) t^n via 0phi1",
    build_lhs=_gf_lhs(lambda e, n: sw_classic(n, e.caps, TABLE), "t"),
    build_rhs=lambda e: e.pochinf_inv([e.sym("t")])
    * phi([], [0], _sw_arg(e), e.caps, TABLE),
    window=("t",),
)

_ident(
    id="I-GF2",
    description="alternating generating function of S_n(x;q) via 0phi2",
    build_lhs=_gf_lhs(lambda e, n: (-1) ** n * e.qpow(n * (n - 1) // 2)
                      * sw_classic(n, e.caps, TABLE), "t"),
    build_rhs=lambda e: e.pochinf([e.sym("t")])
    * phi([], [0, e.sym("t")], _sw_arg(e), e.caps, TABLE),
    window=("t",),
)

_ident(
    id="I-GF3",
    description="(a;q)_n-weighted generating function of S_n(x;q) via 1phi2",
    build_lhs=_gf_lhs(lambda e, n: sw_classic(n, e.caps, TABLE), "t",
                      up=("a",)),
    build_rhs=lambda e: e.pochinf([e.syms("at")])
    * e.pochinf_inv([e.sym("t")])
    * phi([e.sym("a")], [0, e.syms("at")], _sw_arg(e), e.caps, TABLE),
    window=("t",),
)


# -- Leibniz rule -------------------------------------------------------------------


def _leibniz_sweep(cfg, rng):
    trials = cfg.trials if cfg.trials is not None else 20
    cases = []
    for trial in range(trials):
        n = rng.randint(0, 5)
        def spec():
            return [(_nonzero_frac(rng), rng.randint(0, 6), rng.randint(0, 4))
                    for _ in range(rng.randint(1, 4))]
        cases.append({"trial": trial, "n": n, "fspec": spec(), "gspec": spec()})
    return cases


def _spec_poly(e, key):
    """sum c q^i x^j over the case's random (c, i, j) triples."""
    return sum_series(monomial_series(c, i, {"x": j}, TABLE, e.caps)
                      for c, i, j in e.ints[key])


def _leibniz_lhs(e):
    """The Leibniz expansion of D_q^n{f g}, its operands built with n of
    x-headroom (each term lowers the x-degree by n) and truncated to e.caps."""
    n = e.ints["n"]
    w = e.inflated(x=n)
    return leibniz_rhs(_spec_poly(w, "fspec"), _spec_poly(w, "gspec"), "x",
                       n).truncate(e.caps)


# Both sides get n of x-headroom and no q-headroom: D_q and x -> q^k x never
# lower q-degrees, and leibniz_rhs widens its own window for its Laurent
# weights.
_ident(
    id="I-LEIBNIZ",
    description="Leibniz rule for the q-derivative on randomized pairs",
    build_lhs=_leibniz_lhs,
    build_rhs=_dq_image(lambda w: _spec_poly(w, "fspec")
                        * _spec_poly(w, "gspec")),
    sweep=_leibniz_sweep,
)


# -- D_q closed forms (I-DQ-4 .. I-DQ-9) ----------------------------------------------


def _dq4_rhs(e):
    n, k = e.ints["n"], e.ints["k"]
    xkn = monomial_series(1, 0, {"x": k - n}, TABLE, e.caps)
    return e.pochn([e.qpow(k - n + 1)], n) * xkn


_ident(
    id="I-DQ-4",
    description="closed form for D_q^n x^k",
    build_lhs=_dq_image(lambda w: monomial_series(
        1, 0, {"x": w.ints["k"]}, TABLE, w.caps)),
    build_rhs=_dq4_rhs,
    sweep=lambda cfg, rng: [{"n": n, "k": k}
                            for k in range(9) for n in range(k + 1)],
)


def _dq5_rhs(e):
    a = e.sym("a")
    return a ** e.ints["n"] * e.pochinf_inv([a * e.sym("x")])


_ident(
    id="I-DQ-5",
    description="D_q^n of 1/(ax;q)inf",
    build_lhs=_dq_image(lambda w: w.pochinf_inv([w.syms("ax")])),
    build_rhs=_dq5_rhs,
    sweep=_range_sweep("n", 4),
)


def _dq6_rhs(e):
    a = e.sym("a")
    n = e.ints["n"]
    return (-1) ** n * a ** n * e.qpow(n * (n - 1) // 2) \
        * e.pochinf([a * e.qpow(n) * e.sym("x")])


_ident(
    id="I-DQ-6",
    description="D_q^n of (ax;q)inf",
    build_lhs=_dq_image(lambda w: w.pochinf([w.syms("ax")])),
    build_rhs=_dq6_rhs,
    sweep=_range_sweep("n", 4),
)


def _dq_rhs(prefix, weight, sign=1, up=(), down=()):
    """Right side prefix(e) sum_k [n k]_q q^weight(n, k) (sign a)^k b^(n-k)
    (up; q)_k / (down; q)_k at e.caps, n = ints["n"]: the D_q^n closed
    forms of I-DQ-7/8/9.  up and down name products such as "bx"."""
    def build(e):
        n = e.ints["n"]

        def factors(work):
            w = replace(e, caps=work)
            a, b = sign * w.sym("a"), w.sym("b")
            ratios = _poch_ratios([w.syms(s) for s in up],
                                  [w.syms(s) for s in down], work, TABLE)
            return (a ** k * b ** (n - k) * r for k, r in enumerate(ratios))
        return prefix(e) * _qbinom_sum(n, lambda k: weight(n, k), factors,
                                       e.caps, TABLE)
    return build


_ident(
    id="I-DQ-7",
    description="D_q^n of (ax,bx;q)inf",
    build_lhs=_dq_image(lambda w: w.pochinf([w.syms("ax")])
                        * w.pochinf([w.syms("bx")])),
    # the closed form needs a (-1)^n factor in front (the printed one fails
    # for odd n; cross-checked against dq_pow directly); its q^C(n,2) stays
    # inside the weight, so every term is ordinary and exact at e.caps
    build_rhs=_dq_rhs(lambda e: (-1) ** e.ints["n"] * e.pochinf([e.syms("ax")])
                      * e.pochinf([e.syms("bx") * e.qpow(e.ints["n"])]),
                      lambda n, k: n * (n - 1) // 2 + k * (k - n),
                      down=("ax",)),
    sweep=_range_sweep("n", 4),
)

_ident(
    id="I-DQ-8",
    description="D_q^n of (ax;q)inf/(bx;q)inf",
    build_lhs=_dq_image(lambda w: w.pochinf([w.syms("ax")])
                        * w.pochinf_inv([w.syms("bx")])),
    # the right side divides by reciprocal, so the two sides invert
    # (bx;q)inf by two constructions
    build_rhs=_dq_rhs(lambda e: e.pochinf([e.syms("ax")])
                      / e.pochinf([e.syms("bx")]),
                      lambda n, k: k * (k - 1) // 2, -1, ("bx",), ("ax",)),
    sweep=_range_sweep("n", 4),
)

_ident(
    id="I-DQ-9",
    description="D_q^n of 1/(ax,bx;q)inf",
    build_lhs=_dq_image(lambda w: w.pochinf_inv([w.syms("ax"), w.syms("bx")])),
    build_rhs=_dq_rhs(lambda e: e.pochinf_inv([e.syms("ax"), e.syms("bx")]),
                      lambda n, k: 0, up=("bx",)),
    sweep=_range_sweep("n", 4),
)


# -- Ramanujan q-exponential --------------------------------------------------------


# The factor on the right is qz, not (1-q)z: expanding the left side gives
# sum q^(n^2) z^n / (q;q)_(n-1) = qz R_q(q^2 z), consistent with the n-th
# q-derivative formula at n=1.  tests/test_qfunctions.py pins the failure
# of the (1-q)z variant.
_ident(
    id="I-RQ-DIFFEQ",
    description="difference equation R_q(z) - R_q(qz) = qz R_q(q^2 z)",
    build_lhs=lambda e: rq(e.sym("z")) - rq(e.qpow(1) * e.sym("z")),
    build_rhs=lambda e: e.qpow(1) * e.sym("z") * rq(e.qpow(2) * e.sym("z")),
    qmax=30, var_caps={"z": 10},
)


def _rqdqn_rhs(e):
    n = e.ints["n"]
    a = e.sym("a")
    return a ** n * e.qpow(n * n) * rq(a * e.qpow(2 * n) * e.sym("x"))


_ident(
    id="I-RQ-DQN",
    description="n-th q-derivative of R_q(ax)",
    build_lhs=_dq_image(lambda w: rq(w.syms("ax"))),
    build_rhs=_rqdqn_rhs,
    sweep=_range_sweep("n", 4),
)

_ident(
    id="I-RR1",
    description="Rogers-Ramanujan: R_q(1) = 1/(q,q^4;q^5)inf",
    build_lhs=lambda e: rq(1, e.caps, TABLE),
    build_rhs=lambda e: e.pochinf([e.qpow(1), e.qpow(4)], base=5)
    .reciprocal(),
    qmax=60,
)

_ident(
    id="I-RR2",
    description="Rogers-Ramanujan: R_q(q) = 1/(q^2,q^3;q^5)inf",
    build_lhs=lambda e: rq(e.qpow(1)),
    build_rhs=lambda e: e.pochinf([e.qpow(2), e.qpow(3)], base=5)
    .reciprocal(),
    qmax=60,
)


def garrett_candidates(k: int, qmax: int):
    """Direct-sum oracle for sum q^(n^2+kn)/(q;q)_n plus both candidate
    Garrett expansions ("plain" and "alternating")."""
    e = Env(caps(qmax, TABLE), 0, {}, None)
    lhs = rq_at_power(k, e.caps, TABLE)
    plain = _garrett_rq(e, k)
    return lhs, {"plain": plain, "alternating": -plain if k % 2 else plain}


def _garrett_rhs(e):
    k = e.ints["k"]
    plain = _garrett_rq(e, k)
    return -plain if e.convention == "alternating" and k % 2 else plain


_ident(
    id="I-GARRETT",
    description="Garrett expansion of R_q(q^k) under the measured sign "
                "convention",
    build_lhs=lambda e: rq_at_power(e.ints["k"], e.caps, TABLE),
    build_rhs=_garrett_rhs,
    sweep=lambda cfg, rng: [{"k": k} for k in range(7)],
    qmax=40, uses_garrett=True,
)


# -- operator images and generating functions (T4) -------------------------------------


def _invpoch_rhs(a):
    """R_q(ay)/(ax;q)inf, the image of 1/(ax;q)inf (T4-INVPOCH)."""
    return lambda e: rq(e.syms(a + "y")) * e.pochinf_inv([e.syms(a + "x")])


def _poch_rhs(a):
    """(ax;q)inf 0phi2(-; ax, 0; q, qay), the image of (ax;q)inf (T4-POCH)."""
    return lambda e: e.pochinf([e.syms(a + "x")]) \
        * phi([], [e.syms(a + "x"), 0], e.qpow(1) * e.syms(a + "y"),
              e.caps, TABLE)


def _ratio_rhs(u, v, a=lambda e: e.sym("a")):
    """(au;q)inf/(u;q)inf 1phi2(a; au, 0; q, qv), the image of
    (az;q)inf/(z;q)inf under R(yD_q) in z (T4-RATIO: u = z, v = y)."""
    def build(e):
        a_, us = a(e), e.syms(u)
        return e.pochinf([a_ * us]) * e.pochinf_inv([us]) \
            * phi([a_], [a_ * us, 0], e.qpow(1) * e.syms(v), e.caps, TABLE)
    return build


def _ratio_rq_rhs(a_, b_, kernel=_rq_kernel):
    """R(yD_q){(ax;q)inf/(bx;q)inf} as an R_q-weighted sum (T4-BY1-RQ):
    (ax;q)inf/(bx;q)inf sum_k q^(k(3k-1)/2) (bx;q)_k (-ay)^k
    R_q(q^(2k)by) / ((ax;q)_k (q;q)_k), with R_q(q^m by) = kernel(e, m, by)."""
    def build(e):
        a, b, x, y = e.syms(a_), e.syms(b_), e.sym("x"), e.sym("y")
        return e.pochinf([a * x]) * e.pochinf_inv([b * x]) * _poch_sum(
            e, -(a * y), lambda k: k * (3 * k - 1) // 2,
            lambda k: kernel(e, 2 * k, b * y), [b * x], [a * x])
    return build


def _rq_sum_rhs(a_, b_, kernel=_rq_kernel):
    """R(yD_q){1/(ax,bx;q)inf} as an R_q-weighted sum (T4-2PROD-RQ):
    1/(ax,bx;q)inf sum_i q^(i^2) (bx;q)_i (ay)^i R_q(q^(2i)by) / (q;q)_i,
    with R_q(q^m by) = kernel(e, m, by)."""
    def build(e):
        a, b, x, y = e.syms(a_), e.syms(b_), e.sym("x"), e.sym("y")
        return e.pochinf_inv([a * x, b * x]) * _poch_sum(
            e, a * y, lambda i: i * i, lambda i: kernel(e, 2 * i, b * y),
            [b * x])
    return build


def _sw_star_coeff(e, n):
    """S*_n(x, y) / (q;q)_n at the case's values of x and y."""
    return _gauss_form(n, e.caps, TABLE, e.base("x"), e.base("y"),
                       lambda k: k * k) * e.qfact_inv(n)


def _sw_star_times(u, v, weight):
    """Coefficient S*_n(x, y) P_n / (q;q)_n of the sums of S*_n against a
    second Gaussian form P_n = sum_k [n k]_q q^weight(n, k) u^(n-k) v^k,
    with u and v signed names read through Env.base ("-a" is -a): r_n(a, b)
    is ("a", "b", 0), S*_n(w, z) is ("w", "z", k^2).  Every weight is >= 0,
    so nothing is widened."""
    def coeff(e, n):
        return _sw_star_coeff(e, n) * _gauss_form(
            n, e.caps, TABLE, e.base(u), e.base(v), lambda k: weight(n, k))
    return coeff


# R(yD_q) images shared by an R_q-weighted form and its Garrett form
_ratio_image = _rr_image(
    lambda w: w.pochinf([w.syms("ax")]) * w.pochinf_inv([w.syms("bx")]))
_two_inv_image = _rr_image(
    lambda w: w.pochinf_inv([w.syms("ax"), w.syms("bx")]))
# case generation of the by = 1 Garrett forms and of the Rogers formulas
_BY1 = dict(params=Params(("y",), inverse="b"), uses_garrett=True)
_TS = dict(params=Params(("t", "s"), distinct=True))

_ident(
    id="T4-XN",
    description="R(yD_q){x^n} equals the bivariate Stieltjes-Wigert "
                "polynomial",
    build_lhs=lambda e: sw_star_op(e.ints["n"], e.caps, TABLE),
    build_rhs=lambda e: sw_star(e.ints["n"], e.caps, TABLE),
    sweep=_range_sweep("n", 10),
)

_ident(
    id="T4-INVPOCH",
    description="R(yD_q){1/(ax;q)inf} = R_q(ay)/(ax;q)inf",
    build_lhs=_rr_image(lambda w: w.pochinf_inv([w.syms("ax")])),
    build_rhs=_invpoch_rhs("a"),
)

_ident(
    id="T4-GF",
    description="sum S*_n(x,y) z^n/(q;q)_n = R_q(zy)/(zx;q)inf",
    build_lhs=_gf_lhs(_sw_star_coeff, "z"),
    build_rhs=_invpoch_rhs("z"),
    window=("z",),
)

_ident(
    id="T4-POCH",
    description="R(yD_q){(ax;q)inf} = (ax;q)inf 0phi2(-; ax,0; q, qay)",
    build_lhs=_rr_image(lambda w: w.pochinf([w.syms("ax")])),
    build_rhs=_poch_rhs("a"),
)

_ident(
    id="T4-ALTGF",
    description="alternating sum of S*_n(x,y) z^n/(q;q)_n via 0phi2",
    build_lhs=_gf_lhs(lambda e, n: (-1) ** n * e.qpow(n * (n - 1) // 2)
                      * _sw_star_coeff(e, n), "z"),
    build_rhs=_poch_rhs("z"),
    window=("z",),
)

_ident(
    id="T4-RATIO",
    description="R(yD_q){(az;q)inf/(z;q)inf} via 1phi2",
    build_lhs=_rr_image(lambda w: w.pochinf([w.syms("az")])
                        * w.pochinf_inv([w.sym("z")]), x="z"),
    build_rhs=_ratio_rhs("z", "y"),
)

_ident(
    id="T4-BY1-RQ",
    description="R(yD_q){(ax;q)inf/(bx;q)inf} as an R_q-weighted sum",
    build_lhs=_ratio_image,
    build_rhs=_ratio_rq_rhs("a", "b"),
)

_ident(
    id="T4-BY1",
    description="by=1 Garrett form of R(yD_q){(ax;q)inf/(bx;q)inf}",
    build_lhs=_bind_late(_ratio_image, _BY1_BOUNDS),
    build_rhs=_bind_late(_ratio_rq_rhs("a", "b", _garrett_kernel),
                         _BY1_BOUNDS),
    **_BY1,
)

# 1phi2 argument is qzy (each D_q applied to a function of zx carries a
# factor z); with qy the right side already fails on the z^0 slice
_ident(
    id="T4-SRIAGA",
    description="Srivastava-Agarwal type representation of S*_n(x,y)",
    build_lhs=_gf_lhs(_sw_star_coeff, "z", up=("a",)),
    build_rhs=_ratio_rhs("zx", "zy"),
    window=("z",),
)

_ident(
    id="T4-SRIAGA-YZ1",
    description="yz=1 Garrett form of the Srivastava-Agarwal representation",
    build_lhs=_bind_late(_gf_lhs(_sw_star_coeff, "z", _beside_x, ("a",)),
                         _YZ1_BOUNDS),
    build_rhs=_bind_late(_ratio_rq_rhs("az", "z", _garrett_kernel),
                         _YZ1_BOUNDS),
    params=Params(("z",), inverse="y"),
    uses_garrett=True,
)

_ident(
    id="T4-2PROD-RQ",
    description="R(yD_q){1/(ax,bx;q)inf} as an R_q-weighted sum",
    build_lhs=_two_inv_image,
    build_rhs=_rq_sum_rhs("a", "b"),
)

_ident(
    id="T4-2PROD",
    description="by=1 Garrett form of R(yD_q){1/(ax,bx;q)inf}",
    build_lhs=_bind_late(_two_inv_image, _BY1_BOUNDS),
    build_rhs=_bind_late(_rq_sum_rhs("a", "b", _garrett_kernel),
                         _BY1_BOUNDS),
    **_BY1,
)

_ident(
    id="T4-RSGF",
    description="mixed generating function with Rogers-Szego polynomials",
    build_lhs=_gf_lhs(_sw_star_times("a", "b", lambda n, k: 0), "z"),
    build_rhs=_rq_sum_rhs("az", "bz"),
    window=("z",), deg=6, qmax=20,
)

_ident(
    id="T4-RSGF-BZY1",
    description="bzy=1 Garrett form of the mixed Rogers-Szego generating "
                "function",
    build_lhs=_bind_late(_gf_lhs(_sw_star_times("a", "b", lambda n, k: 0),
                                 "z", _beside_x), _BZY1_BOUNDS),
    build_rhs=_bind_late(_rq_sum_rhs("az", "bz", _garrett_kernel),
                         _BZY1_BOUNDS),
    params=Params(("z", "y"), inverse="b"),
    uses_garrett=True,
)


def _t4abgf_rhs(e):
    a, b = e.sym("a"), e.sym("b")
    x, y, z = e.sym("x"), e.sym("y"), e.sym("z")

    def terms():
        prod = e.one()  # prod_{j<k} (a - b q^j)  ==  a^k (b/a; q)_k
        zx = _poch_ratios([z * x], [], e.caps, TABLE)  # (zx;q)_k
        for k, zx_k in zip(range(e.caps.qmax + 1), zx):
            if prod.is_zero():
                return
            yield prod * zx_k * rq(e.qpow(k) * z * y) * e.qfact_inv(k)
            prod = prod * (a - b * e.qpow(k))
    return e.pochinf([a]) * e.pochinf_inv([z * x, b]) * sum_series(terms())


# both sides per case: a and b are bound to q-monomials c*q^d, which bound
# the a-degree by qmax/d, not by a cap
_ident(
    id="T4-ABGF",
    description="(a;q)_n/(b;q)_n-weighted generating function of S*_n "
                "(q-monomial bindings)",
    build_lhs=_gf_lhs(_sw_star_coeff, "z", up=("a",), down=("b",)),
    build_rhs=_t4abgf_rhs,
    window=("z",),
    params=Params(("a", "b"), monomial=True),
)


# -- Mehler formulas (T5) ---------------------------------------------------------------


def _mehler_rhs(e):
    t, w_, x, y, z = (e.sym(v) for v in "twxyz")
    return e.pochinf_inv([t * w_ * x]) * _poch_sum(
        e, t * y * z, lambda k: 2 * k * k,
        lambda k: rq(t * z * e.qpow(2 * k) * x)
        * rq(t * y * e.qpow(2 * k) * w_),
        [t * w_ * x])


def _opprod_rhs(a_, b_):
    """R(yD_q){(ax,bx;q)inf} as a 0phi2-weighted sum (T5-OPPROD):
    (ax,bx;q)inf sum_k q^(3C(k,2)) (-qay)^k
    0phi2(-; bq^k x, 0; q, q^(2k+1) by) / ((ax;q)_k (bx;q)_k (q;q)_k)."""
    # sign convention: (-qay)^k with 0phi2 argument +q^(2k+1)by; the
    # variant with (qay)^k and -q^(2k+1)by is the same series at -y and
    # does not match the operator image (odd-n sign from the D_q^n image
    # of (ax;q)inf)
    def build(e):
        a, b, x, y = e.syms(a_), e.syms(b_), e.sym("x"), e.sym("y")
        return e.pochinf([a * x]) * e.pochinf([b * x]) * _poch_sum(
            e, -(e.qpow(1) * a * y), lambda k: 3 * (k * (k - 1) // 2),
            lambda k: phi([], [b * e.qpow(k) * x, 0],
                          e.qpow(2 * k + 1) * b * y, e.caps, TABLE),
            down=[a * x, b * x])
    return build


_ident(
    id="T5-MEHLER",
    description="Mehler-type bilinear generating function for S*_n",
    build_lhs=_gf_lhs(_sw_star_times("w", "z", lambda n, k: k * k), "t"),
    build_rhs=_mehler_rhs,
    window=("t",), qmax=20, deg=6,
)

_ident(
    id="T5-OPPROD",
    description="R(yD_q){(ax,bx;q)inf} as a 0phi2-weighted sum",
    build_lhs=_rr_image(lambda w: w.pochinf([w.syms("ax")])
                        * w.pochinf([w.syms("bx")])),
    build_rhs=_opprod_rhs("a", "b"),
    qmax=20, deg=6,
)

_ident(
    id="T5-ALTMEHLER",
    description="alternating Mehler-type formula with q^(-n)-shifted second "
                "family",
    # (-1)^n q^C(n,2) S*_n(a, q^(-n) b), with the sign in the bases and
    # q^C(n,2) in the weight
    build_lhs=_gf_lhs(_sw_star_times(
        "-a", "-b", lambda n, k: n * (n - 1) // 2 + k * (k - n)), "z"),
    build_rhs=_opprod_rhs("az", "bz"),
    window=("z",), qmax=20, deg=6,
)


# -- Rogers formulas (T6) -----------------------------------------------------------------


# T4-RATIO with a -> t/s, z -> sx, y -> sy.  The 1phi2 argument is qsy,
# not qy: the operator differentiates x while the operand is a function of
# sx, so every D_q carries a factor s.  The right side stays per case: it
# reads t/s as one value, which is no formal series in s
_ident(
    id="T6-ROGERS-ALT",
    description="alternating Rogers-type double generating function via "
                "1phi2",
    build_lhs=_bind_late(_gf_lhs(_sw_star_times(
        "s", "-t", lambda n, k: k * (k - 1) // 2)), _TS_BOUNDS),
    build_rhs=_ratio_rhs("sx", "sy", a=lambda e: constant(
        e.bindings["t"] / e.bindings["s"], TABLE, e.caps)),
    window=("x", "y"), qmax=20, deg=6,
    **_TS,
)

# The right side stays per case: t and s enter beside x and y, so the sum
# order does not bound their degree in it
_ident(
    id="T6-ROGERS",
    description="Rogers-type double generating function as an R_q-weighted "
                "sum",
    build_lhs=_bind_late(_gf_lhs(_sw_star_times("s", "t", lambda n, k: 0)),
                         _TS_BOUNDS),
    build_rhs=_rq_sum_rhs("t", "s"),
    window=("x", "y"), qmax=20, deg=6,
    **_TS,
)


BY_ID = {spec.id: spec for spec in REGISTRY}
