"""Exact arithmetic in truncated multivariate power series over Q.

A Series lives in the ring Q[[q, x, y, ...]] reduced modulo the monomial
ideal generated by q^(qmax+1) and v^(cap_v+1) for every non-q variable v,
qmax >= 0.  Every series is ordinary: no variable, q included, carries a
negative exponent, and every constructor refuses one.  The two Laurent
prefactors of the identities, q^(-C(m,2)) in the Garrett forms and the
weight q^(k(k-n)) of the q-Leibniz rule, are applied to ordinary series
divisible by them, as the exact row map divide_q_power.

A Series is stored row-major, the recursive dense layout: one dense q-row
of numerators per variable part, rows[vexps][i] the numerator at
q^i vexps.  Every operation works a row at a time: the caps
are checked once per row, the window top slices each row, a sum adds rows
at an offset, a product by one term places whole rows, each shifted and
scaled by it, substitute binds a name to r q^d or dilates it to r q^d
times itself by shifting and scaling each row, and D_q maps the row at
x^k to itself minus itself shifted up by k powers of q.
This module alone reads or writes rows and den.  Every builder elsewhere
places its int rows through from_rows, the one row constructor, which cuts
each row at the window top before placing it; D_q (dq), the degree
window (degree_window), the quotient by q^s (divide_q_power) and the
product by binomials 1 - s q^k (times_binomials, which builds every
q-Pochhammer product) are row maps here too, and other modules see a Series only through its operations.

Coefficients are exact rationals, stored as one integer polynomial over one
denominator (the form of FLINT's fmpq_poly): int numerators and a den >= 1
with gcd(den, *numerators) == 1, and den == 1 for an integral or zero
series.  Equal values therefore have equal representations, and every
kernel operation runs on ints: a sum scales its operands to the lcm of
their denominators, a product multiplies them, D_q keeps its operand's, a
reciprocal scales its recurrence by powers of the constant numerator c0 so
that each step is an integer step, and each result divides out one gcd,
taken only when its den is not 1.  Values leave the kernel through coeff,
monomials and rendering, as an int when integral and a Fraction in lowest
terms otherwise; every result is exact modulo its own stated ideal.

A product takes its path by shape.  A zero operand gives zero.  A
one-term operand (a scalar, q^k, z^n) shifts and scales each row of the
other operand into an output row of its own.  Every other product is a
Kronecker substitution in q (FLINT's fmpz_poly_mul_KS): each row is
packed once into an int with a signed slot per q-power, each pair of rows
that fits the variable caps is multiplied as ints, the products add packed
per output row, and an output row is its slots, read once below the
window top.  A slot holds bits(max|a|) + bits(max|b|) + bits(m) + 1 bits,
m the smaller operand's stored length, since an output slot sums at most
one product per term of the smaller operand and a stored length is at
least its term count.  Slots of 1, 2, 4 and 8 bytes move through an
array; a slot of 9 to 16 bytes moves in bulk as an int64 and a sign fill
while its entries fit in 64 bits, and per slot otherwise.  Both paths
keep to the caps and the window top, so a product ends by dropping
trailing zeros and cancelled rows, with no second pass of _build.

Both renderings, text and to_json_dict, read one column walk: the rows
are sorted once by variable part and read q-index by q-index, skipping
zero entries and the rows that have ended, so no tuple is built or sorted
per term.

Every sum of series is one n-ary sum, sum_series: it reads its parts once
as a stream and adds their rows into one dict, so its result equals the
left fold of + in value, window and stored form.  __add__ is its two-operand case.  Two
series are compared by equality of their stored forms at the meet of
their windows, and the least differing monomial is sought only after a
mismatch.
"""

from __future__ import annotations

import json
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, gt, mul, neg, sub
from typing import Iterable, NamedTuple, Optional, Sequence, Union


class VarTableMismatch(ValueError):
    """Two series over different variable tables were combined."""


class DivisionByNonUnit(ZeroDivisionError):
    """Divisor has zero coefficient at the all-zero monomial."""


class VariableNotFound(KeyError):
    """A variable name is absent from the table (or is the reserved q)."""


DEFAULT_NAMES = ("q", "x", "y", "z", "t", "s", "w", "a", "b")

Scalar = Union[int, Fraction]

# raised by every constructor and map that would break that invariant
_NEGATIVE_VEXP = "non-q variables cannot carry negative exponents"
# raised by from_rows, through which every other constructor places a
# q-exponent: every series is ordinary
_NEGATIVE_QEXP = "q cannot carry negative exponents"

# byte width of a packed q-slot -> the array format that moves it in C.
# Packed ints are read little-endian, so the array paths (native order)
# serve little-endian hosts only; other hosts pack per slot.
_SLOT_FORMAT = ({1: "b", 2: "h", 4: "i", 8: "q"} if sys.byteorder == "little"
                else {})
# the widest slot that moves as an int64 and its sign fill: a slot of 9 to
# _WIDE bytes is packed and read in bulk while its entries fit in 64 bits,
# a wider one per slot
_WIDE = 16 if _SLOT_FORMAT else 0
# the top byte of an int64 -> the byte that extends its sign
_SIGN_FILL = bytes(255 if b & 128 else 0 for b in range(256))


class VarTable:
    """Ordered table of variable names; q is reserved and always index 0."""

    __slots__ = ("names", "_index", "zero_vexps")

    def __init__(self, names: Iterable[str] = DEFAULT_NAMES):
        names = tuple(names)
        if not names or names[0] != "q":
            raise ValueError("variable table must start with the reserved variable q")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self.zero_vexps = (0,) * (len(names) - 1)

    @property
    def nvars(self) -> int:
        """Number of non-q variables."""
        return len(self.names) - 1

    def slot(self, name: str) -> int:
        """Index of a non-q variable into exponent vectors."""
        i = self._index.get(name)
        if i is None or i == 0:
            raise VariableNotFound(name)
        return i - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarTable{self.names}"


DEFAULT_TABLE = VarTable()


class Monomial(NamedTuple):
    """q^qexp * prod v_i^vexps[i]; qexp and vexps are >= 0 in a Series."""

    qexp: int
    vexps: tuple[int, ...]


@dataclass(frozen=True)
class TruncationSpec:
    """Caps of the ideal (q^(qmax+1), v^(cap+1), ...), all >= 0."""

    qmax: int
    vcaps: tuple[int, ...]

    def __post_init__(self):
        if self.qmax < 0:
            raise ValueError("qmax must be non-negative")
        if any(c < 0 for c in self.vcaps):
            raise ValueError("variable caps must be non-negative")

    def meet(self, other: "TruncationSpec") -> "TruncationSpec":
        if self == other:
            return self
        if len(self.vcaps) != len(other.vcaps):
            raise VarTableMismatch("caps over different variable tables")
        return TruncationSpec(
            min(self.qmax, other.qmax),
            tuple(min(a, b) for a, b in zip(self.vcaps, other.vcaps)),
        )

    def admits(self, vexps: tuple[int, ...]) -> bool:
        """True iff the variable part vexps is within every variable cap."""
        return not any(map(gt, vexps, self.vcaps))


def caps(qmax: int, table: VarTable = DEFAULT_TABLE, default: int = 8,
         **per_var: int) -> TruncationSpec:
    """Convenience TruncationSpec builder with per-variable overrides."""
    vcaps = [default] * table.nvars
    for name, cap in per_var.items():
        vcaps[table.slot(name)] = cap
    return TruncationSpec(qmax, tuple(vcaps))


def _as_coeff(c: Scalar):
    # an integral input scalar becomes a plain int, so that the all-int
    # paths see no Fraction; both expose numerator/denominator
    if isinstance(c, (int, Fraction)):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficients must be int or Fraction, got {type(c)!r}")


def _value(n: int, den: int):
    """The rational n/den as an int when integral, else as a Fraction."""
    if den == 1:
        return n
    c = Fraction(n, den)
    return c.numerator if c.denominator == 1 else c


def _trim(row, stop: int) -> tuple:
    """The entries of row below index stop, without trailing zeros."""
    n = min(len(row), stop)
    while n and not row[n - 1]:
        n -= 1
    # a tuple kept whole is returned as it is, a list kept whole copied once
    return tuple(row if n == len(row) else row[:n])


def _pack_wide(row, kb: int):
    """The little-endian bytes of row in signed kb-byte slots, a width no
    array format moves.

    A slot of 9 to _WIDE bytes is the entry as an int64 in its low 8
    bytes and the sign fill of that int64 in the rest, each written by
    one strided copy per byte; an entry outside int64 packs per slot."""
    if kb <= _WIDE:
        try:
            a = array("q", row).tobytes()
        except OverflowError:
            pass
        else:
            buf = bytearray(len(row) * kb)
            for j in range(8):
                buf[j::kb] = a[j::8]
            fill = a[7::8].translate(_SIGN_FILL)
            for j in range(8, kb):
                buf[j::kb] = fill
            return buf
    return b"".join(c.to_bytes(kb, "little", signed=True) for c in row)


def _unpack_wide(raw: bytes, kb: int) -> tuple:
    """The signed entries of raw's little-endian kb-byte slots, a width no
    array format moves.

    A slot of 9 to _WIDE bytes is read as the int64 of its low 8 bytes,
    taken by one strided copy per byte, when every higher byte of every
    slot is the sign fill of that int64; otherwise each slot is read whole.
    """
    if kb <= _WIDE:
        low = bytearray(len(raw) // kb * 8)
        for j in range(8):
            low[j::8] = raw[j::kb]
        fill = low[7::8].translate(_SIGN_FILL)
        if all(raw[j::kb] == fill for j in range(8, kb)):
            return tuple(memoryview(low).cast("q"))
    return tuple(int.from_bytes(raw[i:i + kb], "little", signed=True)
                 for i in range(0, len(raw), kb))


def _add_at(acc: dict, key, off: int, row, scale=1):
    """Add scale * row into the row acc[key] from index off, growing it as
    needed.  A tuple is stored as it is and copied before the first add
    into it."""
    end = off + len(row)
    if scale != 1:
        row = map(mul, repeat(scale), row)
    d = acc.get(key)
    if d is None:
        if off or type(row) is not tuple:
            d = acc[key] = [0] * off
            d += row
        else:
            acc[key] = row
        return
    if type(d) is tuple:
        d = acc[key] = list(d)
    if len(d) < end:
        d += [0] * (end - len(d))
    d[off:end] = map(add, d[off:end], row)


class Series:
    """Immutable truncated series; all operations are pure functions.

    rows maps vexps -> a tuple of int numerators, the entry at index i
    being the numerator at q^i vexps; the coefficient there is numerator /
    den.  Invariants: no row is empty and every row ends in a nonzero
    entry; every row is inside the variable caps and at or below the top,
    i <= caps.qmax; den >= 1 and gcd(den, *numerators) == 1, so den == 1
    for an integral or zero series.  Equal values have equal (den, rows).
    """

    __slots__ = ("table", "rows", "caps", "den")

    def __init__(self, table, rows, caps_, den=1):
        # internal: use make_series / helpers, not this constructor
        self.table = table
        self.rows = rows
        self.caps = caps_
        self.den = den

    # -- construction ------------------------------------------------------

    @staticmethod
    def _build(table: VarTable, caps_: TruncationSpec, rows: dict,
               den: int = 1) -> "Series":
        """Normalize raw rows (vexps -> integer numerators over den indexed
        by the q-exponent, of any length, zeros allowed) into a valid
        Series."""
        stop = caps_.qmax + 1
        admits = caps_.admits
        out = {}
        for ve, r in rows.items():
            if admits(ve):
                r = _trim(r, stop)
                if r:
                    out[ve] = r
        return Series._reduced(table, caps_, out, den)

    @staticmethod
    def _reduced(table: VarTable, caps_: TruncationSpec, rows: dict,
                 den: int = 1) -> "Series":
        """Series of valid rows over den inside caps_, with
        gcd(den, *numerators) divided out."""
        if not rows:
            return Series(table, {}, caps_)
        if den != 1:
            g = gcd(den, *chain.from_iterable(rows.values()))
            if g != 1:
                rows = {ve: tuple(n // g for n in r) for ve, r in rows.items()}
                den //= g
        return Series(table, rows, caps_, den)

    def _same_table(self, other: "Series"):
        if self.table is not other.table and self.table != other.table:
            raise VarTableMismatch(
                f"{self.table!r} vs {other.table!r}")

    # -- predicates / accessors --------------------------------------------

    def is_zero(self) -> bool:
        return not self.rows

    @property
    def terms(self) -> dict:
        """(qexp, vexps) -> numerator of every nonzero stored entry, built
        anew on each read; the kernel itself reads rows."""
        return {(i, ve): n for ve, r in self.rows.items()
                for i, n in enumerate(r) if n}

    def coeff(self, m: Monomial):
        """Coefficient of a monomial; 0 outside caps."""
        if len(m.vexps) != self.table.nvars:
            raise VarTableMismatch("monomial width does not match table")
        i = m.qexp
        if i < 0 or i > self.caps.qmax or not self.caps.admits(m.vexps):
            return 0
        r = self.rows.get(m.vexps, ())
        n = r[i] if i < len(r) else 0
        return _value(n, self.den) if n else 0

    def monomials(self):
        """Iterate (Monomial, coeff) over the stored terms."""
        den = self.den
        for ve, r in self.rows.items():
            for i, n in enumerate(r):
                if n:
                    yield Monomial(i, ve), n if den == 1 else _value(n, den)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> Optional["Series"]:
        if isinstance(other, Series):
            return other
        if isinstance(other, (int, Fraction)):
            return constant(other, self.table, self.caps)
        return None

    def __add__(self, other) -> "Series":
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        # the rows of the first operand are taken whole, the second's added
        return sum_series((self, g) if len(self.rows) >= len(g.rows)
                          else (g, self))

    __radd__ = __add__

    def __neg__(self) -> "Series":
        rows = {ve: tuple(map(neg, r)) for ve, r in self.rows.items()}
        return Series(self.table, rows, self.caps, self.den)

    def __sub__(self, other) -> "Series":
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self + (-g)

    def __rsub__(self, other) -> "Series":
        return (-self) + other

    def __mul__(self, other) -> "Series":
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        self._same_table(g)
        # the product is known through the narrower window
        mcaps = self.caps.meet(g.caps)
        qmax, vcaps = mcaps.qmax, mcaps.vcaps
        if not (self.rows and g.rows):
            rows = {}
        elif g._is_term():
            rows = self._term_product(g, qmax, vcaps)
        elif self._is_term():
            rows = g._term_product(self, qmax, vcaps)
        else:
            rows = self._packed_product(g, qmax, vcaps)
        # both paths keep to the caps and the top: only trailing zeros and
        # cancelled rows remain to drop
        out = {}
        for ve, r in rows.items():
            if not (r and r[-1]):
                r = _trim(r, len(r))
                if not r:
                    continue
            out[ve] = tuple(r)
        return Series._reduced(self.table, mcaps, out, self.den * g.den)

    __rmul__ = __mul__

    def _is_term(self) -> bool:
        """True iff one entry is stored: a row whose others are all 0."""
        if len(self.rows) != 1:
            return False
        r, = self.rows.values()
        return r.count(0) == len(r) - 1

    def _term_product(self, g: "Series", qmax: int, vcaps: tuple) -> dict:
        """Rows of self * g through the window qmax inside vcaps,
        for g of one term: each row of self, shifted and scaled by it, is
        an output row of its own, placed as a tuple in one step."""
        (vb, rb), = g.rows.items()
        qb, cb = len(rb) - 1, rb[-1]  # rows end in their nonzero entry
        if qb > qmax:
            return {}
        pad = (0,) * qb
        # a term at the zero variable part leaves self's parts where they
        # are, inside vcaps unless the meet narrowed self's caps
        moved = any(vb)
        narrowed = self.caps.vcaps != vcaps
        acc = {}
        for va, ra in self.rows.items():
            ve = tuple(map(add, va, vb)) if moved else va
            if (moved or narrowed) and any(map(gt, ve, vcaps)):
                continue
            seg = ra[:qmax + 1 - qb]
            if seg:
                acc[ve] = pad + (seg if cb == 1 else
                                 tuple(map(mul, repeat(cb), seg)))
        return acc

    def _packed_product(self, g: "Series", qmax: int, vcaps: tuple) -> dict:
        """Rows of self * g through the window qmax inside vcaps,
        by Kronecker substitution in q.

        Each q-row of an operand becomes one int with a signed k-bit slot
        per q-power, so one int product convolves a pair of rows.  An
        output slot sums at most one product per term of the smaller
        operand, so k bounds it whichever row pairs add into its row; m,
        the smaller operand's stored length, is at least its term count.
        """
        n = qmax + 1
        m = min(sum(map(len, self.rows.values())),
                sum(map(len, g.rows.values())))
        bits = (max(max(map(abs, r)) for r in self.rows.values()).bit_length()
                + max(max(map(abs, r)) for r in g.rows.values()).bit_length()
                + m.bit_length() + 1)
        kb = -(-bits // 8)
        if kb <= 8:
            kb = 1 << (kb - 1).bit_length()
        fmt = _SLOT_FORMAT.get(kb)
        k = 8 * kb
        # 2^(k-1) in every slot: (u ^ bias) - bias reads the two's
        # complement slots of u as signed digits, and back
        bias = ((1 << k * n) - 1) // ((1 << k) - 1) << (k - 1)
        ra = self._packed_rows(n, kb, fmt, bias)
        rb = g._packed_rows(n, kb, fmt, bias)
        acc: dict = {}
        for va, xa in ra.items():
            for vb, xb in rb.items():
                ve = tuple(map(add, va, vb))
                if not any(map(gt, ve, vcaps)):
                    acc[ve] = acc.get(ve, 0) + xa * xb
        # the mask ends each row at the window top, so neither the slots
        # above it nor a borrow out of the top slot is read
        low = (1 << k * n) - 1
        rows = {}
        for ve, x in acc.items():
            x = ((x + bias) & low) ^ bias
            # the slots up to the highest nonzero one
            raw = x.to_bytes(-(-x.bit_length() // k) * kb, "little")
            rows[ve] = tuple(memoryview(raw).cast(fmt)) if fmt \
                else _unpack_wide(raw, kb)
        return rows

    def _packed_rows(self, n: int, kb: int, fmt: Optional[str],
                     bias: int) -> dict:
        """vexps -> the q-row below q^n packed in kb-byte slots, through
        an array of format fmt when there is one."""
        packed = {}
        for ve, r in self.rows.items():
            r = r[:n]
            row = array(fmt, r) if fmt else _pack_wide(r, kb)
            packed[ve] = (int.from_bytes(row, "little") ^ bias) - bias
        return packed

    def __pow__(self, n: int) -> "Series":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        result = one(self.table, self.caps)
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def reciprocal(self) -> "Series":
        """Multiplicative inverse modulo the truncation ideal, in ints.

        For the divisor G/d (G_u[j] its numerator at q^j v^u,
        c0 = G_0[0], d = den) solves, for reachable v by |v| and m = 0..width,
        the integers H_v[m] = c0^(m+|v|+1) h_v[m] / d of the inverse h:
        H_v[m] = [v = 0 = m] - sum c0^(j+|u|-1) G_u[j] H_(v-u)[m-j] over every
        other term, so j + |u| >= 1.  With T the top m + |v|, row v at q^m is
        sign d H_v[m] c0^(T-m-|v|) over |c0|^(T+1), sign that of c0^(T+1).
        """
        zv = self.table.zero_vexps
        c0 = self.rows.get(zv, (0,))[0]
        if not c0:
            raise DivisionByNonUnit("constant term is zero")
        cps = self.caps
        width = cps.qmax
        others = sorted((j, u, c0 ** (j + sum(u) - 1) * c)
                        for u, row in self.rows.items()
                        for j, c in enumerate(row) if c and (j or u != zv))
        order, seen = [zv], {zv}
        for v in order:
            for _, u, _ in others:
                w = tuple(map(add, v, u))
                if w not in seen and cps.admits(w):
                    seen.add(w)
                    order.append(w)
        order.sort(key=sum)
        top = width + sum(order[-1])
        sd = -self.den if c0 < 0 and top % 2 == 0 else self.den
        scale = [sd * c0 ** (top - k) for k in range(top + 1)]  # k = |v| + m
        h: dict = {}
        for v in order:
            hv = h[v] = [0] * (width + 1)
            src = [(j, c, hw) for j, u, c in others
                   if (hw := h.get(tuple(map(sub, v, u)))) is not None]
            for m in range(width + 1):
                acc = 1 if m == 0 and v == zv else 0
                for j, c, hw in src:
                    if j > m:
                        break
                    acc -= c * hw[m - j]
                hv[m] = acc
        rows = {v: tuple(map(mul, hv, scale[sum(v):])) for v, hv in h.items()}
        return Series._build(self.table, cps, rows, abs(c0) ** (top + 1))

    def __truediv__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByNonUnit("division by zero scalar")
            return self * (1 / Fraction(other))
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        self._same_table(g)
        return self * g.reciprocal()

    # -- structure operations ------------------------------------------------

    def truncate(self, new_caps: TruncationSpec) -> "Series":
        """Reduce into the (smaller) ideal given by meet(caps, new_caps)."""
        return Series._build(self.table, self.caps.meet(new_caps), self.rows,
                             self.den)

    def with_caps(self, new_caps: TruncationSpec) -> "Series":
        """Reinterpret this exact representative at different caps.

        Widening the caps is a claim of knowledge the caller must justify
        (e.g. the series is an exact polynomial).
        """
        return Series._build(self.table, new_caps, self.rows, self.den)

    def substitute(self, var, r: Scalar = None,
                   m: Monomial = None) -> "Series":
        """Bind var to r q^d (m = q^d) or dilate it to r q^d var
        (m = q^d var), d >= 0; any other m raises ValueError.

        var may also be a dict {name: (r, m)}, every name mapped in the
        same row pass; a one-name call is the dict {var: (r, m)}.  A bound
        name's slot of each key becomes 0, a dilated one's stays.  The row
        at var^e shifts up by e*d and, for r = rn/rd and E the top exponent
        of var among the rows, is scaled by rn^e rd^(E-e), den by rd^E.
        The caps stay: a dilation moves an unknown term only up in q, and
        a bound name's cap must cover its degree (_bind_late widens it).
        """
        subs = {var: (r, m)} if isinstance(var, str) else var
        den = self.den
        steps = []  # per name (slot, d, bound, the scale at each exponent)
        for name, (r, m) in subs.items():
            if min(m.vexps, default=0) < 0:
                raise ValueError(_NEGATIVE_VEXP)
            i = self.table.slot(name)
            if m.qexp < 0 or any(m.vexps[:i]) or any(m.vexps[i + 1:]) \
                    or m.vexps[i] > 1:
                raise ValueError("substitute maps a name to r q^d or to "
                                 "r q^d times itself, d >= 0")
            r = _as_coeff(r)
            rn, rd = r.numerator, r.denominator
            t = max([ve[i] for ve in self.rows], default=0)
            steps.append((i, m.qexp, not m.vexps[i],
                          [rn ** e * rd ** (t - e) for e in range(t + 1)]))
            den *= rd ** t
        acc: dict = {}
        for ve, row in self.rows.items():
            key, shift, scale = ve, 0, 1
            for i, d, bound, sc in steps:
                e = ve[i]
                scale *= sc[e]
                if e:
                    shift += e * d
                    if bound:
                        key = key[:i] + (0,) + key[i + 1:]
            _add_at(acc, key, shift, row, scale)
        return Series._build(self.table, self.caps, acc, den)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Structural equality of representatives (den and rows)."""
        if isinstance(other, (int, Fraction)):
            other = constant(other, self.table, self.caps)
        if not isinstance(other, Series):
            return NotImplemented
        return (self.table == other.table and self.den == other.den
                and self.rows == other.rows)

    __hash__ = None  # mutable-ish container semantics; not hashable

    # -- rendering -----------------------------------------------------------

    def _columns(self, label):
        """The column walk both renderings read: per q-exponent i up to the
        longest row, (i, [(label(vexps), row), ...]) over the rows that
        reach q^i, in vexps order.  The rows are sorted once; a row leaves
        the list at its end.  The entries are coefficients, 0 where none is
        stored: the numerators when den == 1, else ints and Fractions."""
        den = self.den
        parts = [(label(ve), r if den == 1 else [_value(n, den) for n in r])
                 for ve, r in sorted(self.rows.items())]
        i = 0
        for end in sorted({len(r) for r in self.rows.values()}):
            for i in range(i, end):
                yield i, parts
            i = end
            parts = [p for p in parts if len(p[1]) > end]

    def text(self) -> str:
        """Canonical text rendering; equal series render identically."""
        if not self.rows:
            return "0"
        vnames = self.table.names[1:]

        def label(ve):
            # the variable factors alone, and as they follow a q-power
            vs = "*".join(nm if e == 1 else f"{nm}^{e}"
                          for nm, e in zip(vnames, ve) if e)
            return vs, "*" + vs if vs else ""

        out = []
        for i, parts in self._columns(label):
            qs = "q" if i == 1 else f"q^{i}" if i else ""
            for (vs, after_q), r in parts:
                c = r[i]
                if not c:
                    continue
                if c < 0:
                    out.append(" - ")
                    c = -c
                else:
                    out.append(" + ")
                fs = qs + after_q if qs else vs
                # c is an int or a non-integral Fraction: str reads n or n/d
                out.append(fs if c == 1 and fs else
                           f"{c}*{fs}" if fs else str(c))
        # the first sign reads "-" or nothing
        return ("-" if out[0] == " - " else "") + "".join(out[1:])

    def to_json_dict(self) -> dict:
        """JSON rendering with fields {qFloor, caps, terms}; qFloor, the
        least q-exponent a series may hold, is always 0."""
        names = self.table.names[1:]

        def label(ve):
            return {nm: e for nm, e in zip(names, ve) if e}

        terms = []
        for i, parts in self._columns(label):
            for vexps, r in parts:
                c = r[i]
                if c:
                    terms.append({"coeff": f"{c}/1" if type(c) is int
                                  else f"{c.numerator}/{c.denominator}",
                                  "mono": {"q": i, **vexps}})
        return {
            "qFloor": 0,
            "caps": {"qMax": self.caps.qmax,
                     "varCaps": dict(zip(names, self.caps.vcaps))},
            "terms": terms,
        }

    def json_text(self) -> str:
        return json.dumps(self.to_json_dict())

    def __repr__(self):
        return f"Series({self.text()})"


# -- free constructors --------------------------------------------------------


def make_series(entries: Iterable[tuple[Scalar, Monomial]],
                caps_: TruncationSpec,
                table: VarTable = DEFAULT_TABLE) -> Series:
    """Build a Series from (coefficient, monomial) pairs.

    Duplicates are summed and terms outside the caps are dropped; a
    negative exponent, of q or of any other variable, raises ValueError.
    """
    entries = [(_as_coeff(c), m) for c, m in entries]
    if any(len(m.vexps) != table.nvars for _, m in entries):
        raise VarTableMismatch("monomial width does not match table")
    if any(min(m.vexps, default=0) < 0 for _, m in entries):
        raise ValueError(_NEGATIVE_VEXP)
    return from_rows([(m.vexps, m.qexp, (1,), c) for c, m in entries],
                     caps_, table)


def from_rows(parts: Iterable[tuple[tuple, int, Sequence[int], Scalar]],
              caps_: TruncationSpec, table: VarTable = DEFAULT_TABLE
              ) -> Series:
    """The series sum scale * q^off * row(q) * v^vexps of the parts
    (vexps, off >= 0, int row, int | Fraction scale) at caps_, added over
    the lcm of the scales' denominators: the one constructor builders place
    int rows through.  Each row is cut at the window top before it is
    placed, so a part wholly above the top costs nothing; _build drops the
    parts outside a variable cap.  A negative off raises ValueError."""
    stop = caps_.qmax + 1
    kept = [(ve, off, row[:stop - off], scale)
            for ve, off, row, scale in parts if off < stop]
    if any(p[1] < 0 for p in kept):
        raise ValueError(_NEGATIVE_QEXP)
    den = lcm(*[p[3].denominator for p in kept])
    rows: dict = {}
    for ve, off, row, scale in kept:
        if row:
            _add_at(rows, ve, off, row,
                    scale.numerator * (den // scale.denominator))
    return Series._build(table, caps_, rows, den)


def sum_series(parts: Iterable[Series]) -> Series:
    """The sum of one or more series, equal in value, window and form to
    the left fold of +: the window is the meet of the parts' caps.

    Reads each part once as it arrives, holding no list of parts.  The
    rows add into one dict over the lcm of the dens seen so far.
    """
    parts = iter(parts)
    first = next(parts, None)
    if first is None:
        raise ValueError("sum_series needs at least one part")
    table, mcaps, den = first.table, first.caps, first.den
    acc = dict(first.rows)  # a part's row is copied only when added into
    for p in parts:
        first._same_table(p)
        if p.caps is not mcaps and p.caps != mcaps:
            mcaps = mcaps.meet(p.caps)
        scale = 1
        if p.den != den:
            d = lcm(den, p.den)
            if d != den:
                up = d // den
                acc = {ve: [c * up for c in r] for ve, r in acc.items()}
                den = d
            scale = den // p.den
        for ve, r in p.rows.items():
            _add_at(acc, ve, 0, r, scale)
    # _build drops trailing zeros, and what lies outside a narrower meet
    return Series._build(table, mcaps, acc, den)


def zero(table: VarTable = DEFAULT_TABLE,
         caps_: TruncationSpec = None) -> Series:
    caps_ = caps_ if caps_ is not None else caps(25, table)
    return Series(table, {}, caps_)


def one(table: VarTable = DEFAULT_TABLE,
        caps_: TruncationSpec = None) -> Series:
    return constant(1, table, caps_)


def constant(c: Scalar, table: VarTable = DEFAULT_TABLE,
             caps_: TruncationSpec = None) -> Series:
    caps_ = caps_ if caps_ is not None else caps(25, table)
    c = _as_coeff(c)
    if not c:
        return zero(table, caps_)
    return Series(table, {table.zero_vexps: (c.numerator,)}, caps_,
                  c.denominator)


def variable(name: str, table: VarTable = DEFAULT_TABLE,
             caps_: TruncationSpec = None) -> Series:
    caps_ = caps_ if caps_ is not None else caps(25, table)
    return monomial_series(1, 0, {name: 1}, table, caps_)


def q_power(e: int, table: VarTable = DEFAULT_TABLE,
            caps_: TruncationSpec = None) -> Series:
    """The monomial q**e, e >= 0."""
    caps_ = caps_ if caps_ is not None else caps(25, table)
    return monomial_series(1, e, {}, table, caps_)


def monomial_series(c: Scalar, qexp: int, vexps: dict,
                    table: VarTable = DEFAULT_TABLE,
                    caps_: TruncationSpec = None) -> Series:
    """Single-term series c * q**qexp * prod(v**e)."""
    caps_ = caps_ if caps_ is not None else caps(25, table)
    ve = [0] * table.nvars
    for name, e in vexps.items():
        if e < 0:
            raise ValueError(_NEGATIVE_VEXP)
        ve[table.slot(name)] = e
    return from_rows([(tuple(ve), qexp, (1,), _as_coeff(c))], caps_, table)


def mono(qexp: int = 0, vexps: dict = None,
         table: VarTable = DEFAULT_TABLE) -> Monomial:
    """Monomial helper: mono(3, {'x': 2}) is q^3*x^2."""
    ve = [0] * table.nvars
    for name, e in (vexps or {}).items():
        ve[table.slot(name)] = e
    return Monomial(qexp, tuple(ve))


# -- row maps ---------------------------------------------------------------------


def dq(f: Series, x: str) -> Series:
    """q-derivative of f with respect to x: the row at x^k becomes itself
    minus itself shifted up by k powers of q, at x^(k-1)."""
    i = f.table.slot(x)
    rows: dict = {}
    for ve, r in f.rows.items():
        k = ve[i]
        if k == 0:
            continue
        nv = list(ve)
        nv[i] = k - 1
        d = list(r)
        d += [0] * k
        d[k:] = map(sub, d[k:], r)
        rows[tuple(nv)] = d
    return Series._build(f.table, f.caps, rows, f.den)


def divide_q_power(f: Series, s: int) -> Series:
    """f / q^s for 0 <= s <= f.caps.qmax: every row shifts down by s, and
    the window top falls by s.  Raises ValueError when f has a nonzero
    entry below q^s, so the quotient would not be an ordinary series."""
    if not 0 <= s <= f.caps.qmax:
        raise ValueError(f"q^{s} does not divide a series known through "
                         f"q^{f.caps.qmax}")
    if not s:
        return f
    if any(any(r[:s]) for r in f.rows.values()):
        raise ValueError(f"series is not divisible by q^{s}")
    # a row ends in a nonzero entry, so none empties; den and the gcd stay
    return Series(f.table, {ve: r[s:] for ve, r in f.rows.items()},
                  TruncationSpec(f.caps.qmax - s, f.caps.vcaps), f.den)


class _Moves(dict):
    """vexps v -> v + u, or None outside vcaps, each formed on first use."""

    def __init__(self, u: tuple, vcaps: tuple):
        super().__init__()
        self.u, self.vcaps = u, vcaps

    def __missing__(self, v):
        w = tuple(map(add, v, self.u))
        w = self[v] = None if any(map(gt, w, self.vcaps)) else w
        return w


def times_binomials(f: Series, s: Series, shifts: Iterable[int]) -> Series:
    """f * prod_{k in shifts} (1 - s q^k) for shifts k >= 0, one pass over int rows per binomial.  Each binomial is read at
    f's caps, as one(f.caps) - s * q_power(k, f.caps), so the result equals
    the left fold of * by the binomials in value, window and stored form.

    The running product is int rows over one den.  A binomial scales every
    row by s.den; then, for every term c q^j v^u of s, it subtracts each
    row at v, shifted up by j + k and scaled by c, from the row at v + u;
    then it divides out the gcd when den is not 1.  Parts outside the caps
    and entries above the window top are never formed.  The window is the
    fold's: the meet of f's and s's caps.
    """
    f._same_table(s)
    shifts = list(shifts)
    if not shifts:
        return f
    wcaps = f.caps.meet(s.caps)
    vcaps = wcaps.vcaps
    n = wcaps.qmax + 1  # the entries kept: indices below n
    rows = {v: list(r) for v, r in f.rows.items()
            if not any(map(gt, v, vcaps))}
    terms = [([(j, c) for j, c in enumerate(r) if c], _Moves(u, vcaps))
             for u, r in s.rows.items() if not any(map(gt, u, vcaps))]
    sden, den = s.den, f.den
    for k in shifts:
        # the binomial's 1, over the den of s
        new = {v: [sden * c for c in r[:n]] if sden != 1 else r[:n]
               for v, r in rows.items()}
        for qterms, target in terms:
            for v, r in rows.items():
                w = target[v]
                if w is None:
                    continue
                for j, c in qterms:
                    seg = r[:max(0, n - j - k)]
                    if seg:
                        _add_at(new, w, j + k, seg, -c)
        rows = new
        den *= sden
        if den != 1:
            g = gcd(den, *chain.from_iterable(rows.values()))
            if g != 1:
                rows = {v: [c // g for c in r] for v, r in rows.items()}
                den //= g
    # an unchanged window keeps f's caps object, which sums test first
    return Series._build(f.table, f.caps if wcaps == f.caps else wcaps, rows,
                         den)


def degree_window(s: Series, slots: tuple[int, ...], bound: int) -> Series:
    """Keep only monomials of total degree <= bound in the given variable
    slots; the caps stay."""
    rows = {ve: r for ve, r in s.rows.items()
            if sum(ve[i] for i in slots) <= bound}
    return Series._reduced(s.table, s.caps, rows, s.den)


# -- equality mod caps ---------------------------------------------------------


def equals_mod_caps(f: Series, g: Series):
    """Compare f and g on the meet of their claimed windows.

    Returns (True, None) on agreement, else (False, (monomial, f_coeff,
    g_coeff)) with the least discrepant monomial in (q-exponent, then lex
    variable exponents) order.
    """
    f._same_table(g)
    # equal values inside the meet have one stored form there
    mcaps = f.caps.meet(g.caps)
    f, g = f.truncate(mcaps), g.truncate(mcaps)
    if f == g:
        return True, None
    m = min(m for s in (f, g) for m, _ in s.monomials()
            if f.coeff(m) != g.coeff(m))
    return False, (m, f.coeff(m), g.coeff(m))
