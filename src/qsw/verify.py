"""Verification driver: run registered identities, compare both sides
modulo the truncation ideal, and report outcomes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .series import (
    DEFAULT_TABLE, Monomial, VariableNotFound, equals_mod_caps,
)
from .series import degree_window as _restrict  # verify()'s degree window
from .polynomials import MAX_ORDER, MAX_QMAX, OrderOutOfRange
from .identities import (  # BindingViolation is re-exported
    BY_ID, REGISTRY, TABLE, BindingViolation, garrett_candidates,
)


class UnknownIdentity(KeyError):
    """Identity id not present in the registry."""


# most trials per verify(); T4-ABGF at 100: 1.2-1.6 s on a 2-vCPU Xeon
MAX_TRIALS = 100


class InvalidRequest(ValueError):
    """Verification settings that leave nothing valid to check or no bound
    on the work: a negative qmax, cap, sum order or trial count, one above
    its bound (MAX_QMAX, MAX_ORDER, MAX_TRIALS), an unknown variable, a
    polynomial order above MAX_ORDER, or no cases at all."""


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs for a verification run; None fields fall back to the
    identity's own defaults."""

    qmax: Optional[int] = None
    deg: Optional[int] = None
    var_caps: dict = field(default_factory=dict)
    sum_order: Optional[int] = None
    trials: Optional[int] = None
    seed: int = 0
    bindings: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, v, top in (("qmax", self.qmax, MAX_QMAX),
                             ("deg", self.deg, MAX_ORDER),
                             ("sum_order", self.sum_order, None),
                             ("trials", self.trials, MAX_TRIALS),
                             *((name, cap, MAX_ORDER)
                               for name, cap in self.var_caps.items())):
            if v is not None and v < 0:
                raise InvalidRequest(f"{name} must be non-negative, got {v}")
            if v is not None and top is not None and v > top:
                raise InvalidRequest(f"{name} must be at most {top}, got {v}")
        for name in (*self.var_caps, *self.bindings):
            try:
                DEFAULT_TABLE.slot(name)
            except VariableNotFound:
                raise InvalidRequest(f"unknown variable {name!r}") from None


@dataclass
class Report:
    """Outcome of verifying one identity."""

    id: str
    ok: bool
    witness: Optional[tuple]  # (Monomial, lhs coeff, rhs coeff)
    caps_used: dict
    bindings_used: dict
    elapsed_ms: int
    convention: Optional[str] = None

    def to_json_dict(self) -> dict:
        d = {"id": self.id, "pass": self.ok}
        if self.convention is not None:
            d["convention"] = self.convention
        if self.witness is not None:
            m, lc, rc = self.witness
            d["witness"] = {
                "monomial": _mono_text(m),
                "lhs": _frac_text(lc),
                "rhs": _frac_text(rc),
            }
        d["caps"] = self.caps_used
        d["bindings"] = self.bindings_used
        d["elapsed_ms"] = self.elapsed_ms
        return d


def _frac_text(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def _mono_text(m: Monomial) -> str:
    # every registered side is built over identities.TABLE, the default
    parts = []
    if m.qexp:
        parts.append("q" if m.qexp == 1 else f"q^{m.qexp}")
    for j, e in enumerate(m.vexps):
        if e:
            nm = DEFAULT_TABLE.names[j + 1]
            parts.append(nm if e == 1 else f"{nm}^{e}")
    return "*".join(parts) if parts else "1"


def registry():
    """All registered identity specifications, in canonical order."""
    return list(REGISTRY)


def get_identity(ident: str):
    spec = BY_ID.get(ident)
    if spec is None:
        raise UnknownIdentity(ident)
    return spec


_CONVENTION_CACHE: dict = {}


def resolve_garrett_convention(kmax: int = 6, qmax: int = 40) -> Report:
    """Measure which sign convention makes the Garrett expansion of
    sum q^(n^2+kn)/(q;q)_n match the direct-sum oracle for all k <= kmax.

    Candidates: "plain" (no sign) and "alternating" (extra (-1)^k).  The
    report's convention field carries the single surviving tag, or None if
    zero or both survive.
    """
    # 2 separates the conventions; MAX_ORDER bounds a_k, b_k as in `eval`
    if not 2 <= kmax <= MAX_ORDER:
        raise ValueError(f"kmax must be in 2..{MAX_ORDER}, got {kmax}")
    if qmax > MAX_QMAX:
        raise ValueError(f"qmax must be at most {MAX_QMAX}")
    key = (kmax, qmax)
    if key in _CONVENTION_CACHE:
        return _CONVENTION_CACHE[key]
    t0 = time.perf_counter()
    survivors = {"plain", "alternating"}
    witness = None
    for k in range(kmax + 1):
        lhs, candidates = garrett_candidates(k, qmax)
        for tag in ("plain", "alternating"):
            if tag not in survivors:
                continue
            ok, w = equals_mod_caps(lhs, candidates[tag])
            if not ok:
                survivors.discard(tag)
                if witness is None:
                    witness = w
    elapsed = int((time.perf_counter() - t0) * 1000)
    tag = survivors.pop() if len(survivors) == 1 else None
    report = Report(
        id="garrett-convention",
        ok=tag is not None,
        witness=None if tag is not None else witness,
        caps_used={"qMax": qmax, "kMax": kmax},
        bindings_used={},
        elapsed_ms=elapsed,
        convention=tag,
    )
    _CONVENTION_CACHE[key] = report
    return report


def selected_convention() -> str:
    """The measured Garrett sign convention (cached)."""
    report = resolve_garrett_convention()
    if report.convention is None:
        raise AssertionError("no single Garrett convention matches the oracle")
    return report.convention


def verify(ident: str, cfg: VerifyConfig = VerifyConfig()) -> Report:
    """Build both sides of an identity independently for every case and
    compare them modulo the truncation ideal.  Each side keeps one memo
    (Env.memo) over all cases of this call; the sides never share one."""
    spec = get_identity(ident)
    t0 = time.perf_counter()
    convention = selected_convention() if spec.uses_garrett else None
    envs = spec.cases(cfg, convention)
    if not envs:
        # a verdict over zero cases would report PASS having checked nothing
        raise InvalidRequest(f"{spec.id}: the settings leave no case to check")
    ok = True
    witness = None
    bindings_used: dict = {}
    caps_used: dict = {}
    lhs_memo: dict = {}
    rhs_memo: dict = {}
    for env in envs:
        try:
            lhs = spec.build_lhs(replace(env, memo=lhs_memo))
            rhs = spec.build_rhs(replace(env, memo=rhs_memo))
        except OrderOutOfRange as exc:  # a setting, not a failed identity
            raise InvalidRequest(f"{spec.id}: {exc}") from None
        if spec.window is not None:
            slots = tuple(TABLE.slot(v) for v in spec.window)
            lhs = _restrict(lhs, slots, env.order)
            rhs = _restrict(rhs, slots, env.order)
        good, w = equals_mod_caps(lhs, rhs)
        caps_used = env.caps_dict()
        bindings_used = env.bindings_dict()
        if not good:
            ok = False
            witness = w
            break
    elapsed = int((time.perf_counter() - t0) * 1000)
    return Report(id=spec.id, ok=ok, witness=witness, caps_used=caps_used,
                  bindings_used=bindings_used, elapsed_ms=elapsed,
                  convention=convention)


def verify_all(cfg: VerifyConfig = VerifyConfig(), ids=None) -> list[Report]:
    """Verify every registered identity (or the given ids) in registry
    order."""
    specs = registry() if ids is None else [get_identity(i) for i in ids]
    return [verify(s.id, cfg) for s in specs]


def report_lines(reports) -> str:
    lines = []
    for r in reports:
        status = "PASS" if r.ok else "FAIL"
        extra = ""
        if r.convention:
            extra += f" convention={r.convention}"
        if r.witness is not None:
            m, lc, rc = r.witness
            extra += (f" first mismatch at {_mono_text(m)}:"
                      f" lhs={_frac_text(lc)} rhs={_frac_text(rc)}")
        lines.append(f"{status} {r.id} ({r.elapsed_ms} ms){extra}")
    return "\n".join(lines)


def reports_json(reports) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2)
