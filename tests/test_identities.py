"""Registry shape, the verification driver, convention resolution, and the
failure/independence paths."""

import hashlib
import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import qsw.identities as identities
import qsw.polynomials as polynomials
import qsw.qfunctions as qfunctions
from qsw.identities import BY_ID, Env, IdentitySpec, garrett_candidates
from qsw.polynomials import MAX_ORDER, _gauss_form, sw_star
from qsw.qfunctions import INFINITY, rq_at_power
from qsw.series import (
    TruncationSpec, caps, equals_mod_caps, mono, q_power, sum_series,
)
from qsw.verify import (
    MAX_TRIALS, BindingViolation, InvalidRequest, UnknownIdentity,
    VerifyConfig, _restrict,
    registry, reports_json, resolve_garrett_convention, selected_convention,
    verify,
)

FAST = VerifyConfig(qmax=10, deg=3, sum_order=3, trials=2)


def test_registry_size_and_ids():
    ids = [s.id for s in registry()]
    assert len(ids) >= 30
    assert len(set(ids)) == len(ids)
    for required in ("I-RR1", "I-RR2", "I-QBINTHM", "I-GARRETT", "T4-XN",
                     "T4-BY1", "T4-SRIAGA", "T4-ABGF", "T5-MEHLER",
                     "T5-OPPROD", "T5-ALTMEHLER", "T6-ROGERS-ALT",
                     "T6-ROGERS"):
        assert required in ids


def test_registry_builders_construct_on_shared_table():
    conv = resolve_garrett_convention().convention
    for spec in registry():
        env = spec.cases(FAST, conv)[0]
        lhs = spec.build_lhs(env)
        rhs = spec.build_rhs(env)
        assert lhs.table == rhs.table == identities.TABLE


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        verify("NOT-AN-ID")


def test_verify_reports_have_bindings_and_caps():
    rep = verify("I-RR1", VerifyConfig(qmax=20))
    assert rep.ok
    assert rep.caps_used["qMax"] == 20
    assert rep.witness is None


def test_constrained_identity_uses_distinct_random_bindings():
    spec = BY_ID["T4-BY1"]
    envs = spec.cases(VerifyConfig(trials=5), "alternating")
    ys = {env.bindings["y"] for env in envs}
    assert len(ys) >= 4  # distinct nonzero rationals, collision unlikely
    for env in envs:
        assert env.bindings["b"] * env.bindings["y"] == 1


@pytest.mark.parametrize("ident", ["T4-BY1", "I-LEIBNIZ"])
def test_verify_refuses_zero_cases(ident):
    with pytest.raises(InvalidRequest):
        verify(ident, VerifyConfig(trials=0))


def test_user_binding_override_and_violation():
    rep = verify("T4-BY1", VerifyConfig(qmax=12, deg=4,
                                        bindings={"y": Fraction(2, 3)}))
    assert rep.ok
    assert rep.bindings_used["y"] == "2/3"
    with pytest.raises(BindingViolation):
        verify("T4-BY1", VerifyConfig(bindings={"y": Fraction(0)}))
    with pytest.raises(BindingViolation):
        verify("T4-BY1", VerifyConfig(bindings={"y": Fraction(2),
                                                "b": Fraction(3)}))
    with pytest.raises(BindingViolation):
        verify("T4-ABGF", VerifyConfig(bindings={"a": Fraction(1, 2),
                                                 "b": Fraction(1, 3)}))


# Every case's bindings (Env.bindings_dict, which verify() reports as
# bindings_used) of the identities with free parameters at seeds 0 and 3.
# They pin the drawer's order of RNG calls, on which every report depends: a
# rational per name, then the degree of a q-monomial, and a redraw of only
# the later name on a t = s clash (T6-ROGERS at seed 0 has one).
DRAWN = {
    ("T4-BY1", 0): [
        "b=-1/1 y=-1/1", "b=1/1 y=1/1", "b=-1/2 y=-2/1", "b=3/1 y=1/3",
        "b=-2/1 y=-1/2",
    ],
    ("T4-2PROD", 0): [
        "b=1/1 y=1/1", "b=-2/3 y=-3/2", "b=-1/3 y=-3/1", "b=1/3 y=3/1",
        "b=-1/1 y=-1/1",
    ],
    ("T4-SRIAGA-YZ1", 0): [
        "y=-1/3 z=-3/1", "y=1/2 z=2/1", "y=-3/2 z=-2/3", "y=-1/1 z=-1/1",
        "y=1/1 z=1/1",
    ],
    ("T4-RSGF-BZY1", 0): [
        "b=-1/3 y=1/1 z=-3/1", "b=-2/3 y=-3/2 z=1/1", "b=-9/2 y=1/3 z=-2/3",
        "b=-2/3 y=3/2 z=-1/1", "b=-1/3 y=-1/1 z=3/1",
    ],
    ("T4-ABGF", 0): [
        "a=1/3*q^3 b=3/2*q^2", "a=-2/1*q^2 b=2/1*q^3", "a=-1/3*q^2 b=1/3*q^3",
        "a=-1/1*q^1 b=-1/1*q^1", "a=1/1*q^1 b=2/3*q^3",
    ],
    ("T6-ROGERS", 0): [
        "s=-3/1 t=1/1", "s=1/3 t=3/2", "s=-1/3 t=-2/3", "s=2/3 t=3/2",
        "s=1/1 t=-1/1",
    ],
    ("T6-ROGERS-ALT", 0): [
        "s=-2/3 t=-1/2", "s=-1/3 t=2/3", "s=1/3 t=-1/1", "s=-1/1 t=1/1",
        "s=3/2 t=-1/1",
    ],
    ("T4-BY1", 3): [
        "b=1/3 y=3/1", "b=2/1 y=1/2", "b=-2/1 y=-1/2", "b=1/1 y=1/1",
        "b=-3/2 y=-2/3",
    ],
    ("T4-2PROD", 3): [
        "b=1/1 y=1/1", "b=-2/1 y=-1/2", "b=-3/2 y=-2/3", "b=2/3 y=3/2",
        "b=-2/3 y=-3/2",
    ],
    ("T4-SRIAGA-YZ1", 3): [
        "y=1/1 z=1/1", "y=-1/3 z=-3/1", "y=-3/2 z=-2/3", "y=-1/2 z=-2/1",
        "y=-3/1 z=-1/3",
    ],
    ("T4-RSGF-BZY1", 3): [
        "b=3/4 y=-2/1 z=-2/3", "b=-1/3 y=-3/1 z=1/1", "b=1/3 y=1/1 z=3/1",
        "b=2/3 y=3/2 z=1/1", "b=-1/1 y=-1/1 z=1/1",
    ],
    ("T4-ABGF", 3): [
        "a=1/1*q^2 b=-1/3*q^2", "a=1/2*q^2 b=3/2*q^3", "a=-2/1*q^3 b=1/2*q^1",
        "a=-2/1*q^3 b=2/3*q^2", "a=1/1*q^3 b=3/2*q^2",
    ],
    ("T6-ROGERS", 3): [
        "s=-1/1 t=2/3", "s=-3/2 t=2/1", "s=-2/3 t=3/2", "s=-3/2 t=-2/1",
        "s=3/2 t=1/2",
    ],
    ("T6-ROGERS-ALT", 3): [
        "s=-1/1 t=-3/1", "s=1/3 t=1/2", "s=2/1 t=1/2", "s=2/1 t=1/1",
        "s=-3/1 t=-2/1",
    ],
}


@pytest.mark.parametrize("ident, seed", sorted(DRAWN))
def test_drawn_bindings_are_pinned(ident, seed):
    envs = BY_ID[ident].cases(VerifyConfig(seed=seed), "alternating")
    assert [" ".join(f"{k}={v}" for k, v in env.bindings_dict().items())
            for env in envs] == DRAWN[ident, seed]


@pytest.mark.parametrize("ident, bindings", [
    ("T4-BY1", {"y": Fraction(2), "x": Fraction(1, 3)}),
    ("T4-SRIAGA-YZ1", {"z": Fraction(2), "b": Fraction(1, 2)}),
    ("T6-ROGERS", {"t": Fraction(2), "s": Fraction(3), "y": Fraction(1)}),
    ("T4-ABGF", {"a": (Fraction(1), 1), "b": (Fraction(2), 1),
                 "z": Fraction(1)}),
    ("I-RR1", {"y": Fraction(2, 3)}),
])
def test_binding_an_undeclared_name_is_a_violation(ident, bindings):
    # T4-BY1 with x bound used to build its sides at x = 1/3 and report a
    # false FAIL
    with pytest.raises(BindingViolation, match="no free parameter"):
        BY_ID[ident].cases(VerifyConfig(bindings=bindings), "alternating")


def test_declared_bindings_derive_or_check_the_inverse():
    def bind(ident, **bindings):
        envs = BY_ID[ident].cases(VerifyConfig(bindings=bindings),
                                  "alternating")
        assert len(envs) == 1
        return envs[0].bindings
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert bind("T4-RSGF-BZY1", z=3 * half, y=half)["b"] == Fraction(4, 3)
    assert bind("T4-SRIAGA-YZ1", z=3 * half, y=2 * third)["y"] == 2 * third
    assert bind("T6-ROGERS", t=half, s=third) == {"t": half, "s": third}
    assert bind("T4-ABGF", a=(half, 1), b=(third, 2))["b"] == (third, 2)
    for ident, bindings in [
            ("T4-SRIAGA-YZ1", {"z": 3 * half, "y": half}),
            ("T4-RSGF-BZY1", {"z": half}),
            ("T6-ROGERS", {"t": half, "s": half}),
            ("T6-ROGERS", {"t": half, "s": 1}),
            ("T4-ABGF", {"a": (half, 0), "b": (third, 2)}),
            ("T4-ABGF", {"a": (0, 1), "b": (third, 2)})]:
        with pytest.raises(BindingViolation):
            BY_ID[ident].cases(VerifyConfig(bindings=bindings), None)


@pytest.mark.parametrize("kw", [
    {"trials": MAX_TRIALS + 1}, {"trials": -1}, {"deg": MAX_ORDER + 1},
    {"var_caps": {"x": MAX_ORDER + 1}}, {"var_caps": {"t": 2000}},
])
def test_verify_config_bounds_trials_and_caps(kw):
    with pytest.raises(InvalidRequest):
        VerifyConfig(**kw)


def test_verify_config_accepts_its_bounds():
    VerifyConfig(trials=MAX_TRIALS, deg=MAX_ORDER,
                 var_caps=dict.fromkeys("xyztswab", MAX_ORDER))


def test_perturbed_rhs_reports_witness():
    base = BY_ID["I-RR1"]
    bad = IdentitySpec(
        id="FIXTURE-BAD",
        description="deliberately perturbed right side",
        build_lhs=base.build_lhs,
        build_rhs=lambda e: base.build_rhs(e) + e.qpow(3),
        qmax=20,
    )
    BY_ID["FIXTURE-BAD"] = bad
    try:
        rep = verify("FIXTURE-BAD")
        assert not rep.ok
        m, cl, cr = rep.witness
        assert m == mono(3)
        assert cr - cl == 1
    finally:
        del BY_ID["FIXTURE-BAD"]


def test_independence_perturbing_one_side(monkeypatch):
    spec = BY_ID["I-GARRETT"]
    env = spec.cases(VerifyConfig(qmax=15), "alternating")[2]
    lhs0, rhs0 = spec.build_lhs(env), spec.build_rhs(env)

    real = qfunctions.rq_at_power
    monkeypatch.setattr(identities, "rq_at_power",
                        lambda *a, **k: real(*a, **k) + q_power(1, caps_=a[1]))
    lhs1, rhs1 = spec.build_lhs(env), spec.build_rhs(env)
    assert lhs1 != lhs0  # the direct-sum side moved
    assert rhs1 == rhs0  # the product side did not
    monkeypatch.undo()

    real_ga = qfunctions.garrett_a
    monkeypatch.setattr(identities, "garrett_a",
                        lambda *a, **k: real_ga(*a, **k) * 2)
    lhs2, rhs2 = spec.build_lhs(env), spec.build_rhs(env)
    assert lhs2 == lhs0
    assert rhs2 != rhs0


@pytest.mark.parametrize("m", [0, 2, 4, 6, 8])
def test_garrett_kernel_matches_direct_sum(m):
    # the R_q(q^m) kernel of the four Garrett forms, apart from their verdicts
    env = Env(caps(25), 0, {}, None)
    got = identities._garrett_kernel(env, m, env.one())
    want = rq_at_power(m, env.caps)
    assert got == want and got.caps == want.caps


@pytest.mark.parametrize("ycap", [0, 2])
@pytest.mark.parametrize("ident", ["T4-BY1", "T4-2PROD"])
def test_garrett_forms_pass_below_the_operator_order(ident, ycap):
    # the left side applies R(yD_q) at the bound y, so no y^n term of the
    # image is dropped by the y-cap before y becomes a constant
    assert verify(ident, VerifyConfig(var_caps={"y": ycap})).ok


@pytest.mark.parametrize("xcap", [0, 1, 3])
@pytest.mark.parametrize("ident", ["I-DQ-4", "I-LEIBNIZ"])
def test_dq_images_have_x_headroom(ident, xcap):
    # D_q^n lowers the x-degree by n, so its operand needs n more x
    assert verify(ident, VerifyConfig(var_caps={"x": xcap})).ok


def _operand_caps(image, env):
    """The caps each operand of an image combinator is built at."""
    seen = []

    def operand(w):
        seen.append(w.caps)
        return w.one()
    image(operand)(env)
    return seen


def _widened(c, **more):
    vc = list(c.vcaps)
    for name, d in more.items():
        vc[identities.TABLE.slot(name)] += d
    return TruncationSpec(c.qmax, tuple(vc))


@pytest.mark.parametrize("x", ["x", "z"])
@pytest.mark.parametrize("bindings, order", [({}, 2),
                                             ({"y": Fraction(1, 2)}, 3)])
def test_rr_image_widens_only_the_differentiated_variable(x, bindings,
                                                          order):
    # the order is min(y-cap, isqrt(qmax)) for a formal y, isqrt(qmax) for
    # a bound one; D_q and y^n leave the cap ideal of every other variable
    c = caps(9, y=2, a=3, b=1)
    env = Env(c, 0, bindings, None)
    image = lambda op: identities._rr_image(op, x=x)  # noqa: E731
    assert _operand_caps(image, env) == [_widened(c, **{x: order})]


@pytest.mark.parametrize("n", [0, 2, 5])
def test_dq_image_widens_only_x(n):
    c = caps(9, a=3, b=1)
    env = Env(c, 0, {}, None, {"n": n})
    assert _operand_caps(identities._dq_image, env) == [_widened(c, x=n)]


def test_garrett_kernel_built_once_per_side_and_call(monkeypatch):
    selected_convention()  # its own Garrett expansions are not counted here
    built = Counter()
    real = qfunctions.garrett_a

    def counting(k, *a, **kw):
        built[k] += 1
        return real(k, *a, **kw)
    monkeypatch.setattr(identities, "garrett_a", counting)
    cfg = VerifyConfig(qmax=16, deg=5)
    assert verify("T4-BY1", cfg).ok
    ms = set(built)
    assert ms and all(m % 2 == 0 for m in ms)
    assert built == Counter(dict.fromkeys(ms, 1))
    assert verify("T4-BY1", cfg).ok  # a new call reuses nothing
    assert built == Counter(dict.fromkeys(ms, 2))

    built.clear()
    spec = BY_ID["T4-BY1"]
    env = spec.cases(cfg, selected_convention())[0]
    spec.build_rhs(env)
    spec.build_rhs(env)  # direct builds share no memo either
    assert built == Counter(dict.fromkeys(built, 2)) and set(built) <= ms


LATE_LHS = ("T4-BY1", "T4-2PROD", "T4-SRIAGA-YZ1", "T4-RSGF-BZY1",
            "T6-ROGERS", "T6-ROGERS-ALT")
LATE_RHS = ("T4-BY1", "T4-2PROD", "T4-SRIAGA-YZ1", "T4-RSGF-BZY1")
LATE_SIDES = (*(pytest.param(i, "lhs", id=i) for i in LATE_LHS),
              *(pytest.param(i, "rhs", id=f"{i}-rhs") for i in LATE_RHS))


def _cases(spec, cfg):
    return spec.cases(cfg, selected_convention() if spec.uses_garrett
                      else None)


def _side(spec, side):
    return spec.build_lhs if side == "lhs" else spec.build_rhs


def test_late_bound_sides_are_the_declared_ones():
    late = {side: sorted(s.id for s in registry()
                         if hasattr(_side(s, side), "__wrapped__"))
            for side in ("lhs", "rhs")}
    assert late == {"lhs": sorted(LATE_LHS), "rhs": sorted(LATE_RHS)}
    # the Rogers right sides and both sides of T4-ABGF (q-monomial
    # bindings) stay per case
    abgf = BY_ID["T4-ABGF"]
    assert not any(hasattr(b, "__wrapped__")
                   for b in (abgf.build_lhs, abgf.build_rhs))
    # a late Garrett form binds both sides with the same bounds
    for ident in LATE_RHS:
        spec = BY_ID[ident]
        assert spec.build_lhs.degrees == spec.build_rhs.degrees


@pytest.mark.parametrize("cfg", [
    VerifyConfig(), VerifyConfig(qmax=40, var_caps={"x": 3}),
    VerifyConfig(var_caps={"x": 3, "y": 2})], ids=["defaults", "q40x3",
                                                   "x3y2"])
@pytest.mark.parametrize("ident, side", LATE_SIDES)
def test_late_bound_side_equals_its_direct_build(ident, side, cfg):
    # one formal build per call, then each case's values substituted,
    # gives the stored form of the side built at the case's values
    build = _side(BY_ID[ident], side)
    memo: dict = {}
    for env in _cases(BY_ID[ident], cfg):
        late = build(replace(env, memo=memo))
        assert late.json_text() == build.__wrapped__(env).json_text()
    assert len(memo) == 1  # built once, at formal parameters


def test_every_side_is_byte_stable():
    # json_text() then text() of the left and the right side of every case,
    # in registry order, pinned byte for byte: the verify-all digests see
    # only PASS, so a change that moves both sides of an identity together
    # (both sides of the Garrett forms go through the binding pass) shows
    # only here
    h = hashlib.sha256()
    for cfg in (VerifyConfig(seed=0), VerifyConfig(seed=3, qmax=12),
                VerifyConfig(seed=5, qmax=14,
                             var_caps={"a": 1, "b": 2, "z": 2, "x": 3})):
        for spec in registry():
            for env in _cases(spec, cfg):
                for s in (spec.build_lhs(env), spec.build_rhs(env)):
                    h.update(s.json_text().encode())
                    h.update(s.text().encode())
    assert h.hexdigest()[:16] == "827c83d1088d3013"


def _one_less_changes_a_case(spec, late, name, cfg):
    """Whether late, with name's degree bound lowered by one, differs from
    the direct build in some case of spec at cfg."""
    direct = late.__wrapped__
    short = identities._bind_late(direct, tuple(
        (n, (lambda e, b=b: b(e) - 1) if n == name else b)
        for n, b in late.degrees))
    return any(short(env).json_text() != direct(env).json_text()
               for env in _cases(spec, cfg))


@pytest.mark.parametrize("ident, name, cfg", [
    *((i, "b", VerifyConfig()) for i in ("T4-BY1", "T4-2PROD",
                                         "T4-RSGF-BZY1")),
    *((i, "z", VerifyConfig()) for i in ("T4-SRIAGA-YZ1", "T4-RSGF-BZY1")),
    *((i, "y", VerifyConfig(var_caps={"y": 2}))
      for i in ("T4-BY1", "T4-2PROD", "T4-SRIAGA-YZ1", "T4-RSGF-BZY1")),
    # in T6-ROGERS-ALT t^n carries q^C(n,2), so there the order bounds s
    # alone tightly
    *((i, n, VerifyConfig(sum_order=9)) for i, n in (
        ("T6-ROGERS", "t"), ("T6-ROGERS", "s"), ("T6-ROGERS-ALT", "s"))),
])
def test_one_less_than_a_derived_degree_bound_changes_a_case(ident, name,
                                                             cfg):
    spec = BY_ID[ident]
    assert _one_less_changes_a_case(spec, spec.build_lhs, name, cfg)


# the right sides whose sums reach y^isqrt(qmax), by the weight i^2; those
# weighted k(3k-1)/2 stop short of it, and no case there reaches the b or z
# bound
@pytest.mark.parametrize("ident", ["T4-2PROD", "T4-RSGF-BZY1"])
def test_one_less_than_the_y_bound_changes_a_right_side(ident):
    spec = BY_ID[ident]
    assert _one_less_changes_a_case(spec, spec.build_rhs, "y",
                                    VerifyConfig(var_caps={"y": 2}))


@pytest.mark.parametrize("ident", ["T4-ABGF", "I-GF3", "T4-SRIAGA"])
def test_weighted_sums_form_no_finite_pochhammer_product(ident, monkeypatch):
    # each (a;q)_n weight is the next item of one running ratio stream; only
    # the infinite products of the closed forms still call poch
    counts = []
    real = identities.poch

    def recording(args, n, *rest, **kw):
        counts.append(n)
        return real(args, n, *rest, **kw)
    monkeypatch.setattr(identities, "poch", recording)
    assert verify(ident, VerifyConfig()).ok
    assert counts and all(n is INFINITY for n in counts)
    if ident == "T4-ABGF":
        assert len(counts) <= 5  # one (a;q)inf per case


def _sides_reaching(monkeypatch, name, mods):
    """{(id, "lhs" | "rhs")} of the sides that call the primitive name,
    defined in the last module of mods and traced in each, at their
    default cases."""
    reached = []
    real = getattr(mods[-1], name)

    def tracing(*args):
        reached.append(True)
        return real(*args)
    for mod in mods:
        monkeypatch.setattr(mod, name, tracing)
    out = set()
    for spec in registry():
        for side in ("lhs", "rhs"):
            reached.clear()
            for env in _cases(spec, VerifyConfig()):
                _side(spec, side)(env)
            if reached:
                out.add((spec.id, side))
    return out


def _has_test(module, name):
    return f"\ndef {name}(" in Path(__file__).with_name(module).read_text()


def test_sides_sharing_the_ratio_stream_are_the_declared_ones(monkeypatch):
    sides = _sides_reaching(monkeypatch, "_poch_ratios",
                            (identities, qfunctions))
    both = {i for i, side in sides if side == "lhs" and (i, "rhs") in sides}
    assert both == {"I-GF3", "T4-SRIAGA", "T4-SRIAGA-YZ1", "T4-ABGF"}
    # a fault in the shared stream would show on both sides; its oracle
    # checks it against the step-by-step Series fold
    assert _has_test("test_qfunctions.py",
                     "test_poch_ratios_match_factor_by_factor_steps")


def test_no_identity_reaches_the_gauss_form_on_both_sides(monkeypatch):
    # every S*_n, S_n and r_n is one Gaussian form; a fault in it would
    # cancel out of an identity that built both sides through it
    sides = _sides_reaching(monkeypatch, "_gauss_form",
                            (identities, polynomials))
    assert not {i for i, _ in sides
                if (i, "lhs") in sides and (i, "rhs") in sides}
    assert sides == {
        *((i, "lhs") for i in (
            "I-GF1", "I-GF2", "I-GF3", "T4-GF", "T4-ALTGF", "T4-SRIAGA",
            "T4-SRIAGA-YZ1", "T4-RSGF", "T4-RSGF-BZY1", "T4-ABGF",
            "T5-MEHLER", "T5-ALTMEHLER", "T6-ROGERS", "T6-ROGERS-ALT")),
        ("T4-XN", "rhs")}
    # its oracles: the monomial-by-monomial sum, and bound bases against
    # the substituted formal form
    for oracle in ("test_gauss_form_matches_monomial_construction",
                   "test_gauss_form_bound_bases_match_substitution"):
        assert _has_test("test_polynomials.py", oracle)


def test_only_the_garrett_kernels_reach_the_q_power_inverse_row(monkeypatch):
    # 1/(q^j1, q^j2, ...; q^b)inf is one dense row; the Garrett kernel's
    # Rogers-Ramanujan products are its only registry users, and a fault in
    # it would cancel out of an identity that built both sides through it
    sides = _sides_reaching(monkeypatch, "_q_power_poch_inv_row",
                            (qfunctions,))
    assert not {i for i, _ in sides
                if (i, "lhs") in sides and (i, "rhs") in sides}
    assert sides == {(i, "rhs") for i in (
        "T4-BY1", "T4-2PROD", "T4-SRIAGA-YZ1", "T4-RSGF-BZY1")}
    # its oracle: the truncated product inverted by Series.reciprocal
    assert _has_test("test_qfunctions.py",
                     "test_poch_inf_inv_matches_reciprocal")


def test_garrett_convention_resolution():
    rep = resolve_garrett_convention(6, 40)
    assert rep.ok and rep.convention == "alternating"


def test_garrett_printed_sign_fails_at_k1():
    lhs, cands = garrett_candidates(1, 30)
    ok_plain, w = equals_mod_caps(lhs, cands["plain"])
    assert not ok_plain
    # printed form gives -R_q(q); the first discrepancy is the constant term
    m, cl, cr = w
    assert m == mono(0) and cl == 1 and cr == -1
    ok_alt, _ = equals_mod_caps(lhs, cands["alternating"])
    assert ok_alt


# The paper's printed right side of three registered identities, each as a
# map of the corrected right side, with the witness its FAIL reports:
# (monomial, lhs, rhs).  The other two corrections are pinned above
# (Garrett's sign) and in test_qfunctions (I-RQ-DIFFEQ's factor qz).
PRINTED_VARIANTS = [
    # no (-1)^n in front of the D_q^n closed form
    ("I-DQ-7", lambda rhs: lambda e: (-1) ** e.ints["n"] * rhs(e),
     ("b", "-1/1", "1/1")),
    # the 1phi2 argument qy, not qzy
    ("T4-SRIAGA", lambda rhs: identities._ratio_rhs("zx", "y"),
     ("q*y", "0/1", "1/1")),
    # (qay)^k with the 0phi2 argument -q^(2k+1)by: the corrected sum at -y
    ("T5-OPPROD",
     lambda rhs: lambda e: rhs(e).substitute("y", -1, mono(0, {"y": 1})),
     ("q*y*b", "-1/1", "1/1")),
]


@pytest.mark.parametrize("ident, printed, witness", PRINTED_VARIANTS,
                         ids=[v[0] for v in PRINTED_VARIANTS])
@pytest.mark.parametrize("cfg", [
    VerifyConfig(), VerifyConfig(qmax=4),
    VerifyConfig(var_caps={"x": 3, "y": 2}),
    VerifyConfig(var_caps={"a": 1, "b": 2, "z": 2}),
], ids=["defaults", "qmax4", "caps-xy", "caps-abz"])
def test_printed_formula_fails_with_its_witness(ident, printed, witness, cfg,
                                                 monkeypatch):
    spec = BY_ID[ident]
    assert verify(ident, cfg).ok
    monkeypatch.setitem(BY_ID, ident,
                        replace(spec, build_rhs=printed(spec.build_rhs)))
    rep = verify(ident, cfg)
    assert not rep.ok
    w = rep.to_json_dict()["witness"]
    assert (w["monomial"], w["lhs"], w["rhs"]) == witness


def test_garrett_convention_requires_k_at_least_two():
    with pytest.raises(ValueError):
        resolve_garrett_convention(1, 30)


def test_garrett_dependent_reports_carry_convention():
    rep = verify("T4-2PROD", VerifyConfig(qmax=12, deg=4, trials=1))
    assert rep.ok and rep.convention == "alternating"
    rep2 = verify("I-QBINTHM", VerifyConfig(qmax=12, deg=4))
    assert rep2.convention is None


@pytest.mark.parametrize("ident", [
    "T4-GF", "T4-ALTGF", "T4-SRIAGA", "T4-RSGF", "T4-ABGF",
    "T5-MEHLER", "T5-ALTMEHLER", "T6-ROGERS-ALT", "T6-ROGERS",
])
def test_window_truncation_stability(ident):
    # summing the graded side to N+2 and comparing on the <= N window must
    # agree with the order-N build
    spec = BY_ID[ident]
    conv = "alternating"
    cfgN = VerifyConfig(qmax=10, deg=4, sum_order=3, trials=1)
    cfgN2 = VerifyConfig(qmax=10, deg=4, sum_order=5, trials=1)
    envN = spec.cases(cfgN, conv)[0]
    envN2 = spec.cases(cfgN2, conv)[0]
    slots = tuple(identities.TABLE.slot(v) for v in spec.window)
    lhsN = _restrict(spec.build_lhs(envN), slots, envN.order)
    lhsN2 = _restrict(spec.build_lhs(envN2), slots, envN.order)
    ok, w = equals_mod_caps(lhsN, lhsN2)
    assert ok, f"{ident}: {w}"


def _rogers_double_sum(e, alternating):
    """sum_{n+m <= order} S*_(n+m)(x, y) T_n s^m / ((q;q)_n (q;q)_m), with
    T_n = t^n, or (-1)^n q^C(n,2) t^n when alternating: the Rogers left
    sides term by term."""
    tv, sv = e.sym("t"), e.sym("s")

    def tpow(n):
        if alternating:
            return (-1) ** n * e.qpow(n * (n - 1) // 2) * tv ** n
        return tv ** n
    return sum_series(
        sw_star(n + m, e.caps) * tpow(n) * sv ** m
        * e.qfact_inv(n) * e.qfact_inv(m)
        for n in range(e.order + 1) for m in range(e.order + 1 - n))


@pytest.mark.parametrize("order", [3, 6, 9])
@pytest.mark.parametrize("ident, alternating", [("T6-ROGERS", False),
                                                ("T6-ROGERS-ALT", True)])
def test_rogers_left_side_is_the_double_sum(ident, alternating, order):
    # one sum over N = n + m of S*_N(x, y) G_N(s, t) / (q;q)_N, at bound
    # and at formal t and s, the caps of t and s wide enough for every term
    spec = BY_ID[ident]
    cfg = VerifyConfig(sum_order=order, var_caps={"t": order, "s": order},
                       trials=2)
    envs = _cases(spec, cfg)
    for env in (*envs, replace(envs[0], bindings={})):
        assert spec.build_lhs.__wrapped__(env).json_text() \
            == _rogers_double_sum(env, alternating).json_text()


def _mehler_products(e):
    """sum_n S*_n(x, y) S*_n(w, z) t^n / (q;q)_n, each term the product of
    two polynomials."""
    t = e.sym("t")
    return sum_series(sw_star(n, e.caps) * sw_star(n, e.caps, x="w", y="z")
                      * e.qfact_inv(n) * t ** n for n in range(e.order + 1))


def _altmehler_products(e):
    """sum_n (-1)^n q^C(n,2) S*_n(x, y) S*_n(a, q^(-n) b) z^n / (q;q)_n, the
    second family as its Gaussian form at q^(C(n,2) + k(k-n))."""
    z = e.sym("z")
    return sum_series(
        (-1) ** n * sw_star(n, e.caps)
        * _gauss_form(n, e.caps, identities.TABLE, e.base("a"), e.base("b"),
                      lambda k: n * (n - 1) // 2 + k * (k - n))
        * e.qfact_inv(n) * z ** n for n in range(e.order + 1))


@pytest.mark.parametrize("cfg", [VerifyConfig(),
                                 VerifyConfig(qmax=14, sum_order=8)])
@pytest.mark.parametrize("ident, products", [
    ("T5-MEHLER", _mehler_products), ("T5-ALTMEHLER", _altmehler_products)])
def test_mehler_left_side_is_the_product_of_its_families(ident, products,
                                                          cfg):
    spec = BY_ID[ident]
    for env in _cases(spec, cfg):
        assert spec.build_lhs(env).json_text() == products(env).json_text()


def test_sides_claim_the_whole_case_window():
    # a side that widens too little for its Laurent terms comes back with a
    # smaller q-window; the verdict would still PASS, over fewer
    # coefficients, so every side must claim exactly the case's caps
    cfg = VerifyConfig(seed=3, qmax=12)
    conv = resolve_garrett_convention().convention
    for spec in registry():
        envs = spec.cases(cfg, conv if spec.uses_garrett else None)
        for i, env in enumerate(envs):
            for side, build in (("lhs", spec.build_lhs),
                                ("rhs", spec.build_rhs)):
                assert build(env).caps == env.caps, f"{spec.id} case {i} {side}"


def test_verify_deterministic_across_runs_and_threads():
    import concurrent.futures

    cfg = VerifyConfig(qmax=12, deg=4, trials=2, seed=9)
    ids = ["I-RR1", "T4-BY1", "T6-ROGERS"]
    serial = [verify(i, cfg) for i in ids]
    again = [verify(i, cfg) for i in ids]
    with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
        parallel = list(pool.map(lambda i: verify(i, cfg), ids))
    for a, b, c in zip(serial, again, parallel):
        for r in (a, b, c):
            r.elapsed_ms = 0
    assert reports_json(serial) == reports_json(again) == reports_json(parallel)


def test_reports_json_schema():
    rep = verify("I-RR2", VerifyConfig(qmax=20))
    data = json.loads(reports_json([rep]))
    assert isinstance(data, list)
    d = data[0]
    assert list(d) == ["id", "pass", "caps", "bindings", "elapsed_ms"]
    rep_g = verify("I-GARRETT", VerifyConfig(qmax=15))
    dg = json.loads(reports_json([rep_g]))[0]
    assert list(dg) == ["id", "pass", "convention", "caps", "bindings",
                        "elapsed_ms"]
