"""One benchmark pass in a fresh process: set up qsw, run a workload's ops.

    python3 perfbench/worker.py <workload> <pass seed> <trace 0|1>
    python3 perfbench/worker.py setup
    python3 perfbench/worker.py op <deep-q eval or inverse op key>

The process starts with every lru_cache and the Garrett convention cache
cold, as each `qsw verify` / `qsw eval` call does.  It writes one JSON
object per line to stdout: {"ready"} once set up, one {"op"} per finished
op, and {"done"} with the pass digest, wall time, peak memory and, when
traced, the per-layer figures.  A line is flushed as soon as it is written,
so a parent that kills a hung pass still knows which ops finished.

The `op` form runs one deep-q eval or inverse op alone, with every cache
cold, and reports its time and the qfact_inv cache hits and misses it made.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import re
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = Path(__file__).resolve().parent / "out"

# `qsw eval` families, as the CLI maps them
EVAL_FUNCTIONS = {
    "sw": ("polynomials", "sw_classic"),
    "sw-star": ("polynomials", "sw_star"),
    "rs": ("polynomials", "rogers_szego"),
    "rq": ("qfunctions", "rq_at_power"),
    "garrett-a": ("qfunctions", "garrett_a"),
    "garrett-b": ("qfunctions", "garrett_b"),
}

# the seven slowest identities of verify-all, timed per verdict
TIMED_IDENTITIES = ("T4-BY1", "T4-2PROD", "T4-SRIAGA-YZ1", "T4-RSGF-BZY1",
                    "T4-ABGF", "T6-ROGERS-ALT", "T6-ROGERS")

_ELAPSED = re.compile(r',\n *"elapsed_ms": \d+')


def import_qsw():
    """Import qsw from this checkout's src/ and load the registry."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    qsw_verify = importlib.import_module("qsw.verify")
    qsw_verify.registry()
    return qsw_verify


def module(name):
    return sys.modules[f"qsw.{name}"]


def run_op(op, cfg_seed):
    """Run one op; return (passed, report or None, rendered text or None)."""
    kind, arg, val = op
    qv = module("verify")
    if kind == "verify":
        report = qv.verify(arg, qv.VerifyConfig(qmax=val, seed=cfg_seed))
        return report.ok, report, None
    series = module("series")
    table = series.DEFAULT_TABLE
    if kind == "eval":
        modname, fname = EVAL_FUNCTIONS[arg]
        cps = series.caps(workloads.EVAL_QMAX, table)
        value = getattr(module(modname), fname)(val, cps, table)
    else:
        qf = module("qfunctions")
        cps = series.caps(val, table)
        args = [series.q_power(e, table, cps) for e in arg]
        if kind == "poch_inf_inv":
            value = qf.poch_inf_inv(args, cps, table, base=5)
        else:
            value = qf.poch(args, qf.INFINITY, cps, table, base=5).reciprocal()
    return True, None, value.text()


def reports_bytes(reports) -> bytes:
    """`reports_json` of the verdicts with every elapsed_ms field removed."""
    return _ELAPSED.sub("", module("verify").reports_json(reports)).encode()


def run_pass(workload: str, seed: int, trace: bool, emit) -> None:
    """Set up qsw, run one pass of the workload and emit its events."""
    qv = import_qsw()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(workload)
        tracer.install()
    qv.selected_convention()
    convention_s = tracer.total_s("verify.garrett_convention") if tracer else 0
    emit({"ready": True})
    plan = workloads.ops(workload, seed, [s.id for s in qv.registry()])
    caches = _cache_counts()
    if tracer:
        tracer.reset()
    reports, texts = [], []
    first = last = None
    for i, op in enumerate(plan):
        key = workloads.op_key(op)
        if tracer:
            tracer.begin_op(key)
        t0 = perf_counter()
        try:
            ok, report, text = run_op(op, seed)
        except Exception:
            traceback.print_exc()
            ok, report, text = False, None, None
        t1 = perf_counter()
        first = t0 if first is None else first
        last = t1
        if report is not None:
            reports.append(report)
        out = text if text is not None else (
            reports_bytes([report]).decode() if report is not None else "")
        if text is not None:
            texts.append(f"{key}\n{text}")
        emit({"op": i, "key": key, "ok": ok, "ms": (t1 - t0) * 1000,
              "sha": hashlib.sha256(out.encode()).hexdigest()})
    digest = hashlib.sha256(reports_bytes(reports) + b"\n"
                            + "\n".join(texts).encode()).hexdigest()
    done = {"done": True, "digest": digest,
            "wall_s": last - first if plan else 0.0,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024}
    if tracer:
        done["layers"] = layer_metrics(tracer, caches, _cache_counts(),
                                       convention_s)
        done["spans"] = write_spans(tracer, SPANS_DIR
                                    / f"spans-{workload}-{seed}.jsonl")
    emit(done)


def write_spans(tracer, path: Path) -> str:
    """Write the recorded spans as JSON lines; return the file name."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for sid, parent, name, t0, t1, (wl, op, case) in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": t0, "end": t1, "workload": wl,
                                 "op": op, "case": case}) + "\n")
    return path.name


def _cache_counts() -> dict:
    qf = module("qfunctions")
    out = {}
    for name, fns in (("qfact_inv", (qf._qfact_inv_coeffs, qf.qfact_coeffs)),
                      ("qbinom", (qf.qbinom_coeffs,))):
        infos = [fn.cache_info() for fn in fns]
        out[name] = (sum(i.hits for i in infos), sum(i.misses for i in infos))
    return out


def layer_metrics(tracer, before: dict, after: dict, convention_s) -> dict:
    """Per-layer figures of the ops phase of a traced pass."""
    t = tracer
    mul = t.mul
    m = {
        "series.mul.calls": t.calls("series.mul"),
        "series.mul.self_s": t.self_s("series.mul"),
        "series.mul.term_pairs": mul.term_pairs,
        "series.mul.frac_calls": mul.frac_calls,
        "series.mul.kept_ratio": mul.result_terms / max(mul.term_pairs, 1),
        "series.coeff_bits_max": mul.coeff_bits_max,
        "series.add.self_s": t.self_s("series.add"),
        "series.reciprocal.calls": t.calls("series.reciprocal"),
        "series.reciprocal.self_s": t.self_s("series.reciprocal"),
        "series.substitute.self_s": t.self_s("series.substitute"),
        "series.text.self_s": t.self_s("series.text"),
        "series.equals_mod_caps.self_s": t.self_s("series.equals_mod_caps"),
        "qfunctions.poch_inf_inv.calls": t.calls("qfunctions.poch_inf_inv"),
        "qfunctions.poch_inf_inv.self_s": t.self_s("qfunctions.poch_inf_inv"),
        "qfunctions.poch.self_s": t.self_s("qfunctions.poch"),
        "qfunctions.phi.self_s": t.self_s("qfunctions.phi"),
        "qfunctions.rq.self_s": t.self_s("qfunctions.rq"),
        "qfunctions.rq_at_power.self_s": t.self_s("qfunctions.rq_at_power"),
        "qfunctions.garrett_ab.self_s": t.self_s("qfunctions.garrett_ab"),
        "qfunctions.qfact_inv.calls": t.calls("qfunctions.qfact_inv"),
        "operators.rr_op.calls": t.calls("operators.rr_op"),
        "operators.rr_op.self_s": t.self_s("operators.rr_op"),
        "operators.dq.calls": t.calls("operators.dq"),
        "operators.dq.self_s": t.self_s("operators.dq"),
        "operators.leibniz_rhs.self_s": t.self_s("operators.leibniz_rhs"),
        "polynomials.sw_classic.self_s": t.self_s("polynomials.sw_classic"),
        "polynomials.sw_star.self_s": t.self_s("polynomials.sw_star"),
        "polynomials.sw_star_op.self_s": t.self_s("polynomials.sw_star_op"),
        "polynomials.rogers_szego.self_s":
            t.self_s("polynomials.rogers_szego"),
        "polynomials.calls": sum(
            t.calls(f"polynomials.{f}") for f in
            ("sw_classic", "sw_star", "sw_star_op", "rogers_szego")),
        "identities.cases": t.cases,
        "identities.lhs.self_s": t.self_s("identities.lhs"),
        "identities.rhs.self_s": t.self_s("identities.rhs"),
        "verify.calls": t.calls("verify"),
        # window restriction plus the compare of the two sides
        "verify.cmp.self_s": t.self_s("verify.restrict")
        + t.self_s("series.equals_mod_caps", parent="verify"),
        "verify.garrett_convention_s": convention_s,
    }
    for name in ("qfact_inv", "qbinom"):
        hits = after[name][0] - before[name][0]
        misses = after[name][1] - before[name][1]
        m[f"qfunctions.{name}_cache.hits"] = hits
        m[f"qfunctions.{name}_cache.misses"] = misses
        m[f"qfunctions.{name}_cache.hit_ratio"] = hits / max(hits + misses, 1)
    per_ident = {ident: 0.0 for ident in TIMED_IDENTITIES}
    for _, _, name, t0, t1, ctx in t.spans:
        ident = ctx[1][len("verify:"):]
        if name == "verify" and ident in per_ident:
            per_ident[ident] += t1 - t0
    for ident, secs in per_ident.items():
        m[f"identities.{ident}.s"] = secs
    m["trace.self_sum_s"] = t.self_total_s()
    return m


def main(argv) -> int:
    def emit(event):
        print(json.dumps(event), flush=True)

    if argv == ["setup"]:
        import_qsw().selected_convention()
        emit({"ready": True})
        return 0
    if argv[0] == "op":
        qv = import_qsw()
        ids = [spec.id for spec in qv.registry()]
        op = next(op for op in workloads.ops("deep-q", 0, ids)
                  if workloads.op_key(op) == argv[1])
        before = _cache_counts()["qfact_inv"]
        t0 = perf_counter()
        _, _, text = run_op(op, 0)
        ms = (perf_counter() - t0) * 1000
        after = _cache_counts()["qfact_inv"]
        emit({"op": 0, "key": argv[1], "ms": ms,
              "sha": hashlib.sha256(text.encode()).hexdigest(),
              "qfact_inv_cache": {"hits": after[0] - before[0],
                                  "misses": after[1] - before[1]}})
        return 0
    workload, seed, trace = argv
    run_pass(workload, int(seed), trace == "1", emit)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
