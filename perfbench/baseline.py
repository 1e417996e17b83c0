"""Measure the baseline split of verify-all on this machine with one command.

    python3 perfbench/baseline.py [--out perfbench/results/baseline.json]

For each workload it runs one untraced and one traced pass of pass seed 0,
then prints and writes:
  - the garrett-forms share of verify-all time (garrett-forms wall time
    over garrett-forms plus registry-rest wall time, untraced);
  - identities.<id>.s of the seven slowest identities (traced verdicts);
  - the series.mul self-time share of each workload's traced wall time;
  - the deep-q gap between poch_inf_inv and poch(...).reciprocal() for
    each product and qmax.  Each inverse is timed alone in a fresh child,
    so every lru_cache is cold; within a deep-q pass the first inverse at
    a qmax fills the shared _qfact_inv_coeffs cache for the others, and
    its time depends on the request order.  The median of COLD_REPEATS
    children is kept, with the qfact_inv cache hits and misses of the
    poch_inf_inv op.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import run
import worker
import workloads

PASS_SEED = 0
COLD_REPEATS = 3


def cold_op(key: str) -> dict:
    """Time one deep-q op alone in fresh children; median of the repeats."""
    runs = []
    for _ in range(COLD_REPEATS):
        events, _, killed = run._spawn(["op", key], run.CHILD_CAP_S)
        if killed or not events:
            sys.exit(f"{key}: no result")
        runs.append(events[-1])
    if len({e["sha"] for e in runs}) != 1:
        sys.exit(f"{key}: outputs differ between runs")
    return {"ms": statistics.median(e["ms"] for e in runs),
            "sha": runs[0]["sha"],
            "qfact_inv_cache": runs[0]["qfact_inv_cache"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path,
                    default=run.HERE / "results" / "baseline.json")
    args = ap.parse_args(argv)
    records = workloads.load_records()
    ids = [spec.id for spec in worker.import_qsw().registry()]
    plain, traced = {}, {}
    for w in workloads.WORKLOADS:
        n_ops = len(workloads.ops(w, PASS_SEED, ids))
        plain[w] = run.spawn_pass(w, PASS_SEED, False, run.CHILD_CAP_S, n_ops)
        traced[w] = run.spawn_pass(w, PASS_SEED, True, run.CHILD_CAP_S, n_ops)
        _, failed, problems = run.check_passes(
            w, [plain[w], traced[w]], [PASS_SEED] * 2, records)
        if failed or problems:
            sys.exit(f"{w}: {problems}")
    wall = {w: p.done["wall_s"] for w, p in plain.items()}
    layers = {w: p.done["layers"] for w, p in traced.items()}
    verify_all = wall["garrett-forms"] + wall["registry-rest"]
    expected = records["deep-q"]["outputs"]
    gap = {}
    for a, b in workloads.INVERSE_PRODUCTS:
        for qmax in workloads.INVERSE_QMAX:
            tag = f"{a},{b}:{qmax}"
            pii = cold_op(f"poch_inf_inv:{tag}")
            rec = cold_op(f"reciprocal:{tag}")
            if not pii["sha"] == rec["sha"] == expected[f"reciprocal:{tag}"]:
                sys.exit(f"inverse {tag}: outputs differ")
            gap[tag] = {"poch_inf_inv_ms": pii["ms"],
                        "reciprocal_ms": rec["ms"],
                        "ratio": pii["ms"] / rec["ms"],
                        "qfact_inv_cache": pii["qfact_inv_cache"]}
    idents = {}
    for ident in worker.TIMED_IDENTITIES:
        w = "garrett-forms" if ident in workloads.GARRETT_FORMS \
            else "registry-rest"
        idents[ident] = layers[w][f"identities.{ident}.s"]
    result = {
        "command": "python3 perfbench/baseline.py",
        "machine": {"python": platform.python_version(),
                    "cpu": platform.machine(), "cpus": os.cpu_count()},
        "pass_seed": PASS_SEED,
        "verify_all_s": verify_all,
        "wall_s": wall,
        "garrett_forms_share": wall["garrett-forms"] / verify_all,
        "identities_s": idents,
        "series_mul_self_share": {
            w: lay["series.mul.self_s"] / traced[w].done["wall_s"]
            for w, lay in layers.items()},
        "series_mul_fraction_share": {
            w: lay["series.mul.frac_calls"] / lay["series.mul.calls"]
            for w, lay in layers.items()},
        "deep_q_inverse_timing": (
            f"each op alone in a fresh child (cold caches), median of "
            f"{COLD_REPEATS}"),
        "deep_q_inverse": gap,
    }
    print(f"verify-all {verify_all:.2f} s; garrett-forms "
          f"{wall['garrett-forms']:.2f} s = "
          f"{result['garrett_forms_share']:.0%}")
    for ident, secs in idents.items():
        print(f"  {ident:16s} {secs:.3f} s (traced)")
    for w, share in result["series_mul_self_share"].items():
        print(f"  series.mul self share of {w}: {share:.0%}, "
              f"Fraction muls {result['series_mul_fraction_share'][w]:.0%}")
    for tag, g in gap.items():
        print(f"  inverse {tag}: poch_inf_inv {g['poch_inf_inv_ms']:.1f} ms, "
              f"reciprocal {g['reciprocal_ms']:.1f} ms, x{g['ratio']:.1f} "
              f"(cold; qfact_inv cache {g['qfact_inv_cache']})")
    args.out.parent.mkdir(exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
