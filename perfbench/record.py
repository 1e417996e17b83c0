"""Record each workload's pass digests, reference outputs and sizes.

    python3 perfbench/record.py [--workload NAME ...]

For every recorded workload seed (workloads.RECORDED_SEEDS) it runs, in
fresh untraced children, the workload's RECORDED_PASSES passes and stores
each pass digest under its pass seed in workloads.json.  Every verdict must
pass, and every deep-q value must be the same in every pass and equal for
the two inverses of a product; the deep-q values are stored per op.  One
traced pass at the default seed gives the recorded sizes.  Hand-written
fields of workloads.json (why, inputs) are kept.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def record(workload: str, records: dict) -> None:
    ids = [spec.id for spec in run.worker.import_qsw().registry()]
    n_ops = len(workloads.ops(workload, 0, ids))
    rec = records[workload]
    digests, outputs, walls = {}, {}, {}
    for seed in workloads.RECORDED_SEEDS:
        for i in range(workloads.RECORDED_PASSES[workload]):
            s = workloads.pass_seed(workload, seed, i)
            p = run.spawn_pass(workload, s, False, run.CHILD_CAP_S, n_ops)
            fresh = {workload: dict(rec, digests={}, outputs=outputs)}
            _, failed, problems = run.check_passes(workload, [p], [s], fresh)
            if failed or problems:
                sys.exit(f"{workload} pass seed {s}: {problems}")
            digests[str(s)] = p.done["digest"]
            walls[str(s)] = p.done["wall_s"]
            if workload == "deep-q":
                outputs.update((e["key"], e["sha"]) for e in p.ops)
            print(f"{workload} pass seed {s}: {p.done['digest'][:16]} "
                  f"{p.done['wall_s']:.3f} s", flush=True)
    rec["digests"] = digests
    if outputs:
        rec["outputs"] = dict(sorted(outputs.items()))
    s = workloads.pass_seed(workload, rec["default_seed"], 0)
    traced = run.spawn_pass(workload, s, True, run.CHILD_CAP_S, n_ops)
    layers = traced.done["layers"]
    calls = layers["series.mul.calls"]
    rec["sizes"] = {
        "ops_per_pass": n_ops,
        "cases_per_pass": layers["identities.cases"],
        "series_mul_calls": calls,
        "term_pairs_per_mul": round(layers["series.mul.term_pairs"] / calls),
        "fraction_mul_share": round(layers["series.mul.frac_calls"] / calls,
                                    3),
        "pass_s": round(walls[str(s)], 2),
        "sizes_from": f"pass seed {s}; counts from its traced pass",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=workloads.WORKLOADS)
    args = ap.parse_args(argv)
    records = workloads.load_records()
    for workload in args.workload or workloads.WORKLOADS:
        record(workload, records)
        with open(workloads.RECORDS_PATH, "w") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
