"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Perturbations are monkeypatched here, in this process; the program's
sources are never edited.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys

import pytest

import run
import worker
import workloads

IDS = [spec.id for spec in worker.import_qsw().registry()]


def _n_ops(workload):
    return len(workloads.ops(workload, 0, IDS))


def test_inputs_depend_only_on_seed():
    for w in workloads.WORKLOADS:
        random.seed(1)
        first = workloads.ops(w, 7, IDS)
        random.seed(2)
        assert workloads.ops(w, 7, IDS) == first
        orders = {tuple(workloads.ops(w, s, IDS)) for s in range(6)}
        assert len(orders) > 1
        assert all(sorted(o, key=repr) == sorted(first, key=repr)
                   for o in orders)
    code = ("import json, worker, workloads; "
            "ids = [s.id for s in worker.import_qsw().registry()]; "
            "print(json.dumps([workloads.ops(w, 3, ids) "
            "for w in workloads.WORKLOADS]))")
    outs = {subprocess.run([sys.executable, "-c", code], cwd=run.HERE,
                           env=dict(os.environ, PYTHONHASHSEED=h),
                           capture_output=True, text=True, timeout=60,
                           check=True).stdout
            for h in ("1", "2")}
    assert len(outs) == 1


def test_perturbed_side_is_reported_failed(monkeypatch):
    identities = sys.modules["qsw.identities"]
    spec = identities.BY_ID["I-POCH-1"]
    bad = dataclasses.replace(
        spec, build_rhs=lambda e: spec.build_rhs(e) + e.qpow(3))
    monkeypatch.setitem(identities.BY_ID, "I-POCH-1", bad)
    events = []
    worker.run_pass("registry-rest", 0, False, events.append)
    p = run.Pass(events, None, False, _n_ops("registry-rest"))
    records = workloads.load_records()
    attempted, failed, problems = run.check_passes(
        "registry-rest", [p], [0], records)
    assert failed / attempted > 0
    assert any("verify:I-POCH-1" in msg for msg in problems)
    if "0" in records["registry-rest"]["digests"]:
        assert failed == attempted


def test_perturbed_value_fails_on_unrecorded_seed(monkeypatch):
    polynomials = sys.modules["qsw.polynomials"]
    sw_star = polynomials.sw_star
    monkeypatch.setattr(polynomials, "sw_star",
                        lambda n, caps, table: sw_star(n, caps, table) + 1)
    events = []
    worker.run_pass("deep-q", 987654, False, events.append)
    p = run.Pass(events, None, False, _n_ops("deep-q"))
    attempted, failed, problems = run.check_passes(
        "deep-q", [p], [987654], workloads.load_records())
    assert failed == workloads.EVAL_NMAX + 1
    assert problems


def test_every_pass_of_a_recorded_seed_has_a_digest():
    records = workloads.load_records()
    for w in workloads.WORKLOADS:
        for seed in workloads.RECORDED_SEEDS:
            for i in range(3 * workloads.RECORDED_PASSES[w]):
                assert str(workloads.pass_seed(w, seed, i)) \
                    in records[w]["digests"]


@pytest.mark.parametrize("workload", ["registry-rest", "deep-q"])
def test_traced_outputs_match_untraced(workload):
    n = _n_ops(workload)
    plain = run.spawn_pass(workload, 5, False, run.CHILD_CAP_S, n)
    traced = run.spawn_pass(workload, 5, True, run.CHILD_CAP_S, n)
    assert plain.finished and traced.finished
    assert [e["sha"] for e in traced.ops] == [e["sha"] for e in plain.ops]
    assert traced.done["digest"] == plain.done["digest"]
    layers = traced.done["layers"]
    assert layers["trace.self_sum_s"] <= traced.done["wall_s"]
    assert {n for n in run.RESULT_LAYERS
            if not n.startswith("trace.")} <= layers.keys()


def test_time_cap_fails_the_running_op():
    n = _n_ops("garrett-forms")
    p = run.spawn_pass("garrett-forms", 0, False, 1.0, n)
    assert p.killed and not p.finished
    assert p.failed == n
    _, failed, problems = run.check_passes(
        "garrett-forms", [p], [0], workloads.load_records())
    assert failed == n and problems


def test_result_line_matches_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == list(run.RESULT_LAYERS)
    *_, metrics, _ = run.measure("registry-rest", 0, 0, _n_ops(
        "registry-rest"), workloads.load_records())
    assert [m["name"] for m in bench["end_to_end"]] == list(metrics)
    for m in bench["end_to_end"]:
        assert metrics[m["name"]][1] == m["unit"]
        assert metrics[m["name"]][0] > 0
