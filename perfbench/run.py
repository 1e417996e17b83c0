"""qsw benchmark: end-to-end timings per workload, or a traced run.

    python3 perfbench/run.py --workload deep-q --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py and workloads.json):
  garrett-forms  verify() of the four Garrett-form identities at defaults
  registry-rest  verify() of the other 37 identities at defaults
  deep-q         high-q verdicts, `qsw eval` values at qmax 200, and the
                 inverse of two Rogers-Ramanujan products two ways

Every pass runs in a fresh single-threaded child process (worker.py), so
each starts with cold caches, as a `qsw verify` call does.  Passes run one
at a time until --seconds have gone by.  Each child gets a wall-clock cap;
an op still running when its child is killed counts as failed.

--trace 0 prints the end-to-end metrics: setup_s, wall_s, op_p50_ms,
op_p90_ms, peak_rss_mb and ok_ratio (1 - fail_ratio).  --trace 1
alternates untraced and traced passes of one pass seed and prints the
per-layer metrics and trace.overhead_ratio.  Both check every output: each
verdict passes, deep-q values equal the recorded ones, the two inverses of
a product agree, and each pass digest equals the one recorded for its seed
(a mismatch fails every op of the run).  The traced run also checks that
tracing leaves the outputs byte-identical, that the exact counts repeat,
and that the layers' self times sum to at most the traced wall time.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit code 0 on a finished run, 2 when qsw's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CHILD_CAP_S = 120.0  # wall-clock cap of one child process
RUN_CAP_S = 170.0  # no child may outlive this much of the run
# setup_s is the median of at least MIN_SETUPS spawns, taken between the
# passes so that they sample the whole run rather than one moment of it
MIN_SETUPS = 25
SETUPS_PER_GAP = 4
MIN_TRACE_ROUNDS = 2

# counts that must repeat exactly across traced passes of one seed
EXACT_COUNTS = (
    "series.mul.calls", "series.mul.term_pairs", "series.mul.frac_calls",
    "series.coeff_bits_max", "identities.cases",
    "qfunctions.qfact_inv_cache.hits", "qfunctions.qfact_inv_cache.misses",
    "qfunctions.qbinom_cache.hits", "qfunctions.qbinom_cache.misses",
)

# Per-layer metrics of the result line: every count and ratio, and the
# self times of layers that all three workloads reach.  The traced run
# prints the other self times too; they read 0 on a workload that does not
# reach the layer, so they are not part of the result line.
RESULT_LAYERS = (
    "series.mul.calls", "series.mul.self_s", "series.mul.term_pairs",
    "series.mul.frac_calls", "series.mul.kept_ratio",
    "series.coeff_bits_max", "series.add.self_s", "series.reciprocal.calls",
    "series.reciprocal.self_s", "series.equals_mod_caps.self_s",
    "qfunctions.poch_inf_inv.calls", "qfunctions.poch_inf_inv.self_s",
    "qfunctions.poch.self_s", "qfunctions.garrett_ab.self_s",
    "qfunctions.qfact_inv.calls", "qfunctions.qfact_inv_cache.hits",
    "qfunctions.qfact_inv_cache.misses",
    "qfunctions.qfact_inv_cache.hit_ratio", "qfunctions.qbinom_cache.hits",
    "qfunctions.qbinom_cache.misses", "qfunctions.qbinom_cache.hit_ratio",
    "operators.rr_op.calls", "operators.dq.calls", "polynomials.calls",
    "identities.cases",
    "identities.lhs.self_s", "identities.rhs.self_s", "verify.calls",
    "verify.cmp.self_s", "verify.garrett_convention_s", "trace.wall_s",
    "trace.overhead_ratio",
)


class Pass:
    """What one child process reported, and how long its setup took."""

    def __init__(self, events: list, setup_s, killed: bool, n_ops: int):
        self.setup_s = setup_s
        self.killed = killed
        self.n_ops = n_ops
        self.ops = [e for e in events if "op" in e]
        self.done = next((e for e in events if "done" in e), None)

    @property
    def finished(self) -> bool:
        return self.done is not None and len(self.ops) == self.n_ops

    @property
    def failed(self) -> int:
        """Ops that failed, raised, or never finished."""
        return self.n_ops - sum(1 for e in self.ops if e["ok"])


def _spawn(args: list, cap: float):
    """Run a worker; return (events, seconds until ready or None, killed)."""
    # fixed hashing; imports use cached bytecode, as an installed qsw does
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    lines: queue.Queue = queue.Queue()
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)

    def pump():
        for line in proc.stdout:
            lines.put((perf_counter(), line))
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    events, ready_s, killed = [], None, False
    deadline = t0 + cap
    while True:
        try:
            item = lines.get(timeout=max(deadline - perf_counter(), 0))
        except queue.Empty:
            proc.kill()
            killed = True
            break
        if item is None:
            break
        t, line = item
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "ready" in event and ready_s is None:
            ready_s = t - t0
        events.append(event)
    proc.wait()
    reader.join()
    if proc.returncode != 0 and not killed:
        print(f"worker {' '.join(args)} exited with {proc.returncode}",
              file=sys.stderr)
    return events, ready_s, killed


def spawn_pass(workload: str, seed: int, trace: bool, cap: float,
               n_ops: int) -> Pass:
    events, ready_s, killed = _spawn(
        [workload, str(seed), "1" if trace else "0"], cap)
    return Pass(events, ready_s, killed, n_ops)


def spawn_setup(cap: float):
    """Seconds from spawning a child until qsw is imported, the registry
    loaded and the Garrett convention resolved."""
    _, ready_s, _ = _spawn(["setup"], cap)
    return ready_s


def check_passes(workload: str, passes: list, seeds: list,
                 records: dict) -> tuple:
    """Check every output of a run; return (attempted, failed, problems).

    An op fails when its verdict fails, it raises or never finishes, its
    output differs from the recorded one, or (for the two inverses of one
    product) it differs from its twin.  A pass digest that differs from the
    one recorded for its seed counts every op of the run as failed.
    """
    rec = records[workload]
    expected = rec.get("outputs", {})
    problems = []
    digest_bad = False
    for p, seed in zip(passes, seeds):
        shas = {e["key"]: e["sha"] for e in p.ops}
        for e in p.ops:
            key = e["key"]
            if expected.get(key, e["sha"]) != e["sha"]:
                e["ok"] = False
            if key.startswith("poch_inf_inv:"):
                twin = shas.get("reciprocal:" + key.split(":", 1)[1])
                if twin is not None and twin != e["sha"]:
                    e["ok"] = False
        if p.killed:
            problems.append(f"pass seed {seed} killed at the time cap")
        if not p.finished:
            problems.append(f"pass seed {seed} did not finish")
        elif rec["digests"].get(str(seed), p.done["digest"]) \
                != p.done["digest"]:
            digest_bad = True
            problems.append(f"pass seed {seed} digest differs from record")
    attempted = sum(p.n_ops for p in passes)
    failed = attempted if digest_bad else sum(p.failed for p in passes)
    bad = sorted({e["key"] for p in passes for e in p.ops if not e["ok"]})
    if bad:
        problems.append(f"failed ops: {', '.join(bad)}")
    return attempted, failed, problems


def _percentile(sorted_vals: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(math.ceil(p * len(sorted_vals)) - 1, 0)]


def _add_setups(samples: list, count: int, deadline: float) -> None:
    for _ in range(count):
        s = spawn_setup(min(CHILD_CAP_S, deadline - perf_counter()))
        if s is None:
            return
        samples.append(s)


def measure(workload: str, seed: int, seconds: float, n_ops: int,
            records: dict) -> tuple:
    """Untraced passes for `seconds`; the end-to-end metrics."""
    start = perf_counter()
    deadline = start + RUN_CAP_S
    passes, seeds, setups = [], [], []
    while not passes or perf_counter() - start < seconds:
        s = workloads.pass_seed(workload, seed, len(passes))
        p = spawn_pass(workload, s, False,
                       min(CHILD_CAP_S, deadline - perf_counter()), n_ops)
        passes.append(p)
        seeds.append(s)
        if p.killed:
            break
        if p.setup_s is not None:
            setups.append(p.setup_s)
        _add_setups(setups, SETUPS_PER_GAP, deadline)
    _add_setups(setups, MIN_SETUPS - len(setups), deadline)
    attempted, failed, problems = check_passes(workload, passes, seeds,
                                               records)
    done = [p for p in passes if p.finished]
    lat = sorted(e["ms"] for p in done for e in p.ops)
    metrics, notes = {}, {}
    if setups:
        metrics["setup_s"] = (statistics.median(setups), "s")
        notes["setup_s"] = f"median of {len(setups)} spawns"
    if done:
        walls = [p.done["wall_s"] for p in done]
        metrics["wall_s"] = (statistics.median(walls), "s")
        notes["wall_s"] = (f"median of {len(done)} passes "
                           f"({min(walls):.3f} to {max(walls):.3f})")
        metrics["op_p50_ms"] = (statistics.median(lat), "ms")
        notes["op_p50_ms"] = f"median of {len(lat)} ops"
        p90 = _percentile(lat, 0.9)
        beyond = sum(1 for v in lat if v > p90)
        metrics["op_p90_ms"] = (p90, "ms")
        notes["op_p90_ms"] = (f"nearest rank of {len(lat)} ops, "
                              f"{beyond} beyond")
        rss = [p.done["rss_mb"] for p in done]
        metrics["peak_rss_mb"] = (statistics.median(rss), "MB")
        notes["peak_rss_mb"] = (f"median of {len(done)} pass peaks "
                                f"({min(rss):.1f} to {max(rss):.1f})")
    metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
    notes["ok_ratio"] = (f"fail_ratio {failed}/{attempted} = "
                         f"{failed / attempted:.4g} (failed / attempted ops)")
    digests = [f"{s}:{p.done['digest'][:12]}" for p, s in zip(passes, seeds)
               if p.done]
    unrecorded = sum(1 for s in seeds
                     if str(s) not in records[workload]["digests"])
    notes["digests"] = (f"{len(seeds) - unrecorded} of {len(seeds)} passes "
                        f"checked against a recorded digest, {unrecorded} "
                        f"without one (verdict and output checks only): "
                        + " ".join(digests))
    return attempted, failed, problems, metrics, notes


def measure_traced(workload: str, seed: int, seconds: float, n_ops: int,
                   records: dict) -> tuple:
    """Alternate untraced and traced passes of one seed; per-layer metrics."""
    start = perf_counter()
    deadline = start + RUN_CAP_S
    s = workloads.pass_seed(workload, seed, 0)
    plain, traced = [], []
    while len(traced) < MIN_TRACE_ROUNDS or perf_counter() - start < seconds:
        for trace, bucket in ((False, plain), (True, traced)):
            p = spawn_pass(workload, s, trace,
                           min(CHILD_CAP_S, deadline - perf_counter()), n_ops)
            bucket.append(p)
            if p.killed:
                break
        if any(p.killed for p in plain + traced):
            break
    passes = plain + traced
    attempted, failed, problems = check_passes(
        workload, passes, [s] * len(passes), records)
    metrics, notes = {}, {}
    if all(p.finished for p in passes):
        if len({p.done["digest"] for p in passes}) != 1:
            problems.append("traced outputs differ from untraced outputs")
            failed = attempted
        layers = [p.done["layers"] for p in traced]
        for name in EXACT_COUNTS + tuple(k for k in layers[0]
                                         if k.endswith(".calls")):
            if len({lay[name] for lay in layers}) != 1:
                problems.append(f"{name} differs between traced passes")
        for name in layers[0]:
            if name == "trace.self_sum_s":
                continue
            vals = [lay[name] for lay in layers]
            value = statistics.median(vals) if isinstance(vals[0], float) \
                else vals[0]
            metrics[name] = (value, _unit(name))
        traced_wall = statistics.median(p.done["wall_s"] for p in traced)
        plain_wall = statistics.median(p.done["wall_s"] for p in plain)
        for p in traced:
            if p.done["layers"]["trace.self_sum_s"] > p.done["wall_s"]:
                problems.append("layer self times exceed the traced wall")
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_ratio"] = (traced_wall / plain_wall - 1,
                                           "ratio")
        recorded = "a" if str(s) in records[workload]["digests"] else "no"
        notes["rounds"] = (f"{len(traced)} traced and {len(plain)} untraced "
                           f"passes of pass seed {s} ({recorded} recorded "
                           f"digest); times are medians, counts repeat "
                           f"exactly")
    return attempted, failed, problems, metrics, notes


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bits_max"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the recorded one)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qsw" / "__init__.py").is_file():
        print(f"qsw sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    records = workloads.load_records()
    seed = records[args.workload]["default_seed"] if args.seed is None \
        else args.seed
    ids = [spec.id for spec in worker.import_qsw().registry()]
    n_ops = len(workloads.ops(args.workload, 0, ids))
    run = measure_traced if args.trace else measure
    attempted, failed, problems, metrics, notes = run(
        args.workload, seed, args.seconds, n_ops, records)
    print(f"workload {args.workload}  seed {seed}  trace {args.trace}  "
          f"{n_ops} ops per pass")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        if args.trace and name not in RESULT_LAYERS:
            note = "(printed only)"
        print(f"  {name:36s} {value:14.6g} {unit:6s} {note}")
    for name in notes.keys() - metrics.keys():
        print(f"  {name}: {notes[name]}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if not args.trace or name in RESULT_LAYERS},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
