"""The benchmark's workloads: which ops each one runs, generated from a seed.

An op is one request a user of qsw makes: a `verify(id, cfg)` verdict, one
`qsw eval` family value rendered with `Series.text()`, or one inverse of a
Rogers-Ramanujan product.  A workload seed fixes everything the program
sees: the `VerifyConfig` seed of every verdict, the order of the requests,
and their inputs.  This module imports nothing from qsw, so the op lists
can be built and compared without running the program.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("garrett-forms", "registry-rest", "deep-q")

# The four Garrett-form identities take about three quarters of verify-all.
GARRETT_FORMS = ("T4-BY1", "T4-2PROD", "T4-SRIAGA-YZ1", "T4-RSGF-BZY1")

# deep-q: high-precision univariate traffic with integer coefficients only.
DEEP_VERIFY = ("I-RR1", "I-RR2", "I-GARRETT")
DEEP_VERIFY_QMAX = 300
EVAL_FAMILIES = ("sw", "sw-star", "rs", "rq", "garrett-a", "garrett-b")
EVAL_NMAX = 40
EVAL_QMAX = 200
# (q, q^4; q^5)_inf and (q^2, q^3; q^5)_inf, each inverted two ways
INVERSE_PRODUCTS = ((1, 4), (2, 3))
INVERSE_QMAX = (50, 100, 150)
INVERSE_METHODS = ("poch_inf_inv", "reciprocal")

RECORDS_PATH = Path(__file__).resolve().parent / "workloads.json"

# Workload seeds whose pass digests workloads.json records, and the pass
# seeds recorded per workload seed: about as many passes as a 25 s run
# makes on a 2-core x86_64 host.  A run that makes more passes cycles
# through them.
RECORDED_SEEDS = range(11)
RECORDED_PASSES = {"garrett-forms": 4, "registry-rest": 12, "deep-q": 10}


def pass_seed(workload: str, seed: int, index: int) -> int:
    """Seed of the index-th pass of a run with the given workload seed.

    Each pass of a run gets its own `VerifyConfig` seed and request order,
    so a run's median spans several draws of the random bindings.  The
    index wraps at RECORDED_PASSES, so every pass of a recorded workload
    seed has a recorded digest however fast the program gets.
    """
    return seed * 1000 + index % RECORDED_PASSES[workload]


def ops(workload: str, seed: int, registry_ids) -> list[tuple]:
    """The ordered ops of one pass.

    registry_ids lists every registered identity id; registry-rest is all
    of them but the Garrett forms.  The result depends only on the
    arguments.
    """
    if workload == "garrett-forms":
        out = [("verify", ident, None) for ident in GARRETT_FORMS]
    elif workload == "registry-rest":
        out = [("verify", ident, None) for ident in registry_ids
               if ident not in GARRETT_FORMS]
    elif workload == "deep-q":
        out = [("verify", ident, DEEP_VERIFY_QMAX) for ident in DEEP_VERIFY]
        out += [("eval", fam, n) for fam in EVAL_FAMILIES
                for n in range(EVAL_NMAX + 1)]
        out += [(method, prod, qmax) for method in INVERSE_METHODS
                for prod in INVERSE_PRODUCTS for qmax in INVERSE_QMAX]
    else:
        raise ValueError(f"unknown workload: {workload}")
    random.Random(f"{workload}:{seed}").shuffle(out)
    return out


def op_key(op: tuple) -> str:
    """Stable text name of an op, e.g. 'verify:I-RR1' or 'eval:sw:12'."""
    kind, arg, val = op
    if kind == "verify":
        return f"verify:{arg}"
    if kind == "eval":
        return f"eval:{arg}:{val}"
    return f"{kind}:{arg[0]},{arg[1]}:{val}"


def load_records() -> dict:
    """Recorded inputs, sizes, digests and reference outputs per workload."""
    with open(RECORDS_PATH) as fh:
        return json.load(fh)
