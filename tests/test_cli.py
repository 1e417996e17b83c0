"""Command-line interface: exit codes, output formats, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import qsw
from qsw.cli import main
from qsw.identities import BY_ID, IdentitySpec
from qsw.series import caps, monomial_series
from qsw.polynomials import MAX_ORDER, MAX_QMAX, sw_star
from qsw.verify import MAX_TRIALS


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_list_prints_registry(capsys):
    code, out = run(["list"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) >= 30
    assert any(line.startswith("I-RR1") for line in lines)


def test_verify_single_pass(capsys):
    code, out = run(["verify", "I-RR1", "--qmax", "20"], capsys)
    assert code == 0
    assert out.startswith("PASS I-RR1")


def test_verify_unknown_id_exits_2(capsys):
    assert main(["verify", "NOPE"]) == 2


def test_verify_binding_violation_exits_2(capsys):
    assert main(["verify", "T4-BY1", "--bind", "y=0/1"]) == 2


def test_verify_user_binding(capsys):
    code, out = run(["verify", "T4-BY1", "--qmax", "12", "--cap", "x=4",
                     "--cap", "a=4", "--bind", "y=3/2", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data[0]["bindings"]["y"] == "3/2"
    assert data[0]["bindings"]["b"] == "2/3"


def test_verify_failure_exits_1(capsys):
    base = BY_ID["I-RR2"]
    BY_ID["FIXTURE-CLI"] = IdentitySpec(
        id="FIXTURE-CLI",
        description="fixture",
        build_lhs=base.build_lhs,
        build_rhs=lambda e: base.build_rhs(e) + e.one(),
        qmax=10,
    )
    try:
        code, out = run(["verify", "FIXTURE-CLI"], capsys)
        assert code == 1
        assert "FAIL FIXTURE-CLI" in out
        assert "first mismatch" in out
    finally:
        del BY_ID["FIXTURE-CLI"]


@pytest.fixture
def perturbed_at_q3z2():
    """I-EQBIG-PROD with q^3 z^2 added to its right side, where both sides
    read 2 (z^2 q^(0+3) and z^2 q^(1+2) in (-z;q)inf)."""
    base = BY_ID["I-EQBIG-PROD"]
    BY_ID["FIXTURE-Q3Z2"] = IdentitySpec(
        id="FIXTURE-Q3Z2",
        description="fixture",
        build_lhs=base.build_lhs,
        build_rhs=lambda e: base.build_rhs(e)
        + monomial_series(1, 3, {"z": 2}, caps_=e.caps),
        qmax=10,
    )
    yield "FIXTURE-Q3Z2"
    del BY_ID["FIXTURE-Q3Z2"]


def test_a_fail_witness_renders_its_q_and_variable_parts(perturbed_at_q3z2,
                                                         capsys):
    code, out = run(["verify", perturbed_at_q3z2, "--json"], capsys)
    assert code == 1
    assert json.loads(out)[0]["witness"] == {
        "monomial": "q^3*z^2", "lhs": "2/1", "rhs": "3/1"}
    code, out = run(["verify", perturbed_at_q3z2], capsys)
    assert code == 1
    assert out.startswith("FAIL FIXTURE-Q3Z2 (")
    assert out.rstrip().endswith(" first mismatch at q^3*z^2: lhs=2/1 rhs=3/1")


def test_verify_json_schema_and_determinism(capsys):
    args = ["verify", "T6-ROGERS", "--qmax", "10", "--sum-order", "3",
            "--trials", "2", "--seed", "5", "--json"]
    code1, out1 = run(args, capsys)
    code2, out2 = run(args, capsys)
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    for rep in a + b:
        rep["elapsed_ms"] = 0
    assert json.dumps(a) == json.dumps(b)
    assert list(a[0]) == ["id", "pass", "caps", "bindings", "elapsed_ms"]
    assert a[0]["bindings"]["t"].count("/") == 1


@pytest.mark.parametrize("seed, digest", [
    (0, "750b7131e3ec05f5"), (1, "ffc32009c9089895"),
    (7, "77ec06fcd564b5b9")])
def test_verify_all_json_is_byte_stable(seed, digest, capsys):
    # every report at these seeds, its elapsed_ms lines dropped, pinned byte
    # for byte: `qsw verify all --seed S --json | grep -v elapsed_ms |
    # sha256sum`; a change to any verdict, witness, cap or binding fails
    code, out = run(["verify", "all", "--seed", str(seed), "--json"], capsys)
    assert code == 0
    kept = "".join(line for line in out.splitlines(keepends=True)
                   if "elapsed_ms" not in line)
    assert hashlib.sha256(kept.encode()).hexdigest()[:16] == digest


def test_eval_sw_star_text(capsys):
    code, out = run(["eval", "sw-star", "--n", "1"], capsys)
    assert code == 0
    assert out.strip() == "x + q*y"


def test_eval_json_matches_series(capsys):
    code, out = run(["eval", "sw-star", "--n", "2", "--qmax", "12"], capsys)
    assert code == 0
    assert out.strip() == sw_star(2, caps(12)).text()
    code, out = run(["eval", "sw-star", "--n", "2", "--qmax", "12", "--json"],
                    capsys)
    data = json.loads(out)
    assert data == sw_star(2, caps(12)).to_json_dict()


def test_eval_rq_is_direct_sum(capsys):
    code, out = run(["eval", "rq", "--n", "2", "--qmax", "8"], capsys)
    assert code == 0
    assert out.strip() == "1 + q^3 + q^4 + q^5 + q^6 + q^7 + 2*q^8"


def test_eval_rq_at_a_high_power_is_bounded(capsys):
    # sum q^(n^2 + Kn)/(q;q)_n is 1 through q^K; q^K is cut at the window
    # top before a row is placed, so neither time nor memory grows with K
    tracemalloc.start()
    try:
        code, out = run(["eval", "rq", "--n", "10000000", "--qmax", "5"],
                         capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.strip() == "1"
    assert peak < 5_000_000


def test_eval_garrett(capsys):
    code, out = run(["eval", "garrett-b", "--n", "3"], capsys)
    assert code == 0
    assert out.strip() == "1 + q"


def test_eval_negative_n_exits_2(capsys):
    assert main(["eval", "sw", "--n", "-1"]) == 2


def test_garrett_convention_command(capsys):
    code, out = run(["garrett-convention", "--kmax", "4", "--qmax", "30"],
                    capsys)
    assert code == 0
    assert "alternating" in out


@pytest.mark.parametrize("argv", [
    ["verify", "I-RR1", "--cap", "nope=3"],
    ["verify", "I-RR1", "--qmax", "-1"],
    ["eval", "sw", "--n", "65"],
    ["verify", "I-RR1", "--bind", "y=2/3"],
    ["eval", "garrett-a", "--n", "1500", "--qmax", "5"],
    ["eval", "garrett-b", "--n", "1500", "--qmax", "5"],
    ["eval", "sw", "--n", "2", "--qmax", "-1"],
    ["garrett-convention", "--qmax", "-1"],
    ["verify", "T4-GF", "--sum-order", "70"],
    ["verify", "T4-SRIAGA-YZ1", "--cap", "x=70", "--trials", "1"],
    # a q-window above MAX_QMAX would allocate a dense row of that length
    ["eval", "rq", "--n", "0", "--qmax", "1000000000"],
    ["eval", "garrett-a", "--n", "1", "--qmax", str(MAX_QMAX + 1)],
    ["verify", "I-RR1", "--qmax", str(MAX_QMAX + 1)],
    ["garrett-convention", "--qmax", str(MAX_QMAX + 1)],
    # --kmax 200 --qmax 40 ran for minutes
    ["garrett-convention", "--kmax", str(MAX_ORDER + 1)],
    ["verify", "I-RR1", "--trials", str(MAX_TRIALS + 1)],
    ["verify", "I-RR1", "--cap", f"x={MAX_ORDER + 1}"],
    # within the cap bound, T4-SRIAGA-YZ1 still asks for S*_n at n > 64
    ["verify", "T4-SRIAGA-YZ1", "--cap", "x=60", "--trials", "1"],
    # x is not a parameter of T4-BY1: binding it used to report a false FAIL
    ["verify", "T4-BY1", "--bind", "y=2", "--bind", "x=1/3"],
    # argparse usage errors: a missing id and an unknown family
    ["verify"],
    ["eval", "bogus", "--n", "1"],
])
def test_usage_error_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "T4-BY1", "--bind", "y=2", "--bind", "x=1/3"],
    ["verify", "T4-SRIAGA-YZ1", "--bind", "z=2", "--bind", "b=1/2"],
    ["verify", "T6-ROGERS", "--bind", "t=2", "--bind", "s=3", "--bind",
     "y=1"],
    ["verify", "all", "--bind", "y=2"],
])
def test_binding_an_undeclared_name_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("binding violation:")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("ident", ["T4-BY1", "I-LEIBNIZ"])
def test_verify_zero_trials_exits_2(ident, capsys):
    assert main(["verify", ident, "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "no case" in captured.err


def test_verify_more_trials_than_bindings_exits_2():
    # T4-BY1 draws y from 14 distinct rationals; asking for 15 used to hang
    src = str(Path(qsw.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "qsw.cli", "verify", "T4-BY1", "--trials", "15"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("binding violation:")
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["--bind", "y=abc"], "argument --bind: not a rational: abc"),
    (["--bind", "y=1/0"], "argument --bind: not a rational: 1/0"),
    (["--bind", "y"], "argument --bind: expected var=p/r"),
    (["--cap", "x"], "argument --cap: expected var=N"),
    # a non-integer value names no private parser
    (["--cap", "x=abc"], "argument --cap: expected var=N"),
])
def test_malformed_cap_or_binding_exits_2_with_one_error_line(argv, message,
                                                              capsys):
    assert main(["verify", "I-POCH-1", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the error line alone, with no usage text before it
    assert captured.err == f"qsw verify: error: {message}\n"


def test_more_trials_than_bindings_names_the_count(capsys):
    assert main(["verify", "T4-BY1", "--trials", "15"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("binding violation: T4-BY1 has only 14 distinct "
                            "random bindings, 15 trials requested\n")


def test_garrett_dependent_text_line_names_the_convention(capsys):
    code, out = run(["verify", "T4-BY1", "--qmax", "8", "--cap", "x=2",
                     "--trials", "1"], capsys)
    assert code == 0
    assert out.startswith("PASS T4-BY1 (")
    assert out.rstrip().endswith(" ms) convention=alternating")
