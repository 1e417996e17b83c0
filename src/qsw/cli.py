"""Command-line interface.

Subcommands:
  list                 print registry ids and descriptions
  verify <id|all>      verify identities; exit 0 all pass, 1 any fail, 2 error
  eval <family>        print a named series (text or JSON)
  garrett-convention   measure the Garrett sign convention
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .series import DEFAULT_TABLE, caps
from .qfunctions import garrett_a, garrett_b, rq_at_power
from .polynomials import MAX_ORDER, MAX_QMAX, rogers_szego, sw_classic, \
    sw_star
from .verify import (
    BindingViolation, InvalidRequest, UnknownIdentity, VerifyConfig, registry,
    report_lines, reports_json, resolve_garrett_convention, verify_all,
)

EVAL_FAMILIES = {"sw": sw_classic, "sw-star": sw_star, "rs": rogers_szego,
                 "rq": rq_at_power, "garrett-a": garrett_a,
                 "garrett-b": garrett_b}


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text}") from exc


def _parse_cap(text: str):
    name, _, value = text.partition("=")
    try:
        return name, int(value)
    except ValueError:
        raise argparse.ArgumentTypeError("expected var=N") from None


def _parse_bind(text: str):
    name, _, value = text.partition("=")
    if not value:
        raise argparse.ArgumentTypeError("expected var=p/r")
    return name, _parse_fraction(value)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage error is the one line
    "<prog>: error: <message>", with exit status 2 and no usage text; its
    subparsers are of its class (add_subparsers' default parser_class)."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="qsw",
        description="exact q-series workbench and identity verifier")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print registry ids and descriptions")

    pv = sub.add_parser("verify", help="verify one identity or all")
    pv.add_argument("ident", metavar="id", help="identity id or 'all'")
    pv.add_argument("--qmax", type=int, default=None)
    pv.add_argument("--cap", action="append", type=_parse_cap, default=[],
                    metavar="var=N", help="per-variable degree cap")
    pv.add_argument("--bind", action="append", type=_parse_bind, default=[],
                    metavar="var=p/r", help="rational binding")
    pv.add_argument("--trials", type=int, default=None)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--sum-order", type=int, default=None)
    pv.add_argument("--json", action="store_true")

    pe = sub.add_parser("eval", help="print a named series")
    pe.add_argument("family", choices=EVAL_FAMILIES)
    pe.add_argument("--n", type=int, required=True, metavar="K")
    pe.add_argument("--qmax", type=int, default=25)
    pe.add_argument("--json", action="store_true")

    pg = sub.add_parser("garrett-convention",
                        help="measure the Garrett sign convention")
    pg.add_argument("--kmax", type=int, default=6)
    pg.add_argument("--qmax", type=int, default=40)
    return p


def _cmd_list() -> int:
    for spec in registry():
        print(f"{spec.id:16s} {spec.description}")
    return 0


def _cmd_verify(args) -> int:
    ids = None if args.ident == "all" else [args.ident]
    try:
        cfg = VerifyConfig(
            qmax=args.qmax,
            var_caps=dict(args.cap),
            sum_order=args.sum_order,
            trials=args.trials,
            seed=args.seed,
            bindings=dict(args.bind),
        )
        reports = verify_all(cfg, ids)
    except UnknownIdentity as exc:
        print(f"unknown identity: {exc}", file=sys.stderr)
        return 2
    except BindingViolation as exc:
        print(f"binding violation: {exc}", file=sys.stderr)
        return 2
    except InvalidRequest as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(reports_json(reports))
    else:
        print(report_lines(reports))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_eval(args) -> int:
    # a_n and b_n recurse to depth n in qbinom_coeffs, so their --n is
    # bounded here as the polynomial families bound theirs; every family
    # rejects a negative --n or --qmax with ValueError, and --qmax is
    # bounded by MAX_QMAX here
    if args.family in ("garrett-a", "garrett-b") \
            and not 0 <= args.n <= MAX_ORDER:
        print(f"invalid request: order must be in 0..{MAX_ORDER}",
              file=sys.stderr)
        return 2
    if args.qmax > MAX_QMAX:
        print(f"invalid request: qmax must be at most {MAX_QMAX}",
              file=sys.stderr)
        return 2
    try:
        s = EVAL_FAMILIES[args.family](
            args.n, caps(args.qmax, DEFAULT_TABLE), DEFAULT_TABLE)
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    print(s.json_text() if args.json else s.text())
    return 0


def _cmd_garrett(args) -> int:
    try:
        report = resolve_garrett_convention(args.kmax, args.qmax)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if report.convention is None:
        print("no single convention matches the direct-sum oracle")
        return 1
    print(f"convention: {report.convention} "
          f"(k <= {args.kmax}, qmax {args.qmax})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    if args.command == "list":
        return _cmd_list()
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "eval":
        return _cmd_eval(args)
    return _cmd_garrett(args)


if __name__ == "__main__":
    sys.exit(main())
