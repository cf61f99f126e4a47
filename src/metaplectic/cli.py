"""Command-line surface: certification runs, element/form evaluation, and
single-identity residual checks.

Exit codes: 0 all requested checks pass, 1 a check failed (a check that raises
one of the package's own errors fails on its own), 2 usage or resource error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .certify import DEFAULT_MAX_WORD_LEN, DEFAULT_PAIR_COUNT, DEFAULT_SEED, require_tolerance, run_certification
from .cover import ENUMERATION_LIMIT, Mat2, MetaElt, parse_word, word_lift
from .errors import DomainError, ModularityError, ResourceLimitError
from .qseries import CERTIFY_CONFIG, DEFAULT_CONFIG, NAMED_FORMS, QSeriesConfig, triangular_product
from .reps import Rep, modularity_residual
from .sampling import format_complex, full_grid, load_points, parse_complex, upper_grid
from .slash import Weight

USAGE_ERROR = 2


def _named_form(name: str, cfg: QSeriesConfig):
    """The VVForm of a ``NAMED_FORMS`` entry, or the scalar evaluator of ``zn:N``."""
    if name in NAMED_FORMS:
        return NAMED_FORMS[name](cfg)
    if name.startswith("zn:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"bad factor count in {name!r}")
        if n < 0:
            raise DomainError("factor count must be nonnegative")
        return lambda z: triangular_product(n, z)
    raise DomainError(f"unknown form {name!r}; expected {', '.join(NAMED_FORMS)} or zn:N")


def _format_vector(values) -> str:
    vals = np.atleast_1d(np.asarray(values, dtype=complex))
    if vals.shape == (1,):
        return format_complex(vals[0])
    return "(" + ", ".join(format_complex(v) for v in vals) + ")"


def _strict_json(value) -> str:
    """Indented, key-sorted JSON of ``value`` with every non-finite float written as the string
    "nan", "inf" or "-inf", so that strict parsers accept it."""
    def finite(v):
        if isinstance(v, float) and not math.isfinite(v):
            return str(v)
        if isinstance(v, dict):
            return {key: finite(x) for key, x in v.items()}
        return [finite(x) for x in v] if isinstance(v, (list, tuple)) else v

    return json.dumps(finite(value), indent=2, sort_keys=True, allow_nan=False)


def _cmd_certify(args) -> int:
    qcfg = replace(CERTIFY_CONFIG, min_im=args.min_im)
    points = load_points(args.samples) if args.samples else None
    report = run_certification(
        max_word_len=args.max_word_len,
        tol=args.tol,
        points=points,
        seed=args.seed,
        pair_count=args.pairs,
        force=args.force,
        qcfg=qcfg,
        check_filter=args.only.split(",") if args.only is not None else None,
    )
    for check in report["checks"]:
        residual = check["max_residual"]
        shown = residual if isinstance(residual, str) else f"{residual:.3e}"
        print(f"{'PASS' if check['pass'] else 'FAIL'}  {check['check_id']:<32} residual={shown}")
        if not check["pass"] and check["counterexample"]:
            print(f"      counterexample: {json.dumps(check['counterexample'], sort_keys=True)}")
    print(f"{'PASS' if report['pass'] else 'FAIL'}  overall ({len(report['checks'])} checks)")
    if args.json:
        Path(args.json).write_text(_strict_json(report) + "\n")
    return 0 if report["pass"] else 1


def _cmd_eval(args) -> int:
    if args.sign is not None and args.matrix is None:
        raise DomainError("--sign is the cover sign of --matrix and needs it")
    if args.elem is not None or args.matrix is not None:
        if args.form is not None or args.z is not None:
            raise DomainError("--elem/--matrix and --form/--z are mutually exclusive")
        if args.elem is not None:
            elt = word_lift(parse_word(args.elem))
        else:
            elt = MetaElt(Mat2.parse(args.matrix), 1 if args.sign is None else args.sign)
        print(elt)
        return 0
    if args.form is None or args.z is None:
        raise DomainError("need either --elem/--matrix or --form with --z")
    cfg = replace(DEFAULT_CONFIG, min_im=args.min_im)
    form = _named_form(args.form, cfg)
    z = parse_complex(args.z)
    value = form(z) if callable(form) else form.at(z)
    print(_format_vector(value))
    return 0


def _cmd_check(args) -> int:
    require_tolerance(args.tol)
    cfg = replace(DEFAULT_CONFIG, min_im=args.min_im)
    form = _named_form(args.form, cfg)
    if callable(form):
        raise DomainError(f"form {args.form!r} is not modular; nothing to check")
    if args.weight != form.weight.w:
        raise DomainError(f"form {args.form!r} has doubled weight {form.weight.w}, got --weight {args.weight}")
    elt = word_lift(parse_word(args.elem))
    rep = Rep.load(args.rep) if args.rep else form.rep
    if rep.dim != form.fn.dim:
        raise DomainError(f"representation has dimension {rep.dim}, form {args.form!r} has dimension {form.fn.dim}")
    if rep.group == "SL" and elt.det() != 1:
        raise DomainError("an SL-cover representation cannot check a determinant -1 element")
    if form.fn.lower is None and elt.det() == -1:
        raise DomainError(f"form {args.form!r} lives on the upper half-plane only")
    points = upper_grid() if form.fn.lower is None else full_grid()
    residual = modularity_residual(form.fn, Weight(args.weight), rep, (elt,), points)
    payload = {
        "form": args.form,
        "weight": args.weight,
        "elem": args.elem,
        "element": str(elt),
        "residual": residual,
        "tolerance": args.tol,
        "pass": residual <= args.tol,
    }
    if args.json:
        print(_strict_json(payload))
    else:
        print(f"{'PASS' if payload['pass'] else 'FAIL'}  |{args.form}|_{{w={args.weight}}} {args.elem!r}: "
              f"residual={residual:.3e} (tol {args.tol:.1e})")
    return 0 if payload["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metaplectic",
        description="Double cover of GL2(Z), half-integral-weight actions on the "
                    "double half-plane, and the certification suite.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="run the full certification suite")
    cert.add_argument("--max-word-len", type=int, default=DEFAULT_MAX_WORD_LEN,
                      help="generator-word length bound for the enumeration (default %(default)s)")
    cert.add_argument("--samples", type=str, default=None,
                      help="JSON file with an array of 'a+bi' sample points (upper half)")
    cert.add_argument("--tol", type=float, default=None,
                      help="override every numeric tolerance (default: per-check pinned values)")
    cert.add_argument("--json", type=str, default=None, help="write the JSON report here")
    cert.add_argument("--only", type=str, default=None, metavar="ID[,ID]",
                      help="run only these comma-separated check ids (default: every check)")
    cert.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for the random pair draws (default %(default)s)")
    cert.add_argument("--pairs", type=int, default=DEFAULT_PAIR_COUNT, help="random pair count per pair-based check (default %(default)s)")
    cert.add_argument("--force", action="store_true",
                      help=f"allow enumeration deeper than the configured bound of {ENUMERATION_LIMIT}")
    cert.add_argument("--min-im", type=float, default=CERTIFY_CONFIG.min_im,
                      help="near-axis refusal threshold for the q-series during certification (default %(default)s)")

    ev = sub.add_parser("eval", help="evaluate a cover element word or a named form")
    ev.add_argument("--elem", type=str, default=None, help="generator word, e.g. 'R R' or 'S T T'")
    ev.add_argument("--matrix", type=str, default=None, help="matrix literal [[a,b],[c,d]]")
    ev.add_argument("--sign", type=int, default=None, choices=(1, -1), help="cover sign for --matrix (default +1)")
    ev.add_argument("--form", type=str, default=None, help=" | ".join([*NAMED_FORMS, "zn:N"]))
    ev.add_argument("--z", type=str, default=None, help="evaluation point 'a+bi'; write --z=-0.5+0.8i for Re z < 0")
    ev.add_argument("--min-im", type=float, default=DEFAULT_CONFIG.min_im,
                    help="near-axis refusal threshold (default %(default)s)")

    chk = sub.add_parser("check", help="residual of the slash-vs-representation identity")
    chk.add_argument("--form", type=str, required=True, help=" | ".join(NAMED_FORMS))
    chk.add_argument("--weight", type=int, required=True, help="doubled weight w = 2k")
    chk.add_argument("--elem", type=str, required=True, help="generator word")
    chk.add_argument("--rep", type=str, default=None, help="JSON representation file (default: the form's own)")
    chk.add_argument("--tol", type=float, default=1e-9)
    chk.add_argument("--json", action="store_true", help="machine-readable output")
    chk.add_argument("--min-im", type=float, default=DEFAULT_CONFIG.min_im)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    handlers = {"certify": _cmd_certify, "eval": _cmd_eval, "check": _cmd_check}
    try:
        return handlers[args.command](args)
    except (DomainError, ResourceLimitError, ModularityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
