"""Command-line interface: analyze, scenario, plot, calibrate, validate.

Exit codes: 0 success, 1 data/validation error, 2 usage error.  All numeric
output is deterministic given the arguments (and seed where applicable);
``--json`` emits schema-stable objects with full-precision floats.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from functools import partial

from . import __version__
from .data import contested_statuses, half_margin, load_dataset, serialize_dataset
from .errors import AuditError
from .montecarlo import calibrate
from .prediction import analyze_dataset, prediction_interval
from .scenario import ALLOCATION_BASES, build_reversal_scenario
from .svgplot import render_scatter

DEFAULT_SEED = 20160522


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _finite(obj):
    """``obj`` with every non-finite float as None: JSON has no NaN or infinity."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    return list(map(_finite, obj)) if isinstance(obj, (list, tuple)) else obj


def _print_json(obj) -> None:
    print(json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False))


def _error(message: str, as_json: bool) -> int:
    if as_json:
        _print_json({"error": {"type": "data", "message": message}})
    else:
        print(f"error: {message}", file=sys.stderr)
    return 1


def cmd_analyze(args: argparse.Namespace) -> int:
    ds = load_dataset(args.input)
    result = analyze_dataset(ds, include_dubious=args.include_dubious, strict=args.strict)
    fit, report = result.fit, result.report
    interval = None if args.level is None else prediction_interval(report, args.level)
    if args.json:
        payload = {
            "command": "analyze",
            "variant": report.variant,
            "n_districts": len(ds),
            "n_green": result.n_green,
            "n_red": result.n_red,
            "n_used": fit.n_used,
            "excluded": list(fit.excluded),
            "margin_official": result.margin_official,
            "slope": fit.slope,
            "sigma2": fit.sigma2,
            "slope_var": fit.slope_var,
            "dof": report.dof,
            "red_ballot_c1": report.red_ballot_c1,
            "red_mail_total": report.red_mail_total,
            "red_mail_c1": report.red_mail_c1,
            "reversal_threshold": report.threshold,
            "point_prediction": report.prediction,
            "pred_sd": report.pred_sd,
            "t_stat": report.t_stat,
            "p_reversal": report.p_reversal.value,
            "log10_p_reversal": report.p_reversal.log10,
            "degenerate": report.degenerate,
            "prediction_interval": None
            if interval is None
            else {"level": interval.level, "lower": interval.lower, "upper": interval.upper},
        }
        _print_json(payload)
        return 0
    print(f"districts            : {len(ds)} ({result.n_green} accepted, {result.n_red} contested)")
    excluded = f"{len(fit.excluded)} without mail votes excluded"
    if fit.excluded:
        excluded += ": " + ", ".join(fit.excluded[:3]) + (", ..." if len(fit.excluded) > 3 else "")
    print(f"fitted districts     : {fit.n_used} ({excluded})")
    print(f"variant              : {report.variant}")
    print(f"official margin (c2) : {result.margin_official}")
    print(f"slope                : {_fmt(fit.slope)}")
    print(f"noise variance       : {_fmt(fit.sigma2)}")
    print(f"slope variance       : {_fmt(fit.slope_var)}")
    print(f"contested ballot c1  : {report.red_ballot_c1}")
    print(f"contested mail total : {report.red_mail_total}")
    print(f"counted mail c1      : {report.red_mail_c1}")
    print(f"reversal threshold   : {_fmt(report.threshold)}")
    print(f"point prediction     : {_fmt(report.prediction)}")
    print(f"prediction sd        : {_fmt(report.pred_sd)}")
    print(f"t statistic          : {_fmt(report.t_stat)}")
    print(f"degrees of freedom   : {report.dof}")
    if report.degenerate:
        print(f"p(reversal)          : {_fmt(report.p_reversal.value)}  [degenerate fit]")
    else:
        print(
            f"p(reversal)          : {report.p_reversal.value:.7g}"
            f"   (log10 = {_fmt(report.p_reversal.log10)})"
        )
    if interval is not None:
        print(
            f"{interval.level:.4g} prediction interval: "
            f"[{_fmt(interval.lower)}, {_fmt(interval.upper)}]"
        )
    elif args.level is not None:
        print("no interval: degenerate fit")
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    ds = load_dataset(args.input)
    _, red = ds.split(args.include_dubious)
    votes = args.votes
    if votes is None:
        margin = ds.margin_official
        if margin <= 0:
            raise AuditError(f"official margin is {margin}; no deficit to reassign")
        votes = half_margin(margin)
    result = build_reversal_scenario(ds, red, votes, base=args.base)
    csv_text = serialize_dataset(result.modified)
    summary = {
        "command": "scenario",
        "votes_moved_total": result.total_moved,
        "votes_moved": result.votes_moved,
        "margin_before_c2_minus_c1": ds.margin_official,
        "resulting_margin_c1_minus_c2": result.resulting_margin,
        "output": args.out or "-",
    }
    moved = (
        f"moved {result.total_moved} mail votes to candidate 1; "
        f"resulting margin {result.resulting_margin:+d} for candidate 1"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    if args.json:
        _print_json(summary if args.out else {**summary, "csv": csv_text})
    elif args.out:
        print(moved)
        print(f"modified dataset written to {args.out}")
    else:
        sys.stdout.write(csv_text)
        print(moved, file=sys.stderr)
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    ds = load_dataset(args.input)
    title = "Mail vs ballot vote shares - official results"
    if args.votes is not None:
        _, red = ds.split(args.include_dubious)
        ds = build_reversal_scenario(ds, red, args.votes, base=args.base).modified
        title = "Mail vs ballot vote shares - modified results"
    svg = render_scatter(ds, include_dubious=args.include_dubious, title=title)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    if not args.json:
        print(f"wrote {args.out}")
    else:
        _print_json({"command": "plot", "output": args.out, "districts": len(ds)})
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    ds = load_dataset(args.input)
    report = calibrate(
        ds, (args.k, args.sigma), replications=args.reps, seed=args.seed,
        include_dubious=args.include_dubious,
    )
    if args.json:
        payload = report._asdict()
        model = payload.pop("model")
        payload["command"] = "calibrate"
        payload["model_k"] = model.k
        payload["model_sigma"] = model.sigma
        payload["quantile_errors"] = {str(p): v for p, v in report.quantile_errors.items()}
        _print_json(payload)
        return 0
    print(f"replications         : {report.replications} (failed: {report.failed_replications})")
    print(f"seed                 : {report.seed}")
    print(f"model slope / sigma  : {_fmt(report.model.k)} / {_fmt(report.model.sigma)}")
    print(f"degrees of freedom   : {report.dof}")
    print(f"KS distance          : {_fmt(report.ks_distance)}")
    for p, err in sorted(report.quantile_errors.items()):
        print(f"quantile error p={p:<4}: {_fmt(err)}")
    print(f"clamped fraction     : {_fmt(report.clamped_fraction)}")
    print(f"mean contested mail  : {_fmt(report.mean_red_mail_c1)}")
    print(f"model expectation    : {_fmt(report.expected_red_mail_c1)}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    ds = load_dataset(args.input)
    red11, red14 = (sum(map(ds.count_status, contested_statuses(flag))) for flag in (False, True))
    payload = {
        "command": "validate",
        "districts": len(ds),
        "green": ds.count_status("green"),
        "red": ds.count_status("red"),
        "dubious": ds.count_status("dubious"),
        "partition_default": [len(ds) - red11, red11],
        "partition_include_dubious": [len(ds) - red14, red14],
        "margin_official": ds.margin_official,
        "total_votes": sum(ds.ballot_total) + sum(ds.mail_total),
        "mail_votes": sum(ds.mail_total),
        "zero_mail_districts": ds.mail_total.count(0),
    }
    if args.json:
        _print_json(payload)
    else:
        print(f"districts        : {payload['districts']}")
        print(
            f"status counts    : {payload['green']} green, {payload['red']} red, "
            f"{payload['dubious']} dubious"
        )
        print(
            f"partitions       : default {tuple(payload['partition_default'])}, "
            f"with dubious {tuple(payload['partition_include_dubious'])}"
        )
        print(f"official margin  : {payload['margin_official']}")
        print(f"total valid votes: {payload['total_votes']}")
        print(f"mail votes       : {payload['mail_votes']}")
        print("dataset OK")
    return 0


def _int(value: str, least: float = -math.inf, reason: str = "") -> int:
    digits = value.strip().removeprefix("-")
    try:
        if not (digits.isascii() and digits.isdigit()):  # int() also reads "1_0", "+1" and "٣"
            raise ValueError(value)
        n = int(value)
    except ValueError:  # also more digits than int() converts
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
    if n < least:
        raise argparse.ArgumentTypeError(reason)
    return n


_nonnegative_int = partial(_int, least=0, reason="must be nonnegative")
_reps = partial(_int, least=100, reason="need at least 100 replications")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvaudit",
        description="Probabilistic audit of a two-candidate runoff with contested mail votes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, level=False, votes=False, seed=False, out=False):
        p.add_argument("input", help="district results CSV")
        p.add_argument(
            "--include-dubious",
            action="store_true",
            help="treat the dubious districts as contested (14 instead of 11)",
        )
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if level:
            p.add_argument("--level", type=float, help="also report this prediction-interval level")
        if votes:
            p.add_argument("--votes", type=_nonnegative_int, help="mail votes to reassign")
            p.add_argument(
                "--base",
                choices=ALLOCATION_BASES,
                default="mail_total",
                help="proportional allocation base (default: mail_total)",
            )
        if seed:
            p.add_argument(
                "--seed", type=_int, default=DEFAULT_SEED, help="PRNG seed, 0 <= seed < 2**128"
            )
        if out:
            p.add_argument("--out", help="output file path")

    p = sub.add_parser("analyze", help="fit the model and report the reversal probability")
    common(p, level=True)
    p.add_argument("--strict", action="store_true", help="strict-win threshold (ties lose)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scenario", help="emit a counterfactual dataset with reassigned mail votes")
    common(p, votes=True, out=True)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("plot", help="emit an SVG scatter of mail vs ballot shares")
    common(p, votes=True, out=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("calibrate", help="Monte Carlo check of the t-statistic distribution")
    common(p, seed=True)
    p.add_argument("--reps", type=_reps, default=10_000, help="replications (>= 100)")
    p.add_argument("--k", type=float, help="true model slope (default: fitted)")
    p.add_argument("--sigma", type=float, help="true model noise scale (default: fitted)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("validate", help="parse a dataset and report its shape")
    common(p)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "plot" and not args.out:
        parser.error("plot requires --out")
    # numpy loads on first use; no BLAS call pays for a worker thread per CPU
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # a command builds no reference cycles worth collecting; the collector
    # would only rescan the freshly parsed columns
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (AuditError, OSError) as exc:
        return _error(str(exc), getattr(args, "json", False))
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
