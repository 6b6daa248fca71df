"""Command-line entry points.

Subcommands: ``dist`` (one-off distance), ``envelope`` (decay table),
``certify`` (single certificate), ``sweep`` (scenario run with reports).
Exit codes: 0 success, 2 precondition violation, 3 numerical failure,
4 certificate violated (sweep only).
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import (
    BoundParams,
    PairEvaluation,
    exponential_rate_certificate,
    pointwise_certificate,
    polynomial_rate_certificate,
)
from .distributions import DEFAULT_BOX_SIGMAS, GaussianMixture, common_grid, discretize
from .errors import NumericalError, PreconditionError
from .harness import Scenario, _check_formats, emit_report, run_sweep
from .spectral import char_fn_grid, poly_envelope
from .transport import rho_p, tv_mass, wasserstein_1d

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3
EXIT_CERT_VIOLATED = 4


def _load_mixture(path: str) -> GaussianMixture:
    with open(path, "r", encoding="utf-8") as fh:
        return GaussianMixture.from_json(json.load(fh))


def _cmd_dist(args) -> int:
    a = _load_mixture(args.a)
    b = _load_mixture(args.b)
    if args.metric == "rho_p":
        res = rho_p(a, b, args.p)
    elif args.metric == "tv":
        res = tv_mass(a, b)
    elif args.metric == "wq":
        res = wasserstein_1d(a, b, args.q)
    else:  # pragma: no cover - argparse restricts choices
        raise PreconditionError(f"unknown metric {args.metric!r}")
    print(json.dumps(res.to_json(), sort_keys=True))
    return EXIT_OK


def _cmd_envelope(args) -> int:
    dist = _load_mixture(args.input)
    grid = common_grid(dist, dist, args.box_sigmas, args.resolution)
    f = discretize(dist, grid)
    obj = f if args.side == "density" else char_fn_grid(f)
    table = poly_envelope(obj, args.K, args.L)
    print(json.dumps(table.to_json(), sort_keys=True))
    return EXIT_OK


def _cmd_certify(args) -> int:
    a = _load_mixture(args.a)
    b = _load_mixture(args.b)
    params = BoundParams(p=args.p, q=args.q, epsilon=args.eps)
    pair = PairEvaluation(a, b, params)
    if args.regime == "lemma1":
        cert = polynomial_rate_certificate(pair)
    elif args.regime == "lemma2":
        cert = exponential_rate_certificate(pair, r=args.r)
    else:
        try:
            alpha = int(args.alpha)
        except ValueError:
            raise PreconditionError(
                f"--alpha must be an integer >= 0, got {args.alpha!r}"
            ) from None
        cert = pointwise_certificate(pair, alpha=alpha)
    print(json.dumps(cert.to_json(), sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    formats = _check_formats(f.strip() for f in args.formats.split(",") if f.strip())
    with open(args.scenario, "r", encoding="utf-8") as fh:
        sc = Scenario.from_json(json.load(fh))
    report = run_sweep(sc)
    paths = emit_report(report, args.out, formats)
    print(json.dumps({"written": paths, "slope": report.slope,
                      "stderr": report.stderr}, sort_keys=True))
    violated = any(
        not (row["ok1"] and row["ok2"] and row["okp"]) for row in report.rows
    )
    return EXIT_CERT_VIOLATED if violated else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tvrates",
        description="Probability-metric distances and rate-bound certificates.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="one-off distance between two mixtures")
    p_dist.add_argument("--a", required=True, help="mixture JSON file")
    p_dist.add_argument("--b", required=True, help="mixture JSON file")
    p_dist.add_argument("--metric", required=True, choices=("rho_p", "tv", "wq"))
    p_dist.add_argument("--p", type=float, default=2.0)
    p_dist.add_argument("--q", type=float, default=2.0)
    p_dist.set_defaults(func=_cmd_dist)

    p_env = sub.add_parser("envelope", help="polynomial decay table of a mixture")
    p_env.add_argument("--input", required=True, help="mixture JSON file")
    p_env.add_argument("--side", required=True, choices=("density", "frequency"))
    p_env.add_argument("--K", type=int, default=4)
    p_env.add_argument("--L", type=int, default=6)
    p_env.add_argument("--resolution", type=int, default=None)
    p_env.add_argument("--box-sigmas", type=float, default=DEFAULT_BOX_SIGMAS)
    p_env.set_defaults(func=_cmd_envelope)

    p_cert = sub.add_parser("certify", help="evaluate one bound certificate")
    p_cert.add_argument("--a", required=True)
    p_cert.add_argument("--b", required=True)
    p_cert.add_argument("--p", type=float, default=2.0)
    p_cert.add_argument("--q", type=float, default=2.0)
    p_cert.add_argument("--eps", type=float, default=0.1)
    p_cert.add_argument(
        "--regime", required=True, choices=("lemma1", "lemma2", "pointwise")
    )
    p_cert.add_argument("--alpha", default="0",
                        help="derivative order for --regime pointwise")
    p_cert.add_argument("--r", type=float, default=1.0,
                        help="exponential moment rate for --regime lemma2")
    p_cert.set_defaults(func=_cmd_certify)

    p_sweep = sub.add_parser("sweep", help="run a scenario sweep and emit reports")
    p_sweep.add_argument("--scenario", required=True, help="scenario JSON file")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--formats", default="csv,json")
    p_sweep.set_defaults(func=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
