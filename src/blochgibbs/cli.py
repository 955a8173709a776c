"""Command-line surface: figure/sweep CSV emitters, duality and spectrum
reports, the nonlinear solves, and the verification battery.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys

import numpy as np

from . import duality, figures, magnetics, spectra, verify
from .errors import BracketingError, ConvergenceError, DomainError
from .models import POWER_LAW_MODELS, GibbsPoint, ModelKind, columns
from .specfun import require_positive

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


def _parse_model(name: str) -> ModelKind:
    for kind in ModelKind:
        if name in kind.cli_names:
            return kind
    raise _UsageError(f"unknown model {name!r}; choose from "
                      f"{sorted(n for kind in ModelKind for n in kind.cli_names)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochgibbs",
        description="Gibbs canonical families of two-level systems: "
                    "figure data, duality experiments, spectra, solves, "
                    "and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="CSV sweep of Z, <E>, var E, <r>")
    sweep.add_argument("--model", default="complex")
    sweep.add_argument("--beta-min", type=float, default=0.01)
    sweep.add_argument("--beta-max", type=float, default=100.0)
    sweep.add_argument("--points", type=int, default=200)
    sweep.add_argument("--linear", action="store_true",
                       help="evenly spaced grid (default: log-spaced)")
    sweep.add_argument("--out", default=None)

    fig = sub.add_parser("figure", help="CSV data behind one of the figures")
    fig.add_argument("id", choices=figures.FIGURE_IDS)
    fig.add_argument("--out", default=None)

    dual = sub.add_parser("duality", help="dual-distribution round trip")
    dual.add_argument("--model", default="complex")
    dual.add_argument("--mean-e", type=float, default=16.3)
    dual.add_argument("--tol", type=float, default=1e-10,
                      help="quadrature tolerance override")
    dual.add_argument("--format", choices=("json", "csv"), default="json")
    dual.add_argument("--out", default=None)

    spec = sub.add_parser("spectrum", help="eigenvalues of the averaged "
                                           "n-fold tensor product")
    spec.add_argument("--n", type=int, required=True)
    spec.add_argument("--beta", type=float, required=True)
    spec.add_argument("--out", default=None)

    solve = sub.add_parser("solve", help="stationary point, maximin, and "
                                         "curve crossings")
    solve.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("--suite", default="all",
                     choices=("all",) + tuple(sorted(verify.SUITES)))
    ver.add_argument("--seed", type=int, default=12345)
    ver.add_argument("--format", choices=("json", "text"), default="text")
    ver.add_argument("--out", default=None)

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _require_positive(value: float, flag: str) -> None:
    try:
        require_positive(value, flag)
    except DomainError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_sweep(args) -> int:
    """Z, <E>, var E and <r> on a beta grid, from one ``models.columns``
    call (one half-shift evaluation for the grid).

    Bounds must be finite with 0 < --beta-min < --beta-max; anything else
    is a usage error (exit 2) raised before a grid is built.  Each column
    equals one-beta-at-a-time evaluation bit for bit (see ``models``); a
    200-point grid on [0.05, 500] takes about 1.5-1.6 ms for the complex,
    quaternionic and classical families, 1.0 ms for the real one and
    1.1 ms for KMB, parsing and CSV output included; about 0.45 ms of each
    is ``figures.write_csv`` formatting the 1,000 cells (one core of a
    2-core x86-64 VM).
    """
    model = _parse_model(args.model)
    if args.points < 2:
        raise _UsageError("--points must be >= 2")
    _require_positive(args.beta_min, "--beta-min")
    _require_positive(args.beta_max, "--beta-max")
    if not args.beta_min < args.beta_max:
        raise _UsageError("--beta-min must be strictly below --beta-max")
    grid = (np.linspace(args.beta_min, args.beta_max, args.points)
            if args.linear else
            np.logspace(np.log10(args.beta_min), np.log10(args.beta_max),
                        args.points))
    rows = list(zip(grid, *columns(GibbsPoint(model, grid))))
    buf = io.StringIO()
    figures.write_csv(
        ["beta", "partition", "mean_energy", "var_energy", "mean_polarization"],
        rows, buf)
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_figure(args) -> int:
    _emit(figures.render_figure_csv(args.id), args.out)
    return 0


def _cmd_duality(args) -> int:
    model = _parse_model(args.model)
    if model not in (ModelKind.COMPLEX, ModelKind.QUATERNIONIC):
        raise _UsageError(f"duality is defined for the complex and "
                          f"quaternionic families, got {args.model!r}")
    _require_positive(args.mean_e, "--mean-e")
    _require_positive(args.tol, "--tol")
    rep = duality.run_duality_experiment(model, args.mean_e, tol=args.tol)
    if args.format == "json":
        doc = {
            "schema": 1,
            "model": rep.model.value,
            "target_meanE": rep.target_meanE,
            "normalizer": rep.normalizer,
            "mean_beta": rep.mean_beta,
            "roundtrip_meanE": rep.roundtrip_meanE,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        buf = io.StringIO()
        figures.write_csv(
            ["target_meanE", "normalizer", "mean_beta", "roundtrip_meanE"],
            [(rep.target_meanE, rep.normalizer, rep.mean_beta,
              rep.roundtrip_meanE)], buf)
        _emit(buf.getvalue(), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    if args.n < 1:
        raise _UsageError(f"--n must be >= 1, got {args.n}")
    _require_positive(args.beta, "--beta")
    table = spectra.spectrum(args.n, args.beta)
    doc = {"schema": 1, **table.to_json_dict()}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_solve(args) -> int:
    beta_st, e_st = spectra.solve_stationary_point()
    crossings = {
        model.value: magnetics.intersect_brosseau(model).beta_star
        for model in POWER_LAW_MODELS
    }
    density_crossings = {}
    for model in reversed(POWER_LAW_MODELS):
        try:
            density_crossings[model.value] = magnetics.kmb_density_crossing(model)
        except BracketingError:
            density_crossings[model.value] = None
    doc = {
        "schema": 1,
        "stationary_point": {"beta": beta_st, "E": e_st},
        "maximin_beta": spectra.solve_maximin_beta(),
        "brosseau_crossings": crossings,
        "kmb_density_crossings": density_crossings,
        "critical_beta_unit_lambda": magnetics.critical_beta(1.0),
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    code, report = verify.run_verify(args.suite, seed=args.seed)
    if args.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    else:
        lines = []
        for c in report["checks"]:
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(f"[{status}] {c['check']}: got {c['got']:.10g} "
                         f"(target {c['target']:.10g}, tol {c['tolerance']:.3g})")
        lines.append(f"{'OK' if code == 0 else 'FAILURES'}: "
                     f"{sum(c['pass'] for c in report['checks'])}/"
                     f"{len(report['checks'])} checks passed")
        _emit("\n".join(lines) + "\n", args.out)
    return code


_COMMANDS = {
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "duality": _cmd_duality,
    "spectrum": _cmd_spectrum,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main() call, not at import; parse_args leaves the
    # parser unchanged, so every later call reuses it.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ConvergenceError, BracketingError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
