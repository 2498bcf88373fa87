"""Command-line front end.

Subcommands: analyze (classification as JSON), simulate (exact or
reduced trajectories/ensembles), reduce (reduced-model file), avg-rates
(rate tables over a state grid), verify (convergence report).

Exit codes: 0 success, 1 usage, 2 model or validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import errors as err
from .averaging import McConfig
from .classify import classify, conserved_basis
from .model import State
from .parser import parse_document
from .pdmp import run_ensemble_pdmp, simulate_pdmp
from .reduce import build_reduced_model, serialize_reduced
from .ssa import SimulationConfig, run_ensemble, simulate, simulate_spatial
from .verify import verify_convergence

MODEL_ERRORS = (err.ParseError, err.ValidationError, err.UnclassifiableError,
                err.MixedAlphaError, err.TimescaleViolation, err.OverlapError,
                err.DegenerateEtaError, err.HeterogeneousEtaError, err.ModelError)
NUMERICAL_ERRORS = (err.RateEvaluationError, err.ReducibleChainError,
                    err.IsolatedSpeciesError, err.AnalyticUnavailable,
                    err.NonErgodicSuspected, err.CaseUnavailable, err.EventCapExceeded,
                    err.OdeStepFailure, err.NegativeRate)


def _numbers(text: str) -> list[float]:
    """argparse type for comma-separated numbers."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _assignments(text: str) -> list[tuple[str, float]]:
    """argparse type for comma-separated name=value pairs."""
    pairs = [part.partition("=") for part in text.split(",")]
    try:
        return [(name, float(value)) for name, _, value in pairs]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected name=value pairs, got {text!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mscrn",
                     description="Scaling-limit reduction and simulation of "
                                 "multiscale spatial reaction networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=True):
        p.add_argument("model", help="model file (.mscrn)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--budget", type=int, default=100_000,
                       help="Monte Carlo event budget per stationary estimate")

    p = sub.add_parser("analyze", help="emit the time-scale classification")
    common(p)

    p = sub.add_parser("simulate", help="simulate the full or reduced model")
    common(p)
    p.add_argument("--engine", choices=["ssa", "pdmp"], default="ssa")
    p.add_argument("--N", type=float, default=100.0, help="scaling parameter (ssa)")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--grid", type=_numbers, default=None,
                   help="comma-separated sample times (default: 20 points)")
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--observables", default=None,
                   help="comma-separated species or species@compartment "
                        "(ssa engine; default: all species)")
    p.add_argument("--mode", choices=["auto", "analytic", "montecarlo"],
                   default="auto", help="reduction mode (pdmp engine)")

    p = sub.add_parser("reduce", help="emit the reduced model")
    common(p)
    p.add_argument("--mode", choices=["auto", "analytic", "montecarlo"], default="auto")
    p.add_argument("--case", type=int, default=None,
                   help="override the spatial movement-speed case (1-4)")

    p = sub.add_parser("avg-rates", help="tabulate averaged rates on a state grid")
    common(p)
    p.add_argument("--var", required=True, help="reduced coordinate to sweep")
    p.add_argument("--values", type=_numbers, required=True,
                   help="comma-separated grid values")
    p.add_argument("--fix", type=_assignments, default=None,
                   help="other coordinates, e.g. 'B=1,c1=3' (default 0)")
    p.add_argument("--mode", choices=["auto", "analytic", "montecarlo"], default="auto")
    p.add_argument("--case", type=int, default=None)

    p = sub.add_parser("verify", help="convergence of finite-N ensembles to the limit")
    common(p)
    p.add_argument("--N", type=_numbers, required=True, help="comma-separated N ladder")
    p.add_argument("--replicas", type=int, default=2000)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--grid", type=_numbers, default=None)
    p.add_argument("--mode", choices=["auto", "analytic", "montecarlo"], default="auto")
    p.add_argument("--case", type=int, default=None)
    p.add_argument("--threshold", type=float, default=0.05)
    return parser


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load(path: str):
    with open(path) as fh:
        return parse_document(fh.read())


def _parse_grid(grid, t_end):
    if grid is None:
        return np.linspace(t_end / 20.0, t_end, 20)
    return np.array(grid)


def _initial_or_fail(doc):
    init = doc.initial_scaled()
    if init is None:
        raise err.ModelError("model file has no init lines; add init entries")
    return init


def _base_totals(doc):
    """Initial totals, used to pin constant species in frozen contexts."""
    init = doc.initial_scaled()
    if init is None:
        return None
    return init.sum(axis=1) if init.ndim == 2 else init


def _cmd_analyze(args) -> int:
    doc = _load(args.model)
    c = classify(doc.model, doc.scaling)
    payload = c.to_jsonable()
    if c.kind in ("two", "three"):
        basis = conserved_basis(c)
        payload["conserved_basis"] = {
            "vectors": [list(v) for v in basis.vectors],
            "names": basis.names(c.network),
            "alpha": [str(a) for a in basis.alpha_c],
            "reactions": sorted(basis.k_c),
        }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _ensemble_csv(stats) -> str:
    lines = ["time," + ",".join(f"{o}_mean,{o}_se" for o in stats.observables)]
    se = stats.standard_error()
    for j, t in enumerate(stats.grid):
        cells = [repr(float(t))]
        for o in range(len(stats.observables)):
            cells.append(repr(float(stats.mean[o, j])))
            cells.append(repr(float(se[o, j])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _ensemble_json(stats) -> str:
    payload = {
        "times": [float(t) for t in stats.grid],
        "observables": list(stats.observables),
        "mean": stats.mean.tolist(),
        "se": stats.standard_error().tolist(),
        "variance": stats.variance.tolist(),
        "quantiles": {str(q): v.tolist() for q, v in stats.quantiles.items()},
        "replicas": stats.replicas,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cmd_simulate(args) -> int:
    doc = _load(args.model)
    grid = _parse_grid(args.grid, args.t_end)
    mc = McConfig(budget=args.budget, seed=args.seed)
    if args.engine == "ssa":
        x0 = State(_initial_or_fail(doc), scaled=True)
        names = (args.observables.split(",") if args.observables
                 else [s.name for s in (doc.model.network.species
                                        if doc.model.is_spatial else doc.model.species)])
        cfg = SimulationConfig(N=args.N, t_end=args.t_end, seed=args.seed, record=grid)
        stats = run_ensemble(doc.model, doc.scaling, cfg, args.replicas, names, x0=x0)
    else:
        if args.observables is not None:
            raise err.ModelError("--observables applies to the ssa engine; the pdmp "
                                 "engine reports every reduced coordinate")
        reduced = build_reduced_model(doc.model, doc.scaling, mode=args.mode, mc=mc,
                                      base=_base_totals(doc))
        v0 = reduced.initial_state(_initial_or_fail(doc))
        system = reduced.to_hybrid()
        stats = run_ensemble_pdmp(system, v0, args.t_end, args.seed, args.replicas,
                                  grid, np.eye(reduced.dim),
                                  labels=list(reduced.state_labels))
    _emit(_ensemble_csv(stats) if args.format == "csv" else _ensemble_json(stats),
          args.out)
    return 0


def _cmd_reduce(args) -> int:
    doc = _load(args.model)
    mc = McConfig(budget=args.budget, seed=args.seed)
    reduced = build_reduced_model(doc.model, doc.scaling, mode=args.mode, mc=mc,
                                  case=args.case, base=_base_totals(doc))
    _emit(serialize_reduced(reduced), args.out)
    return 0


def _cmd_avg_rates(args) -> int:
    doc = _load(args.model)
    mc = McConfig(budget=args.budget, seed=args.seed)
    reduced = build_reduced_model(doc.model, doc.scaling, mode=args.mode, mc=mc,
                                  case=args.case, base=_base_totals(doc))
    labels = list(reduced.state_labels)
    if args.var not in labels:
        raise err.ModelError(f"unknown coordinate {args.var!r}; have {labels}")
    fixed = np.zeros(len(labels))
    for name, value in args.fix or ():
        if name not in labels:
            raise err.ModelError(f"unknown coordinate {name!r}")
        fixed[labels.index(name)] = value
    sweep_idx = labels.index(args.var)
    rows = []
    for value in args.values:
        state = fixed.copy()
        state[sweep_idx] = value
        for k, rate in sorted(reduced.rates.items()):
            rows.append((k, value, float(rate(state)),
                         float(rate.standard_error(state)), rate.kind))
    if args.format == "csv":
        lines = ["reaction,state,rate,se,kind"]
        lines += [f"{k + 1},{v!r},{r!r},{s!r},{kind}" for k, v, r, s, kind in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = [{"reaction": k + 1, args.var: v, "rate": r, "se": s, "kind": kind}
                   for k, v, r, s, kind in rows]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    doc = _load(args.model)
    grid = _parse_grid(args.grid, args.t_end) if args.grid else \
        np.linspace(args.t_end / 4, args.t_end, 4)
    mc = McConfig(budget=args.budget, seed=args.seed)
    report = verify_convergence(doc.model, doc.scaling, args.N, args.replicas,
                                grid, _initial_or_fail(doc), seed=args.seed,
                                mode=args.mode, mc=mc, threshold=args.threshold,
                                case=args.case)
    _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.out)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "reduce": _cmd_reduce,
    "avg-rates": _cmd_avg_rates,
    "verify": _cmd_verify,
}


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MODEL_ERRORS as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
