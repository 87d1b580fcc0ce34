"""Command-line surface: parse the flags, call the library, print its report.

Each subcommand returns its report as an ordered dict (``score``, ``audit``
and ``simulate`` return :mod:`chshkit.game`'s ``score_report``,
``audit_report`` and ``simulation_report``).  :func:`main` prints it as
``key=value`` lines in order, skipping ``None``: numbers to 17 significant
digits, each parsing back to the exact double, and matrices as compact JSON.
Exit codes: 0 success, 2 parse error, 3 invariant violation, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import game, stochastic
from .configio import ConfigError, load_process_input, load_strategy, payload, save_strategy
from .linalg import as_seed, as_tolerance
from .tsirelson import bound_margin, optimize

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_IO = 4


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, list):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _comma_list(spec: str, flag: str, form: str, cast, what: str) -> list:
    """``spec`` split on commas into one ``cast`` value per field of ``form``.

    A field may carry whitespace around it but no ``_``, which Python's ``int``
    and ``float`` read as digit grouping (``1_0`` is 10).
    """
    parts = spec.split(",")
    if len(parts) != len(form.split(",")):
        raise ConfigError(f"{flag} must be {form!r}, got {spec!r}")
    if "_" not in spec:
        try:
            return [cast(p) for p in parts]
        except ValueError:
            pass
    raise ConfigError(f"{flag} must be {what}, got {spec!r}")


def cmd_score(args) -> dict:
    strategy = load_strategy(args.config)
    inputs = None
    if args.inputs is not None:
        p = _comma_list(args.inputs, "--inputs", "p00,p01,p10,p11", float, "four numbers")
        inputs = np.reshape(p, (2, 2))
    return game.score_report(strategy, inputs)


def cmd_simulate(args) -> dict:
    return game.simulation_report(load_strategy(args.config), args.n, args.seed, args.out)


def cmd_audit(args) -> dict:
    return game.audit_report(load_strategy(args.config))


def cmd_optimize(args) -> dict:
    dims = _comma_list(args.dims, "--dims", "dim_a,dim_b", int, "two integers")
    result = optimize(dims=dims, restarts=args.restarts, seed=args.seed, tol=args.tol)
    save_strategy(result.setup, args.out)
    trace_path = args.out + ".trace.csv"
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write("restart,score,best_so_far\n")
        best = -np.inf
        for i, score in enumerate(result.restart_scores):
            best = max(best, score)
            fh.write(f"{i},{score:.17g},{best:.17g}\n")
    return {
        "best_score": result.score,
        "best_win_probability": game.win_probability(result.score),
        "bound_margin": bound_margin(result.score),
        "restarts": args.restarts,
        "seed": args.seed,
        "config_path": args.out,
        "trace_path": trace_path,
    }


def cmd_process(args) -> dict:
    # `process` checks --tol, --restarts and --seed, in that order and for every tool, before it reads --config.
    as_tolerance(args.tol)
    if args.restarts < 1:
        raise ValueError("restarts must be positive")
    as_seed(args.seed)
    if args.tool == "qcor":
        data = load_process_input(args.config, {"u_total": "complex", "u_first": "complex"})
        result = stochastic.qcor(data["u_total"], data["u_first"])
        return {
            "result": payload(result),
            "max_column_sum": float(np.max(np.abs(result.sum(axis=0)))),
        }
    if args.tool == "divide":
        data = load_process_input(args.config, {"gamma_total": "real", "gamma_first": "real"})
        report = stochastic.divide_report(data["gamma_total"], data["gamma_first"], tol=args.tol)
        found, verdict = report.quotient, "divisible"
    else:  # dilate; argparse restricts the choices
        data = load_process_input(args.config, {"gamma": "real"})
        report = stochastic.dilation_report(
            data["gamma"], tol=args.tol, max_restarts=args.restarts, seed=args.seed
        )
        found, verdict = report.unitary, "found"
    return {
        "verdict": verdict if found is not None else f"not_{verdict}",
        "residual": report.residual,
        "result": None if found is None else payload(found),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chshkit",
        description="Score, audit, simulate and optimize CHSH-game strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="exact score and win probability of a strategy config")
    score.add_argument("--config", required=True, help="strategy config path (JSON)")
    score.add_argument("--inputs", help="input distribution 'p00,p01,p10,p11' (default uniform)")
    score.set_defaults(func=cmd_score)

    simulate = sub.add_parser("simulate", help="play seeded rounds and write a record file")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--n", type=int, required=True, help="number of rounds")
    simulate.add_argument("--seed", type=int, required=True, help="stream seed (required)")
    simulate.add_argument("--out", required=True, help="record file path")
    simulate.set_defaults(func=cmd_simulate)

    audit = sub.add_parser("audit", help="no-signaling verdict and, for quantum, bound margin")
    audit.add_argument("--config", required=True)
    audit.set_defaults(func=cmd_audit)

    opt = sub.add_parser("optimize", help="search for the best quantum strategy")
    opt.add_argument("--dims", default="2,2", help="local dimensions 'dim_a,dim_b'")
    opt.add_argument("--restarts", type=int, default=100)
    opt.add_argument("--seed", type=int, required=True, help="search seed (required)")
    opt.add_argument("--tol", type=float, default=1e-9)
    opt.add_argument("--out", required=True, help="where to write the best setup config")
    opt.set_defaults(func=cmd_optimize)

    process = sub.add_parser("process", help="stochastic-process tools on matrix files")
    process.add_argument("--tool", choices=("divide", "dilate", "qcor"), required=True)
    process.add_argument("--config", required=True, help="matrix input path (JSON)")
    process.add_argument("--tol", type=float, default=stochastic.DIVISION_TOL)
    process.add_argument("--restarts", type=int, default=64)
    process.add_argument("--seed", type=int, default=0)
    process.set_defaults(func=cmd_process)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
        print("\n".join(f"{k}={_fmt(v)}" for k, v in report.items() if v is not None))
        return EXIT_OK
    except ConfigError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    raise SystemExit(main())
