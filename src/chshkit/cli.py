"""Command-line surface: strategy configs in; scores, audits, simulation
records, optimizer traces and process-tool verdicts out.

Each subcommand returns its report as an ordered dict and prints nothing;
:func:`main` writes it as ``key=value`` lines in that order, skipping
``None`` values.  Numbers are printed to 17 significant digits, so every
emitted value parses back to the exact double, and matrices as compact JSON.
Exit codes: 0 success, 2 parse error, 3 invariant violation, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product

import numpy as np

from . import stochastic
from .configio import (
    ConfigError,
    load_process_input,
    load_strategy,
    payload,
    save_strategy,
)
from .game import (
    box_of_strategy,
    expected_score,
    as_input_distribution,
    is_no_signaling,
    signaling_witness,
    simulate_chunks,
    win_probability,
    wins,
)
from .tsirelson import TSIRELSON_SCORE, QuantumSetup, optimize

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


def _parse_inputs(spec: str) -> np.ndarray:
    parts = spec.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--inputs must be 'p00,p01,p10,p11', got {spec!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"--inputs must be four numbers, got {spec!r}") from exc
    return as_input_distribution(np.array(values).reshape(2, 2), "--inputs")


def _bound_margin(strategy, box) -> float | None:
    """Margin below the Tsirelson ceiling, for quantum setups only.

    The ceiling bounds the uniform-input score, so the margin is taken from
    that score whatever input distribution the report is about.
    """
    if not isinstance(strategy, QuantumSetup):
        return None
    return TSIRELSON_SCORE - abs(expected_score(box))


def _score_report(strategy, inputs=None) -> dict:
    box = box_of_strategy(strategy)
    score = expected_score(box, inputs)
    return {
        "exact_score": score,
        "exact_win_probability": win_probability(score),
        "ns_check": "pass" if is_no_signaling(box) else "fail",
        "bound_margin": _bound_margin(strategy, box),
    }


def cmd_score(args) -> dict:
    strategy = load_strategy(args.config)
    inputs = _parse_inputs(args.inputs) if args.inputs else None
    return _score_report(strategy, inputs)


_RECORD_HEADER = "round_index,x,y,q,r,win\n"

#: ASCII tail ``,x,y,q,r,win\n`` of a record row, indexed by ``8x + 4y + 2q + r``.
_ROW_TAILS = np.array(
    [list(f",{x},{y},{q},{r},{int(wins(x, y, q, r))}\n".encode())
     for x, y, q, r in product((0, 1), repeat=4)],
    dtype=np.uint8,
)


#: ASCII digits 0-9.
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)


def _index_digits(lo: int, hi: int, place: int) -> np.ndarray:
    """ASCII digit at ``place`` (a power of ten) of each round index in ``[lo, hi)``.

    Over consecutive indices that digit holds for runs of ``place`` rows and
    steps through 0-9 from run to run, so the column is a few digits, each
    repeated for its run; only the first and the last run can be short.
    """
    first, last = lo // place, (hi - 1) // place
    runs = last - first + 1
    digits = np.tile(_DIGITS, runs // 10 + 2)[first % 10 : first % 10 + runs]
    if place == 1:  # runs of one row: nothing to repeat
        return digits
    counts = np.full(runs, place)
    counts[0] -= lo - first * place
    counts[-1] -= (last + 1) * place - hi
    return np.repeat(digits, counts)


def format_records(rounds, start: int = 0) -> str:
    """Record file rows for the ``x``, ``y``, ``q``, ``r`` columns of
    ``rounds``, numbered from ``start``; the header opens the file, so it
    comes first when ``start`` is 0.

    Rows whose round indices have the same number of digits are built as
    one ``uint8`` block: each index digit column is built from its runs
    (:func:`_index_digits`), and the row tails are gathered from
    ``_ROW_TAILS`` by each row's outcome code.
    """
    code = 8 * rounds.x + 4 * rounds.y + 2 * rounds.q + rounds.r
    tails = np.take(_ROW_TAILS, code, axis=0)
    parts = [_RECORD_HEADER] if start == 0 else []
    lo, end = start, start + len(code)
    while lo < end:
        width = len(str(lo))
        hi = min(end, 10**width)
        block = np.empty((hi - lo, width + tails.shape[1]), dtype=np.uint8)
        for column in range(width):
            block[:, column] = _index_digits(lo, hi, 10 ** (width - 1 - column))
        block[:, width:] = tails[lo - start : hi - start]
        parts.append(str(block, "ascii"))  # decodes the block's buffer without a bytes copy
        lo = hi
    return "".join(parts)


def cmd_simulate(args) -> dict:
    strategy = load_strategy(args.config)
    # Checks n and the seed and builds the box now, so a bad run leaves --out alone.
    chunks = simulate_chunks(strategy, args.n, args.seed)
    won = 0
    with open(args.out, "w", encoding="utf-8") as fh:
        for chunk in chunks:
            fh.write(format_records(chunk, chunk.start))
            won += int(np.count_nonzero(wins(chunk.x, chunk.y, chunk.q, chunk.r)))
    win_rate = won / args.n
    return _score_report(strategy) | {
        "empirical_score": 2.0 * win_rate - 1.0,
        "empirical_win_rate": win_rate,
        "n_rounds": args.n,
        "seed": args.seed,
    }


def cmd_audit(args) -> dict:
    strategy = load_strategy(args.config)
    box = box_of_strategy(strategy)
    witness = signaling_witness(box)
    report = {"ns_check": "pass" if witness is None else "fail"}
    if witness is not None:
        report |= {
            "ns_witness_side": witness.side,
            "ns_witness_outcome": witness.outcome,
            "ns_witness_own_setting": witness.own_setting,
            "ns_witness_remote_settings": f"{witness.remote_setting_a},{witness.remote_setting_b}",
            "ns_witness_delta": witness.delta,
        }
    if isinstance(strategy, QuantumSetup):
        # Local operations enter only as a tensor product, and each factor is
        # checked unitary on load: the joint operation factorizes by construction.
        report["factorization"] = "pass"
    report["bound_margin"] = _bound_margin(strategy, box)
    return report


def cmd_optimize(args) -> dict:
    dims_parts = args.dims.split(",")
    if len(dims_parts) != 2:
        raise ConfigError(f"--dims must be 'dim_a,dim_b', got {args.dims!r}")
    try:
        dims = (int(dims_parts[0]), int(dims_parts[1]))
    except ValueError as exc:
        raise ConfigError(f"--dims must be two integers, got {args.dims!r}") from exc
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
        "best_win_probability": win_probability(result.score),
        "bound_margin": TSIRELSON_SCORE - abs(result.score),
        "restarts": args.restarts,
        "seed": args.seed,
        "config_path": args.out,
        "trace_path": trace_path,
    }


def cmd_process(args) -> dict:
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
