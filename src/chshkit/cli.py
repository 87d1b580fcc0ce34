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
from contextlib import closing
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
    CHUNK_ROUNDS,
    UNIFORM_INPUTS,
    _chunks,
    _score,
    _witness,
    as_input_distribution,
    box_of_strategy,
    win_probability,
    wins,
)
from .linalg import as_seed, as_tolerance
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


def _comma_list(spec: str, flag: str, form: str, cast, what: str) -> list:
    """``spec`` split on commas into one ``cast`` value per field of ``form``."""
    parts = spec.split(",")
    if len(parts) != len(form.split(",")):
        raise ConfigError(f"{flag} must be {form!r}, got {spec!r}")
    try:
        return [cast(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be {what}, got {spec!r}") from exc


def _bound_margin(score: float) -> float:
    """Margin of a uniform-input score below the Tsirelson ceiling.

    The ceiling bounds the uniform-input score, so a report about other
    inputs still takes the margin from that score.
    """
    return TSIRELSON_SCORE - abs(score)


def _score_report(strategy, box, inputs=UNIFORM_INPUTS) -> dict:
    """The score keys of a strategy's validated box, under validated inputs;
    the margin is for quantum setups only."""
    score = _score(box, inputs)
    return {
        "exact_score": score,
        "exact_win_probability": win_probability(score),
        "ns_check": "pass" if _witness(box) is None else "fail",
        "bound_margin": _bound_margin(_score(box)) if isinstance(strategy, QuantumSetup) else None,
    }


def cmd_score(args) -> dict:
    strategy = load_strategy(args.config)
    inputs = UNIFORM_INPUTS
    if args.inputs:
        p = _comma_list(args.inputs, "--inputs", "p00,p01,p10,p11", float, "four numbers")
        inputs = as_input_distribution(np.reshape(p, (2, 2)), "--inputs")
    return _score_report(strategy, box_of_strategy(strategy), inputs)


_RECORD_HEADER = "round_index,x,y,q,r,win\n"

#: ASCII tail ``,x,y,q,r,win\n`` of a record row, indexed by ``8x + 4y + 2q + r``.
_ROW_TAILS = np.array(
    [list(f",{x},{y},{q},{r},{int(wins(x, y, q, r))}\n".encode())
     for x, y, q, r in product((0, 1), repeat=4)],
    dtype=np.uint8,
)

#: ``_ROW_TAILS`` padded to 16-byte rows: numpy gathers 16-byte items on a
#: fixed-size path, about three times faster than 11-byte ones.
_PADDED_TAILS = np.zeros((len(_ROW_TAILS), 16), dtype=np.uint8)
_PADDED_TAILS[:, : _ROW_TAILS.shape[1]] = _ROW_TAILS


#: ASCII of 0000-9999, row ``i`` holding the four digits of ``i``.
_LOW_DIGITS = np.stack(np.indices((10,) * 4, dtype=np.uint8), axis=-1).reshape(10_000, 4) + ord("0")


def _row_bytes(last: int) -> int:
    """Bytes of the widest record row up to round index ``last``."""
    return len(str(last)) + _ROW_TAILS.shape[1]


def _record_rows(rounds, start: int, buf: np.ndarray) -> np.ndarray:
    """Write the record rows of ``rounds``, numbered from ``start``, into the
    ``uint8`` buffer ``buf`` and return its filled prefix.

    ``buf`` must hold ``len(rounds.x)`` rows of the widest index among them
    (:func:`_row_bytes`).  The rows are built in blocks of ``buf`` whose
    round indices have the same number of digits and differ only in their
    last four: a block's leading digits are one slice of ``str(lo)`` written
    to every row as one void item, its last (up to four) digits are the
    matching rows of ``_LOW_DIGITS`` copied as one void item per row, and
    each row tail is copied as one ``V11`` item from ``_PADDED_TAILS``
    gathered by the outcome code.  The leading digits come from a Python
    int, so any index size is written exactly.
    """
    code = (8 * rounds.x + 4 * rounds.y + 2 * rounds.q + rounds.r).astype(np.intp)
    tail = _ROW_TAILS.shape[1]
    tails = np.take(_PADDED_TAILS, code, axis=0)[:, :tail].view(f"V{tail}")
    lo, end, filled = start, start + len(code), 0
    while lo < end:
        width = len(str(lo))
        hi = min(end, 10**width, lo - lo % 10_000 + 10_000)
        size = (hi - lo) * (width + tail)
        block = buf[filled : filled + size].reshape(hi - lo, width + tail)
        k = min(width, 4)
        lead, low = width - k, lo % 10_000
        if lead:
            block[:, :lead].view(f"V{lead}")[...] = np.void(str(lo)[:lead].encode())
        block[:, lead:width].view(f"V{k}")[...] = _LOW_DIGITS[low : low + hi - lo, 4 - k :].view(f"V{k}")
        block[:, width:].view(f"V{tail}")[...] = tails[lo - start : hi - start]
        lo, filled = hi, filled + size
    return buf[:filled]


def cmd_simulate(args) -> dict:
    strategy = load_strategy(args.config)
    box = box_of_strategy(strategy)
    # Checks n and the seed now, so a bad run leaves --out alone.
    chunks = _chunks(box, args.n, args.seed)
    buf = np.empty(min(CHUNK_ROUNDS, args.n) * _row_bytes(args.n - 1), dtype=np.uint8)
    won = 0
    # Closed explicitly, so an I/O error stops the chunk-drawing thread at once.
    with closing(chunks), open(args.out, "wb") as fh:
        fh.write(_RECORD_HEADER.encode())
        for chunk in chunks:
            fh.write(_record_rows(chunk, chunk.start, buf))
            won += int(np.count_nonzero(wins(chunk.x, chunk.y, chunk.q, chunk.r)))
    win_rate = won / args.n
    return _score_report(strategy, box) | {
        "empirical_score": 2.0 * win_rate - 1.0,
        "empirical_win_rate": win_rate,
        "n_rounds": args.n,
        "seed": args.seed,
    }


def cmd_audit(args) -> dict:
    strategy = load_strategy(args.config)
    box = box_of_strategy(strategy)
    witness = _witness(box)
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
        report["bound_margin"] = _bound_margin(_score(box))
    return report


def cmd_optimize(args) -> dict:
    dims = _comma_list(args.dims, "--dims", "dim_a,dim_b", int, "two integers")
    result = optimize(dims=dims, restarts=args.restarts, seed=args.seed, tol=args.tol)
    save_strategy(result.setup, args.out)
    trace_path = args.out + ".trace.csv"
    rows = ["restart,score,best_so_far\n"]
    best = -np.inf
    for i, score in enumerate(result.restart_scores):
        best = max(best, score)
        rows.append(f"{i},{score:.17g},{best:.17g}\n")
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write("".join(rows))
    return {
        "best_score": result.score,
        "best_win_probability": win_probability(result.score),
        "bound_margin": _bound_margin(result.score),
        "restarts": args.restarts,
        "seed": args.seed,
        "config_path": args.out,
        "trace_path": trace_path,
    }


def _process_report(args) -> dict:
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


def cmd_process(args) -> dict:
    report = _process_report(args)
    # Every tool checks every flag, read or not, after its matrices, as dilate does.
    as_tolerance(args.tol)
    if args.restarts < 1:
        raise ValueError("max_restarts must be positive")
    as_seed(args.seed)
    return report


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
