"""In-process call loop: the child process that runs every workload.

``calls.py OPS_JSON RESULT_JSON SECONDS TRACE SPANS_OUT``

Replays the pass from ``inputs`` as ``chshkit.cli.main`` calls and direct
library calls, one at a time, until SECONDS have passed.  An untimed
warm-up pass comes first; it also counts the work of each operation (the
``work`` the generator gave it, else one), except that a dilation search
counts the matrices its restart loop passes to ``numpy.linalg.svd``, since
that number varies tenfold from input to input.  Each later call is timed
alone, with a reference sample after it (``reference.py``), and its output
checked; the latencies and reference samples of each pass, then the work,
counts, notes and failures, go to RESULT_JSON as JSON lines.  With TRACE=1
every pass runs untraced and then traced, and the spans go to SPANS_OUT.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice

import numpy as np

import reference
from inputs import TSIRELSON
from tracer import Tracer

RECORD_HEADER = "round_index,x,y,q,r,win"

#: Record rows parsed at once, so that checking a record file takes far less
#: memory than writing it and the child's peak RSS stays chshkit's.
CHUNK_ROWS = 65536


class CheckFailed(Exception):
    pass


def need(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def report(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if line)


def close(a, b, tol: float) -> bool:
    return abs(float(a) - float(b)) <= tol


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def complex_matrix(payload) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in payload])


class Runner:
    def __init__(self, ops: list[dict]) -> None:
        from chshkit import causality, cli, configio, tsirelson

        self.cli, self.configio, self.tsirelson, self.causality = cli, configio, tsirelson, causality
        self.unitaries = {}
        self.gammas = {}
        for op in ops:
            if op["op"] in ("joint_from_unitary", "influences", "non_interacting"):
                raw = load_json(op["config"])
                u, (dq, dr) = complex_matrix(raw["u"]), raw["dims"]
                self.unitaries[op["config"]] = (u, (dq, dr), (np.abs(u) ** 2).reshape(dq, dr, dq, dr))
            elif "gamma" in op:
                self.gammas[op["gamma"]] = np.array(load_json(op["gamma"])["gamma"])
        self.box_score: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.notes: list[str] = []
        self.digests: dict[str, tuple[str, str]] = {}

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, op: dict):
        """Run one operation; returns (seconds, what the check needs)."""
        kind = op["op"]
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = self.cli.main(op["argv"])
                except SystemExit as exc:
                    code = exc.code
                dt = time.perf_counter() - t0
            return dt, (code, out.getvalue(), err.getvalue())
        if kind == "operator":
            t0 = time.perf_counter()
            value = self.tsirelson.score_of_setup(self.configio.load_strategy(op["config"]))
            return time.perf_counter() - t0, value
        u, dims, joint = self.unitaries[op["config"]]
        t0 = time.perf_counter()
        if kind == "joint_from_unitary":
            value = self.causality.joint_from_unitary(u, dims)
        elif kind == "influences":
            value = self.causality.influences(joint, op["direction"])
        else:
            value = self.causality.non_interacting(joint)
        return time.perf_counter() - t0, value

    def check(self, op: dict, value, first: bool) -> None:
        kind = op["op"]
        if kind == "operator":
            box = self.box_score[op["config"]]
            need(close(value, box, 1e-12), f"operator route {value!r} vs box route {box!r}")
            return
        if kind == "joint_from_unitary":
            joint = self.unitaries[op["config"]][2]
            need(np.asarray(value).shape == joint.shape, "joint table shape")
            need(np.abs(np.asarray(value) - joint).max() <= 1e-12, "joint table entries")
            return
        if kind in ("influences", "non_interacting"):
            need(value == op["expect"], f"{kind} returned {value!r}")
            return
        code, out, err = value
        need(code == op["exit"], f"exit {code}, expected {op['exit']}: {err.strip()[:200]}")
        need("Traceback" not in err, "traceback on stderr")
        if op["exit"] != 0:
            need(out == "" and err != "", "error exit must print only to stderr")
            return
        rep = report(out)
        command = op["argv"][0]
        if command == "score":
            self.check_score(op, rep)
        elif command == "audit":
            need(rep.get("ns_check") == op["ns_check"], f"ns_check={rep.get('ns_check')}")
            if op["ns_check"] == "fail":
                need(all(f"ns_witness_{k}" in rep for k in ("side", "outcome", "delta")),
                     "signaling witness keys")
            if "quantum" in op:
                need(rep.get("factorization") == "pass", "factorization")
                box = self.box_score[op["quantum"]]
                need(close(rep["bound_margin"], TSIRELSON - abs(box), 1e-12), "audit bound_margin")
        elif command == "simulate":
            self.check_simulate(op, rep)
        elif command == "optimize":
            self.check_optimize(op, rep)
        elif op["argv"][2] == "divide":
            self.check_divide(op, rep)
        elif op["argv"][2] == "qcor":
            result = np.array(json.loads(rep["result"]))
            need(np.abs(result - np.array(op["qcor"])).max() <= 1e-12, "qcor entries")
            need(float(rep["max_column_sum"]) <= 1e-12, "qcor column sums")
        else:
            self.check_dilate(op, rep, first)

    def check_score(self, op: dict, rep: dict) -> None:
        need(rep.get("ns_check") == op["ns_check"], f"ns_check={rep.get('ns_check')}")
        keys = {"exact_score", "exact_win_probability", "ns_check"}
        if "quantum" in op:
            keys.add("bound_margin")
        need(set(rep) == keys, f"score keys {sorted(rep)}")
        score = float(rep["exact_score"])
        need(close(rep["exact_win_probability"], min(max((score + 1) / 2, 0.0), 1.0), 1e-15),
             "win probability")
        if "quantum" in op:
            need(abs(score) <= TSIRELSON + 1e-9, f"quantum score {score!r} above ceiling")
            need(close(rep["bound_margin"], TSIRELSON - abs(score), 1e-15), "bound_margin")
            self.box_score[op["quantum"]] = score
        else:
            need(close(score, op["score"], 1e-12), f"score {score!r}, expected {op['score']!r}")

    def check_simulate(self, op: dict, rep: dict) -> None:
        """The first output of an operation is checked row by row; every
        repeat, with the same arguments, must then be byte-identical to it."""
        expect, path = op["expect"], op["out"]
        keys = {"exact_score", "exact_win_probability", "ns_check", "empirical_score",
                "empirical_win_rate", "n_rounds", "seed"} | ({"bound_margin"} if expect["quantum"] else set())
        try:
            need(set(rep) == keys, f"report keys {sorted(rep)}")
            need(abs(float(rep["exact_score"]) - expect["exact_score"]) <= 1e-12, "exact_score")
            need(int(rep["n_rounds"]) == expect["n"] and int(rep["seed"]) == expect["seed"],
                 "n_rounds or seed")
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
                size = fh.tell()
            digest = digest.hexdigest()
            if path in self.digests:
                need(self.digests[path] == (digest, rep["empirical_win_rate"]),
                     "output differs from the first run with the same arguments")
                return
            self.check_records(path, expect["n"], rep)
            self.digests[path] = (digest, rep["empirical_win_rate"])
            self.notes.append(f"sha256 {op['class']} n={expect['n']} {digest}")
            self.count("record_bytes_first_pass", size)
        finally:
            if os.path.exists(path):
                os.remove(path)

    def check_records(self, path: str, n: int, rep: dict) -> None:
        rows_seen = wins = 0
        with open(path, encoding="utf-8") as fh:
            need(fh.readline().rstrip("\n") == RECORD_HEADER, "record header")
            while lines := list(islice(fh, CHUNK_ROWS)):
                rows = np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2)
                need(rows.shape == (len(lines), 6), f"record rows of shape {rows.shape}")
                need(np.array_equal(rows[:, 0], np.arange(rows_seen, rows_seen + len(rows))),
                     "round_index column")
                bits = rows[:, 1:]
                need(((bits == 0) | (bits == 1)).all(), "non-bit entry")
                x, y, q, r, win = bits.T
                need(np.array_equal(win, ((q ^ r) == (x & y)).astype(np.int64)),
                     "win column breaks the rule")
                rows_seen += len(rows)
                wins += int(win.sum())
        need(rows_seen == n, f"{rows_seen} record rows, expected {n}")
        rate = wins / n
        need(abs(float(rep["empirical_win_rate"]) - rate) <= 1e-15, "empirical_win_rate vs file")
        need(abs(float(rep["empirical_score"]) - (2 * rate - 1)) <= 1e-15, "empirical_score")
        p = float(rep["exact_win_probability"])
        need(abs(rate - p) <= 5 * math.sqrt(p * (1 - p) / n) + 1e-12, "empirical rate beyond 5 sigma")

    def check_optimize(self, op: dict, rep: dict) -> None:
        out, trace_path = op["out"], op["out"] + ".trace.csv"
        try:
            need(set(rep) == {"best_score", "best_win_probability", "bound_margin", "restarts",
                              "seed", "config_path", "trace_path"}, f"report keys {sorted(rep)}")
            best = float(rep["best_score"])
            need(TSIRELSON - 1e-6 <= best <= TSIRELSON + 1e-9, f"best_score {best!r}")
            rescored = self.tsirelson.score_of_setup(self.configio.load_strategy(out))
            need(abs(rescored - best) <= 1e-12, "saved config re-scores differently")
            with open(trace_path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            need(lines[0] == "restart,score,best_so_far", "trace header")
            rows = [line.split(",") for line in lines[1:]]
            restarts = op["expect"]["restarts"]
            need(len(rows) == restarts, f"{len(rows)} trace rows for {restarts} restarts")
            running = -math.inf
            for i, (idx, score, so_far) in enumerate(rows):
                running = max(running, float(score))
                need(int(idx) == i and float(so_far) == running, f"trace row {i}: best_so_far")
            need(running == best, "trace best differs from best_score")
            self.count("restarts", restarts)
            self.count("restart_hits", sum(abs(float(s) - TSIRELSON) <= 1e-6 for _, s, _ in rows))
        finally:
            for path in (out, trace_path):
                if os.path.exists(path):
                    os.remove(path)

    def check_divide(self, op: dict, rep: dict) -> None:
        need(rep.get("verdict") == op["verdict"], f"verdict={rep.get('verdict')}")
        if op["verdict"] == "divisible":
            quotient = np.array(json.loads(rep["result"]))
            first, total = np.array(op["gamma_first"]), np.array(op["gamma_total"])
            need(quotient.min() >= 0.0, "negative quotient entry")
            need(np.abs(quotient.sum(axis=0) - 1.0).max() <= 1e-8, "quotient column sums")
            need(np.abs(quotient @ first - total).max() <= 1e-8, "quotient reconstruction")
            need(float(rep["residual"]) <= 1e-8, "division residual")

    def check_dilate(self, op: dict, rep: dict, first: bool) -> None:
        gamma = self.gammas[op["gamma"]]
        verdict = rep.get("verdict")
        need(verdict in ("found", "not_found"), f"verdict={verdict}")
        if verdict == "found":
            need(op["unistochastic"], "dilation reported for a non-unistochastic input")
            u = complex_matrix(json.loads(rep["result"]))
            need(u.shape == gamma.shape, "dilation shape")
            need(np.abs(u @ u.conj().T - np.eye(len(u))).max() <= 1e-9, "dilation is not unitary")
            need(np.abs(np.abs(u) ** 2 - gamma).max() <= 1e-8, "|u|^2 does not match gamma")
            need(float(rep["residual"]) <= 1e-8, "residual above tolerance")
        else:
            need("result" not in rep, "result printed without a dilation")
        if op["unistochastic"]:
            self.count("unistochastic")
            self.count("found", verdict == "found")
            if first:
                self.count("found_first_pass", verdict == "found")


def svd_count(runner: Runner, op: dict):
    """Run ``op`` once, untimed, counting the matrices given to ``numpy.linalg.svd``."""
    svd, matrices = np.linalg.svd, [0]

    def counting(a, *args, **kwargs):
        matrices[0] += int(np.prod(np.shape(a)[:-2], dtype=np.int64))
        return svd(a, *args, **kwargs)

    np.linalg.svd = counting
    try:
        value = runner.call(op)[1]
    finally:
        np.linalg.svd = svd
    return matrices[0], value


def main() -> int:
    ops_path, result_path, seconds, trace, spans_out = sys.argv[1:6]
    seconds, trace = float(seconds), trace == "1"
    ops = load_json(ops_path)
    runner = Runner(ops)
    tracer = Tracer()
    attempted = failed = 0
    failures: list[str] = []

    def failure(op, exc) -> None:
        nonlocal failed
        failed += 1
        if len(failures) < 5:
            failures.append(f"{op.get('argv') or op['op']}: {type(exc).__name__}: {exc}")

    start = time.perf_counter()  # the warm-up counts toward SECONDS
    reference.sample()  # the first SVD call pays LAPACK's lazy set-up
    work = []
    for op in ops:  # warm-up: caches fill, lazy set-up finishes, work is counted
        attempted += 1
        count = 0
        try:
            if "gamma" in op:
                count, value = svd_count(runner, op)
                need(count > 0, "no SVD iterations counted")
            else:
                count, value = op.get("work", 1), runner.call(op)[1]
            runner.check(op, value, first=False)
        except Exception as exc:  # every failed operation is counted, then the loop goes on
            failure(op, exc)
        work.append(count)
    rounds = 0
    # One line per pass goes to the result file as the pass ends, so the
    # child's memory, and its peak RSS, do not grow with the number of calls.
    with open(result_path, "w", encoding="utf-8") as result:
        while True:
            rounds += 1
            round_start = time.perf_counter()
            for traced in ((False, True) if trace else (False,)):
                if traced:
                    tracer.install()
                latencies, refs = [], reference.Refs()
                for op in ops:
                    attempted += 1
                    tracer.request = attempted
                    kind = op["class"] + ":" + (op["argv"][0] if op["op"] == "cli" else op["op"])
                    timed = len(latencies)
                    try:
                        dt, value = runner.call(op)
                        latencies.append((kind, dt))
                        refs.add(dt)
                        runner.check(op, value, first=rounds == 1 and not traced)
                    except Exception as exc:  # every failed operation is counted, then the loop goes on
                        if len(latencies) == timed:  # the call itself raised
                            latencies.append((kind, None))
                            refs.add(0.0)
                        else:
                            latencies[-1] = (kind, None)
                        failure(op, exc)
                tracer.uninstall()
                refs.flush()
                result.write(json.dumps({"traced": traced, "latencies": latencies,
                                         "refs": refs.refs}) + "\n")
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:  # the next pass would overrun
                break
        result.write(json.dumps({"attempted": attempted, "failed": failed, "failures": failures,
                                 "counts": runner.counts, "notes": runner.notes,
                                 "work": work}) + "\n")
    if trace:
        tracer.dump(spans_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
