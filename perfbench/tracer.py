"""Span tracing of chshkit's public functions from outside the package.

``Tracer.install`` replaces each traced function, in every module namespace
that callers look it up in, with a wrapper that records a span: name, start,
end, parent span, request id and a small ``info`` value (the strategy class,
the subcommand, a byte count).  Spans stay in memory until ``dump``.  A
function that no longer exists is reported as absent, not as an error.
"""

from __future__ import annotations

import importlib
import json
import time


def _strategy_class(args, kwargs, result):
    return "quantum" if type(args[0]).__name__ == "QuantumSetup" else "classical"


def _subcommand(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


def _optimize_info(args, kwargs, result):
    dims = tuple(kwargs.get("dims", args[0] if args else (2, 2)))
    return ["qubit" if dims == (2, 2) else "general", len(result.restart_scores)]


def _found(args, kwargs, result):
    return "found" if result.unitary is not None else "not_found"


def _result_bytes(args, kwargs, result):
    return [int(result.n), int(sum(getattr(result, f).nbytes for f in "xyqr") + result.win.nbytes)]


def _text_bytes(args, kwargs, result):
    return len(result.encode())


#: span name -> (namespaces the function is looked up in, info extractor)
TRACED = {
    "configio.load_strategy": (["cli", "configio"], None),
    "configio.load_process_input": (["cli"], None),
    "configio.save_strategy": (["cli"], None),
    "linalg.assert_unitary": (["linalg", "tsirelson", "stochastic", "causality"], None),
    "cli.main": (["cli"], _subcommand),
    "cli.build_parser": (["cli"], None),
    "cli.format_records": (["cli"], _text_bytes),
    "game.simulate_rounds": (["cli"], _result_bytes),
    "game.box_of_strategy": (["cli", "game"], _strategy_class),
    "game.expected_score": (["cli", "game"], None),
    "game.signaling_witness": (["cli", "game"], None),
    "tsirelson.optimize": (["cli"], _optimize_info),
    "tsirelson.score_of_setup": (["tsirelson"], None),
    "tsirelson.chsh_operator": (["tsirelson"], None),
    "stochastic.dilation_report": (["stochastic"], _found),
    "stochastic.divide_report": (["stochastic"], None),
    "stochastic.qcor": (["stochastic"], None),
    "causality.joint_from_unitary": (["causality"], None),
    "causality.influences": (["causality"], None),
    "causality.non_interacting": (["causality"], None),
}


#: Spans whose metrics read ``info``; a call that raised has none and is left out.
INFO_REQUIRED = {name for name, (_, info) in TRACED.items() if info is not None}


class Tracer:
    def __init__(self) -> None:
        # span: [name, start_ns, end_ns, parent index or -1, request id, info]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = 0
        self.absent: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1,
                          self.request, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter_ns()
            if info is not None:
                spans[idx][5] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, (namespaces, info) in TRACED.items():
            attr = name.split(".")[1]
            for ns in namespaces:
                module = importlib.import_module(f"chshkit.{ns}")
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.add(f"{ns}.{attr}")
                    continue
                self._patches.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, info))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "absent": sorted(self.absent)}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover, in seconds.

    Calls are single-threaded, so direct children never overlap each other.
    """
    covered = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[2] - s[1] - c) * 1e-9 for s, c in zip(spans, covered)]
