"""The four workloads: run each operation against the checkout, time it,
check its output, and keep what the metrics need.

Every workload runs one child interpreter that makes its calls in-process
(``calls.py``), so interpreter start-up, which ``setup_s`` reports on its
own, neither hides the cost of a call nor adds the start-up's own noise
(page faults and file reads) to it.  Peak RSS comes from that child's own
rusage via ``os.wait4``.  In a traced run every pass is run twice, untraced
then traced, so the tracing overhead is measured on the same inputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import inputs
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: The operation list of each workload, made from the seed.
OPS = {"simulate": inputs.simulate_ops, "optimize": inputs.optimize_ops,
       "audit": inputs.audit_ops, "dilate": inputs.dilate_ops}


@dataclass
class Op:
    """One timed operation: a call, its place in the pass (which every pass
    repeats), and the reference sample taken after it (``reference.py``)."""

    cls: str
    index: int
    seconds: float
    work: int
    traced: bool
    ref: float


@dataclass
class Run:
    """Everything a workload run leaves for the metrics."""

    ops: list[Op] = field(default_factory=list)
    pass_walls: list[tuple[bool, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    spans: list[tuple[str, float, float, object]] = field(default_factory=list)
    absent: set[str] = field(default_factory=set)
    counts: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add_spans(self, path: str) -> None:
        """Merge a child's span file: (name, self seconds, seconds, info) per span."""
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        os.remove(path)
        spans = raw["spans"]
        for span, own in zip(spans, tracer.self_times(spans)):
            self.spans.append((span[0], own, (span[2] - span[1]) * 1e-9, span[5]))
        self.absent.update(raw["absent"])


class Context:
    """Paths and environment shared by every child of one run."""

    def __init__(self, root: str, workdir: str) -> None:
        self.root, self.workdir = root, workdir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self._n = 0

    def scratch(self, suffix: str) -> str:
        self._n += 1
        return os.path.join(self.workdir, f"child_{self._n}{suffix}")

    def child(self, argv: list[str]):
        """Run one child to completion: (seconds, exit code, stdout, stderr, peak RSS in MB)."""
        out_path, err_path = self.scratch(".out"), self.scratch(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        texts = []
        for path in (out_path, err_path):
            with open(path, encoding="utf-8", errors="replace") as fh:
                texts.append(fh.read())
            os.remove(path)
        return seconds, proc.returncode, texts[0], texts[1], usage.ru_maxrss / 1024.0


def run_calls(ctx: Context, ops: list[dict], seconds: float, trace: bool) -> Run:
    ops_path = inputs.write_json(os.path.join(ctx.workdir, "ops.json"), ops)
    result_path = ctx.scratch(".result.json")
    spans_path = ctx.scratch(".spans.json")
    _, code, _, err, rss = ctx.child([sys.executable, os.path.join(HERE, "calls.py"),
                                      ops_path, result_path, repr(seconds), str(int(trace)),
                                      spans_path])
    if code != 0:
        raise RuntimeError(f"calls.py exited {code}: {err.strip()[-500:]}")
    with open(result_path, encoding="utf-8") as fh:
        *passes_done, res = [json.loads(line) for line in fh]
    run = Run(attempted=res["attempted"], failed=res["failed"], failures=res["failures"],
              peak_rss_mb=rss, counts=res["counts"], notes=res["notes"])
    for done in passes_done:
        latencies = done["latencies"]
        run.pass_walls.append((done["traced"], sum(dt for _, dt in latencies if dt is not None)))
        run.ops.extend(Op(cls, index, dt, res["work"][index], done["traced"], ref)
                       for index, ((cls, dt), ref) in enumerate(zip(latencies, done["refs"]))
                       if dt is not None)
    if trace:
        run.add_spans(spans_path)
    return run


def run_workload(name: str, ctx: Context, seed: int, seconds: float, trace: bool) -> Run:
    return run_calls(ctx, OPS[name](seed, ctx.workdir), seconds, trace)
