"""chshkit benchmark: one seeded workload against the checkout it runs in.

    python3 perfbench/run.py --workload simulate|optimize|audit|dilate \
        --seed N --seconds S --trace 0|1

Run from the root of a chshkit checkout: the program under test is
``src/chshkit`` of that checkout, never an installed copy.  Set-up times a
cold ``import chshkit.cli`` in fresh interpreters and writes every input
from the seed; the timed phase then runs the workload's passes as a closed
loop (one client, one command or call at a time) for about S seconds and
checks every output.  The last line of standard output is one JSON object:
the end-to-end metrics with ``--trace 0`` (throughput in units of a
reference computation timed beside it, ``reference.py``), the per-layer
metrics from span tracing with ``--trace 1``.  Lines before it give the same numbers by name,
the environment and the record-file digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

import inputs
import tracer
import workloads

WORKLOADS = ("simulate", "optimize", "audit", "dilate")

#: Cold imports timed per run; set-up reports their median.
SETUP_SAMPLES = 7

PROBE = ("import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
         "import chshkit.cli, chshkit; t2 = time.perf_counter(); "
         "print(t1 - t0, t2 - t1, chshkit.__file__)")

#: Name each workload gives its unit of work in the readable summary.
WORK_NAME = {"simulate": "rounds_per_s", "optimize": "restarts_per_s", "audit": "calls_per_s"}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure_setup(ctx: workloads.Context) -> dict:
    """Median wall time of a fresh interpreter importing chshkit.cli, and its parts."""
    package = os.path.realpath(os.path.join(ctx.root, "src", "chshkit"))
    walls, numpy_s, chshkit_s = [], [], []
    for sample in range(SETUP_SAMPLES + 1):
        wall, code, out, err, _ = ctx.child([sys.executable, "-c", PROBE])
        if code != 0:
            raise RuntimeError(f"import chshkit.cli failed: {err.strip()[-500:]}")
        t_numpy, t_chshkit, path = out.split()
        if os.path.dirname(os.path.realpath(path)) != package:
            raise RuntimeError(f"chshkit resolves to {path}, not to {package}")
        if sample:  # the first sample warms the file cache and any bytecode cache
            walls.append(wall)
            numpy_s.append(float(t_numpy))
            chshkit_s.append(float(t_chshkit))
    return {"setup_s": median(walls), "numpy_s": median(numpy_s),
            "chshkit_s": median(chshkit_s), "chshkit_file": path}


def environment(chshkit_file: str) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    found = {k: os.environ.get(k, "unset") for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(), "cpu": cpu, "env_vars": found,
            "chshkit_file": chshkit_file}


def pass_time(ops: list[workloads.Op], unit) -> dict[int, tuple[str, float, int]]:
    """(class, median of ``unit`` over the repeats, work) of each operation of the pass."""
    repeats = defaultdict(list)
    for op in ops:
        repeats[op.index].append(op)
    return {index: (mine[0].cls, median([unit(op) for op in mine]), mine[0].work)
            for index, mine in repeats.items()}


def throughput(workload: str, per_op: dict[int, tuple[str, float, int]]) -> float:
    """Work per unit of time over a fixed mix: each class weighs its work in a
    pass, except on dilate, whose work in a pass depends on the inputs."""
    by_class = defaultdict(lambda: [0.0, 0])  # class -> [time, work] of one pass
    for cls, t, work in per_op.values():
        by_class[cls][0] += t
        by_class[cls][1] += work
    weight = {cls: inputs.DILATE_MIX[cls.split(":")[0]] if workload == "dilate" else work
              for cls, (_, work) in by_class.items()}
    cost = sum(weight[cls] * t / work for cls, (t, work) in by_class.items() if work)
    return sum(weight.values()) / cost if cost else 0.0


def end_to_end(workload: str, run: workloads.Run, setup: dict) -> tuple[dict, list[str]]:
    """Throughput in ``ref`` units (``reference.py``), with the raw seconds beside it."""
    ops = [op for op in run.ops if not op.traced]
    passes = sum(1 for traced, _ in run.pass_walls if not traced)
    in_refs = pass_time(ops, lambda op: op.seconds / op.ref)
    in_seconds = pass_time(ops, lambda op: op.seconds)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "work_per_ref": (throughput(workload, in_refs), "1/ref"),
    }
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    wall = sum(t for _, t, _ in in_seconds.values())
    lines.append(f"ref_ms = {median([op.ref for op in ops]) * 1e3:.6g} ms "
                 f"(reference kernel, median of the samples after {len(ops)} operations)")
    lines.append(f"work_per_s = {throughput(workload, in_seconds):.6g} 1/s")
    lines.append(f"wall_s = {wall:.6g} s (one pass, median of {passes} repeats per operation)")
    lines.append(f"error_rate = {run.failed / max(run.attempted, 1):.6g} "
                 f"({run.failed} failed of {run.attempted} attempted)")
    work = sum(w for _, _, w in in_seconds.values())
    if workload == "dilate":
        lines.append(f"dilations_per_s = {len(in_seconds) / wall:.6g} 1/s ({len(in_seconds)} "
                     f"searches, {work} SVD iterations per pass)")
    else:
        lines.append(f"{WORK_NAME[workload]} = {work / wall:.6g} 1/s ({work:g} per pass)")
    latencies = sorted(op.seconds for op in ops)
    tail = int(0.99 * len(latencies))
    op = "call" if workload == "audit" else "op"
    lines.append(f"{op}_p50_ms = {median(latencies) * 1e3:.6g} ms ({len(latencies)} samples)")
    if len(latencies) - tail >= 10:
        lines.append(f"{op}_p99_ms = {latencies[tail] * 1e3:.6g} ms "
                     f"({len(latencies) - tail} samples beyond it)")
    for cls in sorted({cls for cls, _, _ in in_seconds.values()}):
        mine = [index for index, (c, _, _) in in_seconds.items() if c == cls]
        lines.append(f"class {cls}: {sum(in_seconds[i][1] for i in mine) * 1e3:.6g} ms, "
                     f"{sum(in_refs[i][1] for i in mine):.6g} ref, "
                     f"{sum(in_seconds[i][2] for i in mine):g} work per pass")
    if workload == "dilate":
        lines.append(f"dilate_found_rate = {run.counts['found'] / run.counts['unistochastic']:.6g} "
                     f"({run.counts['found']:g} of {run.counts['unistochastic']:g} unistochastic)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(run: workloads.Run, setup: dict) -> tuple[dict, list[str]]:
    spans = defaultdict(list)  # name -> [(self seconds, seconds, info)]
    for name, own, dur, info in run.spans:
        if info is not None or name not in tracer.INFO_REQUIRED:
            spans[name].append((own, dur, info))
    traced_walls = [w for traced, w in run.pass_walls if traced]
    counts = run.counts
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def put(name: str, value, unit: str) -> None:
        if value is None:
            absent.append(name)
            value = 0.0
        metrics[name] = (float(value), unit)

    def self_median(span: str, scale: float, tag=None):
        own = [s for s, _, info in spans[span] if tag is None or info == tag]
        return median(own) * scale if own else None

    def ratio(num, den):
        return num / den if den else None

    put("setup.numpy_import_s", setup["numpy_s"], "s")
    put("setup.chshkit_import_s", setup["chshkit_s"], "s")
    put("configio.load_strategy_us", self_median("configio.load_strategy", 1e6), "us")
    put("configio.load_process_input_us", self_median("configio.load_process_input", 1e6), "us")
    put("configio.save_strategy_ms", self_median("configio.save_strategy", 1e3), "ms")
    put("linalg.assert_unitary_us", self_median("linalg.assert_unitary", 1e6), "us")
    put("cli.build_parser_us", self_median("cli.build_parser", 1e6), "us")
    for command in ("score", "audit", "process"):
        put(f"cli.main_us.{command}", self_median("cli.main", 1e6, command), "us")
    records = spans["cli.format_records"]
    put("cli.format_records_s", self_median("cli.format_records", 1.0), "s")
    put("cli.record_mb_per_s", ratio(sum(i for _, _, i in records) / 1e6,
                                     sum(s for s, _, _ in records)), "MB/s")
    put("cli.record_bytes", counts.get("record_bytes_first_pass"), "B")
    rounds = spans["game.simulate_rounds"]
    put("game.simulate_rounds_s", self_median("game.simulate_rounds", 1.0), "s")
    put("game.simulate_rounds_per_s", ratio(sum(i[0] for _, _, i in rounds),
                                            sum(s for s, _, _ in rounds)), "1/s")
    put("game.result_bytes", ratio(sum(i[1] for _, _, i in rounds), len(traced_walls)), "B")
    put("game.box_of_strategy.quantum_us", self_median("game.box_of_strategy", 1e6, "quantum"), "us")
    put("game.box_of_strategy.classical_us",
        self_median("game.box_of_strategy", 1e6, "classical"), "us")
    put("game.expected_score_us", self_median("game.expected_score", 1e6), "us")
    put("game.signaling_witness_us", self_median("game.signaling_witness", 1e6), "us")
    for kind in ("qubit", "general"):
        per_restart = [dur / info[1] for _, dur, info in spans["tsirelson.optimize"]
                       if info[0] == kind]
        put(f"tsirelson.restart_s.{kind}", median(per_restart) if per_restart else None, "s")
    put("tsirelson.restart_hit_rate", ratio(counts.get("restart_hits", 0), counts.get("restarts")),
        "share")
    put("tsirelson.score_of_setup_us", self_median("tsirelson.score_of_setup", 1e6), "us")
    put("tsirelson.chsh_operator_us", self_median("tsirelson.chsh_operator", 1e6), "us")
    put("stochastic.dilation_report_s.found",
        self_median("stochastic.dilation_report", 1.0, "found"), "s")
    put("stochastic.dilation_report_s.not_found",
        self_median("stochastic.dilation_report", 1.0, "not_found"), "s")
    put("stochastic.dilations_found", counts.get("found_first_pass"), "count")
    put("stochastic.dilate_found_rate", ratio(counts.get("found", 0), counts.get("unistochastic")),
        "share")
    put("stochastic.divide_report_us", self_median("stochastic.divide_report", 1e6), "us")
    put("stochastic.qcor_us", self_median("stochastic.qcor", 1e6), "us")
    for fn in ("joint_from_unitary", "influences", "non_interacting"):
        put(f"causality.{fn}_us", self_median(f"causality.{fn}", 1e6), "us")
    pairs = zip(run.pass_walls[::2], run.pass_walls[1::2])
    put("trace.overhead_s", median([traced[1] - plain[1] for plain, traced in pairs]), "s")
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"spans = {len(run.spans)} over {len(traced_walls)} traced passes")
    if absent:
        lines.append("absent (not exercised by this workload, reported as 0): " + " ".join(absent))
    if run.absent:
        lines.append("functions missing from chshkit: " + " ".join(sorted(run.absent)))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chshkit", "__init__.py")):
        print("perfbench: run from the root of a chshkit checkout (no src/chshkit here)",
              file=sys.stderr)
        return 2
    base = os.path.join(root, ".perfbench-work")
    workdir = os.path.join(base, str(os.getpid()))
    os.makedirs(workdir)
    try:
        ctx = workloads.Context(root, workdir)
        setup = measure_setup(ctx)
        sys.path.insert(0, os.path.join(root, "src"))
        started = time.perf_counter()
        run = workloads.run_workload(args.workload, ctx, args.seed, args.seconds, bool(args.trace))
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(base) and not os.listdir(base):
            os.rmdir(base)
    print("env " + json.dumps(environment(setup["chshkit_file"]), sort_keys=True))
    print(f"workload {args.workload} seed={args.seed} trace={args.trace} "
          f"timed_phase_s={elapsed:.3f} passes={len(run.pass_walls)}")
    print("why " + json.dumps(inputs.WHY[args.workload]))
    for note in run.notes:
        print(note)
    for failure in run.failures:
        print("FAILED " + failure)
    if args.trace:
        metrics, lines = per_layer(run, setup)
    else:
        metrics, lines = end_to_end(args.workload, run, setup)
    for line in lines:
        print(line)
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
