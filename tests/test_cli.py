import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import chshkit
from chshkit import game
from chshkit.cli import format_records, main, main_entry
from chshkit.configio import load_strategy, save_strategy, strategy_config
from chshkit.game import (
    CHUNK_ROUNDS,
    NSBox,
    SimulationChunk,
    as_correlation_box,
    box_of_strategy,
    expected_score,
    simulate_chunks,
)
from chshkit.linalg import MAX_DIM
from chshkit.tsirelson import TSIRELSON_SCORE, canonical_setup


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def child_env():
    """The environment for a child interpreter: this checkout's package first on
    ``PYTHONPATH``, and a ``RuntimeWarning`` made an error, as ``pyproject.toml``
    makes it for in-process runs."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(chshkit.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                PYTHONWARNINGS="error::RuntimeWarning")


def report_of(capsys):
    out = {}
    for line in capsys.readouterr().out.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def test_score_ns_box_half(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {"kind": "ns_box", "e": 0.5})
    assert main(["score", "--config", cfg]) == 0
    report = report_of(capsys)
    assert float(report["exact_win_probability"]) == 0.75
    assert float(report["exact_score"]) == 0.5
    assert report["ns_check"] == "pass"


def test_score_pr_box(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {"kind": "ns_box", "e": 1.0})
    assert main(["score", "--config", cfg]) == 0
    assert float(report_of(capsys)["exact_win_probability"]) == 1.0


def test_score_with_inputs_flag(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {"kind": "deterministic", "q_of_x": [0, 0], "r_of_y": [0, 0]})
    assert main(["score", "--config", cfg, "--inputs", "1,0,0,0"]) == 0
    assert float(report_of(capsys)["exact_score"]) == 1.0


def test_score_out_of_range_parameter_is_invariant_violation(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {"kind": "ns_box", "e": 1.5})
    assert main(["score", "--config", cfg]) == 3
    assert "[-1, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("scale, code", [(1.0, 0), (1.5, 3)], ids=["canonical", "non_unitary"])
def test_console_script_entry_exits_with_main_code(tmp_path, monkeypatch, capsys, scale, code):
    payload = strategy_config(canonical_setup())
    payload["a0"] = (scale * np.array(payload["a0"])).tolist()
    cfg = write_json(tmp_path / "q.json", payload)
    monkeypatch.setattr(sys, "argv", ["chshkit", "score", "--config", cfg])
    with pytest.raises(SystemExit) as exc:
        main_entry()
    assert exc.value.code == code
    assert ("exact_score=" in capsys.readouterr().out) == (code == 0)


def test_score_missing_field_is_parse_error(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {"kind": "ns_box"})
    assert main(["score", "--config", cfg]) == 2
    assert "missing field 'e'" in capsys.readouterr().err


def test_score_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "ns_box",\n  "e": }')
    assert main(["score", "--config", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_score_missing_file_is_io_error(tmp_path, capsys):
    assert main(["score", "--config", str(tmp_path / "nope.json")]) == 4


def test_report_values_roundtrip_to_full_precision(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {"kind": "ns_box", "e": 1 / math.sqrt(2)})
    assert main(["score", "--config", cfg]) == 0
    report = report_of(capsys)
    exact = expected_score(box_of_strategy(NSBox(1 / math.sqrt(2))))
    assert float(report["exact_score"]) == exact


def test_simulate_deterministic_rounds(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {"kind": "deterministic", "q_of_x": [0, 0], "r_of_y": [0, 0]})
    out = tmp_path / "records.csv"
    assert main(["simulate", "--config", cfg, "--n", "8", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "round_index,x,y,q,r,win"
    assert len(lines) == 9
    for line in lines[1:]:
        idx, x, y, q, r, win = (int(v) for v in line.split(","))
        assert (q, r) == (0, 0)
        assert win == (1 if x * y == 0 else 0)
    report = report_of(capsys)
    assert report["n_rounds"] == "8"
    assert report["seed"] == "1"


def test_simulate_reruns_byte_identical(tmp_path):
    cfg = write_json(tmp_path / "s.json", {"kind": "ns_box", "e": 0.5})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--config", cfg, "--n", "5000", "--seed", "77"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_near_ceiling_box_converges(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {"kind": "ns_box", "e": 1 / math.sqrt(2)})
    out = tmp_path / "r.csv"
    assert main(["simulate", "--config", cfg, "--n", "100000", "--seed", "3", "--out", str(out)]) == 0
    report = report_of(capsys)
    assert abs(float(report["empirical_win_rate"]) - math.cos(math.pi / 8) ** 2) < 0.005


def test_simulate_unwritable_path(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {"kind": "ns_box", "e": 0.0})
    missing = tmp_path / "no" / "such" / "dir" / "r.csv"
    assert main(["simulate", "--config", cfg, "--n", "4", "--seed", "1", "--out", str(missing)]) == 4


def test_audit_ns_box_passes(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {"kind": "ns_box", "e": 0.9})
    assert main(["audit", "--config", cfg]) == 0
    assert report_of(capsys)["ns_check"] == "pass"


def test_audit_handwritten_signaling_box(tmp_path, capsys):
    # Alice echoes Bob's input: P(q=y, r | x, y) = 1/2.
    table = np.zeros((2, 2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            for r in (0, 1):
                table[y, r, x, y] = 0.5
    cfg = write_json(tmp_path / "s.json", {"kind": "box", "table": table.tolist()})
    assert main(["audit", "--config", cfg]) == 0
    report = report_of(capsys)
    assert report["ns_check"] == "fail"
    assert report["ns_witness_side"] == "alice"
    assert report["ns_witness_remote_settings"] == "0,1"
    assert float(report["ns_witness_delta"]) == 1.0


def test_audit_quantum_reports_margin_and_factorization(tmp_path, capsys):
    cfg_path = tmp_path / "q.json"
    save_strategy(canonical_setup(), cfg_path)
    assert main(["audit", "--config", str(cfg_path)]) == 0
    report = report_of(capsys)
    assert report["ns_check"] == "pass"
    assert report["factorization"] == "pass"
    assert float(report["bound_margin"]) >= -1e-9


def test_quantum_config_roundtrip(tmp_path):
    setup = canonical_setup()
    path = tmp_path / "q.json"
    save_strategy(setup, path)
    loaded = load_strategy(path)
    assert np.array_equal(loaded.state, setup.state)
    for name in ("a0", "a1", "b0", "b1"):
        assert np.array_equal(getattr(loaded, name), getattr(setup, name))
    assert strategy_config(loaded) == strategy_config(setup)


def test_quantum_config_with_non_unitary_matrix_is_invariant_violation(tmp_path, capsys):
    setup = canonical_setup()
    payload = strategy_config(setup)
    payload["a0"] = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    cfg = write_json(tmp_path / "q.json", payload)
    assert main(["score", "--config", cfg]) == 3
    assert "unitary" in capsys.readouterr().err


def test_optimize_writes_reloadable_config_and_trace(tmp_path, capsys):
    out = tmp_path / "best.json"
    args = ["optimize", "--dims", "2,2", "--restarts", "3", "--seed", "7", "--out", str(out)]
    assert main(args) == 0
    report = report_of(capsys)
    best = float(report["best_score"])
    assert best <= TSIRELSON_SCORE + 1e-9
    trace = (tmp_path / "best.json.trace.csv").read_text().splitlines()
    assert trace[0] == "restart,score,best_so_far"
    assert len(trace) == 4

    assert main(["score", "--config", str(out)]) == 0
    rescored = float(report_of(capsys)["exact_score"])
    assert abs(rescored - best) <= 1e-10


def test_optimize_rerun_identical_trace(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    base = ["optimize", "--dims", "2,2", "--restarts", "2", "--seed", "5"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert (tmp_path / "a.json.trace.csv").read_text() == (tmp_path / "b.json.trace.csv").read_text()
    assert out1.read_text() == out2.read_text()


def test_process_qcor(tmp_path, capsys):
    def rot(theta):
        c, s = math.cos(theta), math.sin(theta)
        return [[[c, 0.0], [-s, 0.0]], [[s, 0.0], [c, 0.0]]]

    cfg = write_json(
        tmp_path / "m.json",
        {"u_total": rot(math.pi / 4), "u_first": rot(math.pi / 8)},
    )
    assert main(["process", "--tool", "qcor", "--config", cfg]) == 0
    report = report_of(capsys)
    result = np.array(json.loads(report["result"]))
    assert np.max(np.abs(result - [[-0.25, 0.25], [0.25, -0.25]])) <= 1e-12


def test_process_dilate(tmp_path, capsys):
    cfg = write_json(tmp_path / "m.json", {"gamma": [[0.5, 0.5], [0.5, 0.5]]})
    assert main(["process", "--tool", "dilate", "--config", cfg, "--seed", "1"]) == 0
    report = report_of(capsys)
    assert report["verdict"] == "found"
    assert float(report["residual"]) <= 1e-8
    result = np.array([[complex(re, im) for re, im in row] for row in json.loads(report["result"])])
    assert np.max(np.abs(np.abs(result) ** 2 - 0.5)) <= 1e-8


def test_process_divide_not_divisible(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "m.json",
        {"gamma_total": [[1.0, 0.0], [0.0, 1.0]], "gamma_first": [[0.5, 0.5], [0.5, 0.5]]},
    )
    assert main(["process", "--tool", "divide", "--config", cfg]) == 0
    report = report_of(capsys)
    assert report["verdict"] == "not_divisible"
    assert float(report["residual"]) > 0.4


def test_process_divide_success(tmp_path, capsys):
    first = [[0.9, 0.2], [0.1, 0.8]]
    total = (np.array([[0.7, 0.4], [0.3, 0.6]]) @ np.array(first)).tolist()
    cfg = write_json(tmp_path / "m.json", {"gamma_total": total, "gamma_first": first})
    assert main(["process", "--tool", "divide", "--config", cfg]) == 0
    report = report_of(capsys)
    assert report["verdict"] == "divisible"
    quotient = np.array(json.loads(report["result"]))
    assert np.max(np.abs(quotient - [[0.7, 0.4], [0.3, 0.6]])) <= 1e-8


def test_process_invariant_violation(tmp_path, capsys):
    cfg = write_json(tmp_path / "m.json", {"gamma": [[0.5, 0.6], [0.5, 0.4]]})
    assert main(["process", "--tool", "dilate", "--config", cfg]) == 3
    assert "doubly stochastic" in capsys.readouterr().err


@pytest.mark.parametrize(
    "gamma, tol",
    [([[0.55, 0.5], [0.5, 0.55]], "0.1"),  # columns sum to 1.05
     ([[0.500000005, 0.5], [0.5, 0.500000005]], None)],  # 5e-9 off, at the default tol
)
def test_process_dilate_input_rule_ignores_tol(tmp_path, capsys, gamma, tol):
    cfg = write_json(tmp_path / "m.json", {"gamma": gamma})
    argv = ["process", "--tool", "dilate", "--config", cfg] + (["--tol", tol] if tol else [])
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("invariant violation: gamma must be doubly stochastic: ")


def test_process_dilate_rejects_oversized_input_before_searching(tmp_path, capsys):
    side = MAX_DIM + 1
    cfg = write_json(tmp_path / "m.json", {"gamma": np.full((side, side), 1.0 / side).tolist()})
    assert main(["process", "--tool", "dilate", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"gamma is {side}x{side}; sides above {MAX_DIM} are not supported" in captured.err


def test_unknown_kind_is_parse_error(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {"kind": "telepathy"})
    assert main(["score", "--config", cfg]) == 2


def test_optimize_general_dims_config_rescores(tmp_path, capsys):
    out = tmp_path / "best.json"
    assert main(["optimize", "--dims", "3,3", "--restarts", "2", "--seed", "3", "--out", str(out)]) == 0
    best = float(report_of(capsys)["best_score"])
    assert abs(best - TSIRELSON_SCORE) <= 1e-6
    assert main(["score", "--config", str(out)]) == 0
    assert abs(float(report_of(capsys)["exact_score"]) - best) <= 1e-10


_PROCESS_PAYLOADS = {
    "dilate": {"gamma": [[0.5, 0.5], [0.5, 0.5]]},
    "divide": {"gamma_total": [[0.5, 0.5], [0.5, 0.5]], "gamma_first": [[1.0, 0.0], [0.0, 1.0]]},
    "qcor": {"u_total": [[1.0, 0.0], [0.0, 1.0]], "u_first": [[1.0, 0.0], [0.0, 1.0]]},
}


@pytest.mark.parametrize("command", ["simulate", "optimize", "dilate", "divide", "qcor"])
def test_negative_seed_is_invariant_violation(tmp_path, capsys, command):
    out = str(tmp_path / "out")
    argv = {
        "simulate": ["simulate", "--config", write_json(tmp_path / "s.json", {"kind": "ns_box", "e": 0.5}),
                     "--n", "4", "--out", out],
        "optimize": ["optimize", "--restarts", "1", "--out", out],
    }.get(command) or ["process", "--tool", command,
                       "--config", write_json(tmp_path / "m.json", _PROCESS_PAYLOADS[command])]
    assert main(argv + ["--seed", "-1"]) == 3
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("tool", sorted(_PROCESS_PAYLOADS))
@pytest.mark.parametrize(
    "flags, message",
    [(["--seed", str(2**64)], "seed must be in [0, 2**64), got 18446744073709551616"),
     (["--restarts", "0"], "max_restarts must be positive"),
     (["--tol", "0"], "tol must be finite and positive, got 0.0")],
    ids=["seed_2_64", "restarts_0", "tol_0"],
)
def test_process_checks_every_flag_for_every_tool(tmp_path, capsys, tool, flags, message):
    cfg = write_json(tmp_path / "m.json", _PROCESS_PAYLOADS[tool])
    assert main(["process", "--tool", tool, "--config", cfg] + flags) == 3
    assert capsys.readouterr() == ("", f"invariant violation: {message}\n")


def test_optimize_nan_tol_is_invariant_violation(tmp_path, capsys):
    args = ["optimize", "--restarts", "1", "--seed", "1", "--tol", "nan", "--out", str(tmp_path / "b.json")]
    assert main(args) == 3
    assert "tol" in capsys.readouterr().err


def test_process_divide_nan_tol_is_invariant_violation(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "m.json",
        {"gamma_total": [[1.0, 0.0], [0.0, 1.0]], "gamma_first": [[0.5, 0.5], [0.5, 0.5]]},
    )
    assert main(["process", "--tool", "divide", "--config", cfg, "--tol", "nan"]) == 3
    assert "tol" in capsys.readouterr().err


def test_optimize_oversized_dims_is_invariant_violation(tmp_path, capsys):
    args = ["optimize", "--dims", "3,6", "--restarts", "1", "--seed", "1", "--out", str(tmp_path / "b.json")]
    assert main(args) == 3
    assert "joint dimension" in capsys.readouterr().err


def _quantum_payload(**fields):
    payload = strategy_config(canonical_setup())
    payload.update(fields)
    return payload


HUGE_INT = 10**400  # a valid JSON number with no float value


def _box_payload(first_row):
    """The NS box (e = 0.5) table with its row ``table[0][0][0]`` replaced."""
    table = box_of_strategy(NSBox(0.5)).tolist()
    table[0][0][0] = first_row
    return {"kind": "box", "table": table}


@pytest.mark.parametrize(
    "argv_head, payload",
    [
        (["score"], {"kind": "ns_box", "e": HUGE_INT}),
        (["process", "--tool", "divide"], {"gamma_total": [[HUGE_INT]], "gamma_first": [[1.0]]}),
        (["process", "--tool", "qcor"], {"u_total": [[[HUGE_INT, 0.0]]], "u_first": [[1.0]]}),
        (["process", "--tool", "qcor"], {"u_total": [[1.0]], "u_first": [[HUGE_INT]]}),
        (["score"], {"kind": "box", "table": [[[[HUGE_INT]]]]}),
        (["score"], _quantum_payload(dims=[None, 2])),
        (["score"], _quantum_payload(dims=[2.9, 2])),
        (["score"], _quantum_payload(alice_outcome=[None, 1])),
        (["score"], _box_payload(["0.375", 0.375])),
        (["score"], _box_payload([True, 0.375])),
        (["score"], _box_payload([0.375])),
        (["score"], {"kind": "mixture", "components": []}),
        (["score"], {"kind": "mixture", "components": [[0.5, 0, 0]]}),
        (["score"], _quantum_payload(dims=[2, 2, 1])),
        (["score"], _quantum_payload(dims=[4, 1])),
    ],
    ids=["ns_box_e", "real_entry", "complex_pair", "complex_entry", "box_table",
         "dims_null", "dims_float", "outcome_null", "box_string", "box_bool", "box_ragged",
         "mixture_empty", "mixture_component_list", "dims_three", "dims_declared_mismatch"],
)
def test_malformed_config_values_are_parse_errors(tmp_path, capsys, argv_head, payload):
    cfg = write_json(tmp_path / "c.json", payload)
    assert main(argv_head + ["--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("parse error:")


@pytest.mark.parametrize(
    "content",
    [
        '{"kind": "ns_box", "e": 0.5, "note": "café"}'.encode("latin-1"),
        b'{"kind": "ns_box", "e": ' + b"9" * 5000 + b"}",
        b'{"kind": "ns_box", "e": 0.5, "note": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ],
    ids=["not_utf8", "5000_digits", "deep_nesting"],
)
def test_unreadable_json_is_parse_error(tmp_path, capsys, content):
    path = tmp_path / "c.json"
    path.write_bytes(content)
    assert main(["score", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("parse error:")


def _identity_quantum_payload():
    """Identity unitaries on |00>: both sides always answer 0, uniform score 1/2."""
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    state = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    return {"kind": "quantum", "dims": [2, 2], "state": state,
            "a0": eye, "a1": eye, "b0": eye, "b1": eye}


def test_score_inputs_bound_margin_uses_uniform_score(tmp_path, capsys):
    cfg = write_json(tmp_path / "q.json", _identity_quantum_payload())
    assert main(["score", "--config", cfg, "--inputs", "1,0,0,0"]) == 0
    report = report_of(capsys)
    assert float(report["exact_score"]) == 1.0
    assert float(report["bound_margin"]) == TSIRELSON_SCORE - 0.5
    assert main(["audit", "--config", cfg]) == 0
    assert report_of(capsys)["bound_margin"] == report["bound_margin"]


def _echo_table():
    """Alice echoes Bob's input; Bob answers a fair coin."""
    table = np.zeros((2, 2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            table[y, :, x, y] = 0.5
    return table.tolist()


_SCORE_KEYS = ["exact_score", "exact_win_probability", "ns_check"]
_SIMULATE_KEYS = ["empirical_score", "empirical_win_rate", "n_rounds", "seed"]
_WITNESS_KEYS = ["ns_witness_side", "ns_witness_outcome", "ns_witness_own_setting",
                 "ns_witness_remote_settings", "ns_witness_delta"]
_DIVISIBLE = {"gamma_total": [[0.7, 0.4], [0.3, 0.6]], "gamma_first": [[1.0, 0.0], [0.0, 1.0]]}
_NOT_DIVISIBLE = {"gamma_total": [[1.0, 0.0], [0.0, 1.0]], "gamma_first": [[0.5, 0.5], [0.5, 0.5]]}
_ROTATIONS = {
    "u_total": [[[0.6, 0.0], [-0.8, 0.0]], [[0.8, 0.0], [0.6, 0.0]]],
    "u_first": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
}

#: case -> (argv before the config path, config or None, report keys in printed order)
REPORT_KEYS = {
    "score_classical": (["score"], {"kind": "ns_box", "e": 0.5}, _SCORE_KEYS),
    "score_quantum": (["score"], "quantum", _SCORE_KEYS + ["bound_margin"]),
    "score_quantum_inputs": (["score", "--inputs", "0.1,0.2,0.3,0.4"], "quantum",
                             _SCORE_KEYS + ["bound_margin"]),
    "simulate_classical": (["simulate", "--n", "10", "--seed", "0", "--out", "OUT"],
                           {"kind": "ns_box", "e": 0.5}, _SCORE_KEYS + _SIMULATE_KEYS),
    "simulate_quantum": (["simulate", "--n", "10", "--seed", "7", "--out", "OUT"], "quantum",
                         _SCORE_KEYS + ["bound_margin"] + _SIMULATE_KEYS),
    "audit_pass": (["audit"], {"kind": "ns_box", "e": 0.5}, ["ns_check"]),
    "audit_fail": (["audit"], {"kind": "box", "table": _echo_table()}, ["ns_check"] + _WITNESS_KEYS),
    "audit_quantum": (["audit"], "quantum", ["ns_check", "factorization", "bound_margin"]),
    "divide_divisible": (["process", "--tool", "divide"], _DIVISIBLE,
                         ["verdict", "residual", "result"]),
    "divide_not_divisible": (["process", "--tool", "divide"], _NOT_DIVISIBLE,
                             ["verdict", "residual"]),
    "dilate_found": (["process", "--tool", "dilate", "--seed", "1"],
                     {"gamma": [[0.5, 0.5], [0.5, 0.5]]}, ["verdict", "residual", "result"]),
    "qcor": (["process", "--tool", "qcor"], _ROTATIONS, ["result", "max_column_sum"]),
    "optimize": (["optimize", "--restarts", "1", "--seed", "0", "--out", "OUT"], None,
                 ["best_score", "best_win_probability", "bound_margin", "restarts", "seed",
                  "config_path", "trace_path"]),
}


@pytest.mark.parametrize("case", sorted(REPORT_KEYS))
def test_report_keys_and_order(tmp_path, capsys, case):
    head, config, keys = REPORT_KEYS[case]
    if config == "quantum":
        config = strategy_config(canonical_setup())
    argv = [str(tmp_path / "out") if arg == "OUT" else arg for arg in head]
    if config is not None:
        argv += ["--config", write_json(tmp_path / "c.json", config)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.partition("=")[0] for line in lines] == keys


def test_python_dash_m_entry_point_returns_exit_codes(tmp_path):
    env = child_env()

    def run(payload):
        cfg = write_json(tmp_path / "c.json", payload)
        return subprocess.run([sys.executable, "-m", "chshkit", "score", "--config", cfg],
                              capture_output=True, text=True, env=env, timeout=60)

    ok = run({"kind": "ns_box", "e": 0.5})
    assert ok.returncode == 0
    assert ok.stdout.splitlines()[0] == "exact_score=0.5"
    assert ok.stderr == ""
    bad = run({"kind": "ns_box"})
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert bad.stderr.startswith("parse error:")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("a0", [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e200, 0.0]]],
         "a0 is not unitary within 1e-10 (deviation inf)"),
        ("state", [[1e200, 0.0], [0.0, 0.0], [0.0, 0.0], [0.7071067811865476, 0.0]],
         "state is not normalized: sum of squared moduli is inf"),
    ],
    ids=["a0", "state"],
)
def test_overflowing_unitary_check_prints_only_the_violation(tmp_path, field, value, message):
    config = strategy_config(canonical_setup())
    config[field] = value
    cfg = write_json(tmp_path / "c.json", config)
    run = subprocess.run([sys.executable, "-m", "chshkit", "score", "--config", cfg],
                         capture_output=True, text=True, env=child_env(), timeout=60)
    assert run.returncode == 3
    assert run.stdout == ""
    assert run.stderr == f"invariant violation: {message}\n"


def test_readme_library_block_runs():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        (block,) = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    env = child_env()
    run = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")


SIMULATE_CONFIGS = {
    "ns_box": {"kind": "ns_box", "e": 0.7},
    "mixture": {"kind": "mixture", "components": [
        {"weight": 0.25, "q_of_x": [0, 0], "r_of_y": [0, 0]},
        {"weight": 0.75, "q_of_x": [0, 1], "r_of_y": [1, 0]},
    ]},
}


def simulate_config(tmp_path, name):
    path = tmp_path / f"{name}.json"
    if name == "quantum":
        save_strategy(canonical_setup(), path)
        return str(path)
    return write_json(path, SIMULATE_CONFIGS[name])


#: sha256 of the record file and of stdout, computed with the per-row formatter
#: that the chunked one replaced: (config, n, seed) -> (records, stdout).
SIMULATE_DIGESTS = {
    ("quantum", 1, 7): (
        "cf34fe2481d9825d1d5a664232c41924e828ec397041643f4da4a40b52f59060",
        "b876a4b719ac10ba3d5514d8e67ee00c27d384628233d65bf08a55c5b4cf4f60",
    ),
    ("quantum", 65536, 7): (
        "0dd62f606ac6d06e4a9be4ca53b611d36a4c9a4bf4a5357b347bd7ae88163328",
        "917c9d13577f1f7de8ca13ee2aa4145b0ffb4c2bc48dd3879d8bc9ba17060826",
    ),
    ("quantum", 65537, 7): (
        "e14955ab871a0c0b051b228fd40ee017fc227c8159c43e775212ed91e324febe",
        "c388ab47b645c4c1f5d5b28a4556c1e8209f174ea5036dc35b5d0593f44861b9",
    ),
    ("quantum", 10**6, 7): (
        "e40020d494bf9ca628c3e95fb4b9e61745e6a1eb710b04c6fda586b1dd8cc536",
        "f7785e8d0ff496ef7cccdaa7ca95f447baa2f30ce84ca8b82989e499486a8183",
    ),
    ("ns_box", 1, 0): (
        "8f06be135b8a4da8de8e9f3c9a38c69a469582d2e337f784436c980d9c97e868",
        "48b5f8988d879e6c045a9da7ae0e6d99beca537bc23c1610cf2a5e0fac94f0f5",
    ),
    ("ns_box", 65536, 0): (
        "d5b9a50718667f75381ea80031a94b4e660a2d9658c211e52cf48bcfdac89e0b",
        "444c5f99dcb4a26423087bc3877edd6ccbc8a491262dcdbb95a05b32a869cff3",
    ),
    ("ns_box", 65537, 0): (
        "945546d67b118249baeb45a26a78b39bdd03318ee37652dd18b3b656f24b3062",
        "7d0f8d0d56ff6df99d33fc3ec5f1b2c899ca39d1c4baa7f9ba38369e28692f71",
    ),
    ("ns_box", 10**6, 0): (
        "f807a77501e7582daa3d2819d7507a67bf65b9dce5a462176896594f021b794e",
        "5a441a716f2f7ff85bb33f52e0f73001a08f9281c5c337c190af8132dcfba2f1",
    ),
    ("mixture", 1, 2**64 - 1): (
        "eb6d30e596a851bb72e67925421a0509c46a30d353eba841d81c943952a5d79b",
        "d25c3fe0bf0e45d24252e821616435728f15f7065754870c92fd0cd6a23165de",
    ),
    ("mixture", 65536, 2**64 - 1): (
        "070ca10a98b0b040a7a17a06203a7aa31a947d0acb249879d287542018106f93",
        "920a0acdadbce83f0db2fd9663a814959dd6c7312f2879b98042289c3505d3fa",
    ),
    ("mixture", 65537, 2**64 - 1): (
        "3d95757f96e01d45f3219ab9bc6ffb6bdfd430b2baf42e4fdb04f6d2186136cc",
        "56f84b9cf0aa8464d07e77c662cb934d5b1550c99289a9e2f55c15ccb005c146",
    ),
    ("mixture", 10**6, 2**64 - 1): (
        "0e3bdc0e458b32146a84f2cd378c794860af545f7596a3a147b074ffd725169e",
        "79eef38511b6c8fac6b3b019ac72d3187c532c1231fa6437ab71efe23e3798cf",
    ),
}


@pytest.mark.parametrize("name, n, seed", sorted(SIMULATE_DIGESTS, key=str))
def test_simulate_outputs_are_pinned(tmp_path, capsys, name, n, seed):
    out = tmp_path / "r.csv"
    argv = ["simulate", "--config", simulate_config(tmp_path, name), "--n", str(n),
            "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    digests = (hashlib.sha256(out.read_bytes()).hexdigest(),
               hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert digests == SIMULATE_DIGESTS[name, n, seed]


def test_format_records_reads_start_as_a_non_negative_integer():
    chunk = next(simulate_chunks(canonical_setup(), 5, 1))
    for start, message in [(-3, "^start must be non-negative, got -3$"),
                           (2.5, "^start must be an integer, got 2.5$"),
                           ("1", "^start must be an integer, got '1'$")]:
        with pytest.raises(ValueError, match=message):
            format_records(chunk, start)
    assert format_records(chunk, 2.0) == format_records(chunk, 2)


@pytest.mark.parametrize("value", [-1, 2])
def test_format_records_reads_each_column_as_bits(value):
    zero = np.zeros(1, dtype=np.int8)
    for name in "xyqr":
        columns = {column: zero for column in "xyqr"} | {name: np.array([value], dtype=np.int8)}
        with pytest.raises(ValueError, match=rf"^column {name} must hold bits \(0 or 1\), got {value}$"):
            format_records(SimulationChunk(0, **columns))


@pytest.mark.parametrize("seed", [3, 2**40 + 1])
@pytest.mark.parametrize("n", [100_005, 1_000_003])
def test_simulate_file_is_format_records_of_each_chunk(tmp_path, capsys, n, seed):
    # Both n cross an index width inside a chunk (10**5 and 10**6).
    cfg = simulate_config(tmp_path, "quantum")
    out = tmp_path / "r.csv"
    assert main(["simulate", "--config", cfg, "--n", str(n), "--seed", str(seed), "--out", str(out)]) == 0
    data = out.read_bytes()
    chunks = simulate_chunks(load_strategy(cfg), n, seed)
    assert data == b"".join(format_records(chunk, chunk.start).encode() for chunk in chunks)
    assert b"\r" not in data
    raw = np.frombuffer(data, dtype=np.uint8)
    row_ends = np.flatnonzero(raw == ord("\n"))[1:]  # after the header
    assert len(row_ends) == n
    won = np.count_nonzero(raw[row_ends - 1] == ord("1"))
    assert float(report_of(capsys)["empirical_win_rate"]) == won / n


#: Inputs of the dilate digests: the squared moduli of a 4x4 Haar unitary,
#: written out so that they do not depend on the platform's QR, and the 3x3
#: witness, which has no dilation.
DILATE_INPUTS = {
    "unistochastic_4": [
        [0.7961558837119304, 0.05672271541396451, 0.06668649840231963, 0.08043490247178565],
        [0.03720056652488618, 0.3383640948593722, 0.620410032503849, 0.004025306111893043],
        [0.14157942299873502, 0.44258270539438926, 0.1855584319146274, 0.23027943969224834],
        [0.025064126764448545, 0.16233048433227437, 0.12734503717920417, 0.6852603517240732],
    ],
    "witness_3": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
}

#: sha256 of ``process --tool dilate`` stdout, computed with the loop that ran
#: one restart at a time: (input, seed, --restarts or None for the default)
#: -> digest.  On the 4x4, seed 0 is found by restart 0, and seed 2 by
#: restart 2 while restart 1, in the same block, still runs; with one
#: restart seed 2 is not found.  The witness is never found, so every
#: restart runs: 1, 3, the default 64 and 100 end at different points of
#: the block schedule.
DILATE_DIGESTS = {
    ("unistochastic_4", 0, None): "307cb42dec01d4f58950040cb6a14623919e69e1c64857a69d1870e3f28d6296",
    ("unistochastic_4", 2, None): "a25c796e827982a0e715a08362d1ba41720bd62488db567439fcbb37a919b66f",
    ("unistochastic_4", 2, 1): "7632f69bce25e5be1b724b00a29676d3c84dce7b9f8923f3f4d82b4e4f5bcaf0",
    ("unistochastic_4", 2, 3): "a25c796e827982a0e715a08362d1ba41720bd62488db567439fcbb37a919b66f",
    ("witness_3", 5, None): "f85e76b8c0ecb699c70b090734e9e2190a79fc3f9a3c0bf09cf8a3a0c41eac7b",
    ("witness_3", 5, 1): "e76233639b619812fa61fe0a849bf75bf3225db97c86daa69a96012c59192df5",
    ("witness_3", 5, 3): "ab3c8e329c509f21b08e67fcb6e93faf93916aa5fabd2c253ee15607a0139b7c",
    ("witness_3", 5, 100): "635107d147330a6178f43ac8c39fb794ec107ecdb072adcb4fb67152f52df1f6",
}


@pytest.mark.parametrize("name, seed, restarts", sorted(DILATE_DIGESTS, key=str))
def test_dilate_outputs_are_pinned(tmp_path, capsys, name, seed, restarts):
    cfg = write_json(tmp_path / "g.json", {"gamma": DILATE_INPUTS[name]})
    argv = ["process", "--tool", "dilate", "--config", cfg, "--seed", str(seed)]
    if restarts is not None:
        argv += ["--restarts", str(restarts)]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DILATE_DIGESTS[name, seed, restarts], (
        "the digests pin the output bits of the LAPACK build they were recorded with "
        f"(numpy 2.4.6, scipy-openblas 0.3.31); this run has numpy {np.__version__}, "
        "so a mismatch on another BLAS build is a platform difference"
    )


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
@pytest.mark.parametrize("n, seed", [(4, -1), (4, 2**64), (0, 1)], ids=["seed_-1", "seed_2**64", "n_0"])
def test_simulate_bad_arguments_leave_out_untouched(tmp_path, capsys, existing, n, seed):
    out = tmp_path / "r.csv"
    if existing:
        out.write_text("keep me\n")
    argv = ["simulate", "--config", simulate_config(tmp_path, "ns_box"), "--n", str(n),
            "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().out == ""
    assert (out.read_text() == "keep me\n") if existing else not out.exists()


#: Starts the command in its argv and prints its exit code and ru_maxrss.  A
#: process's ru_maxrss also counts the peak of the process it was spawned
#: from, so the command is spawned from this small interpreter, not from pytest.
PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kB on Linux only")
def test_simulate_peak_memory_does_not_grow_with_n(tmp_path):
    env = child_env()
    cfg = simulate_config(tmp_path, "ns_box")

    def peak_kb(n):
        argv = [sys.executable, "-c", PEAK_RSS_LAUNCHER, sys.executable, "-m", "chshkit", "simulate",
                "--config", cfg, "--n", str(n), "--seed", "5", "--out", str(tmp_path / "r.csv")]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300, check=True)
        code, peak = (int(v) for v in run.stdout.split())
        assert code == 0
        return peak

    small, large = peak_kb(2 * CHUNK_ROUNDS), peak_kb(32 * CHUNK_ROUNDS)
    assert large - small <= 16 * 1024, (small, large)


@pytest.mark.parametrize("out", ["/dev/full", "missing_dir"])
def test_simulate_io_errors_leave_no_thread_behind(tmp_path, capsys, out):
    if out == "/dev/full" and not os.path.exists(out):
        pytest.skip("no /dev/full on this platform")
    path = out if out == "/dev/full" else str(tmp_path / "no" / "such" / "r.csv")
    argv = ["simulate", "--config", simulate_config(tmp_path, "ns_box"), "--n", "300000",
            "--seed", "1", "--out", path]
    before = threading.active_count()
    assert main(argv) == 4
    assert threading.active_count() == before
    if out == "/dev/full":
        assert capsys.readouterr().err == "i/o error: [Errno 28] No space left on device\n"


#: Runs ``cli.main`` on its argv in an interpreter limited to one CPU, where
#: chunks are drawn inline: starting a thread fails the run.
ONE_CPU_LAUNCHER = """
import os, sys, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

def refuse(thread):
    raise RuntimeError("a thread was started on one CPU")

threading.Thread.start = refuse
from chshkit.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
@pytest.mark.parametrize("name, n, seed", [("quantum", 10**6, 7), ("ns_box", 65537, 0)])
def test_simulate_on_one_cpu_draws_inline_and_writes_the_pinned_outputs(tmp_path, name, n, seed):
    env = child_env()
    out = tmp_path / "r.csv"
    argv = [sys.executable, "-c", ONE_CPU_LAUNCHER, "simulate", "--config", simulate_config(tmp_path, name),
            "--n", str(n), "--seed", str(seed), "--out", str(out)]
    run = subprocess.run(argv, env=env, capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr.decode()
    digests = (hashlib.sha256(out.read_bytes()).hexdigest(), hashlib.sha256(run.stdout).hexdigest())
    assert digests == SIMULATE_DIGESTS[name, n, seed]


@pytest.mark.parametrize(
    "command, spec, message",
    [
        ("score", "0.25,0.25,0.5", "--inputs must be 'p00,p01,p10,p11', got '0.25,0.25,0.5'"),
        ("score", "0.25,0.25,x,0.5", "--inputs must be four numbers, got '0.25,0.25,x,0.5'"),
        ("optimize", "2,2,2", "--dims must be 'dim_a,dim_b', got '2,2,2'"),
        ("optimize", "2,2.5", "--dims must be two integers, got '2,2.5'"),
    ],
)
def test_comma_list_flags_name_their_form(tmp_path, capsys, command, spec, message):
    if command == "score":
        argv = ["score", "--config", simulate_config(tmp_path, "ns_box"), "--inputs", spec]
    else:
        argv = ["optimize", "--dims", spec, "--seed", "1", "--out", str(tmp_path / "o.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {message}\n"


@pytest.mark.parametrize("config", ["quantum", "mixture", "ns_box"])
@pytest.mark.parametrize("command", ["score", "audit", "simulate"])
def test_each_report_validates_its_box_at_most_once(tmp_path, capsys, monkeypatch, command, config):
    calls = []

    def counting(box, name="box"):
        calls.append(name)
        return as_correlation_box(box, name)

    argv = [command, "--config", simulate_config(tmp_path, config)]
    if command == "simulate":
        argv += ["--n", "10", "--seed", "1", "--out", str(tmp_path / "r.csv")]
    monkeypatch.setattr(game, "as_correlation_box", counting)
    assert main(argv) == 0
    assert len(calls) <= 1
