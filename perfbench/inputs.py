"""Seeded input generator for the four workloads.

Every file the program reads is written here, during set-up, from the
workload seed: the same seed gives byte-identical inputs.  Each generator
returns an operation list whose entries carry the argv to run and what the
output must satisfy; the checks in ``workloads.py`` and ``calls.py``
read those expectations.  The ``WHY`` tables record why each input class is
in the mix.
"""

from __future__ import annotations

import json
import math
import os
from itertools import product

import numpy as np

TSIRELSON = 1.0 / math.sqrt(2.0)

WHY = {
    "simulate": {
        "quantum_canonical": "the textbook Bell-state setup at the score ceiling; "
        "n = 4 * CHUNK_ROUNDS + 1 so the last chunk is partial",
        "ns_box": "closed-form box with a seeded score parameter; n is not a chunk multiple",
        "mixture": "shared-randomness mixture, the classical arm; the smallest file",
    },
    "optimize": {
        "qubit_many_restarts": "dims (2,2), five seeded searches of 20 restarts: the qubit "
        "search space",
        "qubit_by_qutrit": "dims (2,3), one restart, fixed optimizer seed: the general search "
        "space, small",
    },
    "audit": {
        "classical": "deterministic, mixture and NS-box configs: parse, validate, closed-form box",
        "box_tables": "raw tables, no-signaling and signaling, so both audit verdicts occur",
        "quantum": "Haar setups of dims (2,2) to (4,4): unitary checks and the amplitude box",
        "inputs_flag": "score --inputs with a seeded input distribution",
        "operator_route": "score_of_setup on each quantum config, compared with the box route",
        "divide": "divisible products of stochastic matrices and one indivisible pair",
        "qcor": "Haar unitary pairs; the correction matrix must have zero column sums",
        "causality": "product, Haar and swap unitaries through the causal-influence tests",
        "malformed": "bad JSON, unknown kind, out-of-range values, missing file: exits 2, 3, 4",
    },
    "dilate": {
        "unistochastic": "squared moduli of Haar unitaries, dims 3 to 7, usually found, "
        "and 12 with 8 restarts, a genuine search failure",
        "non_unistochastic": "(J - I)/2 in 3x3 and embedded in 4x4: no dilation exists, so "
        "every restart is used up and 'found' is an error",
    },
}


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 64), *stream])


def haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def cmat(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def cvec(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def rmat(m) -> list:
    return [[float(v) for v in row] for row in np.asarray(m, dtype=float)]


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _sign(q, r, x, y) -> float:
    return 1.0 if (q ^ r) == (x & y) else -1.0


def box_score(box: np.ndarray, inputs: np.ndarray) -> float:
    """Expected score from a table P[q, r, x, y], computed independently of chshkit."""
    return float(sum(inputs[x, y] * _sign(q, r, x, y) * box[q, r, x, y]
                     for q, r, x, y in product((0, 1), repeat=4)))


def deterministic_box(q_of_x, r_of_y) -> np.ndarray:
    box = np.zeros((2, 2, 2, 2))
    for x, y in product((0, 1), repeat=2):
        box[q_of_x[x], r_of_y[y], x, y] = 1.0
    return box


def ns_table(e: float) -> np.ndarray:
    box = np.zeros((2, 2, 2, 2))
    for q, r, x, y in product((0, 1), repeat=4):
        box[q, r, x, y] = (1.0 + _sign(q, r, x, y) * e) / 4.0
    return box


def signals(box: np.ndarray, tol: float = 1e-9) -> bool:
    alice, bob = box.sum(axis=1), box.sum(axis=0)
    return bool(np.abs(alice[:, :, 0] - alice[:, :, 1]).max() > tol
                or np.abs(bob[:, 0, :] - bob[:, 1, :]).max() > tol)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def canonical_quantum() -> dict:
    """Bell state with observables at angles 0, pi/2 (Alice) and +-pi/4 (Bob)."""
    state = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return {
        "kind": "quantum", "dims": [2, 2], "state": cvec(state),
        "a0": cmat(_ry(0.0)), "a1": cmat(_ry(-math.pi / 2)),
        "b0": cmat(_ry(-math.pi / 4)), "b1": cmat(_ry(math.pi / 4)),
    }


def random_quantum(dims, rng) -> dict:
    da, db = dims
    z = rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db)
    state = z / np.linalg.norm(z)
    return {
        "kind": "quantum", "dims": [da, db], "state": cvec(state),
        "a0": cmat(haar(da, rng)), "a1": cmat(haar(da, rng)),
        "b0": cmat(haar(db, rng)), "b1": cmat(haar(db, rng)),
        "alice_outcome": [int(b) for b in rng.integers(0, 2, da)],
        "bob_outcome": [int(b) for b in rng.integers(0, 2, db)],
    }


def random_mixture(rng) -> tuple[dict, np.ndarray]:
    k = int(rng.integers(2, 5))
    weights = rng.dirichlet(np.ones(k))
    weights[-1] = 1.0 - weights[:-1].sum()
    comps, box = [], np.zeros((2, 2, 2, 2))
    for w in weights:
        q, r = [int(b) for b in rng.integers(0, 2, 2)], [int(b) for b in rng.integers(0, 2, 2)]
        comps.append({"weight": float(w), "q_of_x": q, "r_of_y": r})
        box += w * deterministic_box(q, r)
    return {"kind": "mixture", "components": comps}, box


def random_stochastic(dim: int, rng) -> np.ndarray:
    g = rng.dirichlet(np.ones(dim), size=dim).T
    return g / g.sum(axis=0)


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

#: Round counts per strategy class.  4 * 65536 + 1 leaves a one-round chunk.
SIMULATE_ROUNDS = {"quantum_canonical": 4 * 65536 + 1, "ns_box": 150_001, "mixture": 100_003}


def simulate_ops(seed: int, workdir: str) -> list[dict]:
    rng = rng_for(seed, 1)
    e = float(rng.uniform(-1.0, 1.0))
    mixture, mix_box = random_mixture(rng)
    classes = [
        ("quantum_canonical", canonical_quantum(), TSIRELSON),
        ("ns_box", {"kind": "ns_box", "e": e}, e),
        ("mixture", mixture, box_score(mix_box, np.full((2, 2), 0.25))),
    ]
    ops = []
    for j, (cls, config, score) in enumerate(classes):
        path = write_json(os.path.join(workdir, f"sim_{j}.json"), config)
        out = os.path.join(workdir, f"sim_{j}.csv")
        n = SIMULATE_ROUNDS[cls]
        sim_seed = int(rng.integers(0, 1 << 62))
        ops.append({
            "op": "cli", "class": cls, "work": n, "out": out, "exit": 0,
            "argv": ["simulate", "--config", path, "--n", str(n), "--seed", str(sim_seed),
                     "--out", out],
            "expect": {"exact_score": score, "n": n, "seed": sim_seed,
                       "quantum": cls == "quantum_canonical"},
        })
    return ops


# --------------------------------------------------------------------------
# optimize
# --------------------------------------------------------------------------

#: (class, dims, restarts, searches, seeded).  The (2,2) restarts run as
#: several short seeded searches, so that each is short enough for a run to
#: catch it at the host's full speed.  One general-dims restart takes
#: 2.0-3.6 s on (2,3) and 3.5-7.0 s on (3,3) depending on its optimizer seed,
#: so the (2,3) search runs with the fixed optimizer seed 0; (3,3), one
#: restart of 4-6 s, is left out: a 30 s run repeated it only three times.
OPTIMIZE_MIX = [("qubit_many_restarts", "2,2", 20, 5, True), ("qubit_by_qutrit", "2,3", 1, 1, False)]


def optimize_ops(seed: int, workdir: str) -> list[dict]:
    rng = rng_for(seed, 2)
    ops = []
    for cls, dims, restarts, searches, seeded in OPTIMIZE_MIX:
        for _ in range(searches):
            out = os.path.join(workdir, f"opt_{len(ops)}.json")
            opt_seed = int(rng.integers(0, 1 << 62)) if seeded else 0
            ops.append({
                "op": "cli", "class": cls, "work": restarts, "out": out, "exit": 0,
                "argv": ["optimize", "--dims", dims, "--restarts", str(restarts),
                         "--seed", str(opt_seed), "--out", out],
                "expect": {"restarts": restarts},
            })
    return ops


# --------------------------------------------------------------------------
# dilate
# --------------------------------------------------------------------------

#: One search per dimension.  Its SVD iterations, and so its time, vary
#: tenfold from input to input; the metrics divide each search's time by its
#: iteration count (``calls.py``).  Dims stop at 7 plus the 12x12, a genuine
#: search failure, so a pass stays short enough to repeat.
DILATE_DIMS = (3, 4, 5, 6, 7, 12)

#: Restarts of the 12x12 search, which gives up: with the default 64 it takes
#: 2 s, too long for a run to catch it at the host's full speed.
LARGE_RESTARTS = 8

#: The fixed mix over which dilate's work_per_ref is taken: each class weighs
#: the SVD iterations a typical search of it makes with the default 64
#: restarts (the median over 40 Haar inputs for the unistochastic classes;
#: all 64 restarts stall at 200 iterations for the fixed non-unistochastic
#: ones), whatever restarts the pass gives it.  A class's own weight in
#: a pass would make the result follow which searches the seed made long,
#: and an equal weight would let the 3x3 searches, about 50 iterations and
#: mostly per-call overhead, count as much as the 12x12.
DILATE_MIX = {"unistochastic_3": 50, "unistochastic_4": 230, "unistochastic_5": 870,
              "unistochastic_6": 2600, "unistochastic_7": 6400, "unistochastic_12": 25000,
              "non_unistochastic_3": 12800, "non_unistochastic_4": 12800}


def non_unistochastic() -> list[np.ndarray]:
    j3 = (np.ones((3, 3)) - np.eye(3)) / 2.0
    j4 = np.zeros((4, 4))
    j4[:3, :3] = j3
    j4[3, 3] = 1.0
    return [j3, j4]


def dilate_ops(seed: int, workdir: str) -> list[dict]:
    rng = rng_for(seed, 3)
    inputs = []
    for dim in DILATE_DIMS:
        gamma = np.abs(haar(dim, rng)) ** 2
        path = write_json(os.path.join(workdir, f"dil_{dim}.json"), {"gamma": rmat(gamma)})
        inputs.append((f"unistochastic_{dim}", path, True))
    for g in non_unistochastic():
        path = write_json(os.path.join(workdir, f"dil_fixed_{len(g)}.json"), {"gamma": rmat(g)})
        inputs.append((f"non_unistochastic_{len(g)}", path, False))
    return [{"op": "cli", "class": cls, "gamma": path, "unistochastic": uni, "exit": 0,
             "argv": ["process", "--tool", "dilate", "--config", path,
                      "--seed", str(int(rng.integers(0, 1 << 62)))]
             + (["--restarts", str(LARGE_RESTARTS)] if cls == f"unistochastic_{DILATE_DIMS[-1]}" else [])}
            for cls, path, uni in inputs]


# --------------------------------------------------------------------------
# audit: replayed in-process by the calls child
# --------------------------------------------------------------------------

QUANTUM_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 4)]


def _malformed(workdir: str) -> list[dict]:
    def cfg(name, text):
        path = os.path.join(workdir, f"bad_{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    not_unitary = canonical_quantum()
    not_unitary["a0"] = cmat(np.array([[1.0, 0.0], [0.0, 0.5]]))
    unnormalized = ns_table(0.5)
    unnormalized[0, 0, 1, 1] += 0.25
    ops = [
        (["score", "--config", cfg("json", '{"kind": "ns_box", "e": }')], 2),
        (["score", "--config", cfg("kind", '{"kind": "pr_box"}')], 2),
        (["audit", "--config", cfg("field", '{"kind": "deterministic", "q_of_x": [0, 1]}')], 2),
        (["score", "--config", cfg("range", '{"kind": "ns_box", "e": 1.5}')], 3),
        (["audit", "--config", cfg("unitary", json.dumps(not_unitary))], 3),
        (["score", "--config", cfg("norm", json.dumps({"kind": "box",
                                                       "table": unnormalized.tolist()}))], 3),
        (["score", "--config", cfg("ok", '{"kind": "ns_box", "e": 0.5}'), "--inputs", "0.5,0.5"], 2),
        (["process", "--tool", "divide", "--config", cfg("divide", '{"gamma_total": [[1.0]]}')], 2),
        (["score", "--config", os.path.join(workdir, "does_not_exist.json")], 4),
    ]
    return [{"op": "cli", "class": "malformed", "argv": argv, "exit": code} for argv, code in ops]


def audit_ops(seed: int, workdir: str) -> list[dict]:
    rng = rng_for(seed, 4)
    ops: list[dict] = []
    n_cfg = 0

    def config(obj) -> str:
        nonlocal n_cfg
        n_cfg += 1
        return write_json(os.path.join(workdir, f"cfg_{n_cfg}.json"), obj)

    def classical(obj, box, cls):
        path = config(obj)
        inputs = rng.dirichlet(np.ones(4)).reshape(2, 2)
        spec = ",".join(repr(float(v)) for v in inputs.ravel()[:3])
        spec += "," + repr(float(1.0 - inputs.ravel()[:3].sum()))
        inputs = np.array([float(v) for v in spec.split(",")]).reshape(2, 2)
        ns = "fail" if signals(box) else "pass"
        uniform = np.full((2, 2), 0.25)
        ops.append({"op": "cli", "class": cls, "argv": ["score", "--config", path], "exit": 0,
                    "score": box_score(box, uniform), "ns_check": ns})
        ops.append({"op": "cli", "class": "inputs_flag",
                    "argv": ["score", "--config", path, "--inputs", spec], "exit": 0,
                    "score": box_score(box, inputs), "ns_check": ns})
        ops.append({"op": "cli", "class": cls, "argv": ["audit", "--config", path], "exit": 0,
                    "ns_check": ns})

    for _ in range(4):
        q, r = [int(b) for b in rng.integers(0, 2, 2)], [int(b) for b in rng.integers(0, 2, 2)]
        classical({"kind": "deterministic", "q_of_x": q, "r_of_y": r}, deterministic_box(q, r),
                  "classical")
        mixture, box = random_mixture(rng)
        classical(mixture, box, "classical")
        e = float(rng.uniform(-1.0, 1.0))
        classical({"kind": "ns_box", "e": e}, ns_table(e), "classical")
    for signaling in (False, False, True, True):
        if signaling:
            table = np.stack([rng.dirichlet(np.ones(4)) for _ in range(4)], axis=-1)
            table = table.reshape(2, 2, 2, 2)
        else:
            _, table = random_mixture(rng)
            table = 0.5 * table + 0.5 * ns_table(float(rng.uniform(-1.0, 1.0)))
        classical({"kind": "box", "table": table.tolist()}, table, "box_tables")
    for obj in [canonical_quantum()] + [random_quantum(d, rng) for d in QUANTUM_DIMS]:
        path = config(obj)
        ops.append({"op": "cli", "class": "quantum", "argv": ["score", "--config", path],
                    "exit": 0, "ns_check": "pass", "quantum": path})
        ops.append({"op": "operator", "class": "operator_route", "config": path})
        ops.append({"op": "cli", "class": "quantum", "argv": ["audit", "--config", path],
                    "exit": 0, "ns_check": "pass", "quantum": path})
    for dim in (2, 3, 4, 5):
        first, second = random_stochastic(dim, rng), random_stochastic(dim, rng)
        path = config({"gamma_total": rmat(second @ first), "gamma_first": rmat(first)})
        ops.append({"op": "cli", "class": "divide", "exit": 0, "verdict": "divisible",
                    "argv": ["process", "--tool", "divide", "--config", path],
                    "gamma_total": rmat(second @ first), "gamma_first": rmat(first)})
    first = random_stochastic(3, rng)
    path = config({"gamma_total": rmat(np.eye(3)), "gamma_first": rmat(first)})
    ops.append({"op": "cli", "class": "divide", "exit": 0, "verdict": "not_divisible",
                "argv": ["process", "--tool", "divide", "--config", path]})
    for dim in (2, 3, 4, 6):
        ut, uf = haar(dim, rng), haar(dim, rng)
        expected = np.abs(ut) ** 2 - (np.abs(ut @ uf.conj().T) ** 2) @ (np.abs(uf) ** 2)
        path = config({"u_total": cmat(ut), "u_first": cmat(uf)})
        ops.append({"op": "cli", "class": "qcor", "exit": 0, "qcor": rmat(expected),
                    "argv": ["process", "--tool", "qcor", "--config", path]})
    swap = np.zeros((4, 4))
    for a, b in product((0, 1), repeat=2):
        swap[b * 2 + a, a * 2 + b] = 1.0
    unitaries = [
        ((2, 2), np.kron(haar(2, rng), haar(2, rng)), False),
        ((2, 3), np.kron(haar(2, rng), haar(3, rng)), False),
        ((2, 2), haar(4, rng), True),
        ((3, 3), haar(9, rng), True),
        ((2, 2), swap, True),
    ]
    for dims, u, coupled in unitaries:
        path = config({"u": cmat(u), "dims": list(dims)})
        ops.append({"op": "joint_from_unitary", "class": "causality", "config": path})
        for direction in ("r_on_q", "q_on_r"):
            ops.append({"op": "influences", "class": "causality", "config": path,
                        "direction": direction, "expect": coupled})
        ops.append({"op": "non_interacting", "class": "causality", "config": path,
                    "expect": not coupled})
    ops.extend(_malformed(workdir))
    return ops
