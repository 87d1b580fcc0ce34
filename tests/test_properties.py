"""Property-based tests: config round-trips, the two quantum score routes,
the classical ceiling on product states, qcor column sums, the CLI's exit
codes on fuzzed configs, the chunk sampler and record formatter against
their per-row oracles, and the no-signaling witness against its per-entry
loop."""

import contextlib
import dataclasses
import io
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshkit import game
from chshkit.causality import causally_independent
from chshkit.cli import _record_rows, format_records, main
from chshkit.configio import load_strategy, save_strategy, strategy_config
from chshkit.game import (
    CHUNK_ROUNDS,
    Deterministic,
    ExplicitBox,
    NSBox,
    SharedRandomness,
    SignalingWitness,
    SimulationChunk,
    _outcome_cumulatives,
    _simulate_chunk,
    box_of_strategy,
    expected_score,
    is_no_signaling,
    ns_box,
    signaling_witness,
)
from chshkit.linalg import basis_state, haar_unitary, substream
from chshkit.stochastic import qcor
from chshkit.tsirelson import MAX_JOINT_DIM, canonical_setup, random_setup, score_of_setup

PROPERTY = settings(max_examples=60, deadline=None)

bits = st.integers(0, 1)
deterministic = st.builds(Deterministic, st.tuples(bits, bits), st.tuples(bits, bits))


@st.composite
def mixtures(draw):
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5))
    components = draw(st.lists(deterministic, min_size=len(raw), max_size=len(raw)))
    weights = (np.array(raw) / sum(raw)).tolist()
    return SharedRandomness(tuple(zip(weights, components)))


@st.composite
def explicit_boxes(draw):
    table = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=16, max_size=16)))
    table = table.reshape(2, 2, 2, 2)
    return ExplicitBox(table / table.sum(axis=(0, 1)))


@st.composite
def quantum_setups(draw, dims=st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 4)])):
    da, db = draw(dims)
    setup = random_setup((da, db), np.random.default_rng(draw(st.integers(0, 2**32))))
    outcome_map = lambda d: st.lists(bits, min_size=d, max_size=d).map(tuple)  # noqa: E731
    return dataclasses.replace(
        setup, alice_outcome=draw(outcome_map(da)), bob_outcome=draw(outcome_map(db))
    )


every_strategy = st.one_of(
    deterministic,
    mixtures(),
    st.builds(NSBox, st.floats(-1.0, 1.0)),
    explicit_boxes(),
    quantum_setups(),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@PROPERTY
@given(strategy=every_strategy)
def test_config_save_load_round_trip(workdir, strategy):
    path = workdir / "strategy.json"
    save_strategy(strategy, path)
    loaded = load_strategy(path)
    assert type(loaded) is type(strategy)
    assert strategy_config(loaded) == strategy_config(strategy)
    assert np.array_equal(box_of_strategy(loaded), box_of_strategy(strategy))


@PROPERTY
@given(setup=quantum_setups())
def test_box_route_matches_operator_route(setup):
    assert abs(expected_score(box_of_strategy(setup)) - score_of_setup(setup)) <= 1e-12


#: Every pair of local dimensions within the joint cap.
ALL_DIMS = [(da, db) for da in range(1, MAX_JOINT_DIM + 1) for db in range(1, MAX_JOINT_DIM // da + 1)]


@st.composite
def product_setups(draw):
    """Haar-random setups whose state is one product configuration ``|i, j>``."""
    setup = draw(quantum_setups(st.sampled_from(ALL_DIMS)))
    n = setup.dim_a * setup.dim_b
    return dataclasses.replace(setup, state=basis_state(n, draw(st.integers(0, n - 1))))


@PROPERTY
@given(setup=product_setups())
def test_product_configurations_score_at_most_the_classical_ceiling(setup):
    # The classical rung without a search: a product state gives a product box.
    assert abs(expected_score(box_of_strategy(setup))) <= 0.5 + 1e-12
    assert abs(score_of_setup(setup)) <= 0.5 + 1e-12


@PROPERTY
@given(dim=st.integers(1, 8), seed=st.integers(0, 2**32))
def test_qcor_columns_sum_to_zero(dim, seed):
    rng = np.random.default_rng(seed)
    correction = qcor(haar_unitary(dim, rng), haar_unitary(dim, rng))
    assert np.max(np.abs(correction.sum(axis=0))) <= 1e-12


# --------------------------------------------------------------------------
# CLI fuzzing: one node of a valid config replaced by an arbitrary JSON value
# --------------------------------------------------------------------------

_HALF = [[0.5, 0.5], [0.5, 0.5]]
_EYE = [[1.0, 0.0], [0.0, 1.0]]
_ROT = [[[0.6, 0.0], [-0.8, 0.0]], [[0.8, 0.0], [0.6, 0.0]]]

BASE_CONFIGS = [
    (["score"], strategy_config(canonical_setup())),
    (["audit"], strategy_config(canonical_setup())),
    (["score"], {"kind": "ns_box", "e": 0.5}),
    (["audit"], {"kind": "box", "table": ns_box(0.3).tolist()}),
    (["score"], {"kind": "deterministic", "q_of_x": [0, 1], "r_of_y": [1, 0]}),
    (["score"], {"kind": "mixture", "components": [
        {"weight": 0.25, "q_of_x": [0, 0], "r_of_y": [0, 0]},
        {"weight": 0.75, "q_of_x": [1, 0], "r_of_y": [0, 1]},
    ]}),
    (["process", "--tool", "divide"], {"gamma_total": _HALF, "gamma_first": _EYE}),
    (["process", "--tool", "qcor"], {"u_total": _ROT, "u_first": _EYE}),
    (["process", "--tool", "dilate", "--restarts", "1"], {"gamma": _HALF}),
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=10,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_exit_codes_on_fuzzed_configs(workdir, data):
    argv_head, base = data.draw(st.sampled_from(BASE_CONFIGS))
    path = data.draw(st.sampled_from(list(_paths(base))))
    config = _replaced(base, path, data.draw(json_values))
    cfg = workdir / "fuzzed.json"
    cfg.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv_head + ["--config", str(cfg)])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
    assert "nan" not in out.getvalue().lower()  # a success reports finite numbers only


def _records_oracle(start, x, y, q, r):
    head = "round_index,x,y,q,r,win\n" if start == 0 else ""
    return head + "".join(
        f"{start + i},{a},{b},{c},{d},{int((c ^ d) == (a & b))}\n"
        for i, (a, b, c, d) in enumerate(zip(x, y, q, r))
    )


@st.composite
def record_chunks(draw):
    count = draw(st.integers(1, 300))
    if draw(st.booleans()):  # straddle a change of index width, or of the last four digits' block
        start = max(0, draw(st.sampled_from([10, 100_000, 1_000_000, 1_230_000])) - draw(st.integers(1, count)))
    else:
        start = draw(st.one_of(st.just(0), st.integers(0, 10**15)))
    rows = draw(st.lists(st.tuples(bits, bits, bits, bits), min_size=count, max_size=count))
    return start, [list(column) for column in zip(*rows)]


@PROPERTY
@given(chunk=record_chunks())
def test_format_records_matches_per_row_oracle(chunk):
    start, columns = chunk
    rounds = SimulationChunk(start, *(np.array(c, dtype=np.int8) for c in columns))
    assert format_records(rounds, start) == _records_oracle(start, *columns)


#: Record chunks whose indices reach 21 digits, past any 64-bit or 20-digit cap.
huge_record_chunks = record_chunks().map(lambda chunk: (chunk[0] + 10**20 - 150, chunk[1]))


@PROPERTY
@given(chunks=st.lists(st.one_of(record_chunks(), huge_record_chunks), min_size=2, max_size=4))
def test_record_rows_reuse_one_buffer_without_leftover_bytes(chunks):
    # Starts run from the widest index down, then back up, so a chunk often
    # follows one with longer rows in the same buffer.
    chunks = sorted(chunks, key=lambda chunk: chunk[0], reverse=True)
    chunks += chunks[::-1]
    widest = max(len(str(start + len(columns[0]) - 1)) for start, columns in chunks)
    buf = np.full(max(len(columns[0]) for _, columns in chunks) * (widest + 11), ord("#"), dtype=np.uint8)
    for start, columns in chunks:
        rounds = SimulationChunk(start, *(np.array(c, dtype=np.int8) for c in columns))
        rows = str(_record_rows(rounds, start, buf), "ascii")
        assert ("round_index,x,y,q,r,win\n" if start == 0 else "") + rows == _records_oracle(start, *columns)


@pytest.mark.parametrize(
    "start, count",
    [(9_990, CHUNK_ROUNDS), (99_000, CHUNK_ROUNDS), (999_995, CHUNK_ROUNDS),
     (10**7 - 65_530, CHUNK_ROUNDS), (123_456_789, CHUNK_ROUNDS), (10**6, 1),
     (10**19 - 30_000, CHUNK_ROUNDS)],
)
def test_format_records_matches_per_row_oracle_on_long_chunks(start, count):
    # Whole chunks cross many runs of every index digit and, for the first
    # four starts and the last, a change of index width.
    columns = np.random.default_rng(start).integers(0, 2, size=(4, count), dtype=np.int8)
    rounds = SimulationChunk(start, *columns)
    assert format_records(rounds, start) == _records_oracle(start, *columns.tolist())


def _sampler_oracle(cum, u):
    """The chunk sampler on draws ``u``, with one ``(count, 4)`` gather of CDF rows."""
    setting = np.minimum((u[0] * 4.0).astype(np.int8), 3)
    outcome = (cum[setting] < u[1][:, None]).sum(axis=1).astype(np.int8)
    return setting >> 1, setting & 1, outcome >> 1, outcome & 1


def _assert_columns_equal(got, want):
    for column, expected in zip(got, want):
        assert column.dtype == np.int8
        np.testing.assert_array_equal(column, expected)


#: Deterministic boxes and NS boxes at e = -1 or 1 have CDF rows with tied
#: 0.0 and 1.0 entries.
sampled_strategies = st.one_of(
    quantum_setups(),
    mixtures(),
    deterministic,
    st.builds(NSBox, st.sampled_from([-1.0, 1.0])),
)


@PROPERTY
@given(
    strategy=sampled_strategies,
    seed=st.integers(0, 2**64 - 1),
    chunk_indices=st.lists(st.integers(0, 2**20), min_size=1, max_size=3),
    count=st.sampled_from([1, 7, 4096, CHUNK_ROUNDS]),
)
def test_chunk_sampler_matches_row_gather_oracle(strategy, seed, chunk_indices, count):
    cum = _outcome_cumulatives(box_of_strategy(strategy))
    for chunk_index in chunk_indices:
        u = substream(seed, chunk_index).random((2, count))
        _assert_columns_equal(_simulate_chunk(cum, seed, chunk_index, count), _sampler_oracle(cum, u))


@pytest.mark.parametrize("strategy", [NSBox(1.0), NSBox(-1.0), NSBox(0.0), Deterministic((0, 1), (1, 1))])
def test_chunk_sampler_counts_strict_hits_on_draws_that_tie_a_cdf_entry(monkeypatch, strategy):
    # Seeded draws almost never equal a CDF entry exactly, so these are fed
    # in: every input pair against each of 0, 1/4, 1/2 and 3/4 and their
    # neighbours.  A ``<=`` compare would count a tied entry as passed.
    ties = [0.0, 0.25, 0.5, 0.75]
    second = ties + [np.nextafter(t, 1.0) for t in ties] + [np.nextafter(t, 0.0) for t in ties[1:]]
    u = np.array([(first, v) for first in ties for v in second]).T
    monkeypatch.setattr(game, "substream", lambda seed, k: SimpleNamespace(random=lambda shape: u))
    cum = _outcome_cumulatives(box_of_strategy(strategy))
    _assert_columns_equal(_simulate_chunk(cum, 0, 0, u.shape[1]), _sampler_oracle(cum, u))


def _witness_oracle(box, tol):
    """The per-entry loop: outcome, then own setting, Alice before Bob; the first maximum wins."""
    marg_a, marg_b = box.sum(axis=1), box.sum(axis=0)
    worst = None
    for out, own in itertools.product((0, 1), repeat=2):
        for side, delta in (
            ("alice", abs(marg_a[out, own, 0] - marg_a[out, own, 1])),
            ("bob", abs(marg_b[out, 0, own] - marg_b[out, 1, own])),
        ):
            if delta > tol and (worst is None or delta > worst.delta):
                worst = SignalingWitness(side, out, own, 0, 1, float(delta))
    return worst


@st.composite
def tied_boxes(draw):
    """Small-integer counts normalized per input pair: spreads often tie exactly."""
    counts = np.array(draw(st.lists(st.integers(0, 3), min_size=16, max_size=16)), dtype=float)
    counts = counts.reshape(2, 2, 2, 2)
    counts[0, 0][counts.sum(axis=(0, 1)) == 0] = 1.0
    return counts / counts.sum(axis=(0, 1))


@settings(max_examples=300, deadline=None)
@given(
    box=st.one_of(tied_boxes(), explicit_boxes().map(lambda s: s.table)),
    tol=st.sampled_from([1e-9, 1e-3, 0.1, 1 / 6, 0.25, 0.5]),
)
def test_no_signaling_is_causal_independence_of_the_box(box, tol):
    assert is_no_signaling(box, tol) == causally_independent(box, tol)
    assert signaling_witness(box, tol) == _witness_oracle(box, tol)
