import math
import threading
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshkit import game
from chshkit.configio import strategy_config
from chshkit.game import (
    _ROW_TAILS,
    _SIGN,
    CHUNK_ROUNDS,
    Deterministic,
    ExplicitBox,
    NSBox,
    SharedRandomness,
    UNIFORM_INPUTS,
    box_of_strategy,
    enumerate_deterministic,
    expected_score,
    is_no_signaling,
    ns_box,
    score_from_correlators,
    score_from_loss_terms,
    signaling_witness,
    simulate_chunks,
    win_probability,
    wins,
)
from chshkit.tsirelson import canonical_setup

COS2_PI8 = math.cos(math.pi / 8) ** 2


def random_box(rng):
    box = np.zeros((2, 2, 2, 2))
    for x, y in product((0, 1), repeat=2):
        box[:, :, x, y] = rng.dirichlet(np.ones(4)).reshape(2, 2)
    return box


def brute_score(box, inputs):
    """Independent oracle: the win/loss delta sum, written out longhand."""
    total = 0.0
    for q, r, x, y in product((0, 1), repeat=4):
        weight = box[q, r, x, y] * inputs[x, y]
        total += weight if (q ^ r) == x * y else -weight
    return total


def test_ns_box_zero_is_two_fair_coins():
    assert np.array_equal(ns_box(0.0), np.full((2, 2, 2, 2), 0.25))


def test_ns_box_half_matches_direct_substitution():
    box = ns_box(0.5)
    assert box[0, 0, 0, 0] == pytest.approx(0.375)
    assert box[0, 1, 0, 0] == pytest.approx(0.125)


def test_ns_box_one_is_the_perfect_winner():
    box = ns_box(1.0)
    for q, r, x, y in product((0, 1), repeat=4):
        expected = 0.5 if (q ^ r) == (x & y) else 0.0
        assert box[q, r, x, y] == expected


def test_ns_box_rejects_out_of_range_parameter():
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        ns_box(1.5)


@pytest.mark.parametrize("e", [0.0, 0.5, 1 / math.sqrt(2), 1.0])
def test_ns_box_score_equals_parameter(e):
    assert expected_score(ns_box(e)) == pytest.approx(e, abs=1e-15)


def test_expected_score_constant_responses():
    box = box_of_strategy(Deterministic((0, 0), (0, 0)))
    assert expected_score(box) == 0.5
    assert brute_score(box, UNIFORM_INPUTS) == 0.5


def test_expected_score_concentrated_inputs():
    rng = np.random.default_rng(3)
    box = random_box(rng)
    inputs = np.zeros((2, 2))
    inputs[0, 0] = 1.0
    p_win = sum(box[q, r, 0, 0] for q, r in product((0, 1), repeat=2) if q == r)
    p_lose = 1.0 - p_win
    assert expected_score(box, inputs) == pytest.approx(p_win - p_lose, abs=1e-12)


def test_score_formulas_agree_on_random_boxes():
    rng = np.random.default_rng(5)
    for _ in range(300):
        box = random_box(rng)
        s1 = expected_score(box)
        s4 = score_from_loss_terms(box)
        s5 = score_from_correlators(box)
        assert abs(s1 - s4) <= 1e-12
        assert abs(s1 - s5) <= 1e-12
        assert abs(s1 - brute_score(box, UNIFORM_INPUTS)) <= 1e-12


def test_win_probability_values():
    assert win_probability(1 / math.sqrt(2)) == pytest.approx(
        (1 + math.sqrt(2)) / (2 * math.sqrt(2)), abs=1e-15
    )
    assert win_probability(1 / math.sqrt(2)) == pytest.approx(COS2_PI8, abs=1e-15)
    assert win_probability(0.5) == 0.75
    assert win_probability(0.0) == 0.5
    with pytest.raises(ValueError):
        win_probability(1.5)


def test_win_probability_matches_direct_win_sum():
    rng = np.random.default_rng(7)
    for _ in range(100):
        box = random_box(rng)
        direct = sum(
            box[q, r, x, y] * 0.25
            for q, r, x, y in product((0, 1), repeat=4)
            if (q ^ r) == x * y
        )
        assert win_probability(expected_score(box)) == pytest.approx(direct, abs=1e-12)


def test_ns_box_family_is_no_signaling():
    assert is_no_signaling(ns_box(0.3))
    assert is_no_signaling(ns_box(0.9))
    assert is_no_signaling(ns_box(1.0))


def test_alice_echoing_bobs_input_signals():
    # Alice outputs Bob's input; Bob outputs a fair coin.
    box = np.zeros((2, 2, 2, 2))
    for x, y, r in product((0, 1), repeat=3):
        box[y, r, x, y] = 0.5
    assert not is_no_signaling(box)
    witness = signaling_witness(box)
    assert witness is not None
    assert witness.side == "alice"
    assert witness.delta == pytest.approx(1.0)


def test_all_deterministic_boxes_are_no_signaling():
    for bits in product((0, 1), repeat=4):
        strat = Deterministic(bits[:2], bits[2:])
        assert is_no_signaling(box_of_strategy(strat))


def test_box_of_deterministic_constant_strategy():
    box = box_of_strategy(Deterministic((0, 0), (0, 0)))
    for x, y in product((0, 1), repeat=2):
        assert box[0, 0, x, y] == 1.0


def test_box_of_ns_box_delegates():
    assert np.array_equal(box_of_strategy(NSBox(0.25)), ns_box(0.25))


def test_box_of_mixture_is_weighted_average():
    d1 = Deterministic((0, 0), (0, 0))
    d2 = Deterministic((1, 1), (1, 1))
    mix = SharedRandomness(((0.25, d1), (0.75, d2)))
    expected = 0.25 * box_of_strategy(d1) + 0.75 * box_of_strategy(d2)
    assert np.allclose(box_of_strategy(mix), expected)


def test_mixture_weights_validated():
    d = Deterministic((0, 0), (0, 0))
    with pytest.raises(ValueError):
        SharedRandomness(((0.5, d),))
    with pytest.raises(ValueError):
        SharedRandomness(((-0.5, d), (1.5, d)))
    with pytest.raises(ValueError, match="^mixture components must be Deterministic strategies$"):
        SharedRandomness(((1.0, NSBox(0.5)),))


@pytest.mark.parametrize("convert", [box_of_strategy, strategy_config])
def test_a_non_strategy_is_a_type_error(convert):
    with pytest.raises(TypeError, match=r"^not a strategy: 'nope'$"):
        convert("nope")


def test_canonical_quantum_strategy_wins_at_the_ceiling_every_setting():
    box = box_of_strategy(canonical_setup())
    for x, y in product((0, 1), repeat=2):
        p_win = sum(
            box[q, r, x, y] for q, r in product((0, 1), repeat=2) if (q ^ r) == x * y
        )
        assert p_win == pytest.approx(COS2_PI8, abs=1e-6)
    assert is_no_signaling(box)


def test_random_mixtures_never_beat_best_deterministic():
    rng = np.random.default_rng(11)
    _, dets = enumerate_deterministic()
    all_strats = [
        Deterministic(bits[:2], bits[2:]) for bits in product((0, 1), repeat=4)
    ]
    for _ in range(50):
        weights = rng.dirichlet(np.ones(16))
        mix = SharedRandomness(tuple(zip(weights, all_strats)))
        assert expected_score(box_of_strategy(mix)) <= 0.5 + 1e-12
        assert is_no_signaling(box_of_strategy(mix))
    assert dets  # the enumeration itself is exercised below


def test_enumerate_deterministic_best_and_argmax():
    best, argmax = enumerate_deterministic()
    assert best == 0.5
    assert Deterministic((0, 0), (0, 0)) in argmax
    assert len(argmax) == 8
    # Independent re-scoring of each maximizer.
    for det in argmax:
        assert brute_score(box_of_strategy(det), UNIFORM_INPUTS) == 0.5


def test_echo_strategy_scores_poorly():
    # q(x) = x, r(y) = y wins only the (0,0) round: 1 win, 3 losses.
    det = Deterministic((0, 1), (0, 1))
    wins = sum(1 for x, y in product((0, 1), repeat=2) if (x ^ y) == x * y)
    assert wins == 1
    assert expected_score(box_of_strategy(det)) == -0.5
    assert det not in enumerate_deterministic()[1]


def test_explicit_box_strategy_roundtrips_table():
    rng = np.random.default_rng(13)
    table = random_box(rng)
    assert np.allclose(box_of_strategy(ExplicitBox(table)), table)


def _played(n, seed):
    """Each chunk of a seeded ``NSBox(0.5)`` run as its start and the bytes of its four columns."""
    return [(chunk.start, *(column.tobytes() for column in chunk[1:]))
            for chunk in simulate_chunks(NSBox(0.5), n, seed)]


def _won(strategy, n, seed):
    """Rounds won in a seeded run, counted chunk by chunk."""
    return sum(int(np.count_nonzero(wins(c.x, c.y, c.q, c.r))) for c in simulate_chunks(strategy, n, seed))


@settings(max_examples=25, deadline=None)
@given(n=st.lists(st.integers(1, 3 * CHUNK_ROUNDS + 1), min_size=2, max_size=2).map(sorted),
       seed=st.integers(0, 2**64 - 1))
def test_simulation_is_deterministic_and_extends_whole_chunks(n, seed):
    short, long = n
    played = _played(short, seed)
    assert played == _played(short, seed)
    assert sum(len(x) for _, x, *_ in played) == short
    # Chunk c draws from substream c of the seed, so a longer run keeps the
    # shorter one's whole chunks.  A partial last chunk is no prefix: its
    # draw of two rows of ``count`` uniforms lays them out differently.
    whole = short // CHUNK_ROUNDS
    assert played[:whole] == _played(long, seed)[:whole]


def test_simulation_of_perfect_box_always_wins():
    assert _won(NSBox(1.0), 10_000, seed=0) == 10_000


def test_simulation_of_a_deterministic_strategy_plays_its_functions():
    strategy = Deterministic((0, 1), (1, 1))
    (chunk,) = simulate_chunks(strategy, 64, seed=1)
    assert chunk.start == 0 and len(chunk.x) == 64
    assert np.array_equal(chunk.q, chunk.x) and np.array_equal(chunk.r, np.ones(64, dtype=np.int8))
    assert _won(strategy, 64, seed=1) == np.count_nonzero((chunk.x ^ 1) == (chunk.x & chunk.y))


def test_simulation_empirical_score_converges():
    n = 1_000_000
    band = 5.0 / math.sqrt(n)
    strategies = [
        Deterministic((0, 0), (0, 0)),
        SharedRandomness(((0.5, Deterministic((0, 0), (0, 0))), (0.5, Deterministic((1, 1), (1, 1))))),
        NSBox(0.5),
        NSBox(1 / math.sqrt(2)),
        canonical_setup(),
    ]
    for k, strategy in enumerate(strategies):
        exact = expected_score(box_of_strategy(strategy))
        empirical = 2.0 * _won(strategy, n, seed=1000 + k) / n - 1.0
        assert abs(empirical - exact) < band


def test_simulation_validates_arguments():
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        simulate_chunks(NSBox(0.0), 0, seed=1)
    with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*64\), got -1$"):
        simulate_chunks(NSBox(0.0), 10, seed=-1)


#: The game rule written out: (x, y, q, r) -> whether the round is won.
WIN_TABLE = {
    (0, 0, 0, 0): True, (0, 0, 0, 1): False, (0, 0, 1, 0): False, (0, 0, 1, 1): True,
    (0, 1, 0, 0): True, (0, 1, 0, 1): False, (0, 1, 1, 0): False, (0, 1, 1, 1): True,
    (1, 0, 0, 0): True, (1, 0, 0, 1): False, (1, 0, 1, 0): False, (1, 0, 1, 1): True,
    (1, 1, 0, 0): False, (1, 1, 0, 1): True, (1, 1, 1, 0): True, (1, 1, 1, 1): False,
}


def test_wins_is_the_written_out_rule_on_bits_and_arrays():
    for (x, y, q, r), won in WIN_TABLE.items():
        assert wins(x, y, q, r) is won
    columns = (np.array(column, dtype=np.int8) for column in zip(*WIN_TABLE))
    assert wins(*columns).tolist() == list(WIN_TABLE.values())


def test_sign_table_record_rows_and_round_records_follow_the_rule():
    for (x, y, q, r), won in WIN_TABLE.items():
        assert _SIGN[q, r, x, y] == (1.0 if won else -1.0)
        assert bytes(_ROW_TAILS[8 * x + 4 * y + 2 * q + r]).decode() == f",{x},{y},{q},{r},{int(won)}\n"


def test_simulate_rejects_a_non_integral_seed_and_keeps_an_integral_float():
    with pytest.raises(ValueError, match="seed must be an integer"):
        simulate_chunks(NSBox(0.5), 10, seed=7.5)
    assert _played(10, 7.0) == _played(10, 7)


def test_simulate_reads_n_as_an_integer():
    played = _played(10.0, 1)
    assert played == _played(10, 1) and len(played[0][1]) == 10
    with pytest.raises(ValueError, match=r"^n must be an integer, got 10\.5$"):
        simulate_chunks(NSBox(0.5), 10.5, seed=1)
    with pytest.raises(ValueError, match="^n must be an integer"):
        simulate_chunks(NSBox(0.5), "10", seed=1)


@pytest.mark.parametrize("n, seed, message", [(0, 1, "^n must be at least 1$"),
                                               (10.5, 1, r"^n must be an integer, got 10\.5$"),
                                               (10, -1, r"^seed must be in \[0, 2\*\*64\), got -1$")])
def test_simulation_report_checks_n_and_seed_before_it_opens_its_path(tmp_path, n, seed, message):
    out = tmp_path / "never.csv"
    with pytest.raises(ValueError, match=message):
        game.simulation_report(NSBox(0.5), n, seed, out)
    assert not out.exists()


def test_simulation_report_reads_n_as_an_integer(tmp_path):
    as_float = game.simulation_report(NSBox(0.5), 10.0, 1, tmp_path / "float.csv")
    assert as_float == game.simulation_report(NSBox(0.5), 10, 1, tmp_path / "int.csv")
    assert (tmp_path / "float.csv").read_bytes() == (tmp_path / "int.csv").read_bytes()


class DrawError(Exception):
    pass


def _drawing_threads(monkeypatch, fail_at=None):
    """Patch the chunk draw to record the thread of each draw, in order, in
    the list returned; draw number ``fail_at`` (from 0) raises ``DrawError``."""
    draw, threads = game._simulate_chunk, []

    def recorded(cum, rng, count):
        threads.append(threading.get_ident())
        if len(threads) - 1 == fail_at:
            raise DrawError(f"chunk {fail_at} failed")
        return draw(cum, rng, count)

    monkeypatch.setattr(game, "_simulate_chunk", recorded)
    return threads


def test_a_chunk_generator_starts_no_thread_on_more_than_one_cpu(monkeypatch):
    monkeypatch.setattr(game, "_usable_cpus", lambda: 2)
    threads = _drawing_threads(monkeypatch)
    before = threading.active_count()
    (first,) = simulate_chunks(NSBox(0.5), CHUNK_ROUNDS, seed=3)
    chunks = simulate_chunks(NSBox(0.5), 5 * CHUNK_ROUNDS, seed=3)
    assert threads == [threading.get_ident()]  # nothing is drawn before the first chunk is asked for
    starts = []
    for chunk in chunks:
        assert threading.active_count() == before
        starts.append(chunk.start)
        if chunk.start == 0:
            assert np.array_equal(chunk.x, first.x)
    assert starts == [k * CHUNK_ROUNDS for k in range(5)]
    assert threads == [threading.get_ident()] * 6  # every chunk is drawn in the caller's thread
    # A caller that stops early leaves nothing running, without close().
    assert next(simulate_chunks(NSBox(0.5), 5 * CHUNK_ROUNDS, seed=3)).start == 0
    assert threading.active_count() == before


def test_an_error_drawing_a_chunk_reaches_the_caller_after_the_chunks_before_it(monkeypatch, tmp_path):
    two = tmp_path / "two.csv"
    game.simulation_report(NSBox(0.5), 2 * CHUNK_ROUNDS, 4, two)
    monkeypatch.setattr(game, "_usable_cpus", lambda: 2)
    threads = _drawing_threads(monkeypatch, fail_at=2)
    out = tmp_path / "r.csv"
    before = threading.active_count()
    with pytest.raises(DrawError) as raised:
        game.simulation_report(NSBox(0.5), 5 * CHUNK_ROUNDS, 4, out)
    assert type(raised.value) is DrawError and str(raised.value) == "chunk 2 failed"
    assert threading.active_count() == before
    assert len(threads) == 3 and threading.get_ident() not in threads  # drawn on the worker
    # The rows of chunks 0 and 1 were written before the error reached the caller.
    assert out.read_bytes() == two.read_bytes()


def test_a_run_too_long_to_count_in_a_machine_word_yields_its_first_chunk():
    before = threading.active_count()
    chunks = simulate_chunks(NSBox(0.5), 10**27, seed=1)
    first = next(chunks)
    assert first.start == 0 and len(first.x) == CHUNK_ROUNDS
    chunks.close()
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_run_builds_one_philox_for_all_its_chunks(monkeypatch, tmp_path, cpus):
    philox, built = np.random.Philox, []

    def counted(*args, **kwargs):
        built.append(args or kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(game, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(np.random, "Philox", counted)
    threads = _drawing_threads(monkeypatch)
    before = threading.active_count()
    report = game.simulation_report(NSBox(0.5), 5 * CHUNK_ROUNDS, 5, tmp_path / "r.csv")
    assert report["n_rounds"] == 5 * CHUNK_ROUNDS and len(threads) == 5
    assert len(built) == 1
    # With two CPUs a worker draws every chunk; with one, the caller does.
    assert (set(threads) == {threading.get_ident()}) == (cpus == 1)
    assert threading.active_count() == before
    assert sum(1 for _ in simulate_chunks(NSBox(0.5), 5 * CHUNK_ROUNDS, seed=5)) == 5 and len(built) == 2
