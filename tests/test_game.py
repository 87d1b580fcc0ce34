import math
import threading
from itertools import product

import numpy as np
import pytest

from chshkit import game
from chshkit.cli import _ROW_TAILS
from chshkit.configio import strategy_config
from chshkit.game import (
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
    simulate_rounds,
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


def test_simulation_is_deterministic():
    a = simulate_rounds(NSBox(0.5), 5000, seed=42)
    b = simulate_rounds(NSBox(0.5), 5000, seed=42)
    for field in ("x", "y", "q", "r", "win"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_simulation_chunks_keyed_by_seed_and_index():
    n = 3 * CHUNK_ROUNDS + 123  # spans several chunks plus a partial tail
    a = simulate_rounds(NSBox(0.5), n, seed=7)
    b = simulate_rounds(NSBox(0.5), 2 * CHUNK_ROUNDS, seed=7)
    for field in ("x", "y", "q", "r", "win"):
        assert np.array_equal(getattr(a, field)[: 2 * CHUNK_ROUNDS], getattr(b, field))


def test_simulation_of_perfect_box_always_wins():
    result = simulate_rounds(NSBox(1.0), 10_000, seed=0)
    assert result.empirical_win_rate == 1.0


def test_simulation_records_and_summary_consistent():
    result = simulate_rounds(Deterministic((0, 0), (0, 0)), 64, seed=1)
    assert len(result.win) == 64
    assert np.array_equal(result.win, (result.q ^ result.r) == result.x * result.y)
    assert result.empirical_score == pytest.approx(2 * result.empirical_win_rate - 1)


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
        result = simulate_rounds(strategy, n, seed=1000 + k)
        assert abs(result.empirical_score - exact) < band


def test_simulation_validates_arguments():
    with pytest.raises(ValueError):
        simulate_rounds(NSBox(0.0), 0, seed=1)
    with pytest.raises(ValueError):
        simulate_rounds(NSBox(0.0), 10, seed=-1)


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
        simulate_rounds(NSBox(0.5), 10, seed=7.5)
    result = simulate_rounds(NSBox(0.5), 10, seed=7.0)
    assert type(result.seed) is int and result.seed == 7
    assert np.array_equal(result.win, simulate_rounds(NSBox(0.5), 10, seed=7).win)


def test_simulate_reads_n_as_an_integer():
    result = simulate_rounds(NSBox(0.5), 10.0, seed=1)
    assert type(result.n) is int and result.n == len(result.x) == 10
    assert np.array_equal(result.win, simulate_rounds(NSBox(0.5), 10, seed=1).win)
    with pytest.raises(ValueError, match=r"^n must be an integer, got 10\.5$"):
        simulate_rounds(NSBox(0.5), 10.5, seed=1)
    with pytest.raises(ValueError, match="^n must be an integer"):
        simulate_chunks(NSBox(0.5), "10", seed=1)


def test_a_closed_chunk_iterator_leaves_no_thread_behind():
    before = threading.active_count()
    one = simulate_chunks(NSBox(0.5), CHUNK_ROUNDS, seed=3)
    first = next(one)
    assert threading.active_count() == before  # one chunk starts no thread
    one.close()
    chunks = simulate_chunks(NSBox(0.5), 5 * CHUNK_ROUNDS, seed=3)
    assert threading.active_count() == before  # nothing runs before the first chunk is asked for
    assert np.array_equal(next(chunks).x, first.x)
    # With more than one usable CPU, the worker now draws the second chunk.
    assert threading.active_count() == before + (game._usable_cpus() > 1)
    chunks.close()
    assert threading.active_count() == before


def test_an_error_drawing_a_chunk_reaches_the_caller_after_the_chunks_before_it(monkeypatch):
    class DrawError(Exception):
        pass

    draw = game._simulate_chunk

    def failing(cum, seed, chunk_index, count):
        if chunk_index == 2:
            raise DrawError("chunk 2 failed")
        return draw(cum, seed, chunk_index, count)

    monkeypatch.setattr(game, "_simulate_chunk", failing)
    before = threading.active_count()
    chunks = simulate_chunks(NSBox(0.5), 5 * CHUNK_ROUNDS, seed=4)
    assert [next(chunks).start, next(chunks).start] == [0, CHUNK_ROUNDS]
    with pytest.raises(DrawError) as raised:
        next(chunks)
    assert type(raised.value) is DrawError and str(raised.value) == "chunk 2 failed"
    assert threading.active_count() == before
