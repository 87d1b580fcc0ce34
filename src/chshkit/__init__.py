"""Toolkit for the CHSH coordination game built on stochastic-process
machinery: correlation boxes and score algebra, column-stochastic dynamics
with divisibility and dilation tools, bipartite causal-influence tests, the
operator route to the quantum score ceiling, and a reproducible Monte Carlo
round simulator.
"""

from .causality import (
    causally_independent,
    influences,
    joint_from_unitary,
    marginal_q,
    marginal_r,
    non_interacting,
)
from .game import (
    Deterministic,
    ExplicitBox,
    NSBox,
    RoundRecord,
    SharedRandomness,
    SimulationChunk,
    SimulationResult,
    Strategy,
    box_of_strategy,
    enumerate_deterministic,
    expected_score,
    is_no_signaling,
    ns_box,
    simulate_chunks,
    simulate_rounds,
    win_probability,
)
from .linalg import (
    amplitude_representation,
    dephase,
    dictionary_prob,
    is_unitary,
    projector,
    rotation,
    tensor,
)
from .stochastic import (
    divide,
    evolve,
    find_unitary_dilation,
    qcor,
    unistochastic_of,
)
from .tsirelson import (
    CHSH_OPERATOR_CEILING,
    TSIRELSON_SCORE,
    OptimizeResult,
    PreparationUnitary,
    QuantumSetup,
    canonical_setup,
    chsh_operator,
    dichotomic,
    optimize,
    outcome_observable,
    prepare_state,
    score_of_setup,
)

__version__ = "0.1.0"

__all__ = [
    "CHSH_OPERATOR_CEILING",
    "Deterministic",
    "ExplicitBox",
    "NSBox",
    "OptimizeResult",
    "PreparationUnitary",
    "QuantumSetup",
    "RoundRecord",
    "SharedRandomness",
    "SimulationChunk",
    "SimulationResult",
    "Strategy",
    "TSIRELSON_SCORE",
    "amplitude_representation",
    "box_of_strategy",
    "canonical_setup",
    "causally_independent",
    "chsh_operator",
    "dephase",
    "dichotomic",
    "dictionary_prob",
    "divide",
    "enumerate_deterministic",
    "evolve",
    "expected_score",
    "find_unitary_dilation",
    "influences",
    "is_no_signaling",
    "is_unitary",
    "joint_from_unitary",
    "marginal_q",
    "marginal_r",
    "non_interacting",
    "ns_box",
    "optimize",
    "outcome_observable",
    "prepare_state",
    "projector",
    "qcor",
    "rotation",
    "score_of_setup",
    "simulate_chunks",
    "simulate_rounds",
    "tensor",
    "unistochastic_of",
    "win_probability",
]
