"""Toolkit for the CHSH coordination game built on stochastic-process
machinery: correlation boxes and score algebra, column-stochastic dynamics
with divisibility and dilation tools, bipartite causal-influence tests, the
operator route to the quantum score ceiling, and a reproducible Monte Carlo
round simulator.
"""

import importlib

#: Each public name, by the module that defines it.  Names resolve on first
#: use (PEP 562), so ``import chshkit`` alone imports no numpy and the
#: command line can size numpy's BLAS pool before numpy starts it.
_EXPORTS = {
    "causality": (
        "causally_independent",
        "influences",
        "joint_from_unitary",
        "non_interacting",
    ),
    "game": (
        "Deterministic",
        "ExplicitBox",
        "NSBox",
        "SharedRandomness",
        "SimulationChunk",
        "Strategy",
        "box_of_strategy",
        "enumerate_deterministic",
        "expected_score",
        "is_no_signaling",
        "ns_box",
        "simulate_chunks",
        "win_probability",
    ),
    "linalg": (
        "dephase",
        "rotation",
    ),
    "stochastic": (
        "DilationReport",
        "DivisionReport",
        "dilation_report",
        "divide_report",
        "qcor",
        "unistochastic_of",
    ),
    "tsirelson": (
        "CHSH_OPERATOR_CEILING",
        "TSIRELSON_SCORE",
        "OptimizeResult",
        "QuantumSetup",
        "canonical_setup",
        "chsh_operator",
        "optimize",
        "score_of_setup",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
