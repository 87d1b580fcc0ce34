"""Loading and saving strategy configurations and process-tool inputs.

Configs are JSON objects with an explicit ``kind`` tag.  Complex entries are
written as two-element ``[real, imag]`` arrays so no special literal syntax
is assumed; plain numbers are accepted on input as purely real entries.

Structural problems (bad JSON, missing or mistyped fields) raise
:class:`ConfigError`; values that parse but violate a strategy invariant
surface as the underlying ``ValueError``.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .game import Deterministic, ExplicitBox, NSBox, SharedRandomness, Strategy
from .tsirelson import QuantumSetup


class ConfigError(Exception):
    """Malformed configuration: parse or structure problems."""


def _require(raw: dict, field: str, where: str) -> Any:
    if field not in raw:
        raise ConfigError(f"{where}: missing field '{field}'")
    return raw[field]


def _int_list(value: Any, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise ConfigError(f"{where}: expected a list of integers, got {value!r}")
    return tuple(value)


def _bit_pair(value: Any, where: str) -> tuple[int, int]:
    bits = _int_list(value, where)
    if len(bits) != 2:
        raise ConfigError(f"{where}: expected a list of two bits, got {value!r}")
    return bits


def _number(value: Any, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{where}: number out of range ({exc})") from exc


def _complex_entry(value: Any, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_number(value, where))
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], where), _number(value[1], where))
    raise ConfigError(f"{where}: expected a number or [real, imag] pair, got {value!r}")


def _array(value: Any, where: str, entry, depth: int) -> np.ndarray:
    """Rectangular array of ``depth`` nested non-empty lists whose leaves pass
    ``entry(v, where)``: ``_number`` or ``_complex_entry``."""

    def nested(v: Any, at: str, level: int):
        if level == 0:
            return entry(v, at)
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{at}: expected a non-empty list")
        return [nested(x, f"{at}[{i}]", level - 1) for i, x in enumerate(v)]

    rows = nested(value, where, depth)
    try:
        return np.array(rows)
    except ValueError as exc:  # inhomogeneous shape
        raise ConfigError(f"{where}: ragged rows") from exc


def _load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except (ValueError, RecursionError) as exc:  # not UTF-8, or beyond the parser's limits
            raise ConfigError(f"{path}: unreadable JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def _deterministic_from(raw: dict, where: str) -> Deterministic:
    return Deterministic(
        q_of_x=_bit_pair(_require(raw, "q_of_x", where), f"{where}.q_of_x"),
        r_of_y=_bit_pair(_require(raw, "r_of_y", where), f"{where}.r_of_y"),
    )


def load_strategy(path) -> Strategy:
    """Load a strategy config; see the package README for the schema."""
    raw = _load_json(path)
    where = str(path)
    kind = _require(raw, "kind", where)
    if kind == "deterministic":
        return _deterministic_from(raw, where)
    if kind == "mixture":
        components = _require(raw, "components", where)
        if not isinstance(components, list) or not components:
            raise ConfigError(f"{where}.components: expected a non-empty list")
        mixture = []
        for i, comp in enumerate(components):
            if not isinstance(comp, dict):
                raise ConfigError(f"{where}.components[{i}]: expected an object")
            weight = _number(_require(comp, "weight", f"{where}.components[{i}]"),
                             f"{where}.components[{i}].weight")
            mixture.append((weight, _deterministic_from(comp, f"{where}.components[{i}]")))
        return SharedRandomness(tuple(mixture))
    if kind == "ns_box":
        return NSBox(_number(_require(raw, "e", where), f"{where}.e"))
    if kind == "box":
        return ExplicitBox(_array(_require(raw, "table", where), f"{where}.table", _number, 4))
    if kind == "quantum":
        dims = _int_list(_require(raw, "dims", where), f"{where}.dims")
        if len(dims) != 2:
            raise ConfigError(f"{where}.dims: expected [dim_a, dim_b]")
        state = _array(_require(raw, "state", where), f"{where}.state", _complex_entry, 1)
        mats = {
            name: _array(_require(raw, name, where), f"{where}.{name}", _complex_entry, 2)
            for name in ("a0", "a1", "b0", "b1")
        }
        kwargs = {
            field: _int_list(raw[field], f"{where}.{field}")
            for field in ("alice_outcome", "bob_outcome")
            if field in raw
        }
        setup = QuantumSetup(state=state, **mats, **kwargs)
        if (setup.dim_a, setup.dim_b) != dims:
            raise ConfigError(
                f"{where}.dims: declared {dims!r} but matrices have dims "
                f"({setup.dim_a}, {setup.dim_b})"
            )
        return setup
    raise ConfigError(
        f"{where}: unknown kind {kind!r}; expected deterministic, mixture, ns_box, box or quantum"
    )


def payload(a: np.ndarray) -> list:
    """JSON-ready nested lists of ``a``; complex entries become ``[real, imag]`` pairs."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        a = np.stack([a.real, a.imag], axis=-1)
    return a.tolist()


def strategy_config(strategy: Strategy) -> dict:
    """Serialize a strategy to the JSON-ready config dict ``load_strategy`` accepts."""
    if isinstance(strategy, Deterministic):
        return {"kind": "deterministic", "q_of_x": list(strategy.q_of_x), "r_of_y": list(strategy.r_of_y)}
    if isinstance(strategy, SharedRandomness):
        return {
            "kind": "mixture",
            "components": [
                {"weight": w, "q_of_x": list(d.q_of_x), "r_of_y": list(d.r_of_y)}
                for w, d in strategy.mixture
            ],
        }
    if isinstance(strategy, NSBox):
        return {"kind": "ns_box", "e": strategy.e}
    if isinstance(strategy, ExplicitBox):
        return {"kind": "box", "table": payload(strategy.table)}
    if isinstance(strategy, QuantumSetup):
        return {
            "kind": "quantum",
            "dims": [strategy.dim_a, strategy.dim_b],
            "state": payload(strategy.state),
            "a0": payload(strategy.a0),
            "a1": payload(strategy.a1),
            "b0": payload(strategy.b0),
            "b1": payload(strategy.b1),
            "alice_outcome": list(strategy.alice_outcome),
            "bob_outcome": list(strategy.bob_outcome),
        }
    raise TypeError(f"not a strategy: {strategy!r}")


def save_strategy(strategy: Strategy, path) -> None:
    text = json.dumps(strategy_config(strategy), indent=2) + "\n"  # one write, not one per token
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_process_input(path, fields: dict[str, str]) -> dict[str, np.ndarray]:
    """Load named matrices for the process tools.

    ``fields`` maps field name to ``"real"`` or ``"complex"``.
    """
    raw = _load_json(path)
    where = str(path)
    out = {}
    for name, kind in fields.items():
        entry = _number if kind == "real" else _complex_entry
        out[name] = _array(_require(raw, name, where), f"{where}.{name}", entry, 2)
    return out
