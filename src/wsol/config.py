"""JSON config documents: one file, fixed sections, unknown keys rejected.

An eval config has the sections ``distribution``, ``weights`` and
``score``, each named once, in ``_SECTIONS`` beside its parser.  A loss
file holds a single {score, weights, distribution} object or
{"components": [{..., "beta": b}, ...]} with coefficients summing to 1,
bare or as the one key of {"loss": ...}.  A synthetic
dataset file holds ``SyntheticSeriesConfig`` fields.  Numbers must be
JSON numbers: a string or a boolean is rejected, not converted.  Every
value the constructors reject is a ConfigError naming where it sits.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError, ValidationError
from .loss import CombinedLossSpec, LossSpec
from .scores import ScoreKind
from .threshold import ThresholdDistribution
from .trainer import SyntheticSeriesConfig
from .weights import (
    CostWeight,
    CrossEntropyWeight,
    UnitWeight,
    ValueMaxWeight,
    ValueProdWeight,
    WeightSpec,
)

_WEIGHT_VARIANTS = {
    cls.name: cls
    for cls in (
        UnitWeight, CostWeight, CrossEntropyWeight, ValueProdWeight, ValueMaxWeight
    )
}


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    if key not in obj:
        raise ConfigError(f"{where}: missing key {key!r}")
    return obj[key]


def parse_distribution(obj: dict, where: str = "distribution") -> ThresholdDistribution:
    kind = _need(obj, "kind", where)
    try:
        if kind == "uniform":
            _check_keys(obj, {"kind", "a", "b"}, where)
            return ThresholdDistribution.uniform(obj.get("a", 0.0), obj.get("b", 1.0))
        if kind == "beta":
            _check_keys(obj, {"kind", "alpha", "beta"}, where)
            return ThresholdDistribution.beta_prior(
                _need(obj, "alpha", where), _need(obj, "beta", where)
            )
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}: unknown kind {kind!r}")


def parse_weights(obj: dict, where: str = "weights") -> WeightSpec:
    variant = _need(obj, "variant", where)
    cls = _WEIGHT_VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ConfigError(f"{where}: unknown variant {variant!r}")
    names = [f.name for f in fields(cls)]
    _check_keys(obj, {"variant", *names}, where)
    params = {name: _need(obj, name, where) for name in names}
    try:
        return cls(**params)
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_score(name, where: str = "score") -> ScoreKind:
    try:
        return ScoreKind.parse(name)
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _loss_spec(obj: dict, where: str, *extra: str) -> LossSpec:
    """A {score, weights, distribution} object; ``extra`` keys are the caller's."""
    _check_keys(obj, {"score", "weights", "distribution", *extra}, where)
    return LossSpec(
        score=parse_score(_need(obj, "score", where), where),
        weights=parse_weights(_need(obj, "weights", where), where),
        dist=parse_distribution(_need(obj, "distribution", where), where),
    )


def parse_loss(obj: dict, where: str = "loss") -> LossSpec | CombinedLossSpec:
    if isinstance(obj, dict) and "components" in obj:
        _check_keys(obj, {"components"}, where)
        components = obj["components"]
        if not isinstance(components, list):
            raise ConfigError(f"{where}.components: expected a list")
        parts = []
        for k, comp in enumerate(components):
            sub = f"{where}.components[{k}]"
            parts.append((_loss_spec(comp, sub, "beta"), _need(comp, "beta", sub)))
        try:
            return CombinedLossSpec(components=tuple(parts))
        except ValidationError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return _loss_spec(obj, where)


def parse_synth(obj: dict, where: str = "synth") -> SyntheticSeriesConfig:
    _check_keys(obj, set(SyntheticSeriesConfig.__dataclass_fields__), where)
    try:
        return SyntheticSeriesConfig(**obj)
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_json(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    except ValueError as exc:  # malformed JSON, or an integer too long to read
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


# Each eval config section and its parser, in the order they are read.
_SECTIONS = {
    "distribution": parse_distribution,
    "weights": parse_weights,
    "score": parse_score,
}


def load_config(path: str | Path) -> dict:
    """Load and validate an eval config document: each ``_SECTIONS`` key it
    holds, parsed by that section's parser, in the table's order."""
    doc = load_json(path)
    _check_keys(doc, set(_SECTIONS), str(path))
    return {key: parse(doc[key]) for key, parse in _SECTIONS.items() if key in doc}


def load_loss(path: str | Path) -> LossSpec | CombinedLossSpec:
    """Read a loss file: either a bare loss object or a {"loss": ...} document."""
    doc = load_json(path)
    if "loss" in doc:
        _check_keys(doc, {"loss"}, str(path))
        return parse_loss(doc["loss"])
    return parse_loss(doc, where=str(path))
