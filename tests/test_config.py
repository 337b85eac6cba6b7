import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import weight_menu

from wsol.config import (
    load_config,
    load_json,
    load_loss,
    parse_distribution,
    parse_loss,
    parse_score,
    parse_synth,
    parse_weights,
)
from wsol.errors import ConfigError, ValidationError
from wsol.loss import CombinedLossSpec, LossSpec
from wsol.multilabel import Aggregator
from wsol.scores import ScoreKind
from wsol.threshold import ThresholdDistribution
from wsol.trainer import SyntheticSeriesConfig, TrainConfig
from wsol.weights import (
    CostWeight,
    CrossEntropyWeight,
    UnitWeight,
    ValueMaxWeight,
    ValueProdWeight,
)

_UNIT_LOSS = LossSpec(ScoreKind.TSS, UnitWeight(), ThresholdDistribution.uniform())

# Each builds its object with one real parameter set to v.  NaN passes the
# range checks written with < or <=, and infinity passes the one-sided ones.
_REAL_PARAMETERS = {
    "train_learning_rate": lambda v: TrainConfig(loss=_UNIT_LOSS, learning_rate=v),
    "synth_noise": lambda v: SyntheticSeriesConfig(noise=v),
    "synth_precursor_strength": lambda v: SyntheticSeriesConfig(precursor_strength=v),
    "value_max_omega": lambda v: ValueMaxWeight((v, 0.1)),
    "value_prod_omega": lambda v: ValueProdWeight((0.2, v)),
    "cost_c01": lambda v: CostWeight(v, 1.0),
    "cost_c10": lambda v: CostWeight(1.0, v),
    "cross_entropy_omega0": lambda v: CrossEntropyWeight(v, 1.0),
    "beta_alpha": lambda v: ThresholdDistribution.beta_prior(v, 2.0),
    "beta_beta": lambda v: ThresholdDistribution.beta_prior(2.0, v),
    "uniform_b": lambda v: ThresholdDistribution.uniform(0.0, v),
    "combined_loss_beta": lambda v: CombinedLossSpec(((_UNIT_LOSS, v),)),
    "aggregator_weight": lambda v: Aggregator("weighted_mean", (v, 1.0)),
}


def test_distribution_forms():
    d = parse_distribution({"kind": "uniform", "a": 0.0, "b": 1.0})
    assert d.kind == "uniform" and d.support == (0.0, 1.0)
    d = parse_distribution({"kind": "beta", "alpha": 2.0, "beta": 2.0})
    assert d.kind == "beta"


def test_distribution_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_distribution({"kind": "uniform", "mean": 0.5})


def test_distribution_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="unknown kind 'gamma'"):
        parse_distribution({"kind": "gamma"})


def test_unreadable_or_non_object_json_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="missing.json"):
        load_json(tmp_path / "missing.json")
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level must be an object"):
        load_json(path)


def test_distribution_invalid_parameters_become_config_errors():
    with pytest.raises(ConfigError):
        parse_distribution({"kind": "uniform", "a": 0.9, "b": 0.2})
    with pytest.raises(ConfigError):
        parse_distribution({"kind": "beta", "alpha": -1.0, "beta": 2.0})


def test_weight_forms():
    assert isinstance(parse_weights({"variant": "unit"}), UnitWeight)
    w = parse_weights({"variant": "cost", "c01": 1.0, "c10": 5.0})
    assert isinstance(w, CostWeight) and w.c10 == 5.0
    w = parse_weights({"variant": "value_max", "omega": [0.5, 0.3, 0.1]})
    assert isinstance(w, ValueMaxWeight) and w.omega == (0.5, 0.3, 0.1)


def test_weight_unknown_variant_and_keys():
    with pytest.raises(ConfigError):
        parse_weights({"variant": "exotic"})
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_weights({"variant": "unit", "omega": [0.5]})


def test_score_names():
    assert parse_score("neg_error_sum") is ScoreKind.NEG_ERROR_SUM
    with pytest.raises(ConfigError):
        parse_score("brier")


def test_single_loss_document():
    spec = parse_loss(
        {
            "score": "tss",
            "weights": {"variant": "value_max", "omega": [0.6, 0.3, 0.1]},
            "distribution": {"kind": "uniform"},
        }
    )
    assert isinstance(spec, LossSpec) and spec.score is ScoreKind.TSS


def test_combined_loss_document():
    component = {
        "score": "tss",
        "weights": {"variant": "unit"},
        "distribution": {"kind": "uniform"},
    }
    spec = parse_loss(
        {"components": [dict(component, beta=0.3), dict(component, beta=0.7)]}
    )
    assert isinstance(spec, CombinedLossSpec)
    with pytest.raises(ConfigError):
        parse_loss(
            {"components": [dict(component, beta=0.3), dict(component, beta=0.3)]}
        )


def test_cross_entropy_beta_prior_rejected_in_loss():
    with pytest.raises(ConfigError):
        parse_loss(
            {
                "score": "tss",
                "weights": {"variant": "cross_entropy", "omega0": 1.0, "omega1": 1.0},
                "distribution": {"kind": "beta", "alpha": 2.0, "beta": 2.0},
            }
        )


def test_synth_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_synth({"n": 100, "rate": 0.2})


def test_load_config_sections(tmp_path):
    doc = {
        "distribution": {"kind": "uniform"},
        "weights": {"variant": "unit"},
        "score": "f1",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = load_config(path)
    assert out["score"] is ScoreKind.F1
    # The document's own sections make a valid loss, which only a loss file takes.
    for extra in ({"extra": 1}, {"train": {"epochs": 3}}, {"loss": doc}):
        path.write_text(json.dumps(dict(doc, **extra)))
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(path)


def test_load_loss_accepts_bare_or_wrapped(tmp_path):
    body = {
        "score": "hss",
        "weights": {"variant": "unit"},
        "distribution": {"kind": "uniform"},
    }
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(body))
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"loss": body}))
    assert load_loss(bare) == load_loss(wrapped)


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text('{"noise": 1' + "0" * 5000 + "}")
    with pytest.raises(ConfigError, match="digits"):
        load_json(path)


# None is a finite real number: 10**400 is an int no float holds, and a
# string or a boolean is not read as a number even where float() takes it.
_NOT_FINITE_REALS = [float("nan"), float("inf"), -float("inf"), 10**400, "x", "2", True]


@pytest.mark.parametrize("build", _REAL_PARAMETERS.values(), ids=_REAL_PARAMETERS)
@pytest.mark.parametrize(
    "value", _NOT_FINITE_REALS, ids=["nan", "inf", "-inf", "1e400", "x", "2", "True"]
)
def test_constructors_reject_non_finite_numbers(build, value):
    with pytest.raises(ValidationError, match="must be (finite|a number)"):
        build(value)


def test_non_finite_numbers_in_documents_become_config_errors():
    nan = float("nan")
    with pytest.raises(ConfigError, match="omega entries must be finite"):
        parse_weights({"variant": "value_max", "omega": [nan, 0.1]})
    with pytest.raises(ConfigError, match="c01 must be finite"):
        parse_weights({"variant": "cost", "c01": nan, "c10": 1})
    with pytest.raises(ConfigError, match="alpha must be finite"):
        parse_distribution({"kind": "beta", "alpha": float("inf"), "beta": 2})
    with pytest.raises(ConfigError, match="noise must be finite"):
        parse_synth({"noise": nan})



def test_every_weight_spec_parses_back_from_its_fields(rng):
    for _ in range(10):
        for spec in weight_menu(rng):
            doc = json.loads(json.dumps({"variant": spec.name, **asdict(spec)}))
            assert parse_weights(doc) == spec


_KEYS = (
    "score", "weights", "distribution", "components", "beta", "loss", "variant",
    "omega", "c01", "c10", "omega0", "omega1", "kind", "a", "b", "alpha",
)
_WORDS = ("tss", "f1", "hss", "unit", "value_max", "uniform", "beta")
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(),  # NaN and both infinities included
    st.sampled_from(_WORDS),
    st.text(max_size=4),
)
_JSON = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), kids, max_size=5),
    max_leaves=12,
)
# Documents shaped like a loss, so the fuzz reaches every parser below the top.
_NUMBER = st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0]) | st.floats(0.0, 3.0) | _LEAVES
_OMEGA = st.lists(_NUMBER, min_size=1, max_size=3) | _LEAVES
_WEIGHTS = st.one_of(
    *(
        st.fixed_dictionaries({"variant": st.just(name), **fields})
        for name, fields in (
            ("unit", {}),
            ("cost", {"c01": _NUMBER, "c10": _NUMBER}),
            ("cross_entropy", {"omega0": _NUMBER, "omega1": _NUMBER}),
            ("value_prod", {"omega": _OMEGA}),
            ("value_max", {"omega": _OMEGA}),
        )
    ),
    _JSON,
)
_DIST = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("uniform")}, optional={"a": _NUMBER, "b": _NUMBER}
    ),
    st.fixed_dictionaries(
        {"kind": st.just("beta"), "alpha": _NUMBER, "beta": _NUMBER}
    ),
    _JSON,
)
_LOSS = {
    "score": st.sampled_from([*(kind.value for kind in ScoreKind), "x", None, [], 2]),
    "weights": _WEIGHTS,
    "distribution": _DIST,
}
_DOCUMENTS = st.one_of(
    st.fixed_dictionaries(_LOSS),
    st.fixed_dictionaries(
        {"components": st.lists(st.fixed_dictionaries({**_LOSS, "beta": _NUMBER}))}
    ),
    _JSON,
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_DOCUMENTS)
def test_parse_loss_raises_only_config_errors(doc):
    try:
        spec = parse_loss(doc)
    except ConfigError:
        return
    assert isinstance(spec, (LossSpec, CombinedLossSpec))
