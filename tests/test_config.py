import copy
import json
import math
import re
from dataclasses import asdict

import pytest

from beamcs import MatrixKind
from beamcs.config import (
    ConfigError,
    PROFILE_NAMES,
    build_experiment,
    load_document,
    load_experiment,
    profile_defaults,
    read_fields,
)
from beamcs.training import TrainConfig


def test_profile_names():
    assert set(PROFILE_NAMES) == {"paper", "ci"}


def test_paper_profile_defaults():
    cfg = build_experiment(profile_defaults("paper"))
    assert cfg.channel.num_antennas == 256
    assert cfg.channel.num_paths == 3
    assert cfg.num_samples == 20000
    assert cfg.train.learning_rate == 0.01
    assert cfg.train.batch_size == 128
    assert cfg.train.max_epochs == 1000
    assert cfg.train.num_updates == 9
    assert cfg.m_values == (20, 25, 30, 35, 40)
    assert cfg.kinds == tuple(MatrixKind)
    # the headline numbers need the plain [0, 1] map
    assert cfg.floor == 0.0


def test_ci_profile_defaults():
    cfg = build_experiment(profile_defaults("ci"))
    assert cfg.channel.num_antennas == 32
    assert cfg.channel.num_paths == 2
    assert cfg.num_samples == 2000
    assert cfg.m_values == (8, 12, 16)
    assert cfg.train.max_epochs == 200
    assert cfg.floor == 0.1


def test_unknown_profile():
    with pytest.raises(ConfigError, match="unknown profile"):
        profile_defaults("huge")


def test_profile_defaults_are_copies():
    a = profile_defaults("ci")
    a["train"]["batch_size"] = 7
    assert profile_defaults("ci")["train"]["batch_size"] == 64


def test_merge_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"profile": "ci", "train": {"batch_size": 32}}))
    doc = load_document(str(path), None, overrides={"train": {"batch_size": 8}})
    assert doc["train"]["batch_size"] == 8  # override beats file
    assert doc["train"]["learning_rate"] == 0.02  # untouched ci default
    doc = load_document(str(path), None)
    assert doc["train"]["batch_size"] == 32  # file beats profile


def test_profile_flag_beats_file_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"profile": "ci"}))
    doc = load_document(str(path), "paper")
    assert doc["channel"]["num_antennas"] == 256


def test_profile_from_file_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"profile": "ci"}))
    doc = load_document(str(path), None)
    assert doc["channel"]["num_antennas"] == 32
    assert "profile" not in doc  # consumed, not forwarded


def test_default_profile_is_paper():
    doc = load_document(None, None)
    assert doc["channel"]["num_antennas"] == 256


def test_bad_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    for text, message in [
        ("{not json", "not valid JSON"),
        # more digits than Python converts to an int
        ('{"seed": ' + "1" * 5000 + "}", "not valid JSON: Exceeds the limit"),
        ("[1, 2]", "JSON object"),
        # a profile of the wrong JSON type is refused, a falsy one too,
        # rather than read as no profile at all
        ('{"profile": 0}', "profile must be a string"),
        ('{"profile": false}', "profile must be a string"),
        ('{"profile": ""}', "unknown profile ''"),
        ('{"profile": []}', "profile must be a string"),
        ('{"profile": null}', "profile must be a string"),
    ]:
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_document(str(path), None)


def test_seed_cascades():
    # the one seed builds both sections; neither section has a seed key
    cfg = load_experiment(None, "ci", overrides={"seed": 5})
    assert cfg.seed == 5
    assert cfg.channel.seed == 5
    assert cfg.train.seed == 5


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"m_values": []}, "nonempty"),
        ({"m_values": [8, 8, 12]}, "strictly increasing"),
        ({"m_values": [12, 8]}, "strictly increasing"),
        ({"m_values": [0, 8]}, "positive"),
        ({"m_values": [8, 64]}, "stacked vector width"),
        # at the paper width, where the width check lets m = 200 through
        ({"channel": {"num_antennas": 256}, "m_values": [20, 200]}, "the block length"),
        ({"kinds": ["gaussian", "gaussian"]}, "distinct"),
        ({"kinds": ["rademacher"]}, "kinds must be one of"),
        ({"channel": {"angle_mode": "on_grid"}}, "unknown config key: channel.angle_mode$"),
        ({"recovery": {"solver": "basis_pursuit_lp"}}, "unknown config key: recovery$"),
        # the split is generate_dataset's; no document sets it
        ({"data": {"ratios": [0.8, 0.1, 0.1]}}, "unknown config key: data.ratios$"),
        ({"data": {"floor": 1.0}}, "floor"),
        ({"data": {"floor": -0.2}}, "floor"),
        ({"train": {"batch_size": 1}}, "invalid configuration"),
        ({"channel": {"num_antennas": -4}}, "invalid configuration"),
        # a key the config does not read, misspelled or unsupported
        ({"channel": {"antenna_spacing_ratio": 0.5}}, "channel.antenna_spacing_ratio"),
        ({"channel": {"num_path": 3}}, "unknown config key: channel.num_path$"),
        ({"data": {"ratio": [0.8, 0.1, 0.1]}}, "unknown config key: data.ratio$"),
        ({"data": {"seed": 4}}, "unknown config key: data.seed$"),
        ({"train": {"learning_rat": 0.5}}, "unknown config key: train.learning_rat$"),
        ({"metric": {"exact_tol": 1e-8}}, "unknown config key: metric$"),
        ({"channel": {"seed": 0}}, "unknown config key: channel.seed$"),
        ({"m_value": [8]}, "unknown config key: m_value$"),
        ({"sed": 1, "kind": []}, "unknown config key: kind, sed$"),
        # the data section is checked here, not later by generate_dataset
        ({"data": {"ratios": [0.5, 0.3, 0.3]}}, "unknown config key: data.ratios$"),
        ({"data": [2000, 0.1]}, "^data must be an object"),
        ({"data": {"num_samples": 9}}, "num_samples must be at least 10"),
        ({"data": {"zero_tol": 1e-12}}, "unknown config key: data.zero_tol$"),  # deleted
        ({"data": {"num_samples": 3}}, "num_samples must be at least 10"),
        ({"data": {"floor": float("nan")}}, "floor must lie in"),
        ({"recovery": {}, "metric": {}}, "unknown config key: metric, recovery$"),
        # deleted keys are unknown keys like any other
        ({"train": {"early_stop_patience": 0}}, "unknown config key: train.early_stop_patience$"),
        ({"train": {"init_stddev": None}}, "unknown config key: train.init_stddev$"),
        ({"channel": {"gain_model": "complex_gaussian"}}, "unknown config key: channel.gain_model$"),
        ({"seed": 3, "train": {"seed": 3}}, "unknown config key: train.seed$"),
        ({"kinds": []}, "kinds must be nonempty"),
        # a negative seed is refused here, by its key, not later by numpy;
        # a section seed is an unknown key whatever its value
        ({"train": {"seed": -1}}, "unknown config key: train.seed$"),
        ({"seed": -1, "channel": {"seed": 0}, "train": {"seed": 0}}, "^seed must be nonnegative$"),
        # also when no section seed was ever in the document
        ({"seed": -1}, "^seed must be nonnegative$"),
        # a JSON integer no float holds
        ({"train": {"learning_rate": 10**400}}, "train.learning_rate must be of type float, got an integer too large"),
    ],
)
def test_build_experiment_rejects(overrides, message):
    with pytest.raises(ConfigError, match=message):
        load_experiment(None, "ci", overrides=overrides)


def test_missing_required_key():
    doc = profile_defaults("ci")
    del doc["channel"]["num_antennas"]
    with pytest.raises(ConfigError, match="invalid configuration"):
        build_experiment(doc)


def test_section_must_be_object():
    doc = profile_defaults("ci")
    doc["train"] = "fast"
    with pytest.raises(ConfigError, match="must be an object"):
        build_experiment(doc)


def test_unknown_keys_are_named_by_their_reader():
    # a config document's extra key is a config key; a file trailer,
    # read by the same reader, names its own
    doc = {"seed": 1, "learning_rat": 0.5}
    with pytest.raises(ConfigError, match="^unknown config key: train.learning_rat$"):
        read_fields(doc, TrainConfig, ("seed",), "train.")
    with pytest.raises(ConfigError, match="^unknown trailer key: learning_rat$"):
        read_fields(doc, TrainConfig, ("seed",), noun="trailer")
    assert read_fields(doc, TrainConfig, ("seed",), also=("learning_rat",)) == {"seed": 1}


# A second valid value for every leaf of a document, different from its
# value in both profiles.
ALTERNATIVES = {
    ("channel", "num_antennas"): 40,
    ("channel", "num_paths"): 1,
    ("data", "num_samples"): 300,
    ("data", "floor"): 0.25,
    ("train", "learning_rate"): 0.5,
    ("train", "batch_size"): 32,
    ("train", "max_epochs"): 3,
    ("train", "num_updates"): 4,
    ("train", "dev_eval_every"): 2,
    ("m_values",): [10, 30],
    ("kinds",): ["gaussian", "learned"],
    ("seed",): 9,
    ("out_dir",): "runs/elsewhere",
}


def _leaves(doc, prefix=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + (key,))
        else:
            yield prefix + (key,)


def _with(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _read_leaf(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _built(cfg, path):
    """The value a built config holds for a document leaf, in JSON form;
    the data section's keys are fields of the config itself."""
    value = asdict(cfg)[path[-1] if path[0] == "data" else path[0]]
    if len(path) == 2 and path[0] != "data":
        value = value[path[1]]
    if isinstance(value, tuple):
        return [v.value if isinstance(v, MatrixKind) else v for v in value]
    return value


@pytest.mark.parametrize("profile", PROFILE_NAMES)
def test_every_key_reaches_the_built_config(profile):
    doc = profile_defaults(profile)
    assert set(_leaves(doc)) == set(ALTERNATIVES)
    assert len(ALTERNATIVES) == 13
    cfg = build_experiment(doc)
    assert all(_built(cfg, path) == _read_leaf(doc, path) for path in ALTERNATIVES)
    for path, value in ALTERNATIVES.items():
        assert value != _read_leaf(doc, path), path
        changed = build_experiment(_with(doc, path, value))
        # the changed leaf, and only that leaf, reaches the built config
        for other in ALTERNATIVES:
            want = value if other == path else _read_leaf(doc, other)
            assert _built(changed, other) == want, (path, other)


def _without(doc, path):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return doc


@pytest.mark.parametrize("profile", PROFILE_NAMES)
def test_every_other_profile_key_is_required(profile):
    # build_experiment keeps no second copy of the profile defaults
    full = profile_defaults(profile)
    for path in _leaves(full):
        with pytest.raises(ConfigError, match="invalid configuration"):
            build_experiment(_without(full, path))


def _wrong_values(value):
    """Values of the wrong JSON type for a leaf whose profile value is value."""
    if isinstance(value, list):
        return [True, "x", *([w, *value[1:]] for w in _wrong_values(value[0]))]
    if isinstance(value, str):
        return [True, 3]
    if isinstance(value, int):
        return [True, "9", 64.7, 1e9]
    # float leaves
    return [True, "0.5", math.nan, math.inf, -math.inf]


@pytest.mark.parametrize(
    "profile, path",
    [(p, path) for p in PROFILE_NAMES for path in _leaves(profile_defaults(p))],
    ids=lambda v: ".".join(v) if isinstance(v, tuple) else v,
)
def test_every_profile_key_rejects_wrong_types(profile, path):
    # no bool, string or fractional number for an int, no NaN or infinity
    doc = profile_defaults(profile)
    node = doc
    for key in path:
        node = node[key]
    for value in _wrong_values(node):
        with pytest.raises(ConfigError, match=re.escape(path[-1])):
            build_experiment(_with(doc, path, value))
