"""The config schema: check_section, and fuzzed run configs and checkpoint headers."""

import json
import re
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multilayer_gnn import cli, gnn, training
from multilayer_gnn.config import AblationConfig, TrainingConfig, check_section
from multilayer_gnn.errors import CheckpointError, ConfigError

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


class TestCheckSection:
    def test_fills_defaults_and_keeps_given_values_uncoerced(self):
        got = check_section(TrainingConfig, {"seed": 3, "test_layer": "L0", "lr": 1}, "training")
        assert got == {"seed": 3, "test_layer": "L0", "epochs": 2000, "lr": 1,
                       "test_frac": 0.25, "val_frac": 0.10, "pos_weight": 1.0}
        assert type(got["lr"]) is int

    def test_default_lists_are_fresh(self):
        first = check_section(AblationConfig, {}, "ablation")
        first["seeds"].append(9)
        assert check_section(AblationConfig, {}, "ablation")["seeds"] == [1, 2, 3]

    @pytest.mark.parametrize("raw, message", [
        ([], "'training' must be an object"),
        ({"test_layer": "L0"}, "'training.seed' is missing"),
        ({"seed": 1, "test_layer": "L0", "epoch": 5}, "'training.epoch' is an unknown field"),
        ({"seed": 1.0, "test_layer": "L0"}, "'training.seed' must be an integer, got 1.0"),
        ({"seed": 1, "test_layer": "L0", "lr": float("inf")}, "'training.lr' must be a finite"),
        ({"seed": 1, "test_layer": "L0", "lr": 10 ** 400}, "'training.lr' must be a finite"),
        ({"seed": 1, "test_layer": "L0", "lr": 0}, "'training.lr' must be > 0, got 0"),
        ({"seed": 1, "test_layer": ""}, "'training.test_layer' must be a non-empty string"),
    ])
    def test_names_the_bad_field(self, raw, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            check_section(TrainingConfig, raw, "training")

    def test_complete_makes_every_field_mandatory(self):
        with pytest.raises(ConfigError, match="'config.leaky_slope' is missing"):
            check_section(gnn.GnnConfig, {"arch": "gcn", "encoder_layers": 1, "hidden_dim": 2,
                                          "meta_layers": 1, "meta_hidden_dim": 2,
                                          "activation": "relu"}, "config", complete=True)


@pytest.mark.parametrize("arch", ["gcn", "gat"])
@pytest.mark.parametrize("encoder_layers, meta_layers", [(1, 1), (3, 1), (2, 3)])
def test_param_shapes_follow_the_checkpoint_order(arch, encoder_layers, meta_layers):
    cfg = gnn.GnnConfig(arch=arch, encoder_layers=encoder_layers, meta_layers=meta_layers,
                        hidden_dim=5, meta_hidden_dim=3)
    params = gnn.init_params(cfg, 7, seed=0)
    assert gnn.param_shapes(cfg, 7) == [(name, t.shape) for name, t in params.named()]


@pytest.fixture(scope="module")
def synth_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert cli.main(["synth", "--out", str(root / "data"), "--n-genes", "40", "--seed", "2"]) == 0
    return root, json.loads((root / "data" / "config.json").read_text())


def _config_fields(cfg):
    sections = ("paths", "model", "training", "explain", "ablation")
    return sorted([*sections, "output_dir", "log_level"]
                  + [f"{section}.{key}" for section in sections for key in cfg[section]])


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_config_field_loads_or_is_named(synth_config, data):
    root, cfg = synth_config
    field = data.draw(st.sampled_from(_config_fields(cfg)))
    value = data.draw(json_values)
    cfg = json.loads(json.dumps(cfg))
    *section, key = field.split(".")
    (cfg[section[0]] if section else cfg)[key] = value
    path = root / "fuzzed.json"
    path.write_text(json.dumps(cfg))
    try:
        cli.load_config(path)
    except ConfigError as err:
        assert field in str(err)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    cfg = gnn.GnnConfig(arch="gat", encoder_layers=2, hidden_dim=3, meta_hidden_dim=2)
    path = tmp_path_factory.mktemp("header") / "model.ckpt"
    training.save_checkpoint(gnn.init_params(cfg, 4, seed=1), cfg, seed=1, path=path)
    return path.read_bytes()


def _rewrite_header(raw, path, edit):
    (hlen,) = struct.unpack("<I", raw[8:12])
    blob = json.dumps(edit(json.loads(raw[12:12 + hlen]))).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen:])
    return path


@pytest.mark.parametrize("key, value", [
    ("hidden_dim", 10 ** 13), ("meta_hidden_dim", 10 ** 6), ("encoder_layers", 10 ** 12),
])
def test_huge_header_config_is_rejected_before_allocating(checkpoint_bytes, tmp_path, key, value):
    def edit(header):
        header["config"][key] = value
        return header

    path = _rewrite_header(checkpoint_bytes, tmp_path / "huge.ckpt", edit)
    with pytest.raises(CheckpointError, match="'params"):
        training.load_checkpoint(path)


def _node_paths(node, prefix=()):
    """The key path of every value nested in a JSON header."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _node_paths(child, prefix + (key,))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fuzzed_checkpoint_header_raises_only_checkpoint_error(checkpoint_bytes, tmp_path_factory,
                                                               data):
    raw = checkpoint_bytes
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_node_paths(header)) if isinstance(header, (dict, list)) else []
        if not paths:
            header = data.draw(json_values)
            continue
        *outer, last = data.draw(st.sampled_from(paths))
        node = header
        for key in outer:
            node = node[key]
        action = data.draw(st.sampled_from(["set", "delete", "add"]))
        if action == "set":
            node[last] = data.draw(json_values)
        elif action == "delete":
            del node[last]
        elif isinstance(node, dict):
            node[data.draw(st.text(max_size=6))] = data.draw(json_values)
        else:
            node.insert(last, data.draw(json_values))
    path = _rewrite_header(raw, tmp_path_factory.getbasetemp() / "fuzzed.ckpt", lambda _: header)
    try:
        training.load_checkpoint(path)
    except CheckpointError:
        pass
