"""Typed schema for run configs, model configs and checkpoint headers.

A section is a frozen dataclass: each field's annotation is the JSON type it
accepts, its default fills an absent field (none: mandatory), and rule()
adds a range and the section that checks the objects the field holds.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError

GCN, GAT = "gcn", "gat"
LOG_LEVELS = ("debug", "info", "warning", "error")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# the JSON values each annotation accepts (tuples are stored as JSON lists);
# the bound on numbers rejects NaN, the infinities and ints too large for a float
_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max,
              "a finite number"),
    "str": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "tuple": (lambda v: isinstance(v, list), "a list"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
}


def rule(default=MISSING, ok=None, want=None, factory=MISSING, schema=None):
    """A field whose values satisfy ``ok`` (described as ``want``) and whose
    object, or each object of whose list, is checked as section ``schema``."""
    return field(default=default, default_factory=factory,
                 metadata={"ok": ok, "want": want, "schema": schema})


def at_least(lo, default=MISSING):
    return rule(default, lambda v: v >= lo, f">= {lo}")


def one_of(options, default=MISSING):
    return rule(default, lambda v: v in options, "one of " + ", ".join(map(repr, options)))


def existing_file(default=MISSING):
    return rule(default, lambda v: Path(v).exists(), "the path of an existing file")


def int_list(lo, want="a list", size_ok=lambda n: True, factory=MISSING):
    return rule(MISSING, lambda v: size_ok(len(v)) and all(_is_int(n) and n >= lo for n in v),
                f"{want} of integers >= {lo}", factory)


def check_section(cls, raw, where, omit=(), complete=False):
    """``raw`` with the defaults of ``cls`` filled in, after checking that it
    has only ``cls``'s fields less ``omit``, every mandatory one (all when
    ``complete``), each of its type and in its range. Values are never
    coerced; an absent field with a None default stays absent. A ConfigError
    names the bad field as ``'where.field'``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{repr(where) if where else 'the top level'} must be an object, "
                          f"got {raw!r}")
    prefix = f"{where}." if where else ""
    specs = {f.name: f for f in fields(cls) if f.name not in omit}
    unknown = sorted(raw.keys() - specs.keys())
    if unknown:
        raise ConfigError(f"'{prefix}{unknown[0]}' is an unknown field")
    out = {}
    for key, f in specs.items():
        name, value = prefix + key, raw.get(key)
        if key in raw:
            is_type, want = _TYPES[f.type]
            if not is_type(value):
                raise ConfigError(f"'{name}' must be {want}, got {value!r}")
            if f.metadata.get("ok") and not f.metadata["ok"](value):
                raise ConfigError(f"'{name}' must be {f.metadata['want']}, got {value!r}")
        elif complete or (f.default is MISSING and f.default_factory is MISSING):
            raise ConfigError(f"'{name}' is missing")
        elif f.default_factory is not MISSING:
            value = f.default_factory()
        elif f.default is None:
            continue
        else:
            value = f.default
        schema = f.metadata.get("schema")
        if schema and isinstance(value, dict):
            value = check_section(schema, value, name, omit, complete)
        elif schema:
            value = [check_section(schema, item, f"{name}[{i}]", omit, complete)
                     for i, item in enumerate(value)]
        out[key] = value
    return out


@dataclass(frozen=True)
class GnnConfig:
    """Model hyperparameters; only checkpoint headers carry the fixed ``activation``."""

    arch: str = one_of((GCN, GAT), GCN)
    encoder_layers: int = at_least(1, 3)
    hidden_dim: int = at_least(1, 64)
    meta_layers: int = at_least(1, 1)
    meta_hidden_dim: int = at_least(1, 64)
    leaky_slope: float = 0.2
    activation: str = one_of(("relu",), "relu")

    def validate(self):
        check_section(GnnConfig, asdict(self), "GnnConfig")
        return self


@dataclass(frozen=True)
class LayerPath:
    name: str
    path: str = existing_file()


@dataclass(frozen=True)
class PathsConfig:
    layers: list = rule(ok=lambda v: v != [], want="a non-empty list", schema=LayerPath)
    features: str = existing_file()
    labels: str = existing_file()
    gene_sets: str = existing_file(None)


@dataclass(frozen=True)
class TrainingConfig:
    seed: int = at_least(0)
    test_layer: str
    epochs: int = at_least(1, 2000)
    lr: float = rule(0.001, lambda v: v > 0, "> 0")
    test_frac: float = rule(0.25, lambda v: 0 < v < 1, "in (0, 1)")
    val_frac: float = rule(0.10, lambda v: 0 <= v < 1, "in [0, 1)")
    pos_weight: float = rule(1.0, lambda v: v > 0, "> 0")


@dataclass(frozen=True)
class ExplainConfig:
    steps: int = at_least(1, 64)
    edge_ig_scope: str = one_of(("target", "global"), "target")


@dataclass(frozen=True)
class AblationConfig:
    mode: str = one_of(("none", "random_features", "all_one", "edge_removal"), "none")
    fraction: float = rule(0.2, lambda v: 0 <= v <= 1, "in [0, 1]")
    seeds: list = int_list(0, "a non-empty list", lambda n: n > 0, factory=lambda: [1, 2, 3])


@dataclass(frozen=True)
class RunConfig:
    paths: dict = rule(schema=PathsConfig)
    model: dict = rule(factory=dict, schema=GnnConfig)
    training: dict = rule(factory=dict, schema=TrainingConfig)
    explain: dict = rule(factory=dict, schema=ExplainConfig)
    ablation: dict = rule(factory=dict, schema=AblationConfig)
    output_dir: str = "out"
    log_level: str = one_of(LOG_LEVELS, "info")
