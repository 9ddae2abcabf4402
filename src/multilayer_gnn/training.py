"""Stratified splitting, Adam optimization, AUPRC evaluation, checkpoints.

Training is full batch: one forward/backward over the whole multilayer graph
per epoch, cross-entropy on the training genes only. The validation AUPRC is
recorded every epoch and the parameters from the best validation epoch are
returned (evaluation happens on the pre-update state each epoch, so epoch 0
scores the initialization).
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import autodiff as ad
from .data import LabelSet, MultilayerDataset, POSITIVE
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .gnn import GnnConfig, ModelParams, init_params, prepare, run_model


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    test_layer: str
    test_ids: tuple
    train_ids: tuple
    val_ids: tuple
    seed: int

    def as_dict(self):
        return {
            "test_layer": self.test_layer,
            "seed": self.seed,
            "test_ids": list(self.test_ids),
            "train_ids": list(self.train_ids),
            "val_ids": list(self.val_ids),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            d["test_layer"], tuple(d["test_ids"]), tuple(d["train_ids"]),
            tuple(d["val_ids"]), d["seed"],
        )


def _floor_frac(frac, n):
    return int(math.floor(frac * n + 1e-9))


def stratified_split(labels: LabelSet, dataset: MultilayerDataset, test_layer: str,
                     test_frac: float = 0.25, val_frac_of_rest: float = 0.10,
                     seed: int = 0) -> SplitSpec:
    """Hold out a class-stratified test set from the designated layer.

    The labeled genes of the test layer split (1 - test_frac)/test_frac per
    class (floor rounding, remainder to the training side). The kept genes
    plus all labeled genes outside the test layer form a pool that splits
    (1 - val)/val per class into train/validation. Test genes never reach
    train or validation.
    """
    lg = dataset.layer_by_name(test_layer)
    rng = np.random.default_rng(seed)

    test_ids, pool = [], []
    for cls in (POSITIVE, 1 - POSITIVE):
        members = sorted(
            g for g, y in labels.labels.items() if y == cls and lg.contains(g)
        )
        if not members:
            raise DataError(
                f"class {cls} has no labeled genes in test layer {test_layer!r}"
            )
        members = list(np.asarray(members)[rng.permutation(len(members))])
        n_test = _floor_frac(test_frac, len(members))
        test_ids.extend(int(g) for g in members[:n_test])
        pool.extend(int(g) for g in members[n_test:])

    outside = sorted(g for g in labels.labels if not lg.contains(g))
    pool.extend(outside)

    test_set = set(test_ids)
    train_ids, val_ids = [], []
    for cls in (POSITIVE, 1 - POSITIVE):
        members = sorted(g for g in pool if labels.labels[g] == cls)
        members = list(np.asarray(members)[rng.permutation(len(members))]) if members else []
        n_val = _floor_frac(val_frac_of_rest, len(members))
        val_ids.extend(int(g) for g in members[:n_val])
        train_ids.extend(int(g) for g in members[n_val:])

    if test_set & set(train_ids) or test_set & set(val_ids):
        raise DataError("split invariant broken: a test gene reached train or validation")
    if test_set | set(train_ids) | set(val_ids) != set(labels.labels):
        raise DataError("split invariant broken: the split does not cover the labeled genes")
    return SplitSpec(
        test_layer, tuple(sorted(test_ids)), tuple(sorted(train_ids)),
        tuple(sorted(val_ids)), seed,
    )


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class AdamState:
    """Bias-corrected Adam over a fixed parameter list."""

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = grads[p]
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def adam_step(params, grads, state: AdamState):
    """Functional wrapper: one update on ``state`` (mutates params in place)."""
    state.step(grads)
    return params, state


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def auprc(scores, labels) -> float:
    """Average precision over the ranking by descending score.

    Ties break by ascending position (gene id). Equals the area under the
    precision-recall curve with recall increments of 1/n_pos per positive.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be matching 1-D arrays")
    n_pos = int(np.sum(labels == 1))
    if n_pos == 0:
        raise ValueError("auprc undefined without positives")
    order = np.lexsort((np.arange(scores.size), -scores))
    ranked = labels[order] == 1
    tp = np.cumsum(ranked)
    prec = tp / np.arange(1, scores.size + 1)
    return float(np.sum(prec[ranked]) / n_pos)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainReport:
    epochs: int
    seed: int
    lr: float
    pos_weight: float
    config: dict
    test_layer: str
    train_loss: list = field(default_factory=list)
    val_auprc: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_auprc: float = float("nan")
    test_auprc: float = float("nan")
    wall_clock_sec: float = 0.0

    def as_dict(self, include_timing=True):
        d = asdict(self)
        if not include_timing:
            d.pop("wall_clock_sec")
        # degenerate validation splits record NaN scores; keep the JSON strict
        d["val_auprc"] = [None if math.isnan(v) else v for v in d["val_auprc"]]
        if math.isnan(d["best_val_auprc"]):
            d["best_val_auprc"] = None
        return d


def _targets_for(labels: LabelSet, ids):
    return np.array([labels.labels[g] for g in ids], dtype=np.float64)


def train(cfg: GnnConfig, dataset: MultilayerDataset, split: SplitSpec,
          epochs: int = 2000, lr: float = 0.001, seed: int = 0,
          pos_weight: float = 1.0, loss_ids_observer=None):
    """Full-batch training; returns (best-validation params, report)."""
    started = time.perf_counter()
    cfg.validate()
    params = init_params(cfg, dataset.features.n_features, seed)
    prep = prepare(cfg, dataset)

    train_ids = np.asarray(split.train_ids, dtype=np.intp)
    val_ids = np.asarray(split.val_ids, dtype=np.intp)
    test_ids = np.asarray(split.test_ids, dtype=np.intp)
    if train_ids.size == 0:
        raise DataError("empty training split")
    overlap = np.intersect1d(train_ids, test_ids)
    if overlap.size:
        raise DataError(
            f"split has {overlap.size} gene id(s) in both train and test, e.g. {overlap[0]}"
        )
    train_targets = _targets_for(dataset.labels, train_ids)
    val_targets = _targets_for(dataset.labels, val_ids)
    test_targets = _targets_for(dataset.labels, test_ids)

    report = TrainReport(
        epochs=epochs, seed=seed, lr=lr, pos_weight=pos_weight,
        config=asdict(cfg), test_layer=split.test_layer,
    )
    opt = AdamState(params.tensors(), lr=lr)
    best_params = None

    for epoch in range(epochs):
        try:
            res = run_model(params, cfg, prep)
            loss = ad.cross_entropy_logits(
                ad.row_gather(res.logits, train_ids), train_targets, pos_weight
            )
        except NumericError as err:
            raise NumericError(f"training diverged at epoch {epoch}: {err}") from err
        if loss_ids_observer is not None:
            loss_ids_observer(epoch, train_ids)

        report.train_loss.append(float(loss.data[0, 0]))
        if val_ids.size and (val_targets == 1).any():
            val_score = auprc(ad.sigmoid(res.logits.data[val_ids, 0]), val_targets)
        else:
            val_score = float("nan")
        report.val_auprc.append(val_score)
        # ties keep the later epoch: a small validation set saturates early,
        # and the most-trained parameters among equal scorers generalize best
        if not math.isnan(val_score) and (
            best_params is None or val_score >= report.best_val_auprc
        ):
            report.best_val_auprc = val_score
            report.best_epoch = epoch
            best_params = params.copy()

        grads = ad.backward(loss, params.tensors())
        opt.step(grads)

    if best_params is None:  # no usable validation signal: keep final state
        best_params = params.copy()
        report.best_epoch = epochs - 1

    final = run_model(best_params, cfg, prep)
    report.test_auprc = auprc(ad.sigmoid(final.logits.data[test_ids, 0]), test_targets)
    report.wall_clock_sec = time.perf_counter() - started
    return best_params, report


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"MLGNNCP\x01"
_VERSION = 1


def save_checkpoint(params: ModelParams, cfg: GnnConfig, seed: int, path):
    """Versioned container: JSON header + raw little-endian float64 blocks."""
    header = {
        "version": _VERSION,
        "seed": int(seed),
        "config": asdict(cfg),
        "d_in": params.d_in,
        "params": [
            {"name": name, "shape": list(t.data.shape)} for name, t in params.named()
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, t in params.named():
            fh.write(t.data.astype("<f8").tobytes())


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_shape(value):
    return (isinstance(value, list) and len(value) == 2
            and all(_is_int(n) and n >= 0 for n in value))


# header checks for the GnnConfig field types, keyed by the type of the default
_CONFIG_CHECKS = {
    int: (_is_int, "an integer"),
    float: (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _header_field(path, mapping, key, check, want, prefix=""):
    """``mapping[key]`` if present and ``check(value)``, else a
    CheckpointError naming the file and the field."""
    if key not in mapping:
        raise CheckpointError(f"{path}: header field '{prefix}{key}' is missing")
    value = mapping[key]
    if not check(value):
        raise CheckpointError(
            f"{path}: header field '{prefix}{key}' must be {want}, got {value!r}"
        )
    return value


def _header_config(path, header):
    """The header's model config: exactly the GnnConfig fields, each of its
    default's type."""
    raw = _header_field(path, header, "config", lambda v: isinstance(v, dict), "an object")
    kinds = {f.name: type(f.default) for f in fields(GnnConfig)}
    unknown = sorted(raw.keys() - kinds.keys())
    if unknown:
        raise CheckpointError(f"{path}: header field 'config.{unknown[0]}' is unknown")
    for key, kind in kinds.items():
        _header_field(path, raw, key, *_CONFIG_CHECKS[kind], prefix="config.")
    try:
        return GnnConfig(**raw).validate()
    except ConfigError as err:
        raise CheckpointError(f"{path}: header field 'config' is invalid: {err}") from err


def load_checkpoint(path):
    """Returns (params, config, seed); bit-exact round trip of save.

    Every malformed header field raises a CheckpointError naming the file
    and the field.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(_MAGIC) + 4 or raw[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint")
    (hlen,) = struct.unpack("<I", raw[len(_MAGIC):len(_MAGIC) + 4])
    body_start = len(_MAGIC) + 4 + hlen
    if len(raw) < body_start:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[len(_MAGIC) + 4:body_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: corrupt header ({err})") from err
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header (not a JSON object)")
    version = header.get("version")
    if version != _VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version} (supported: {_VERSION})"
        )
    cfg = _header_config(path, header)
    d_in = _header_field(path, header, "d_in", lambda v: _is_int(v) and v >= 1,
                         "a positive integer")
    seed = _header_field(path, header, "seed", _is_int, "an integer")
    entries = _header_field(path, header, "params", lambda v: isinstance(v, list), "a list")

    tensors = {}
    offset = body_start
    for i, entry in enumerate(entries):
        where = f"params[{i}]"
        if not isinstance(entry, dict):
            raise CheckpointError(f"{path}: header field '{where}' must be an object, "
                                  f"got {entry!r}")
        name = _header_field(path, entry, "name", lambda v: isinstance(v, str), "a string",
                             prefix=f"{where}.")
        rows, cols = _header_field(path, entry, "shape", _is_shape,
                                   "[rows, cols] of non-negative integers", prefix=f"{where}.")
        nbytes = rows * cols * 8
        chunk = raw[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"{path}: truncated parameter block {name!r}")
        arr = np.frombuffer(chunk, dtype="<f8").reshape(rows, cols).copy()
        tensors[name] = ad.variable(arr, name=name)
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} unexpected trailing bytes")

    try:
        params = ModelParams._from_dict(
            cfg.arch, d_in, cfg.encoder_layers, cfg.meta_layers, tensors
        )
    except KeyError as err:
        raise CheckpointError(f"{path}: parameter {err} missing from checkpoint") from err
    return params, cfg, seed
