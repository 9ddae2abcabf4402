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
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .config import at_least, check_section, int_list, rule
from .data import LabelSet, MultilayerDataset, POSITIVE
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .gnn import GnnConfig, ModelParams, init_params, param_shapes, prepare, run_model


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    test_layer: str
    test_ids: tuple = int_list(0)
    train_ids: tuple = int_list(0)
    val_ids: tuple = int_list(0)
    seed: int = at_least(0)

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
        """The split ``as_dict`` wrote; a ConfigError names a malformed field."""
        d = check_section(cls, d, "")
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
    ids = labels.labeled_ids()
    y = np.array([labels.labels[g] for g in ids.tolist()], dtype=np.intp)
    inside = np.isin(ids, lg.node_ids)

    test = np.zeros(ids.size, dtype=bool)
    for cls in (POSITIVE, 1 - POSITIVE):
        members = np.flatnonzero(inside & (y == cls))
        if not members.size:
            raise DataError(
                f"class {cls} has no labeled genes in test layer {test_layer!r}"
            )
        members = members[rng.permutation(members.size)]
        test[members[:_floor_frac(test_frac, members.size)]] = True

    # the pool: the test layer's kept genes plus every labeled gene outside it
    train_ids, val_ids = [], []
    for cls in (POSITIVE, 1 - POSITIVE):
        members = ids[~test & (y == cls)]
        if members.size:
            members = members[rng.permutation(members.size)]
        n_val = _floor_frac(val_frac_of_rest, members.size)
        val_ids.extend(members[:n_val].tolist())
        train_ids.extend(members[n_val:].tolist())

    test_set = set(ids[test].tolist())
    if test_set & set(train_ids) or test_set & set(val_ids):
        raise DataError("split invariant broken: a test gene reached train or validation")
    if test_set | set(train_ids) | set(val_ids) != set(labels.labels):
        raise DataError("split invariant broken: the split does not cover the labeled genes")
    return SplitSpec(
        test_layer, tuple(sorted(test_set)), tuple(sorted(train_ids)),
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

    final = run_model(best_params.constants(), cfg, prep)
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


@dataclass(frozen=True)
class _ParamEntry:
    name: str
    shape: list = int_list(0, "a list of 2", lambda n: n == 2)


@dataclass(frozen=True)
class _Header:
    version: int = at_least(1)
    seed: int = at_least(0)
    d_in: int = at_least(1)
    config: dict
    params: list = rule(schema=_ParamEntry)


def load_checkpoint(path):
    """Returns (params, config, seed); bit-exact round trip of save.

    Every malformed header field raises a CheckpointError naming the file
    and the field, including a parameter name or shape that does not match
    the header's config and ``d_in``.
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
    try:
        header = check_section(_Header, header, "")
        try:
            cfg = GnnConfig(**check_section(GnnConfig, header["config"], "config", complete=True))
        except ConfigError as err:
            raise ConfigError(f"'config' is invalid: {err}") from err
    except ConfigError as err:
        raise CheckpointError(f"{path}: header field {err}") from err
    d_in, seed, entries = header["d_in"], header["seed"], header["params"]
    # every layer has a parameter: this bounds the work param_shapes does
    if cfg.encoder_layers + cfg.meta_layers > len(entries):
        raise CheckpointError(f"{path}: header field 'params' lists {len(entries)} parameters, "
                              f"too few for the layers of its 'config'")
    expected = dict(param_shapes(cfg, d_in))
    shapes = [tuple(entry["shape"]) for entry in entries]
    have, need = len(raw) - body_start, 8 * sum(rows * cols for rows, cols in shapes)
    if have != need:
        raise CheckpointError(f"{path}: truncated or padded: header field 'params' lists "
                              f"{need} bytes of parameters, the file holds {have}")

    tensors, offset = {}, body_start
    for i, (entry, (rows, cols)) in enumerate(zip(entries, shapes)):
        name = entry["name"]
        if name not in expected:
            raise CheckpointError(f"{path}: header field 'params[{i}].name' is not a parameter "
                                  f"of the configured model, got {name!r}")
        if (rows, cols) != expected[name]:
            raise CheckpointError(f"{path}: header field 'params[{i}].shape' must be "
                                  f"{list(expected[name])} for {name!r}, got {[rows, cols]}")
        arr = np.frombuffer(raw, "<f8", rows * cols, offset).reshape(rows, cols).copy()
        tensors[name] = ad.variable(arr, name=name)
        offset += 8 * rows * cols

    try:
        params = ModelParams._from_dict(
            cfg.arch, d_in, cfg.encoder_layers, cfg.meta_layers, tensors
        )
    except KeyError as err:
        raise CheckpointError(f"{path}: parameter {err} missing from checkpoint") from err
    return params, cfg, seed
