"""Integrated-gradients attributions for individual gene predictions.

Two modes, both targeting the pre-sigmoid logit of one gene's meta node:

* node features: interpolate the feature matrix from an all-zero baseline to
  the data along a straight line, average input gradients at midpoint steps,
  multiply by the features. Genes outside the encoder's receptive field get
  exactly zero rows.
* meta-edges: scale the target gene's incoming meta-edge weights by the path
  position (self-loop untouched) and average the gradient with respect to
  each edge's multiplier. One value per contributing layer, then divided by
  the maximum absolute value. A ``scope="global"`` variant scales every
  non-self edge of every graph instead, for comparison.

Raw attributions keep their sign; the max-|.|-normalized values therefore
live in [-1, 1], with a [0, 1] clamped view for display.

Both modes share one midpoint loop: each step is one ``run_model`` and one
backward from the target logit. Each call first takes the parameters into
the tape as constants that share their arrays, so no step computes a
parameter gradient and every parameter's ``grad`` is left as it was; a
non-finite parameter raises ``NumericError`` there, naming it ("non-finite
values produced by head.w2"). Target-scope meta-edge IG holds the features and
the encoder edges fixed, so it runs the encoder once per call (``encode``)
and each step runs only the meta stage and the head (``run_model`` with
``stack=``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import MultilayerDataset
from .gnn import GnnConfig, ModelParams, PreparedModel, encode, prepare, run_model


@dataclass
class AttributionMatrix:
    """Per-gene, per-feature attributions toward one target gene's logit."""

    gene_id: int
    matrix: np.ndarray          # n_genes x n_features
    baseline: str
    steps: int

    @property
    def meta_row(self) -> np.ndarray:
        """Attributions of the target gene's own features (its meta node)."""
        return self.matrix[self.gene_id]


@dataclass
class MetaEdgeAttribution:
    """Per-layer attribution of the target gene's incoming meta-edges."""

    gene_id: int
    layer_names: tuple
    raw: np.ndarray
    steps: int
    no_incoming: bool = False

    @property
    def normalized(self) -> np.ndarray:
        if self.raw.size == 0:
            return self.raw.copy()
        peak = float(np.max(np.abs(self.raw)))
        if peak == 0.0:
            return np.zeros_like(self.raw)
        return self.raw / peak

    @property
    def normalized_clamped(self) -> np.ndarray:
        return np.clip(self.normalized, 0.0, 1.0)

    def by_layer(self) -> dict:
        norm = self.normalized
        return {
            name: {"raw": float(r), "normalized": float(v)}
            for name, r, v in zip(self.layer_names, self.raw, norm)
        }


def _check_gene(dataset: MultilayerDataset, gene_id: int):
    if not 0 <= gene_id < dataset.n_genes:
        raise ValueError(f"gene id {gene_id} outside catalog of {dataset.n_genes}")


def _path_average(weights, cfg: GnnConfig, prep: PreparedModel, gene: int, steps: int,
                  step_kwargs, read_grad) -> np.ndarray:
    """Midpoint average of the gradient of ``gene``'s logit along the path.
    At each position ``alpha``: one :func:`run_model` with the keyword
    arguments ``step_kwargs(alpha)``, one backward, and the gradient
    ``read_grad(run, kwargs)`` added to the sum."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    grad_sum = 0.0
    for alpha in (np.arange(steps) + 0.5) / steps:
        kwargs = step_kwargs(alpha)
        res = run_model(weights, cfg, prep, **kwargs)
        ad.backward(ad.row_gather(res.logits, [gene]))
        grad_sum += read_grad(res, kwargs)
    return grad_sum / steps


def logit_spans(params: ModelParams, cfg: GnnConfig, prep: PreparedModel) -> np.ndarray:
    """``F(x) - F(0)`` per gene, the logit at the data minus the logit at the
    all-zero baseline: the total that a gene's feature attributions
    approach as the step count grows (IG completeness)."""
    weights = params.constants()
    f_x = run_model(weights, cfg, prep).logits.data[:, 0]
    zeros = np.zeros_like(prep.dataset.features.values)
    return f_x - run_model(weights, cfg, prep, features=zeros).logits.data[:, 0]


def ig_node_features(params: ModelParams, cfg: GnnConfig, dataset: MultilayerDataset,
                     gene: int, steps: int = 64, prep: PreparedModel = None) -> AttributionMatrix:
    """Feature attributions with the graph structure held fixed."""
    weights = params.constants()
    _check_gene(dataset, gene)
    if prep is None:
        prep = prepare(cfg, dataset)
    x_full = dataset.features.values
    grads = _path_average(weights, cfg, prep, gene, steps,
                          lambda alpha: {"features": alpha * x_full},
                          lambda res, kwargs: res.x.grad)
    return AttributionMatrix(gene, x_full * grads, baseline="zero", steps=steps)


def ig_meta_edges(params: ModelParams, cfg: GnnConfig, dataset: MultilayerDataset,
                  gene: int, steps: int = 64, scope: str = "target",
                  prep: PreparedModel = None) -> MetaEdgeAttribution:
    """Per-layer meta-edge attributions with node features held fixed."""
    weights = params.constants()
    if scope not in ("target", "global"):
        raise ValueError(f"scope must be 'target' or 'global', got {scope!r}")
    _check_gene(dataset, gene)
    if prep is None:
        prep = prepare(cfg, dataset)
    cm = prep.compiled_meta
    edge_idx = cm.cross_edge_indices(gene)
    if edge_idx.size == 0:
        return MetaEdgeAttribution(gene, (), np.zeros(0), steps, no_incoming=True)
    layer_names = tuple(prep.layer_names[pos] for pos in cm.layer_of_edge[edge_idx])

    # the edges each step scales to alpha; every other edge keeps weight 1
    layer_masks, stack = {}, None
    if scope == "target":
        meta_mask = np.zeros((cm.structure.n_edges, 1), dtype=bool)
        meta_mask[edge_idx] = True
        # only meta edges move: the encoder's stack is the same at every step
        stack = encode(weights, cfg, prep)[2]
    else:
        meta_mask = cm.is_cross[:, None]
        layer_masks = {name: (s.dst != s.src)[:, None]
                       for name, s in zip(prep.layer_names, prep.structures)}

    def step_kwargs(alpha):
        mult = ad.variable(np.where(meta_mask, alpha, 1.0), name="meta_edge_multiplier")
        layer_mults = {name: ad.constant(np.where(mask, alpha, 1.0))
                       for name, mask in layer_masks.items()}
        return {"meta_multiplier": mult, "layer_multipliers": layer_mults or None, "stack": stack}

    raw = _path_average(weights, cfg, prep, gene, steps, step_kwargs,
                        lambda res, kwargs: kwargs["meta_multiplier"].grad[edge_idx, 0])
    return MetaEdgeAttribution(gene, layer_names, raw, steps)


def neighbor_importance(attr: AttributionMatrix):
    """Genes ranked by their maximum feature attribution toward the target.

    Genes whose maximum is exactly zero are dropped; ties break by ascending
    gene id.
    """
    imp = attr.matrix.max(axis=1)
    keep = np.flatnonzero(imp != 0.0)
    order = sorted(keep, key=lambda g: (-imp[g], g))
    return [(int(g), float(imp[g])) for g in order]


def attribution_report(dataset: MultilayerDataset, attr: AttributionMatrix,
                       medge: MetaEdgeAttribution, top_neighbors: int = 25) -> dict:
    """JSON-ready summary of both attribution modes for one gene."""
    names = dataset.catalog.names
    feats = dataset.features
    groups = {}
    for fname, group, value in zip(feats.feature_names, feats.omic_group, attr.meta_row):
        groups.setdefault(group, {})[fname] = float(value)
    ranked = neighbor_importance(attr)
    return {
        "gene": names[attr.gene_id],
        "steps": attr.steps,
        "baseline": attr.baseline,
        "meta_node_feature_attributions": groups,
        "top_neighbors": [
            {"gene": names[g], "importance": v} for g, v in ranked[:top_neighbors]
        ],
        "meta_edges": medge.by_layer(),
        "meta_edges_absent": bool(medge.no_incoming),
    }
