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

Each call takes the parameters into the tape as constants that share their
arrays, so no step computes a parameter gradient and every parameter's
``grad`` is left as it was. Target-scope meta-edge IG holds the features and
the encoder edges fixed, so it runs the encoder once per call (``encode``)
and each step runs only the meta stage and the head (``run_model`` with
``stack=``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import MultilayerDataset
from .errors import NumericError
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


def _check_params(params: ModelParams):
    for name, t in params.named():
        if not np.isfinite(t.data).all():
            raise NumericError(f"parameter {name!r} contains non-finite values")


def _check_gene(dataset: MultilayerDataset, gene_id: int):
    if not 0 <= gene_id < dataset.n_genes:
        raise ValueError(f"gene id {gene_id} outside catalog of {dataset.n_genes}")


def _midpoints(steps: int):
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return (np.arange(steps) + 0.5) / steps


def logit_spans(params: ModelParams, cfg: GnnConfig, prep: PreparedModel) -> np.ndarray:
    """``F(x) - F(0)`` per gene, the logit at the data minus the logit at the
    all-zero baseline: the total that a gene's feature attributions
    approach as the step count grows (IG completeness)."""
    _check_params(params)
    weights = params.constants()
    f_x = run_model(weights, cfg, prep).logits.data[:, 0]
    zeros = np.zeros_like(prep.dataset.features.values)
    return f_x - run_model(weights, cfg, prep, features=zeros).logits.data[:, 0]


def ig_node_features(params: ModelParams, cfg: GnnConfig, dataset: MultilayerDataset,
                     gene: int, steps: int = 64, prep: PreparedModel = None) -> AttributionMatrix:
    """Feature attributions with the graph structure held fixed."""
    _check_params(params)
    _check_gene(dataset, gene)
    if prep is None:
        prep = prepare(cfg, dataset)
    weights = params.constants()
    x_full = dataset.features.values
    grad_sum = np.zeros_like(x_full)
    for alpha in _midpoints(steps):
        res = run_model(weights, cfg, prep, features=alpha * x_full)
        target = ad.row_gather(res.logits, [gene])
        ad.backward(target)
        if res.x.grad is not None:
            grad_sum += res.x.grad
    matrix = x_full * (grad_sum / steps)
    return AttributionMatrix(gene, matrix, baseline="zero", steps=steps)


def ig_meta_edges(params: ModelParams, cfg: GnnConfig, dataset: MultilayerDataset,
                  gene: int, steps: int = 64, scope: str = "target",
                  prep: PreparedModel = None) -> MetaEdgeAttribution:
    """Per-layer meta-edge attributions with node features held fixed."""
    if scope not in ("target", "global"):
        raise ValueError(f"scope must be 'target' or 'global', got {scope!r}")
    _check_params(params)
    _check_gene(dataset, gene)
    if prep is None:
        prep = prepare(cfg, dataset)
    cm = prep.compiled_meta
    edge_idx = cm.cross_edge_indices(gene)
    layer_names = tuple(
        prep.layer_names[pos] for pos in cm.layer_of_edge[edge_idx]
    )
    if edge_idx.size == 0:
        return MetaEdgeAttribution(gene, (), np.zeros(0), steps, no_incoming=True)

    weights = params.constants()
    # target scope moves only meta edges: the encoder's stack is the same at every step
    stack = encode(weights, cfg, prep)[2] if scope == "target" else None
    grad_sum = np.zeros(edge_idx.size)
    for alpha in _midpoints(steps):
        mult = np.ones((cm.structure.n_edges, 1))
        if scope == "target":
            mult[edge_idx, 0] = alpha
        else:
            mult[cm.is_cross, 0] = alpha
        mult_var = ad.variable(mult, name="meta_edge_multiplier")

        layer_mults = None
        if scope == "global":
            layer_mults = {}
            for name, structure in zip(prep.layer_names, prep.structures):
                lm = np.ones((structure.n_edges, 1))
                lm[structure.dst != structure.src, 0] = alpha
                layer_mults[name] = ad.constant(lm)

        res = run_model(weights, cfg, prep, meta_multiplier=mult_var,
                        layer_multipliers=layer_mults, stack=stack)
        target = ad.row_gather(res.logits, [gene])
        ad.backward(target)
        if mult_var.grad is not None:
            grad_sum += mult_var.grad[edge_idx, 0]
    return MetaEdgeAttribution(gene, layer_names, grad_sum / steps, steps)


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
