"""Shared-encoder multilayer GNN with per-gene meta aggregation.

The model runs in three stages: a GNN encoder applied with identical weights
to every layer graph, a star-shaped meta graph per gene that pulls the
gene's per-layer representations (plus its own projected features) into one
meta node, and an MLP head that turns each meta representation into a single
logit. The head reads only the meta rows, so for GCN and GAT alike the last
meta layer's neighborhood sum computes only those rows.

Layers are always processed in a canonical order (sorted by layer name), and
sparse sums run in a fixed edge order, so permuting the input layers changes
nothing, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import GAT, GCN, GnnConfig
from .data import LayerGraph, MultilayerDataset
from .errors import ConfigError


def _glorot(rng, fan_in, fan_out, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _entry(name):
    return property(lambda self: self._tensors[name])


def _stage(stage, kind):
    return property(lambda self: [t for name, t in self._tensors.items()
                                  if name.startswith(stage) and name.endswith(kind)])


class ModelParams:
    """Trainable weights: shared encoder, feature projection, meta GNN, head.

    One ordered ``name -> Tensor`` map, laid out as :func:`param_shapes`
    lists it; that order is also the checkpoint order. The per-stage
    attributes are read-only views of the map: ``enc_w``/``meta_w`` hold
    each layer's weight and ``enc_a``/``meta_a`` its attention vector (empty
    for GCN), and ``d_in`` is the row count of ``xproj.w``.
    """

    enc_w, enc_a = _stage("enc", ".w"), _stage("enc", ".a")
    meta_w, meta_a = _stage("meta", ".w"), _stage("meta", ".a")
    xproj = _entry("xproj.w")
    head_w1, head_b1 = _entry("head.w1"), _entry("head.b1")
    head_w2, head_b2 = _entry("head.w2"), _entry("head.b2")
    d_in = property(lambda self: self.xproj.shape[0])

    def __init__(self, tensors):
        self._tensors = dict(tensors)

    def named(self):
        """``(name, tensor)`` pairs in checkpoint order."""
        return list(self._tensors.items())

    def tensors(self):
        return list(self._tensors.values())

    def copy(self):
        return self._rebuilt(lambda data, name: ad.variable(data.copy(), name=name))

    def constants(self):
        """The same weights as tape constants. They share these arrays and
        copy nothing, and no backward computes a gradient toward them."""
        return self._rebuilt(ad.constant)

    def _rebuilt(self, make):
        return type(self)({name: make(t.data, name) for name, t in self._tensors.items()})


def param_shapes(cfg: GnnConfig, d_in: int):
    """``(name, (rows, cols))`` of every parameter, in checkpoint order: the
    one layout, which :func:`init_params` draws and ``load_checkpoint`` reads."""
    h, mh = cfg.hidden_dim, cfg.meta_hidden_dim
    shapes = []
    for stage, n_layers, d_first, d in (("enc", cfg.encoder_layers, d_in, h),
                                        ("meta", cfg.meta_layers, h, mh)):
        for i in range(n_layers):
            shapes.append((f"{stage}{i}.w", (d if i else d_first, d)))
            if cfg.arch == GAT:
                shapes.append((f"{stage}{i}.a", (2 * d, 1)))
        if stage == "enc":
            shapes.append(("xproj.w", (d_in, h)))
    return shapes + [("head.w1", (mh, mh)), ("head.b1", (1, mh)), ("head.w2", (mh, 1)),
                     ("head.b2", (1, 1))]


def init_params(cfg: GnnConfig, d_in: int, seed: int) -> ModelParams:
    """Glorot-uniform initialization from a seeded generator, drawn in
    checkpoint order; biases zero."""
    cfg.validate()
    if d_in < 1:
        raise ConfigError("input feature dimension must be >= 1")
    rng = np.random.default_rng(seed)
    drawn = {name: np.zeros(shape) if name.startswith("head.b") else _glorot(rng, *shape, shape)
             for name, shape in param_shapes(cfg, d_in)}
    return ModelParams({name: ad.variable(data) for name, data in drawn.items()})


# ---------------------------------------------------------------------------
# per-layer GNN operations
# ---------------------------------------------------------------------------

def _directed_with_self_loops(layer: LayerGraph):
    n = layer.n_nodes
    loops = np.arange(n, dtype=np.intp)
    dst = np.concatenate([np.repeat(np.arange(n), np.diff(layer.csr_indptr)), loops])
    src = np.concatenate([layer.csr_indices, loops])
    return ad.EdgeStructure(n, n, dst, src)


def _gcn_weights(layer: LayerGraph, structure: ad.EdgeStructure) -> ad.Tensor:
    """Edge (u, v) weighted 1/sqrt(dhat_u dhat_v) where dhat = degree + 1."""
    dhat = layer.degrees() + 1.0
    w = 1.0 / np.sqrt(dhat[structure.dst] * dhat[structure.src])
    return ad.constant(w[:, None], name=f"gcnnorm:{layer.layer_name}")


def gcn_normalize(layer: LayerGraph) -> ad.SparseWeighted:
    """Adjacency with self-loops, edge (u, v) weighted 1/sqrt(dhat_u dhat_v)
    where dhat = degree + 1."""
    s = _directed_with_self_loops(layer)
    return ad.SparseWeighted(s, _gcn_weights(layer, s))


def gat_structure(layer: LayerGraph) -> ad.EdgeStructure:
    """Directed edge set with self-loops, for attention-weighted aggregation."""
    return _directed_with_self_loops(layer)


def gcn_layer(h: ad.Tensor, norm_adj: ad.SparseWeighted, w: ad.Tensor,
              first_row: int = 0) -> ad.Tensor:
    """Rows ``first_row:`` of ``A h W``; only those rows are computed."""
    return ad.matmul(ad.spmm(norm_adj, h, first_row), w, first_row)


def _gat_on_structure(h, structure, w, a, slope, multiplier=None, first_row=0):
    """Rows ``first_row:`` of a GAT layer. ``W h`` and the attention scores
    are computed at every row, since the sum reads them at every source."""
    d_out = w.cols
    if a.shape != (2 * d_out, 1):
        raise ValueError(f"attention vector must be {2 * d_out} x 1, got {a.shape}")
    wh = ad.matmul(h, w)
    a_dst = ad.row_gather(a, np.arange(d_out))
    a_src = ad.row_gather(a, np.arange(d_out, 2 * d_out))
    p_dst = ad.matmul(wh, a_dst)
    p_src = ad.matmul(wh, a_src)
    logits = ad.leaky_relu(
        ad.add(ad.row_gather(p_dst, structure.dst), ad.row_gather(p_src, structure.src)),
        slope,
    )
    alpha = ad.neighbor_softmax(logits, structure)
    weights = alpha if multiplier is None else ad.mul(alpha, multiplier)
    return ad.spmm(ad.SparseWeighted(structure, weights), wh, first_row)


def gat_layer(h: ad.Tensor, layer: LayerGraph, w: ad.Tensor, a: ad.Tensor,
              slope: float = 0.2) -> ad.Tensor:
    """Single-head attention layer over N(u) plus the node itself."""
    return _gat_on_structure(h, gat_structure(layer), w, a, slope)


def _propagate(h, structure, base_weights, ws, attn, cfg, multiplier=None, spread=None,
               first_row=0):
    """One stack of message-passing layers over one graph, relu between them.

    GCN layers weight the edges by ``base_weights``, GAT layers by their
    attention scores; ``multiplier`` (one value per edge, or None) scales
    those weights in every layer. ``spread``, when given, is the first GCN
    layer's neighborhood sum of ``h`` over ``base_weights``, already
    computed. The encoder runs this over each layer graph and the meta stage
    over the star forest.

    The result is rows ``first_row:`` of the last layer, and for both
    architectures that layer's sum computes only those rows. A GCN also runs
    its last matmul on them alone; a GAT still runs its matmul and attention
    over every row, since the sum reads ``W h`` at every source. Only the
    meta stage passes ``first_row`` and only the encoder passes ``spread``.
    """
    last = len(ws) - 1
    for l, w in enumerate(ws):
        rows = first_row if l == last else 0
        if cfg.arch == GCN and l == 0 and spread is not None:
            h = ad.matmul(spread, w)
        elif cfg.arch == GCN:
            weights = base_weights if multiplier is None else ad.mul(base_weights, multiplier)
            h = gcn_layer(h, ad.SparseWeighted(structure, weights), w, rows)
        else:
            h = _gat_on_structure(h, structure, w, attn[l], cfg.leaky_slope, multiplier, rows)
        if l < last:
            h = ad.relu(h)
    return h


# ---------------------------------------------------------------------------
# meta graph
# ---------------------------------------------------------------------------

class MetaGraph:
    """Per-gene star: directed edges from each layer copy of the gene to its
    meta node, plus a self-loop on the meta node.

    ``layer_names`` is the canonical (name-sorted) order and
    ``layer_node_ids[pos]`` holds the sorted catalog ids of the nodes of
    layer position ``pos``. The layer copies are numbered layer by layer in
    that order: copy c is gene ``copy_gene[c]`` in layer position
    ``copy_layer[c]``, so a gene's copies ascend in layer order, and
    ``incoming[g]`` counts gene g's copies.
    """

    def __init__(self, layer_names, layer_node_ids, n_genes):
        self.layer_names = tuple(layer_names)
        self.n_genes = int(n_genes)
        sizes = [len(ids) for ids in layer_node_ids]
        self.copy_gene = np.concatenate(layer_node_ids).astype(np.intp)
        self.copy_layer = np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)
        self.incoming = np.bincount(self.copy_gene, minlength=self.n_genes)

    def n_incoming(self, gene_id: int) -> int:
        return int(self.incoming[gene_id])


def build_meta_graph(dataset: MultilayerDataset) -> MetaGraph:
    order = sorted(lg.layer_name for lg in dataset.layers)
    return MetaGraph(order, [dataset.layer_by_name(n).node_ids for n in order], dataset.n_genes)


class _CompiledMeta:
    """Flattened star forest over (all layer copies + all meta nodes).

    Row c is copy c of the :class:`MetaGraph` and row ``meta_base + g`` is
    gene g's meta node. The edges are built in the order
    :class:`~multilayer_gnn.autodiff.EdgeStructure` sums them, so
    ``structure.order`` is the identity: every copy's weight-1 self edge,
    which keeps stacked meta layers defined, then per gene one edge from each
    of its copies in layer order and its own self edge last. A meta node with
    m copies has dhat = m + 1; its cross edges weigh 1/sqrt(dhat) and its self
    edge 1/dhat. The meta rows come last, so their edges are the last edges,
    and the meta stage's last sum, which computes only those rows, reads only
    those edges.
    """

    def __init__(self, meta: MetaGraph, layer_sizes, n_genes):
        self.meta_base = int(sum(layer_sizes))
        self.n_nodes = self.meta_base + n_genes
        m = self._incoming = meta.incoming
        self_edges = self.meta_base + np.cumsum(m + 1) - 1
        self._cross_start = self_edges - m

        dst = np.concatenate([np.arange(self.meta_base, dtype=np.intp),
                              np.repeat(np.arange(self.meta_base, self.n_nodes), m + 1)])
        self.is_cross = np.ones(dst.size, dtype=bool)
        self.is_cross[:self.meta_base] = False
        self.is_cross[self_edges] = False
        src = dst.copy()
        src[self.is_cross] = np.argsort(meta.copy_gene, kind="stable")  # copies by gene
        self.structure = ad.EdgeStructure(self.n_nodes, self.n_nodes, dst, src)
        dhat = np.concatenate([np.ones(self.meta_base), np.repeat(m + 1.0, m + 1)])
        base = np.where(self.is_cross, 1.0 / np.sqrt(dhat), 1.0 / dhat)
        self.base_weights = ad.constant(base[:, None], name="meta_base_weights")
        self.layer_of_edge = np.full(dst.size, -1, dtype=np.intp)
        self.layer_of_edge[self.is_cross] = meta.copy_layer[src[self.is_cross]]

    def cross_edge_indices(self, gene_id: int) -> np.ndarray:
        """Positions (in structure order) of a gene's incoming meta-edges."""
        start = self._cross_start[gene_id]
        return np.arange(start, start + self._incoming[gene_id])


# ---------------------------------------------------------------------------
# prepared forward pass
# ---------------------------------------------------------------------------

class PreparedModel:
    """Graph-dependent constants reused across forward passes: canonical
    layer order, each layer graph's edge structure with its GCN weights, and
    the compiled meta star forest. For GCN, ``spreads`` holds each layer
    graph's first neighborhood sum of the dataset features, which depends on
    no weight (None for GAT)."""

    def __init__(self, cfg: GnnConfig, dataset: MultilayerDataset):
        cfg.validate()
        self.dataset = dataset
        meta = build_meta_graph(dataset)
        self.layer_names = meta.layer_names
        layers = [dataset.layer_by_name(n) for n in self.layer_names]
        self.node_ids = [lg.node_ids for lg in layers]
        self.structures = [_directed_with_self_loops(lg) for lg in layers]
        self.base_weights = [_gcn_weights(lg, s) for lg, s in zip(layers, self.structures)]
        self.compiled_meta = _CompiledMeta(meta, [lg.n_nodes for lg in layers], dataset.n_genes)
        self.spreads = None
        if cfg.arch == GCN:
            x = ad.constant(dataset.features.values, name="features")
            self.spreads = [
                ad.spmm(ad.SparseWeighted(s, base), ad.row_gather(x, ids))
                for s, base, ids in zip(self.structures, self.base_weights, self.node_ids)
            ]


def prepare(cfg: GnnConfig, dataset: MultilayerDataset) -> PreparedModel:
    return PreparedModel(cfg, dataset)


@dataclass
class ModelRun:
    """One taped forward pass with handles for gradient consumers.

    ``x`` and ``per_layer_h`` are None when ``run_model`` was given a
    precomputed stack, since that pass ran no encoder.
    """

    logits: ad.Tensor          # (n_genes, 1) pre-sigmoid
    x: ad.Tensor               # feature matrix tensor, or None
    h_meta: ad.Tensor          # (n_genes, meta_hidden)
    per_layer_h: dict          # layer name -> encoder output tensor, or None


def head_logits(params: ModelParams, h_meta: ad.Tensor) -> ad.Tensor:
    hidden = ad.relu(ad.add_bias(ad.matmul(h_meta, params.head_w1), params.head_b1))
    return ad.add_bias(ad.matmul(hidden, params.head_w2), params.head_b2)


def encode(params: ModelParams, cfg: GnnConfig, prep: PreparedModel,
           features: np.ndarray = None, layer_multipliers: dict = None):
    """The encoder stage of :func:`run_model`: ``(x, per_layer, stack)``.

    ``x`` is the feature tensor, ``per_layer`` maps each layer name to its
    encoder output, and ``stack`` is those outputs in canonical layer order
    followed by the projected features: the rows the meta stage reads.
    ``features`` and ``layer_multipliers`` are as in :func:`run_model`.
    """
    if features is None:
        x = ad.constant(prep.dataset.features.values, name="features")
    else:
        x = ad.variable(features, name="features")
    multipliers = layer_multipliers or {}
    cached = features is None and prep.spreads is not None

    per_layer = {}
    for pos, (name, ids, structure, base) in enumerate(zip(
        prep.layer_names, prep.node_ids, prep.structures, prep.base_weights
    )):
        multiplier = multipliers.get(name)
        spread = prep.spreads[pos] if cached and multiplier is None else None
        h = None if spread is not None else ad.row_gather(x, ids)
        per_layer[name] = _propagate(
            h, structure, base, params.enc_w, params.enc_a, cfg, multiplier, spread
        )

    projected = ad.matmul(x, params.xproj)
    return x, per_layer, ad.concat_rows(list(per_layer.values()) + [projected])


def run_model(params: ModelParams, cfg: GnnConfig, prep: PreparedModel,
              features: np.ndarray = None, meta_multiplier: ad.Tensor = None,
              layer_multipliers: dict = None, stack: ad.Tensor = None) -> ModelRun:
    """Full taped forward pass: :func:`encode`, then the meta stage and the head.

    ``features`` overrides the dataset feature matrix (same shape) and is
    then a variable, so ``backward`` leaves its gradient on ``x.grad``.
    Without it the features are the dataset constant: ``x.grad`` stays None,
    no gradient that only the features need is computed, and a GCN reuses
    ``prep``'s first-layer sums wherever a layer graph has no multiplier.
    ``meta_multiplier`` is an (E_meta, 1) tensor multiplied onto the meta
    edge weights; ``layer_multipliers`` maps layer name -> (E_layer, 1)
    tensor multiplied onto that layer's edge weights. The multipliers exist
    so that edge attributions can differentiate through them.

    ``stack``, the third value :func:`encode` returned for these
    ``params``, skips the encoder: the pass runs only the meta stage and the
    head, and the run's ``x`` and ``per_layer_h`` are None. It fixes the
    features and the layer multipliers, so passing either with it raises
    ``ValueError``.
    """
    if stack is None:
        x, per_layer, stack = encode(params, cfg, prep, features, layer_multipliers)
    elif features is not None or layer_multipliers is not None:
        raise ValueError("a precomputed stack fixes the features and the layer multipliers")
    else:
        x = per_layer = None

    cm = prep.compiled_meta
    h_meta = _propagate(stack, cm.structure, cm.base_weights, params.meta_w, params.meta_a, cfg,
                        meta_multiplier, first_row=cm.meta_base)
    return ModelRun(head_logits(params, h_meta), x, h_meta, per_layer)


# ---------------------------------------------------------------------------
# public composition ops
# ---------------------------------------------------------------------------

def encode_layers(params: ModelParams, cfg: GnnConfig, dataset: MultilayerDataset):
    """Per-layer encoder outputs in dataset layer order (weights shared)."""
    per_layer = encode(params, cfg, prepare(cfg, dataset))[1]
    return [per_layer[lg.layer_name] for lg in dataset.layers]


def predict(params: ModelParams, h_meta) -> np.ndarray:
    """Head probabilities from meta representations."""
    if not isinstance(h_meta, ad.Tensor):
        h_meta = ad.constant(h_meta)
    return ad.sigmoid(head_logits(params, h_meta).data[:, 0])


def forward(params: ModelParams, cfg: GnnConfig, dataset: MultilayerDataset) -> np.ndarray:
    """End-to-end probabilities for every catalog gene. The pass runs on
    constants, so it keeps no tape, whatever ``params`` are."""
    res = run_model(params.constants(), cfg, prepare(cfg, dataset))
    return ad.sigmoid(res.logits.data[:, 0])
