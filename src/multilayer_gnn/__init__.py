"""Multilayer graph neural networks for gene classification.

Trains a shared-encoder GNN across several gene-gene interaction networks,
aggregates each gene's per-network representations through a meta node,
classifies with an MLP head, and explains predictions with integrated
gradients over node features and meta-edges. Downstream utilities cover
precision-targeted candidate discovery and preranked gene-set enrichment.
"""

from .analysis import (
    DiscoveryResult,
    EnrichmentResult,
    RankedGeneList,
    ThresholdUnattainableError,
    cancer_neighbor_fraction,
    discover_candidates,
    gsea_prerank,
    meta_edge_variability,
    neighbor_fraction_table,
    select_threshold,
)
from .data import (
    FeatureMatrix,
    GeneCatalog,
    GeneSetCollection,
    LabelSet,
    LayerGraph,
    MultilayerDataset,
    load_dataset,
    load_feature_matrix,
    load_gene_sets,
    load_labels,
    load_layer_graph,
    perturb_features,
    remove_edges,
)
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .explain import (
    AttributionMatrix,
    MetaEdgeAttribution,
    attribution_report,
    ig_meta_edges,
    ig_node_features,
    neighbor_importance,
)
from .gnn import (
    GnnConfig,
    MetaGraph,
    ModelParams,
    build_meta_graph,
    encode_layers,
    forward,
    gat_layer,
    gcn_layer,
    gcn_normalize,
    init_params,
    predict,
    prepare,
    run_model,
)
from .synth import planted_dataset, planted_gene_sets, write_planted
from .training import (
    AdamState,
    SplitSpec,
    TrainReport,
    auprc,
    load_checkpoint,
    save_checkpoint,
    stratified_split,
    train,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
