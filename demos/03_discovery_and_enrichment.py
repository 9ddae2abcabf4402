#!/usr/bin/env python3
"""Walkthrough: precision-targeted discovery of new candidates, neighborhood
statistics, and preranked gene-set enrichment.

The discovery rule mirrors a catalog-expansion workflow: pick the smallest
probability threshold that keeps labeled-set precision above a target, then
report every unlabeled gene above it. Enrichment then asks whether a gene
set concentrates at the top of an importance ranking.
"""

import numpy as np

from multilayer_gnn import (
    GnnConfig,
    cancer_neighbor_fraction,
    discover_candidates,
    gsea_prerank,
    ig_meta_edges,
    meta_edge_variability,
    neighbor_fraction_table,
    planted_dataset,
    planted_gene_sets,
    prepare,
    stratified_split,
    train,
)

dataset, truth = planted_dataset(n_genes=200, n_layers=2, n_features=16, seed=42)
cfg = GnnConfig()
split = stratified_split(dataset.labels, dataset, "L0", seed=1)
params, report = train(cfg, dataset, split, epochs=300, seed=1)
names = dataset.catalog.names

# ---------------------------------------------------------------------------
# 1. threshold for >= 95% precision on the labeled set, then discovery
# ---------------------------------------------------------------------------
result = discover_candidates(params, cfg, dataset, precision_target=0.95)
print(f"threshold for 95% labeled precision: {result.threshold:.4f}")
print(f"candidates above threshold: {len(result.candidates)} of "
      f"{len(result.full_ranking)} unlabeled genes")
hits = sum(truth.positive[g] for g, _ in result.candidates)
print(f"planted positives among them: {hits}/{len(result.candidates)}")

# ---------------------------------------------------------------------------
# 2. neighborhood statistics: how positive-labeled is each gene's vicinity,
#    and does it track the per-layer meta-edge importance?
# ---------------------------------------------------------------------------
some_gene = int(dataset.labels.labeled_ids()[0])
for lg in dataset.layers:
    frac = cancer_neighbor_fraction(dataset, some_gene, lg.layer_name)
    print(f"{names[some_gene]} positive-neighbor fraction in {lg.layer_name}: {frac:.3f}")

prep = prepare(cfg, dataset)
pos_labeled = [int(g) for g in dataset.labels.positive_ids()][:25]
attrs = {g: ig_meta_edges(params, cfg, dataset, g, steps=32, prep=prep) for g in pos_labeled}
fractions = neighbor_fraction_table(dataset, pos_labeled)
records = meta_edge_variability(attrs, fractions)
defined = [r for r in records if not np.isnan(r.correlation)]
print(f"\nmeta-edge variability over {len(records)} positives "
      f"({len(defined)} with defined correlations)")
if defined:
    print(f"  mean std {np.mean([r.std for r in records]):.3f}; "
          f"mean correlation {np.mean([r.correlation for r in defined]):+.3f}")

# ---------------------------------------------------------------------------
# 3. enrichment: rank unlabeled genes by probability and test the planted sets
# ---------------------------------------------------------------------------
sets = planted_gene_sets(truth, seed=0)
enrichment = gsea_prerank(result.full_ranking, sets, permutations=500, seed=0)
print("\nenrichment (sorted by FDR):")
for r in sorted(enrichment, key=lambda r: r.fdr):
    print(f"  {r.set_name:18s} ES {r.es:+.3f}  p {r.p_value:.4f}  FDR {r.fdr:.4f}")
