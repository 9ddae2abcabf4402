"""Planted multilayer datasets with known ground truth.

Each gene carries hidden binary attributes and is a true positive only when
every attribute is on. Attributes come in two kinds:

* structural attributes: weak per-gene feature markers, but layer k's graph
  clusters genes that share attribute k mod n_struct into dense communities,
  so message passing over that layer can denoise the attribute. In the
  two-layer "complementary" variant each layer certifies one attribute, so
  neither layer alone pins the label but both together do.
* one feature-only attribute: strong per-gene markers and no community
  structure anywhere. Ablating features destroys it; no amount of graph
  structure brings it back.

The generator is part of the shipped package: headline experiments need
user-supplied interaction networks, and the planted task is the built-in way
to validate the pipeline end to end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .data import (
    FeatureMatrix,
    GeneCatalog,
    GeneSetCollection,
    LabelSet,
    LayerGraph,
    MultilayerDataset,
    write_edge_list,
    write_features_csv,
    write_gene_sets_gmt,
    write_labels_tsv,
)


@dataclass
class PlantedTruth:
    """Ground truth of a generated dataset."""

    seed: int
    variant: str
    signal_strength: float
    positive: dict = field(default_factory=dict)    # gene name -> bool
    attributes: dict = field(default_factory=dict)  # gene name -> attribute bits
    unlabeled: list = field(default_factory=list)   # gene names held out of labels

    def as_dict(self):
        return asdict(self)


def _communities(rng, members, community_size, p_in):
    """Partition members into chunks and wire each chunk densely: one (k, 2)
    pair array per chunk, one draw per pair in row-major pair order."""
    members = np.asarray(members)
    members = members[rng.permutation(members.size)]
    edges = []
    for start in range(0, members.size, community_size):
        chunk = members[start:start + community_size]
        i, j = np.triu_indices(chunk.size, 1)
        keep = rng.random(i.size) < p_in
        edges.append(np.stack([chunk[i[keep]], chunk[j[keep]]], axis=1))
    return edges


def planted_dataset(n_genes: int = 200, n_layers: int = 2, n_features: int = 16,
                    seed: int = 0, variant: str = "complementary",
                    signal_strength: float = 1.0, community_size: int = 20,
                    p_in: float = 0.45, unlabeled_frac: float = 0.15):
    """Generate (dataset, truth). Deterministic in all arguments."""
    if n_genes < 8 or n_layers < 1 or n_features < 4:
        raise ValueError("planted task needs n_genes >= 8, n_layers >= 1, n_features >= 4")
    if variant not in ("complementary", "single"):
        raise ValueError(f"unknown variant {variant!r}")
    rng = np.random.default_rng(seed)
    n_struct = 2 if variant == "complementary" else 1
    n_attr = n_struct + 1  # the last attribute lives in the features only

    p_on = [0.55] * n_struct + [0.65]
    bits = (rng.random((n_genes, n_attr)) < np.asarray(p_on)[None, :]).astype(int)
    positive = bits.all(axis=1)

    # marker blocks: weak for structural attributes, strong for the
    # feature-only attribute, remainder pure noise
    markers = max(1, n_features // (n_attr + 1))
    mu = [0.35 * signal_strength] * n_struct + [1.6 * signal_strength]
    values = rng.standard_normal((n_genes, n_features))
    groups = ["background"] * n_features
    for t in range(n_attr):
        block = slice(t * markers, (t + 1) * markers)
        values[:, block] += mu[t] * (2 * bits[:, t] - 1)[:, None]
        for j in range(t * markers, (t + 1) * markers):
            groups[j] = f"sig_{chr(ord('a') + t)}"

    names = [f"G{i:04d}" for i in range(n_genes)]
    catalog = GeneCatalog(names)
    features = FeatureMatrix(values, [f"f{j:02d}" for j in range(n_features)], groups)

    layers = []
    all_nodes = list(range(n_genes))
    for k in range(n_layers):
        attr = k % n_struct
        edges = []
        if signal_strength > 0:
            for v in (0, 1):
                edges += _communities(
                    rng, np.flatnonzero(bits[:, attr] == v), community_size, p_in
                )
        else:  # no signal: communities ignore the attributes entirely
            edges += _communities(rng, np.arange(n_genes), community_size, p_in)
        # sparse background noise edges
        edges.append([rng.choice(n_genes, size=2, replace=False) for _ in range(n_genes // 2)])
        layers.append(LayerGraph(f"L{k}", all_nodes, np.concatenate(edges)))

    # hold out a stratified slice of genes as unlabeled, ground truth kept
    unlabeled = []
    labels = {}
    for cls in (1, 0):
        members = np.flatnonzero(positive == cls)
        members = members[rng.permutation(members.size)]
        n_unlab = int(math.floor(unlabeled_frac * members.size + 1e-9))
        unlabeled.extend(int(g) for g in members[:n_unlab])
        labels.update({int(g): cls for g in members[n_unlab:]})

    dataset = MultilayerDataset(catalog, layers, features, LabelSet(labels))
    truth = PlantedTruth(
        seed=seed, variant=variant, signal_strength=signal_strength,
        positive={names[i]: bool(positive[i]) for i in range(n_genes)},
        attributes={names[i]: bits[i].tolist() for i in range(n_genes)},
        unlabeled=sorted(names[g] for g in unlabeled),
    )
    return dataset, truth


def planted_gene_sets(truth: PlantedTruth, n_random: int = 8, set_size: int = 15,
                      seed: int = 0) -> GeneSetCollection:
    """Hallmark-style sets for enrichment demos: the planted positives, one
    set per attribute, and random controls."""
    rng = np.random.default_rng(seed)
    names = sorted(truth.positive)
    sets = {"PLANTED_POSITIVE": [g for g in names if truth.positive[g]]}
    desc = {"PLANTED_POSITIVE": "genes with every attribute on"}
    n_attr = len(next(iter(truth.attributes.values())))
    for t in range(n_attr):
        key = f"ATTR_{chr(ord('A') + t)}_ON"
        sets[key] = [g for g in names if truth.attributes[g][t] == 1]
        desc[key] = f"genes with attribute {t} on"
    for r in range(n_random):
        key = f"RANDOM_{r:02d}"
        sets[key] = list(rng.choice(names, size=min(set_size, len(names)), replace=False))
        desc[key] = "uniform random control set"
    return GeneSetCollection(sets, desc)


def write_planted(outdir, dataset: MultilayerDataset, truth: PlantedTruth,
                  sets: GeneSetCollection = None) -> dict:
    """Emit the dataset as the text formats the loaders read; returns paths."""
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {"layers": []}
    for lg in dataset.layers:
        p = outdir / f"layer_{lg.layer_name}.tsv"
        write_edge_list(lg, dataset.catalog, p)
        paths["layers"].append({"name": lg.layer_name, "path": str(p)})
    paths["features"] = str(outdir / "features.csv")
    write_features_csv(dataset.features, dataset.catalog, paths["features"])
    paths["labels"] = str(outdir / "labels.tsv")
    write_labels_tsv(dataset.labels, dataset.catalog, paths["labels"])
    if sets is not None:
        paths["gene_sets"] = str(outdir / "gene_sets.gmt")
        write_gene_sets_gmt(sets, paths["gene_sets"])
    paths["truth"] = str(outdir / "truth.json")
    with open(paths["truth"], "w", encoding="utf-8") as fh:
        json.dump(truth.as_dict(), fh, indent=2, sort_keys=True)
    return paths
