"""Shared toy dataset builders for the test suite."""

import os
from pathlib import Path

import numpy as np

from multilayer_gnn import data as dm

# pytest's ``pythonpath`` setting does not reach child processes such as
# ``python -m multilayer_gnn.cli``; export the source tree to them too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


def build_dataset(n=6, d=4, layer_edges=None, layer_nodes=None, labels=None,
                  feature_seed=0, layer_names=None, features=None):
    """Assemble a small in-memory dataset.

    layer_edges: list (one per layer) of (u, v) id pairs.
    layer_nodes: optional explicit node sets; defaults to all n genes.
    """
    if layer_edges is None:
        layer_edges = [
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            [(0, 3), (1, 4), (2, 5)],
        ]
    k = len(layer_edges)
    if layer_names is None:
        layer_names = [f"L{i}" for i in range(k)]
    if layer_nodes is None:
        layer_nodes = [list(range(n))] * k
    catalog = dm.GeneCatalog([f"G{i}" for i in range(n)])
    layers = [
        dm.LayerGraph(name, nodes, np.array(edges, dtype=np.intp).reshape(-1, 2))
        for name, nodes, edges in zip(layer_names, layer_nodes, layer_edges)
    ]
    if features is None:
        features = np.random.default_rng(feature_seed).standard_normal((n, d))
    fm = dm.FeatureMatrix(features, [f"f{j}" for j in range(d)])
    if labels is None:
        labels = {i: (1 if i % 2 == 0 else 0) for i in range(min(n, 4))}
    return dm.MultilayerDataset(catalog, layers, fm, dm.LabelSet(labels))
