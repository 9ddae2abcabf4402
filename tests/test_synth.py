"""Planted dataset generator tests."""

import hashlib
import json

import numpy as np
import pytest

from multilayer_gnn import gnn, synth
from multilayer_gnn import training as tr


class TestPlantedDataset:
    def test_deterministic(self):
        a, ta = synth.planted_dataset(n_genes=60, seed=3)
        b, tb = synth.planted_dataset(n_genes=60, seed=3)
        assert a.features.values.tobytes() == b.features.values.tobytes()
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.edges, lb.edges)
        assert ta.positive == tb.positive

    def test_different_seeds_differ(self):
        a, _ = synth.planted_dataset(n_genes=60, seed=3)
        b, _ = synth.planted_dataset(n_genes=60, seed=4)
        assert a.features.values.tobytes() != b.features.values.tobytes()

    def test_truth_consistency(self):
        ds, truth = synth.planted_dataset(n_genes=80, seed=5)
        for name, bits in truth.attributes.items():
            assert truth.positive[name] == all(b == 1 for b in bits)
        # labels agree with truth, unlabeled genes are absent from labels
        for gid, label in ds.labels.labels.items():
            assert label == int(truth.positive[ds.catalog.names[gid]])
        for name in truth.unlabeled:
            assert ds.labels.get(ds.catalog.index[name]) is None

    def test_every_gene_in_every_layer(self):
        ds, _ = synth.planted_dataset(n_genes=60, n_layers=3, seed=6)
        for lg in ds.layers:
            assert lg.n_nodes == 60

    def test_feature_groups_cover_attributes(self):
        ds, truth = synth.planted_dataset(n_genes=60, n_features=16, seed=7)
        groups = set(ds.features.omic_group)
        assert {"sig_a", "sig_b", "sig_c", "background"} <= groups

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            synth.planted_dataset(n_genes=4)
        with pytest.raises(ValueError):
            synth.planted_dataset(variant="mystery")

    def test_zero_signal_trains_to_chance(self):
        ds, truth = synth.planted_dataset(n_genes=80, n_features=8, seed=8,
                                          signal_strength=0.0)
        cfg = gnn.GnnConfig(encoder_layers=2, hidden_dim=8, meta_hidden_dim=8)
        split = tr.stratified_split(ds.labels, ds, "L0", seed=1)
        _, report = tr.train(cfg, ds, split, epochs=120, seed=1)
        test_ids = list(split.test_ids)
        prevalence = np.mean([ds.labels.labels[g] for g in test_ids])
        assert abs(report.test_auprc - prevalence) < 0.25  # no better than chance


def planted_digests(ds, truth):
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    return {
        "edges": sha(json.dumps([lg.edges.tolist() for lg in ds.layers])),
        "features": hashlib.sha256(ds.features.values.astype("<f8").tobytes()).hexdigest(),
        "labels": sha(json.dumps(sorted(ds.labels.labels.items()))),
        "truth": sha(json.dumps(truth.as_dict(), sort_keys=True)),
    }


@pytest.mark.parametrize("kwargs, digests", [
    (dict(n_genes=200, seed=0, variant="complementary", signal_strength=1.0), {
        "edges": "3f8f4d8168b1a63f8d1860fb8d3bcb2688353a48ac029a0521c6a1daca1e7b55",
        "features": "a631f6a6c6726e8a38dc5da1727ed9a85b705040621696e11876c1e7fa2c0c0e",
        "labels": "5c90af1ffecd361931eb88ec35f819604858056a0a0d109140b97e73c2676b6d",
        "truth": "e6bf4d331012fce89be54f07953bbfcc872c6ce9c6911fc9f9dd2da0b1ac7b7f",
    }),
    (dict(n_genes=150, seed=3, variant="single", signal_strength=0.0), {
        "edges": "b8e88d8699d8027b72d922da187ba76bb2fff44b05e25ea5693d98f2cc7a2063",
        "features": "3048bc0af17d4710eab75d95d6cff5b11986f28c87fffaf6ca211c452c8a4dc0",
        "labels": "bb5dd7a01442b3a805cd581be13a052a628ed8ef31fa4c2837bb1c5c40bf78ba",
        "truth": "1db8425a6cdbbe8abc00ebed2741c2dedfa72c40e8bdb052b7b5198e9a4d5a67",
    }),
    (dict(n_genes=300, seed=11, variant="complementary", signal_strength=0.5, n_layers=3), {
        "edges": "df0b25d9d59825c0debf8327075b4dcf953a4a10ae226de4a83aaf37f91af4ee",
        "features": "10e4f756cc8218779b784d807def56847dc880dfb4ee790e6c4afb37a3195be1",
        "labels": "e1238c5ea720d226c5457ad9fe1c2cb3b554c2838c23f6e8e7eeb7475b0f1eca",
        "truth": "499f021bdaddb5e833f83af62cbb0d4c840df264f2fb0cd6cdd99764ea5d15db",
    }),
])
def test_planted_dataset_golden_digests(kwargs, digests):
    """The generated dataset is pinned to the last byte: the edge draws are
    one ``rng.random`` per pair, in the same stream order as ever."""
    assert planted_digests(*synth.planted_dataset(**kwargs)) == digests


class TestGeneSets:
    def test_structure(self):
        _, truth = synth.planted_dataset(n_genes=60, seed=9)
        sets = synth.planted_gene_sets(truth, n_random=3, seed=9)
        assert "PLANTED_POSITIVE" in sets.sets
        assert "ATTR_A_ON" in sets.sets and "ATTR_C_ON" in sets.sets
        assert sum(1 for k in sets.sets if k.startswith("RANDOM_")) == 3
        positives = {g for g, is_pos in truth.positive.items() if is_pos}
        assert set(sets.sets["PLANTED_POSITIVE"]) == positives


class TestWriter:
    def test_roundtrip_through_loaders(self, tmp_path):
        from multilayer_gnn.data import load_dataset, load_gene_sets

        ds, truth = synth.planted_dataset(n_genes=60, seed=10)
        sets = synth.planted_gene_sets(truth, seed=10)
        paths = synth.write_planted(tmp_path, ds, truth, sets)
        loaded = load_dataset(
            [(e["name"], e["path"]) for e in paths["layers"]],
            paths["features"], paths["labels"],
        )
        assert loaded.n_genes == ds.n_genes
        # the reloaded catalog orders genes by first appearance in the edge
        # files, so align rows by name before comparing
        perm = [loaded.catalog.index[name] for name in ds.catalog.names]
        np.testing.assert_allclose(loaded.features.values[perm], ds.features.values)
        for a, b in zip(loaded.layers, ds.layers):
            names_a = {frozenset((loaded.catalog.names[u], loaded.catalog.names[v]))
                       for u, v in a.edges}
            names_b = {frozenset((ds.catalog.names[u], ds.catalog.names[v]))
                       for u, v in b.edges}
            assert names_a == names_b
        assert loaded.labels.labels == {
            loaded.catalog.index[ds.catalog.names[g]]: y
            for g, y in ds.labels.labels.items()
        }
        reloaded_sets = load_gene_sets(paths["gene_sets"])
        assert reloaded_sets.sets == sets.sets
