"""Split, optimizer, AUPRC, training-loop, and checkpoint tests."""

import hashlib
import json
import math

import numpy as np
import pytest

from multilayer_gnn import autodiff as ad
from multilayer_gnn import data as dm
from multilayer_gnn import gnn
from multilayer_gnn import synth
from multilayer_gnn import training as tr
from multilayer_gnn.errors import CheckpointError, DataError, NumericError

from conftest import build_dataset
from oracles import average_precision_curve


def split_dataset(n_pos=20, n_neg=80, extra=0):
    """Labeled genes all inside one layer, plus `extra` genes outside it."""
    n = n_pos + n_neg + extra
    catalog = dm.GeneCatalog([f"G{i}" for i in range(n)])
    inside = list(range(n_pos + n_neg))
    edges = [(i, (i + 1) % len(inside)) for i in inside[:-1]]
    layers = [dm.LayerGraph("T", inside, np.array(edges))]
    if extra:
        out_nodes = list(range(n_pos + n_neg, n))
        if len(out_nodes) == 1:
            out_nodes = out_nodes * 2  # self edge line keeps graph non-empty
            e2 = np.empty((0, 2), dtype=np.intp)
        else:
            e2 = np.array([(out_nodes[0], out_nodes[1])])
        layers.append(dm.LayerGraph("U", sorted(set(out_nodes)), e2))
    labels = {i: 1 for i in range(n_pos)}
    labels.update({i: 0 for i in range(n_pos, n_pos + n_neg)})
    labels.update({i: 1 for i in range(n_pos + n_neg, n)})
    fm = dm.FeatureMatrix(np.zeros((n, 2)), ["f0", "f1"])
    return dm.MultilayerDataset(catalog, layers, fm, dm.LabelSet(labels))


class TestStratifiedSplit:
    def test_class_proportions(self):
        ds = split_dataset(n_pos=20, n_neg=80)
        split = tr.stratified_split(ds.labels, ds, "T", seed=0)
        test = set(split.test_ids)
        assert len(test) == 25
        assert sum(1 for g in test if ds.labels.labels[g] == 1) == 5

    def test_same_seed_same_split(self):
        ds = split_dataset()
        a = tr.stratified_split(ds.labels, ds, "T", seed=3)
        b = tr.stratified_split(ds.labels, ds, "T", seed=3)
        assert a == b
        c = tr.stratified_split(ds.labels, ds, "T", seed=4)
        assert a != c

    def test_disjoint_and_complete(self):
        ds = split_dataset(extra=10)
        split = tr.stratified_split(ds.labels, ds, "T", seed=1)
        test, train, val = map(set, (split.test_ids, split.train_ids, split.val_ids))
        assert not test & train and not test & val and not train & val
        assert test | train | val == set(ds.labels.labels)

    def test_outside_layer_genes_never_in_test(self):
        ds = split_dataset(extra=10)
        split = tr.stratified_split(ds.labels, ds, "T", seed=2)
        outside = set(range(100, 110))
        assert not outside & set(split.test_ids)
        assert outside <= set(split.train_ids) | set(split.val_ids)

    def test_empty_class_in_test_layer(self):
        ds = split_dataset()
        labels = dm.LabelSet({g: 1 for g in range(10)})  # no negatives
        ds2 = dm.MultilayerDataset(ds.catalog, ds.layers, ds.features, labels)
        with pytest.raises(DataError, match="no labeled genes"):
            tr.stratified_split(labels, ds2, "T", seed=0)

    def test_roundtrip_dict(self):
        ds = split_dataset()
        split = tr.stratified_split(ds.labels, ds, "T", seed=5)
        assert tr.SplitSpec.from_dict(split.as_dict()) == split


def scrambled_split_dataset(n_in, n_out, missing_every):
    """Labels inserted in a scrambled order: genes below ``n_in`` whose id is
    0 mod 3 are positive, every other gene negative, and every gene whose id
    is 6 mod 7 unlabeled. Layer "T" holds genes below ``n_in`` except every
    ``missing_every``-th one (none when 0); layer "U" holds all the rest."""
    n = n_in + n_out
    catalog = dm.GeneCatalog([f"G{i}" for i in range(n)])
    in_t = [g for g in range(n) if g < n_in and (missing_every == 0 or g % missing_every)]
    out_t = sorted(set(range(n)) - set(in_t))
    layers = [dm.LayerGraph("T", in_t, np.array([(in_t[0], in_t[1])])),
              dm.LayerGraph("U", out_t, np.array([(out_t[0], out_t[1])]))]
    order = np.random.default_rng(n).permutation(n)
    labels = dm.LabelSet({int(g): int(g % 3 == 0 and g < n_in) for g in order if g % 7 != 6})
    fm = dm.FeatureMatrix(np.zeros((n, 1)), ["f0"])
    return dm.MultilayerDataset(catalog, layers, fm, labels)


def split_digest(split):
    return hashlib.sha256(json.dumps(split.as_dict(), sort_keys=True).encode()).hexdigest()


class TestSplitGolden:
    """Splits pinned by the sha256 of their ``as_dict()``, so that any change
    to how the split is computed must keep every id list and draw order."""

    PLANTED = {
        (1, "L0"): "2203fe7b2ca6e799658d7b61d9bce18369c699e5490fb451fd8ec07096c63c10",
        (1, "L1"): "187fb94dcabe7567fabc06f6f97a2d5ac666d90c9f0412d5d3b97e73a2b81710",
        (1, "L2"): "26c8a0b96756602c92bb586fce1e9bb617e541f91db2c4f1e7971ac2a22899ac",
        (2, "L0"): "2a3e079ccc5cc66258d55e3591c08b3ad3c3a089b658368a67c356d13a9f911c",
        (2, "L1"): "b36a1e7173afb9d57c2481b6d107d65325753414dccc0b57fcf72ef173283beb",
        (2, "L2"): "9583f8bec8ca8467a91f7f5dbc52ab3f6e11cbd97269a569488bf165dc16bd74",
        (3, "L0"): "45443e5d6c753853671bfeb7a7ffd281d6187e2244c8f3d41ac1a4748c3c23b7",
        (3, "L1"): "a04675a7d4e56781d944c4a45b331deb563144dbff2e26eaf3e4409419fef63d",
        (3, "L2"): "5c96278db8a612aad411b4ae51708ba69b1095424b29f64b7e46b48aea169244",
    }

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planted(self, seed):
        ds, _ = synth.planted_dataset(n_genes=400, n_layers=3, n_features=8, seed=seed)
        for layer in ds.layers:
            split = tr.stratified_split(ds.labels, ds, layer.layer_name, seed=seed)
            assert split_digest(split) == self.PLANTED[seed, layer.layer_name]

    @pytest.mark.parametrize("shape,kwargs,sizes,digest", [
        ((60, 20, 4), dict(seed=0), (9, 55, 5),
         "91a335e1735218500283944e0f94544d1197eb138d9e5b3f28c1e08760d206b4"),
        ((60, 20, 4), dict(val_frac_of_rest=0.0, seed=5), (9, 60, 0),
         "f6372f001e797ee9bee1bcd0f747c842616fe1653292bf4f7226ecd87bf045aa"),
        ((60, 20, 4), dict(test_frac=1.0, seed=6), (39, 28, 2),
         "3e1d0f47ca25e7518d7ca7ad1708797f27a95da4b78f0c9e8e792645143f2f65"),
        # every test-layer gene goes to test and the genes outside are all
        # negative: the positive pool is empty and draws nothing
        ((40, 6, 0), dict(test_frac=1.0, val_frac_of_rest=0.5, seed=7), (35, 3, 2),
         "62bf6ec84bb6cefead9db25521522971f01d94e3369c9899bec9d7666c2e7929"),
    ], ids=["missing-genes", "no-validation", "all-test", "empty-positive-pool"])
    def test_hand_built(self, shape, kwargs, sizes, digest):
        ds = scrambled_split_dataset(*shape)
        split = tr.stratified_split(ds.labels, ds, "T", **kwargs)
        assert (len(split.test_ids), len(split.train_ids), len(split.val_ids)) == sizes
        assert split_digest(split) == digest


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = ad.variable(np.zeros((1, 1)))
        opt = tr.AdamState([p], lr=0.001)
        opt.step({p: np.array([[10.0]])})
        assert p.data[0, 0] == pytest.approx(-0.001, rel=1e-6)

    def test_zero_gradient_fixed_point(self):
        p = ad.variable(np.array([[2.5]]))
        opt = tr.AdamState([p], lr=0.1)
        opt.step({p: np.zeros((1, 1))})
        assert p.data[0, 0] == 2.5

    def test_two_runs_bit_identical(self):
        rng = np.random.default_rng(0)
        grads_seq = [rng.standard_normal((3, 2)) for _ in range(10)]

        def run():
            p = ad.variable(np.ones((3, 2)))
            opt = tr.AdamState([p], lr=0.01)
            for g in grads_seq:
                opt.step({p: g})
            return p.data.copy()

        assert run().tobytes() == run().tobytes()

    def test_quadratic_loss_decreases(self):
        p = ad.variable(np.array([[3.0]]))
        opt = tr.AdamState([p], lr=0.05)
        for _ in range(5):
            opt.step({p: 2.0 * p.data})  # d/dp of p^2
        assert abs(p.data[0, 0]) < 3.0


class TestAuprc:
    def test_perfect_ranking(self):
        assert tr.auprc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_hand_value_exact(self):
        assert tr.auprc([0.9, 0.8, 0.7], [1, 0, 1]) == (1.0 + 2.0 / 3.0) / 2.0

    def test_matches_curve_oracle_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.9], size=n)  # ties likely
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[int(rng.integers(0, n))] = 1
            assert tr.auprc(scores, labels) == average_precision_curve(scores, labels)

    def test_random_scores_approach_prevalence(self):
        rng = np.random.default_rng(2)
        n = 10000
        for prev in (0.5, 0.27):
            labels = (rng.random(n) < prev).astype(int)
            scores = rng.random(n)
            ap = tr.auprc(scores, labels)
            assert abs(ap - labels.mean()) < 0.02

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            tr.auprc([0.5, 0.1], [0, 0])


def separable_dataset(n=40, seed=0):
    """Two features carry the class signal directly; one ring layer."""
    rng = np.random.default_rng(seed)
    labels = {i: int(i < n // 2) for i in range(n)}
    feats = np.zeros((n, 2))
    for i in range(n):
        feats[i, 0] = (2.0 if labels[i] else -2.0) + 0.1 * rng.standard_normal()
        feats[i, 1] = rng.standard_normal()
    edges = [(i, (i + 1) % n) for i in range(n - 1)]
    return build_dataset(n=n, d=2, layer_edges=[edges], features=feats, labels=labels)


class TestTrainLoop:
    def test_loss_decreases_on_separable_data(self):
        ds = separable_dataset()
        cfg = gnn.GnnConfig(encoder_layers=2, hidden_dim=8, meta_hidden_dim=8)
        split = tr.stratified_split(ds.labels, ds, "L0", seed=0)
        _, report = tr.train(cfg, ds, split, epochs=50, seed=0)
        assert report.train_loss[-1] < report.train_loss[0]
        assert len(report.train_loss) == 50
        assert len(report.val_auprc) == 50

    def test_same_seed_identical_outcome(self):
        ds = separable_dataset()
        cfg = gnn.GnnConfig(encoder_layers=2, hidden_dim=6, meta_hidden_dim=6)
        split = tr.stratified_split(ds.labels, ds, "L0", seed=1)
        p1, r1 = tr.train(cfg, ds, split, epochs=25, seed=7)
        p2, r2 = tr.train(cfg, ds, split, epochs=25, seed=7)
        assert r1.train_loss == r2.train_loss
        assert r1.val_auprc == r2.val_auprc
        assert r1.test_auprc == r2.test_auprc
        for (_, a), (_, b) in zip(p1.named(), p2.named()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_test_ids_never_in_loss(self):
        ds = separable_dataset()
        cfg = gnn.GnnConfig(encoder_layers=1, hidden_dim=4, meta_hidden_dim=4)
        split = tr.stratified_split(ds.labels, ds, "L0", seed=2)
        test_set = set(split.test_ids)
        seen = []

        def observer(epoch, ids):
            seen.append(epoch)
            assert not test_set & set(ids.tolist())

        tr.train(cfg, ds, split, epochs=10, seed=0, loss_ids_observer=observer)
        assert seen == list(range(10))

    def test_overlapping_train_and_test_rejected(self):
        ds = split_dataset()
        split = tr.SplitSpec("T", (0, 1, 20), (1, 2, 3, 21, 22), (4, 23), seed=0)
        cfg = gnn.GnnConfig(encoder_layers=1, hidden_dim=3, meta_hidden_dim=3)
        with pytest.raises(DataError, match="1 gene id.*both train and test.*1"):
            tr.train(cfg, ds, split, epochs=1, seed=0)

    def test_divergence_reports_epoch(self):
        ds = separable_dataset()
        cfg = gnn.GnnConfig(encoder_layers=3, hidden_dim=8, meta_hidden_dim=8)
        split = tr.stratified_split(ds.labels, ds, "L0", seed=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="epoch"):
                tr.train(cfg, ds, split, epochs=50, seed=0, lr=1e120)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = gnn.GnnConfig(encoder_layers=2, hidden_dim=5, meta_hidden_dim=4)
        params = gnn.init_params(cfg, 7, seed=11)
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(params, cfg, seed=11, path=path)
        loaded, cfg2, seed2 = tr.load_checkpoint(path)
        assert cfg2 == cfg and seed2 == 11
        for (n1, t1), (n2, t2) in zip(params.named(), loaded.named()):
            assert n1 == n2
            assert t1.data.tobytes() == t2.data.tobytes()

    @pytest.mark.parametrize("arch, digest", [
        ("gcn", "637408433edbbabe793b2cdb64bf4c6864dfc792dfbc5ff8b8111058293fe096"),
        ("gat", "18afa4834af28342d3a690e462208c76d0ef12fd6b9577a2f2a1bc740fdfe819"),
    ])
    def test_saved_bytes_pinned(self, tmp_path, arch, digest):
        """The initial weights' checkpoint bytes: the parameter layout and
        the order the weights are drawn in, byte for byte."""
        cfg = gnn.GnnConfig(arch=arch, encoder_layers=2, meta_layers=2, hidden_dim=5,
                            meta_hidden_dim=4)
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(gnn.init_params(cfg, 3, seed=7), cfg, seed=7, path=path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_truncated_file(self, tmp_path):
        cfg = gnn.GnnConfig(encoder_layers=1, hidden_dim=3, meta_hidden_dim=3)
        params = gnn.init_params(cfg, 2, seed=0)
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(params, cfg, seed=0, path=path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            tr.load_checkpoint(path)

    def test_version_mismatch_names_supported(self, tmp_path):
        cfg = gnn.GnnConfig(encoder_layers=1, hidden_dim=3, meta_hidden_dim=3)
        params = gnn.init_params(cfg, 2, seed=0)
        path = tmp_path / "model.ckpt"
        tr.save_checkpoint(params, cfg, seed=0, path=path)
        raw = path.read_bytes()
        import struct

        (hlen,) = struct.unpack("<I", raw[8:12])
        header = raw[12:12 + hlen].replace(b'"version": 1', b'"version": 999')
        patched = raw[:8] + struct.pack("<I", len(header)) + header + raw[12 + hlen:]
        path.write_bytes(patched)
        with pytest.raises(CheckpointError, match="supported: 1"):
            tr.load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"hello world, definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="not a model checkpoint"):
            tr.load_checkpoint(path)
