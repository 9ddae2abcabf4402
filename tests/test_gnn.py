"""Architecture tests: normalization, layers, meta aggregation, invariances."""

import numpy as np
import pytest

from multilayer_gnn import autodiff as ad
from multilayer_gnn import data as dm
from multilayer_gnn import gnn

from conftest import build_dataset
from oracles import dense_gat, dense_gcn


def tiny_cfg(arch="gcn", enc=2, hidden=3, meta_hidden=3):
    return gnn.GnnConfig(
        arch=arch, encoder_layers=enc, hidden_dim=hidden,
        meta_layers=1, meta_hidden_dim=meta_hidden,
    )


def layer_of(edges, n, name="L"):
    return dm.LayerGraph(name, list(range(n)), np.array(edges, dtype=np.intp).reshape(-1, 2))


class TestGcnNormalize:
    def test_isolated_node(self):
        sw = gnn.gcn_normalize(layer_of([], 1))
        assert sw.structure.n_edges == 1
        assert sw.weights.data[0, 0] == 1.0

    def test_connected_pair(self):
        sw = gnn.gcn_normalize(layer_of([(0, 1)], 2))
        s = sw.structure
        w = {(int(u), int(v)): sw.weights.data[i, 0] for i, (u, v) in enumerate(zip(s.dst, s.src))}
        assert w[(0, 1)] == pytest.approx(0.5)
        assert w[(0, 0)] == pytest.approx(0.5)
        assert w[(1, 1)] == pytest.approx(0.5)

    def test_path_weight(self):
        sw = gnn.gcn_normalize(layer_of([(0, 1), (1, 2)], 3))
        s = sw.structure
        w = {(int(u), int(v)): sw.weights.data[i, 0] for i, (u, v) in enumerate(zip(s.dst, s.src))}
        assert w[(0, 1)] == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-12)


class TestGcnLayer:
    def test_identity(self):
        lg = layer_of([], 1)
        h = ad.constant([[2.0, 3.0]])
        out = gnn.gcn_layer(h, gnn.gcn_normalize(lg), ad.constant(np.eye(2)))
        np.testing.assert_allclose(out.data, [[2.0, 3.0]])

    def test_symmetric_pair_stays_symmetric(self):
        lg = layer_of([(0, 1)], 2)
        h = ad.constant([[1.0, 2.0], [1.0, 2.0]])
        rng = np.random.default_rng(0)
        out = gnn.gcn_layer(h, gnn.gcn_normalize(lg), ad.constant(rng.standard_normal((2, 2))))
        np.testing.assert_array_equal(out.data[0], out.data[1])

    def test_dense_oracle_random_graphs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 21))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
            lg = layer_of(pairs, n)
            h0 = rng.standard_normal((n, 3))
            w0 = rng.standard_normal((3, 2))
            out = gnn.gcn_layer(ad.constant(h0), gnn.gcn_normalize(lg), ad.constant(w0))
            np.testing.assert_allclose(out.data, dense_gcn(h0, pairs, w0, n), atol=1e-12)


class TestGatLayer:
    def test_isolated_node_is_projection(self):
        lg = layer_of([], 1)
        rng = np.random.default_rng(2)
        h0 = rng.standard_normal((1, 3))
        w0 = rng.standard_normal((3, 2))
        a0 = rng.standard_normal((4, 1))
        out = gnn.gat_layer(ad.constant(h0), lg, ad.constant(w0), ad.constant(a0))
        np.testing.assert_allclose(out.data, h0 @ w0, atol=1e-12)

    def test_zero_attention_uniform(self):
        lg = layer_of([(0, 1), (0, 2)], 3)
        h0 = np.eye(3)
        w0 = np.eye(3)
        a0 = np.zeros((6, 1))
        out = gnn.gat_layer(ad.constant(h0), lg, ad.constant(w0), ad.constant(a0))
        np.testing.assert_allclose(out.data[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_direct_formula_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            lg = layer_of(pairs, n)
            h0 = rng.standard_normal((n, 3))
            w0 = rng.standard_normal((3, 2))
            a0 = rng.standard_normal((4, 1))
            out = gnn.gat_layer(ad.constant(h0), lg, ad.constant(w0), ad.constant(a0), slope=0.2)
            np.testing.assert_allclose(
                out.data, dense_gat(h0, pairs, w0, a0, 0.2, n), atol=1e-12
            )

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        lg = layer_of([(0, 1), (0, 2), (1, 2), (2, 3)], 4)
        s = gnn.gat_structure(lg)
        h = ad.constant(rng.standard_normal((4, 3)))
        w = ad.constant(rng.standard_normal((3, 2)))
        a = ad.constant(rng.standard_normal((4, 1)))
        wh = ad.matmul(h, w)
        p_dst = ad.matmul(wh, ad.row_gather(a, np.arange(2)))
        p_src = ad.matmul(wh, ad.row_gather(a, np.arange(2, 4)))
        logits = ad.leaky_relu(
            ad.add(ad.row_gather(p_dst, s.dst), ad.row_gather(p_src, s.src)), 0.2
        )
        alpha = ad.neighbor_softmax(logits, s)
        sums = np.zeros(4)
        np.add.at(sums, s.dst, alpha.data[:, 0])
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


class TestEncodeLayers:
    def test_identical_layers_identical_outputs(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        ds = build_dataset(n=4, layer_edges=[edges, edges])
        cfg = tiny_cfg()
        params = gnn.init_params(cfg, ds.features.n_features, seed=0)
        h0, h1 = gnn.encode_layers(params, cfg, ds)
        assert h0.data.tobytes() == h1.data.tobytes()

    def test_single_gcn_layer_identity(self):
        ds = build_dataset(n=3, d=2, layer_edges=[[]], layer_nodes=[[0, 1, 2]])
        cfg = gnn.GnnConfig(encoder_layers=1, hidden_dim=2, meta_hidden_dim=2)
        params = gnn.init_params(cfg, 2, seed=0)
        params.enc_w[0].data = np.eye(2)
        (h,) = gnn.encode_layers(params, cfg, ds)
        np.testing.assert_allclose(h.data, ds.features.values, atol=1e-12)

    def test_layer_permutation_permutes_outputs(self):
        ds = build_dataset()
        cfg = tiny_cfg()
        params = gnn.init_params(cfg, ds.features.n_features, seed=1)
        hs = gnn.encode_layers(params, cfg, ds)
        flipped = dm.MultilayerDataset(
            ds.catalog, (ds.layers[1], ds.layers[0]), ds.features, ds.labels
        )
        hs_f = gnn.encode_layers(params, cfg, flipped)
        assert hs[0].data.tobytes() == hs_f[1].data.tobytes()
        assert hs[1].data.tobytes() == hs_f[0].data.tobytes()


class TestMetaGraph:
    def test_membership_counts(self):
        ds = build_dataset(
            n=4,
            layer_edges=[[(0, 1)], [(0, 2)], [(0, 3)]],
            layer_nodes=[[0, 1], [0, 2], [0, 3]],
        )
        meta = gnn.build_meta_graph(ds)
        assert meta.n_incoming(0) == 3
        assert meta.n_incoming(1) == 1
        cm = gnn._CompiledMeta(meta, [2, 2, 2], 4)
        assert cm.cross_edge_indices(0).size == 3
        assert cm.cross_edge_indices(1).size == 1

    def test_gene_in_no_layer_self_loop_only(self):
        ds = build_dataset(n=3, layer_edges=[[(0, 1)]], layer_nodes=[[0, 1]])
        meta = gnn.build_meta_graph(ds)
        assert meta.n_incoming(2) == 0
        cm = gnn._CompiledMeta(meta, [2], 3)
        assert cm.cross_edge_indices(2).size == 0

    def test_edges_built_in_sum_order(self):
        # gene 4 sits in no layer; gene 0 sits in all three
        ds = build_dataset(n=5, layer_edges=[[(0, 1)], [(0, 2), (2, 3)], [(0, 3)]],
                           layer_nodes=[[0, 1], [0, 2, 3], [0, 3]])
        meta = gnn.build_meta_graph(ds)
        assert meta.n_incoming(4) == 0
        cm = gnn._CompiledMeta(meta, [lg.n_nodes for lg in ds.layers], ds.n_genes)
        s = cm.structure
        np.testing.assert_array_equal(s.order, np.arange(s.n_edges))
        for g in range(ds.n_genes):
            into_g = (s.dst == cm.meta_base + g) & (s.src != s.dst)
            np.testing.assert_array_equal(cm.cross_edge_indices(g), np.flatnonzero(into_g))
            assert cm.cross_edge_indices(g).size == meta.incoming[g]
            assert cm.is_cross[cm.cross_edge_indices(g)].all()

    def test_isolated_gene_prediction_uses_own_features_only(self):
        # gene 2 sits in no layer: logit must track x_2 and ignore the rest
        ds = build_dataset(n=3, d=2, layer_edges=[[(0, 1)]], layer_nodes=[[0, 1]])
        cfg = tiny_cfg()
        params = gnn.init_params(cfg, 2, seed=2)
        probs = gnn.forward(params, cfg, ds)

        bumped = ds.features.values.copy()
        bumped[0] += 10.0
        ds2 = dm.MultilayerDataset(
            ds.catalog, ds.layers,
            dm.FeatureMatrix(bumped, ds.features.feature_names), ds.labels,
        )
        probs2 = gnn.forward(params, cfg, ds2)
        assert probs2[2] == probs[2]
        assert probs2[0] != probs[0]


class TestMetaForward:
    def test_identical_genes_identical_meta_rows(self):
        # genes 0 and 1 are symmetric: same features, mirrored neighborhoods
        feats = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
        ds = build_dataset(n=3, d=2, layer_edges=[[(0, 2), (1, 2)]], features=feats)
        cfg = tiny_cfg()
        params = gnn.init_params(cfg, 2, seed=3)
        res = gnn.run_model(params, cfg, gnn.prepare(cfg, ds))
        np.testing.assert_array_equal(res.h_meta.data[0], res.h_meta.data[1])

    def test_single_layer_hand_computed(self):
        # one layer, edge between the two genes; hand-build the star output
        feats = np.array([[1.0, -0.5], [0.25, 2.0]])
        ds = build_dataset(n=2, d=2, layer_edges=[[(0, 1)]], features=feats)
        cfg = gnn.GnnConfig(encoder_layers=1, hidden_dim=2, meta_layers=1, meta_hidden_dim=2)
        params = gnn.init_params(cfg, 2, seed=4)

        res = gnn.run_model(params, cfg, gnn.prepare(cfg, ds))

        norm = np.array([[0.5, 0.5], [0.5, 0.5]])  # dhat = 2 for both nodes
        h = norm @ feats @ params.enc_w[0].data
        p = feats @ params.xproj.data
        expected = ((1.0 / np.sqrt(2.0)) * h + 0.5 * p) @ params.meta_w[0].data
        np.testing.assert_allclose(res.h_meta.data, expected, atol=1e-12)


class TestPredictHead:
    def test_zero_weights_give_half(self):
        cfg = tiny_cfg()
        params = gnn.init_params(cfg, 4, seed=5)
        for t in (params.head_w1, params.head_b1, params.head_w2, params.head_b2):
            t.data = np.zeros_like(t.data)
        probs = gnn.predict(params, np.ones((5, cfg.meta_hidden_dim)))
        np.testing.assert_array_equal(probs, 0.5)

    def test_sigmoid_value(self):
        cfg = gnn.GnnConfig(meta_hidden_dim=1)
        params = gnn.init_params(cfg, 2, seed=6)
        params.head_w1.data = np.zeros((1, 1))
        params.head_b1.data = np.zeros((1, 1))
        params.head_w2.data = np.ones((1, 1))
        params.head_b2.data = np.array([[4.0]])
        probs = gnn.predict(params, np.zeros((1, 1)))
        assert probs[0] == pytest.approx(0.9820, abs=1e-4)

    def test_monotone_in_logit(self):
        cfg = tiny_cfg()
        params = gnn.init_params(cfg, 4, seed=7)
        h = np.ones((1, cfg.meta_hidden_dim))
        p1 = gnn.predict(params, h)[0]
        params.head_b2.data = params.head_b2.data + 1.0
        p2 = gnn.predict(params, h)[0]
        assert p2 > p1


class TestForward:
    def test_deterministic(self):
        ds = build_dataset()
        cfg = tiny_cfg()
        params = gnn.init_params(cfg, ds.features.n_features, seed=8)
        p1 = gnn.forward(params, cfg, ds)
        p2 = gnn.forward(params, cfg, ds)
        assert p1.tobytes() == p2.tobytes()

    @pytest.mark.parametrize("arch", ["gcn", "gat"])
    def test_layer_permutation_invariance_bit_exact(self, arch):
        ds = build_dataset()
        cfg = tiny_cfg(arch=arch)
        params = gnn.init_params(cfg, ds.features.n_features, seed=9)
        probs = gnn.forward(params, cfg, ds)
        flipped = dm.MultilayerDataset(
            ds.catalog, (ds.layers[1], ds.layers[0]), ds.features, ds.labels
        )
        probs_f = gnn.forward(params, cfg, flipped)
        assert probs.tobytes() == probs_f.tobytes()

    def test_dropping_unrelated_layer_preserves_prediction(self):
        # gene 0 lives only in L0; dropping L1 cannot change its output
        ds = build_dataset(
            n=6,
            layer_edges=[[(0, 1), (1, 2)], [(3, 4), (4, 5)]],
            layer_nodes=[[0, 1, 2], [3, 4, 5]],
        )
        cfg = tiny_cfg()
        params = gnn.init_params(cfg, ds.features.n_features, seed=10)
        full = gnn.forward(params, cfg, ds)
        sub = gnn.forward(params, cfg, ds.subset_layers(["L0"]))
        assert full[0] == sub[0]
        assert full[1] == sub[1]

    def test_feature_outside_receptive_field_is_inert(self):
        # path 0-1-2-3-4-5, 2 encoder hops: gene 5 cannot reach gene 0
        ds = build_dataset(n=6, layer_edges=[[(i, i + 1) for i in range(5)]])
        cfg = tiny_cfg(enc=2)
        params = gnn.init_params(cfg, ds.features.n_features, seed=11)
        base = gnn.forward(params, cfg, ds)

        bumped = ds.features.values.copy()
        bumped[5] += 7.0
        ds2 = dm.MultilayerDataset(
            ds.catalog, ds.layers,
            dm.FeatureMatrix(bumped, ds.features.feature_names), ds.labels,
        )
        far = gnn.forward(params, cfg, ds2)
        assert far[0] == base[0]

        bumped2 = ds.features.values.copy()
        bumped2[2] += 7.0
        ds3 = dm.MultilayerDataset(
            ds.catalog, ds.layers,
            dm.FeatureMatrix(bumped2, ds.features.feature_names), ds.labels,
        )
        near = gnn.forward(params, cfg, ds3)
        assert near[0] != base[0]

    def test_config_validation(self):
        with pytest.raises(Exception):
            gnn.GnnConfig(arch="transformer").validate()
        with pytest.raises(Exception):
            gnn.GnnConfig(encoder_layers=0).validate()


class TestStackedMetaLayers:
    @pytest.mark.parametrize("arch", ["gcn", "gat"])
    def test_two_meta_layers_run_and_matter(self, arch):
        ds = build_dataset()
        cfg1 = gnn.GnnConfig(arch=arch, encoder_layers=2, hidden_dim=4,
                             meta_layers=1, meta_hidden_dim=4)
        cfg2 = gnn.GnnConfig(arch=arch, encoder_layers=2, hidden_dim=4,
                             meta_layers=2, meta_hidden_dim=4)
        p2 = gnn.init_params(cfg2, ds.features.n_features, seed=12)
        probs2 = gnn.forward(p2, cfg2, ds)
        assert np.isfinite(probs2).all()
        p1 = gnn.init_params(cfg1, ds.features.n_features, seed=12)
        assert gnn.forward(p1, cfg1, ds).tobytes() != probs2.tobytes()

    def test_two_meta_layers_gradients(self):
        from oracles import fd_grad, grad_err

        ds = build_dataset(n=4, d=2, layer_edges=[[(0, 1), (2, 3)], [(0, 2)]])
        cfg = gnn.GnnConfig(encoder_layers=1, hidden_dim=3, meta_layers=2,
                            meta_hidden_dim=3)
        params = gnn.init_params(cfg, 2, seed=13)
        # zero-initialized biases can park a relu exactly on its kink (dead
        # meta rows), where subgradient and central differences differ by
        # convention; nudge away before probing
        params.head_b1.data = params.head_b1.data + 0.05
        params.head_b2.data = params.head_b2.data + 0.05
        prep = gnn.prepare(cfg, ds)
        targets = np.array([1.0, 0.0, 1.0, 0.0])

        def loss_fn():
            res = gnn.run_model(params, cfg, prep)
            return ad.cross_entropy_logits(res.logits, targets)

        grads = ad.backward(loss_fn(), params.tensors())
        for name, tensor in params.named():
            def f(v, _t=tensor):
                old = _t.data
                _t.data = v
                try:
                    return loss_fn().data[0, 0]
                finally:
                    _t.data = old

            assert grad_err(grads[tensor], fd_grad(f, tensor.data)) < 1e-4, name


class TestOneMessagePassingPath:
    @pytest.mark.parametrize("arch", ["gcn", "gat"])
    @pytest.mark.parametrize("meta_layers", [1, 2])
    def test_all_ones_multipliers_bit_identical(self, arch, meta_layers):
        ds = build_dataset()
        cfg = gnn.GnnConfig(arch=arch, encoder_layers=2, hidden_dim=4,
                            meta_layers=meta_layers, meta_hidden_dim=4)
        params = gnn.init_params(cfg, ds.features.n_features, seed=14)
        prep = gnn.prepare(cfg, ds)
        plain = gnn.run_model(params, cfg, prep).logits.data
        ones = gnn.run_model(
            params, cfg, prep,
            meta_multiplier=ad.variable(np.ones((prep.compiled_meta.structure.n_edges, 1))),
            layer_multipliers={
                name: ad.constant(np.ones((s.n_edges, 1)))
                for name, s in zip(prep.layer_names, prep.structures)
            },
        ).logits.data
        assert ones.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("arch", ["gcn", "gat"])
    def test_prepare_builds_one_structure_per_graph(self, arch, monkeypatch):
        built = []
        original = ad.EdgeStructure

        def counted(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(ad, "EdgeStructure", counted)
        ds = build_dataset(layer_edges=[[(0, 1)], [(1, 2)], [(2, 3)]])
        gnn.prepare(tiny_cfg(arch=arch), ds)
        assert len(built) == ds.n_layers + 1


class TestFeatureGrad:
    @pytest.mark.parametrize("arch", ["gcn", "gat"])
    @pytest.mark.parametrize("meta_layers", [1, 2])
    def test_constant_features_bit_identical(self, arch, meta_layers):
        ds = build_dataset()
        cfg = gnn.GnnConfig(arch=arch, encoder_layers=2, hidden_dim=4,
                            meta_layers=meta_layers, meta_hidden_dim=4)
        params = gnn.init_params(cfg, ds.features.n_features, seed=5)
        prep = gnn.prepare(cfg, ds)

        def run(**kwargs):
            res = gnn.run_model(params, cfg, prep, **kwargs)
            grads = ad.backward(ad.row_gather(res.logits, [1]), params.tensors())
            return res, [grads[t].tobytes() for t in params.tensors()]

        plain, plain_grads = run(features=ds.features.values)
        const, const_grads = run()
        assert const.logits.data.tobytes() == plain.logits.data.tobytes()
        assert const_grads == plain_grads
        assert plain.x.grad is not None
        assert const.x.grad is None

    @pytest.mark.parametrize("encoder_layers", [1, 2])
    @pytest.mark.parametrize("meta_layers", [1, 2])
    def test_gcn_epoch_skips_first_layer_sums(self, encoder_layers, meta_layers, monkeypatch):
        from multilayer_gnn import training as tr

        ds = build_dataset(layer_edges=[[(0, 1)], [(1, 2)], [(2, 3), (4, 5)]])
        cfg = gnn.GnnConfig(encoder_layers=encoder_layers, hidden_dim=3,
                            meta_layers=meta_layers, meta_hidden_dim=3)
        split = tr.SplitSpec("L0", test_ids=(2, 3), train_ids=(0, 1), val_ids=(), seed=0)
        calls, at_loss = [], []
        original = ad.spmm

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ad, "spmm", counted)
        tr.train(cfg, ds, split, epochs=3, seed=0,
                 loss_ids_observer=lambda epoch, ids: at_loss.append(len(calls)))
        per_epoch = np.diff(at_loss)
        assert per_epoch.tolist() == [ds.n_layers * (encoder_layers - 1) + meta_layers] * 2


class TestInferenceKeepsNoTape:
    @pytest.mark.parametrize("arch", ["gcn", "gat"])
    def test_forward_runs_on_constants(self, arch, monkeypatch):
        ds = build_dataset()
        cfg = tiny_cfg(arch=arch)
        params = gnn.init_params(cfg, ds.features.n_features, seed=4)
        assert all(t.needs_grad for t in params.tensors())
        taped = gnn.run_model(params, cfg, gnn.prepare(cfg, ds))
        seen, original = [], gnn.run_model

        def spy(weights, *args, **kwargs):
            seen.append([name for name, t in weights.named() if t.needs_grad])
            return original(weights, *args, **kwargs)

        monkeypatch.setattr(gnn, "run_model", spy)
        probs = gnn.forward(params, cfg, ds)
        assert seen == [[]]
        assert probs.tobytes() == ad.sigmoid(taped.logits.data[:, 0]).tobytes()

    def test_train_scores_the_test_set_on_constants(self, monkeypatch):
        from multilayer_gnn import training as tr

        ds = build_dataset()
        split = tr.SplitSpec("L0", test_ids=(2, 3), train_ids=(0, 1), val_ids=(), seed=0)
        seen, original = [], tr.run_model

        def spy(weights, *args, **kwargs):
            seen.append(any(t.needs_grad for t in weights.tensors()))
            return original(weights, *args, **kwargs)

        monkeypatch.setattr(tr, "run_model", spy)
        tr.train(tiny_cfg(), ds, split, epochs=2, seed=0)
        assert seen == [True, True, False]


class TestPrecomputedStack:
    def test_constants_share_the_parameter_arrays(self):
        params = gnn.init_params(tiny_cfg(arch="gat"), 4, seed=3)
        frozen = params.constants()
        assert [n for n, _ in frozen.named()] == [n for n, _ in params.named()]
        for (_, c), (_, t) in zip(frozen.named(), params.named()):
            assert c.data is t.data
            assert not c.needs_grad

    @pytest.mark.parametrize("arch", ["gcn", "gat"])
    def test_stack_skips_the_encoder_bit_identically(self, arch):
        ds = build_dataset()
        cfg = tiny_cfg(arch=arch)
        params = gnn.init_params(cfg, ds.features.n_features, seed=3)
        prep = gnn.prepare(cfg, ds)
        full = gnn.run_model(params, cfg, prep)
        x, per_layer, stack = gnn.encode(params, cfg, prep)
        staged = gnn.run_model(params, cfg, prep, stack=stack)
        assert staged.logits.data.tobytes() == full.logits.data.tobytes()
        assert staged.x is None and staged.per_layer_h is None
        assert x.data.tobytes() == full.x.data.tobytes()
        assert list(per_layer) == list(full.per_layer_h)

    @pytest.mark.parametrize("given", ["features", "layer_multipliers"])
    def test_stack_with_encoder_inputs_rejected(self, given):
        ds = build_dataset()
        cfg = tiny_cfg()
        params = gnn.init_params(cfg, ds.features.n_features, seed=3)
        prep = gnn.prepare(cfg, ds)
        stack = gnn.encode(params, cfg, prep)[2]
        value = ds.features.values if given == "features" else {}
        with pytest.raises(ValueError, match="precomputed stack"):
            gnn.run_model(params, cfg, prep, stack=stack, **{given: value})


class TestMetaRowSuffix:
    @pytest.mark.parametrize("arch", ["gcn", "gat"])
    @pytest.mark.parametrize("meta_layers", [1, 2])
    def test_last_meta_matmul_rows(self, arch, meta_layers, monkeypatch):
        """GCN runs its last meta matmul on the meta rows alone, GAT on every row."""
        ds = build_dataset()
        cfg = gnn.GnnConfig(arch=arch, encoder_layers=2, hidden_dim=4,
                            meta_layers=meta_layers, meta_hidden_dim=4)
        params = gnn.init_params(cfg, ds.features.n_features, seed=2)
        prep = gnn.prepare(cfg, ds)
        rows, original = {}, ad.matmul

        def spy(a, b, *args):
            rows.setdefault(id(b), []).append(a.rows)
            return original(a, b, *args)

        monkeypatch.setattr(ad, "matmul", spy)
        res = gnn.run_model(params, cfg, prep)
        n_nodes = prep.compiled_meta.n_nodes
        assert rows[id(params.meta_w[-1])] == [ds.n_genes if arch == "gcn" else n_nodes]
        assert [rows[id(w)] for w in params.meta_w[:-1]] == [[n_nodes]] * (meta_layers - 1)
        assert res.h_meta.shape == (ds.n_genes, 4)

    @pytest.mark.parametrize("meta_layers", [1, 2])
    def test_gcn_equals_every_row_then_gather_at_64_wide(self, meta_layers):
        """At the default widths the meta-row pass gives the logits and every
        gradient of the every-row pass followed by a gather, bit for bit."""
        ds = build_dataset(n=50, d=64, layer_edges=[
            [(i, (7 * i + 3) % 50) for i in range(50)],
            [(i, (11 * i + 5) % 50) for i in range(0, 50, 2)],
            [(i, i + 1) for i in range(30)],
        ], labels={i: i % 2 for i in range(20)})
        cfg = gnn.GnnConfig(encoder_layers=2, meta_layers=meta_layers)
        params = gnn.init_params(cfg, ds.features.n_features, seed=7)
        prep = gnn.prepare(cfg, ds)
        cm = prep.compiled_meta
        stack = gnn.encode(params, cfg, prep)[2]
        multiplier = ad.variable(np.linspace(0.5, 1.5, cm.structure.n_edges)[:, None])

        def run(suffix):
            h = gnn._propagate(stack, cm.structure, cm.base_weights, params.meta_w,
                               params.meta_a, cfg, multiplier,
                               first_row=cm.meta_base if suffix else 0)
            if not suffix:
                h = ad.row_gather(h, np.arange(cm.meta_base, cm.n_nodes))
            logits = gnn.head_logits(params, h)
            grads = ad.backward(ad.row_gather(logits, [3]), params.tensors() + [multiplier])
            return [logits.data.tobytes(), grads[multiplier].tobytes()] + [
                grads[t].tobytes() for t in params.tensors()]

        assert run(True) == run(False)

    @pytest.mark.parametrize("meta_layers", [1, 2])
    def test_gat_equals_every_row_then_gather_at_64_wide(self, meta_layers):
        """The GAT twin of the test above: its last meta sum computes only the
        meta rows, and the logits and every gradient match the every-row pass
        followed by a gather, bit for bit."""
        ds = build_dataset(n=50, d=64, layer_edges=[
            [(i, (7 * i + 3) % 50) for i in range(50)],
            [(i, (11 * i + 5) % 50) for i in range(0, 50, 2)],
            [(i, i + 1) for i in range(30)],
        ], labels={i: i % 2 for i in range(20)})
        cfg = gnn.GnnConfig(arch="gat", encoder_layers=2, meta_layers=meta_layers)
        params = gnn.init_params(cfg, ds.features.n_features, seed=7)
        prep = gnn.prepare(cfg, ds)
        cm = prep.compiled_meta
        stack = gnn.encode(params, cfg, prep)[2]
        multiplier = ad.variable(np.linspace(0.5, 1.5, cm.structure.n_edges)[:, None])

        def run(suffix):
            h = gnn._propagate(stack, cm.structure, cm.base_weights, params.meta_w,
                               params.meta_a, cfg, multiplier,
                               first_row=cm.meta_base if suffix else 0)
            if not suffix:
                h = ad.row_gather(h, np.arange(cm.meta_base, cm.n_nodes))
            logits = gnn.head_logits(params, h)
            grads = ad.backward(ad.row_gather(logits, [3]), params.tensors() + [multiplier])
            return [logits.data.tobytes(), grads[multiplier].tobytes()] + [
                grads[t].tobytes() for t in params.tensors()]

        assert run(True) == run(False)
