"""Integrated-gradients attribution tests: exactness, completeness, zeroing."""

import numpy as np
import pytest

from multilayer_gnn import autodiff as ad
from multilayer_gnn import data as dm
from multilayer_gnn import explain as ex
from multilayer_gnn import gnn
from multilayer_gnn import training as tr
from multilayer_gnn.errors import NumericError

from conftest import build_dataset
from oracles import ig_reference


def positive_linear_model(n=3, d=2, seed=0):
    """All-positive weights and features keep every relu active along the
    whole interpolation path, so the logit is linear in the features."""
    rng = np.random.default_rng(seed)
    feats = rng.uniform(0.5, 2.0, size=(n, d))
    ds = build_dataset(n=n, d=d, layer_edges=[[(i, (i + 1) % n) for i in range(n - 1)]],
                       features=feats)
    cfg = gnn.GnnConfig(encoder_layers=1, hidden_dim=3, meta_layers=1, meta_hidden_dim=3)
    params = gnn.init_params(cfg, d, seed=seed)
    for _, t in params.named():
        t.data = np.abs(t.data) + 0.05
    return ds, cfg, params


def logit_of(params, cfg, ds, gene, features=None):
    prep = gnn.prepare(cfg, ds)
    res = gnn.run_model(params, cfg, prep, features=features)
    return float(res.logits.data[gene, 0])


class TestNodeFeatureIG:
    def test_linear_model_exact_at_any_step_count(self):
        ds, cfg, params = positive_linear_model()
        x = ds.features.values

        # constant gradient: attribution must equal x * dlogit/dx exactly
        prep = gnn.prepare(cfg, ds)
        res = gnn.run_model(params, cfg, prep, features=x)
        ad.backward(ad.row_gather(res.logits, [0]))
        expected = x * res.x.grad

        for steps in (1, 4, 64):
            attr = ex.ig_node_features(params, cfg, ds, gene=0, steps=steps)
            np.testing.assert_allclose(attr.matrix, expected, atol=1e-12)

    def test_zero_input_gives_zero_attribution(self):
        ds, cfg, params = positive_linear_model()
        zero = dm.MultilayerDataset(
            ds.catalog, ds.layers,
            dm.FeatureMatrix(np.zeros_like(ds.features.values), ds.features.feature_names),
            ds.labels,
        )
        attr = ex.ig_node_features(params, cfg, zero, gene=1, steps=8)
        assert (attr.matrix == 0.0).all()

    def test_receptive_field_rows_exactly_zero(self):
        # path 0-1-2-3-4-5 with 2 encoder hops: genes 3..5 are out of reach of 0
        ds = build_dataset(n=6, layer_edges=[[(i, i + 1) for i in range(5)]])
        cfg = gnn.GnnConfig(encoder_layers=2, hidden_dim=4, meta_hidden_dim=4)
        params = gnn.init_params(cfg, ds.features.n_features, seed=1)
        attr = ex.ig_node_features(params, cfg, ds, gene=0, steps=16)
        assert (attr.matrix[3:] == 0.0).all()
        assert np.abs(attr.matrix[:3]).sum() > 0

    def test_meta_row_is_target_row(self):
        ds, cfg, params = positive_linear_model()
        attr = ex.ig_node_features(params, cfg, ds, gene=2, steps=4)
        np.testing.assert_array_equal(attr.meta_row, attr.matrix[2])

    def test_deterministic(self):
        ds, cfg, params = positive_linear_model(seed=3)
        a = ex.ig_node_features(params, cfg, ds, gene=0, steps=8)
        b = ex.ig_node_features(params, cfg, ds, gene=0, steps=8)
        assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_nan_params_rejected(self):
        ds, cfg, params = positive_linear_model()
        params.head_w2.data = params.head_w2.data.copy()
        params.head_w2.data[0, 0] = np.nan
        with pytest.raises(NumericError):
            ex.ig_node_features(params, cfg, ds, gene=0)

    def test_bad_gene_rejected(self):
        ds, cfg, params = positive_linear_model()
        with pytest.raises(ValueError):
            ex.ig_node_features(params, cfg, ds, gene=99)


def trained_toy(seed=0, epochs=300):
    rng = np.random.default_rng(seed)
    n = 24
    labels = {i: int(i < n // 2) for i in range(n)}
    feats = rng.standard_normal((n, 3)) * 0.5
    feats[: n // 2, 0] += 1.5
    feats[n // 2:, 0] -= 1.5
    edges = [(i, (i + 3) % n) for i in range(n)]
    ds = build_dataset(n=n, d=3, layer_edges=[edges, [(i, (i + 5) % n) for i in range(n)]],
                       features=feats, labels=labels)
    cfg = gnn.GnnConfig(encoder_layers=3, hidden_dim=8, meta_hidden_dim=8)
    split = tr.stratified_split(ds.labels, ds, "L0", seed=seed)
    params, _ = tr.train(cfg, ds, split, epochs=epochs, seed=seed)
    return ds, cfg, params


class TestCompleteness:
    def test_sum_matches_logit_difference(self):
        # The path integrand of a relu model is piecewise linear, so a single
        # gene's midpoint error oscillates with kink placement; the mean over
        # all genes tracks the discretization rate cleanly.
        ds, cfg, params = trained_toy()
        prep = gnn.prepare(cfg, ds)
        genes = list(range(ds.n_genes))
        zeros = np.zeros_like(ds.features.values)
        f_x = gnn.run_model(params, cfg, prep).logits.data[:, 0].copy()
        f_base = gnn.run_model(params, cfg, prep, features=zeros).logits.data[:, 0].copy()
        spans = f_x - f_base

        mean_err = {}
        per_gene_256 = []
        for steps in (16, 32, 64, 128, 256):
            errs = []
            for g in genes:
                attr = ex.ig_node_features(params, cfg, ds, g, steps=steps, prep=prep)
                errs.append(abs(attr.matrix.sum() - spans[g]) / abs(spans[g]))
            mean_err[steps] = float(np.mean(errs))
            if steps == 256:
                per_gene_256 = errs
        assert max(per_gene_256) <= 0.01
        for lo, hi in ((16, 32), (32, 64), (64, 128), (128, 256)):
            assert mean_err[hi] <= mean_err[lo] * 1.1  # non-increasing within noise


class TestMetaEdgeIG:
    def test_normalization_definition(self):
        m = ex.MetaEdgeAttribution(0, ("A", "B"), np.array([0.5, 0.25]), steps=4)
        np.testing.assert_allclose(m.normalized, [1.0, 0.5])

    def test_signed_normalization_and_clamp(self):
        m = ex.MetaEdgeAttribution(0, ("A", "B"), np.array([-0.8, 0.4]), steps=4)
        np.testing.assert_allclose(m.normalized, [-1.0, 0.5])
        np.testing.assert_allclose(m.normalized_clamped, [0.0, 0.5])

    def test_all_zero_raw(self):
        m = ex.MetaEdgeAttribution(0, ("A",), np.array([0.0]), steps=4)
        np.testing.assert_array_equal(m.normalized, [0.0])

    def test_single_layer_gene_gets_one(self):
        ds, cfg, params = positive_linear_model()
        out = ex.ig_meta_edges(params, cfg, ds, gene=0, steps=8)
        assert out.layer_names == ("L0",)
        assert out.raw[0] > 0  # positive weights push the logit up
        assert out.normalized[0] == 1.0

    def test_duplicate_layers_equal_raw(self):
        edges = [(0, 1), (1, 2)]
        ds = build_dataset(n=3, d=2, layer_edges=[edges, edges])
        cfg = gnn.GnnConfig(encoder_layers=1, hidden_dim=3, meta_hidden_dim=3)
        params = gnn.init_params(cfg, 2, seed=5)
        out = ex.ig_meta_edges(params, cfg, ds, gene=1, steps=8)
        assert out.raw.shape == (2,)
        assert abs(out.raw[0] - out.raw[1]) < 1e-9

    def test_gene_without_layers_flagged_not_error(self):
        ds = build_dataset(n=3, d=2, layer_edges=[[(0, 1)]], layer_nodes=[[0, 1]])
        cfg = gnn.GnnConfig(encoder_layers=1, hidden_dim=3, meta_hidden_dim=3)
        params = gnn.init_params(cfg, 2, seed=6)
        out = ex.ig_meta_edges(params, cfg, ds, gene=2, steps=4)
        assert out.no_incoming
        assert out.raw.size == 0

    def test_global_scope_runs_and_differs(self):
        ds, cfg, params = trained_toy(epochs=40)
        a = ex.ig_meta_edges(params, cfg, ds, gene=1, steps=8, scope="target")
        b = ex.ig_meta_edges(params, cfg, ds, gene=1, steps=8, scope="global")
        assert a.layer_names == b.layer_names
        assert not np.allclose(a.raw, b.raw)

    def test_deterministic(self):
        ds, cfg, params = trained_toy(epochs=30)
        a = ex.ig_meta_edges(params, cfg, ds, gene=4, steps=8)
        b = ex.ig_meta_edges(params, cfg, ds, gene=4, steps=8)
        assert a.raw.tobytes() == b.raw.tobytes()


def three_layer_toy(arch, encoder_layers, meta_layers, seed=2):
    """Eight genes over three networks, one of which misses two genes."""
    ds = build_dataset(
        n=8, d=3, feature_seed=seed,
        layer_edges=[[(i, i + 1) for i in range(7)],
                     [(0, 4), (1, 5), (2, 6), (3, 7), (0, 2)],
                     [(0, 3), (3, 5), (1, 2)]],
        layer_nodes=[list(range(8)), list(range(8)), [0, 1, 2, 3, 5, 6]],
    )
    cfg = gnn.GnnConfig(arch=arch, encoder_layers=encoder_layers, hidden_dim=5,
                        meta_layers=meta_layers, meta_hidden_dim=4)
    return ds, cfg, gnn.init_params(cfg, 3, seed=seed)


ARCH_DEPTHS = pytest.mark.parametrize("arch,encoder_layers,meta_layers", [
    (arch, e, m) for arch in ("gcn", "gat") for e in (1, 2) for m in (1, 2)
])


class TestIgAgainstReference:
    """The IG loops share work across steps, but every attribution must equal
    the plain loop's (variable parameters, a full forward per step) bit for bit."""

    @ARCH_DEPTHS
    def test_node_features_bit_identical(self, arch, encoder_layers, meta_layers):
        ds, cfg, params = three_layer_toy(arch, encoder_layers, meta_layers)
        for gene in (0, 5):
            got = ex.ig_node_features(params, cfg, ds, gene, steps=8).matrix
            want = ig_reference(params, cfg, ds, gene, 8, "features")
            assert got.tobytes() == want.tobytes()

    @ARCH_DEPTHS
    @pytest.mark.parametrize("scope", ["target", "global"])
    def test_meta_edges_bit_identical(self, arch, encoder_layers, meta_layers, scope):
        ds, cfg, params = three_layer_toy(arch, encoder_layers, meta_layers)
        for gene in (0, 5):
            got = ex.ig_meta_edges(params, cfg, ds, gene, steps=8, scope=scope).raw
            want = ig_reference(params, cfg, ds, gene, 8, "meta_edges", scope)
            assert got.size > 1
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("arch", ["gcn", "gat"])
    def test_parameters_get_no_gradient(self, arch):
        ds, cfg, params = three_layer_toy(arch, 2, 2)
        calls = [lambda: ex.ig_node_features(params, cfg, ds, 1, steps=2)]
        calls += [lambda scope=scope: ex.ig_meta_edges(params, cfg, ds, 1, steps=2, scope=scope)
                  for scope in ("target", "global")]
        for call in calls:
            call()
            assert [name for name, t in params.named() if t.grad is not None] == []

    @pytest.mark.parametrize("scope,encodes", [("target", 1), ("global", 4)])
    def test_target_scope_encodes_once_per_call(self, scope, encodes, monkeypatch):
        ds, cfg, params = three_layer_toy("gcn", 2, 1)
        calls = []
        original = gnn.encode

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(gnn, "encode", counted)
        monkeypatch.setattr(ex, "encode", counted)
        ex.ig_meta_edges(params, cfg, ds, 1, steps=4, scope=scope)
        assert len(calls) == encodes


def one_gene_outside_toy():
    """Four genes, one network; gene 3 is in no network, so it has no
    incoming meta edges."""
    ds = build_dataset(n=4, d=2, layer_edges=[[(0, 1), (1, 2)]], layer_nodes=[[0, 1, 2]])
    cfg = gnn.GnnConfig(encoder_layers=1, hidden_dim=3, meta_hidden_dim=3)
    return ds, cfg, gnn.init_params(cfg, 2, seed=4)


IG_CALLS = {
    "features": lambda p, cfg, ds, gene, steps: ex.ig_node_features(p, cfg, ds, gene, steps),
    "target": lambda p, cfg, ds, gene, steps: ex.ig_meta_edges(p, cfg, ds, gene, steps),
    "global": lambda p, cfg, ds, gene, steps: ex.ig_meta_edges(p, cfg, ds, gene, steps,
                                                               scope="global"),
}


class TestIgContracts:
    """Each IG step is one call of the module's ``run_model`` binding, which
    step timers wrap; a non-finite parameter is named by the tape's check."""

    @pytest.fixture
    def run_model_calls(self, monkeypatch):
        calls = []
        original = ex.run_model

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(ex, "run_model", counted)
        return calls

    @pytest.mark.parametrize("mode", sorted(IG_CALLS))
    @pytest.mark.parametrize("steps", [1, 5])
    def test_one_run_model_call_per_step(self, run_model_calls, mode, steps):
        ds, cfg, params = three_layer_toy("gcn", 2, 1)
        IG_CALLS[mode](params, cfg, ds, 1, steps)
        assert len(run_model_calls) == steps

    def test_logit_spans_runs_the_model_twice(self, run_model_calls):
        ds, cfg, params = three_layer_toy("gcn", 2, 1)
        ex.logit_spans(params, cfg, gnn.prepare(cfg, ds))
        assert len(run_model_calls) == 2

    @pytest.mark.parametrize("name", ["enc0.w", "xproj.w", "meta0.w", "head.w2"])
    @pytest.mark.parametrize("call", ["features", "target", "global", "no-incoming",
                                      "logit_spans"])
    def test_nan_parameter_named(self, name, call):
        ds, cfg, params = one_gene_outside_toy()
        tensor = dict(params.named())[name]
        tensor.data = tensor.data.copy()
        tensor.data[0, 0] = np.nan
        with pytest.raises(NumericError, match=f"non-finite values produced by {name}$"):
            if call == "logit_spans":
                ex.logit_spans(params, cfg, gnn.prepare(cfg, ds))
            elif call == "no-incoming":
                ex.ig_meta_edges(params, cfg, ds, 3, steps=2)
            else:
                IG_CALLS[call](params, cfg, ds, 1, 2)


class TestNeighborImportance:
    def test_row_max(self):
        attr = ex.AttributionMatrix(0, np.array([[0.2, -0.5, 0.1], [0.0, 0.0, 0.0]]), "zero", 4)
        ranked = ex.neighbor_importance(attr)
        assert ranked == [(0, pytest.approx(0.2))]

    def test_zero_rows_dropped_and_sorted(self):
        attr = ex.AttributionMatrix(
            0, np.array([[0.3, 0.0], [0.7, 0.1], [0.0, 0.0]]), "zero", 4
        )
        ranked = ex.neighbor_importance(attr)
        assert [g for g, _ in ranked] == [1, 0]

    def test_tie_broken_by_gene_id(self):
        attr = ex.AttributionMatrix(0, np.array([[0.5], [0.5]]), "zero", 4)
        ranked = ex.neighbor_importance(attr)
        assert [g for g, _ in ranked] == [0, 1]


class TestReport:
    def test_report_structure(self):
        ds, cfg, params = positive_linear_model()
        attr = ex.ig_node_features(params, cfg, ds, gene=0, steps=4)
        medge = ex.ig_meta_edges(params, cfg, ds, gene=0, steps=4)
        rep = ex.attribution_report(ds, attr, medge)
        assert rep["gene"] == "G0"
        assert "default" in rep["meta_node_feature_attributions"]
        assert set(rep["meta_edges"]) == {"L0"}
        assert rep["meta_edges"]["L0"]["normalized"] == 1.0
