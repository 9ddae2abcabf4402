"""Threshold, neighborhood, variability, and enrichment tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from multilayer_gnn import analysis as an
from multilayer_gnn import data as dm
from multilayer_gnn import explain as ex
from multilayer_gnn import gnn
from multilayer_gnn.errors import DataError

from conftest import build_dataset
from oracles import ScanUnattainable, gsea_running_sum, select_threshold_scan


class TestSelectThreshold:
    def test_scan_example(self):
        t = an.select_threshold([0.9, 0.8, 0.3], [1, 1, 0], 0.95)
        assert t == 0.8

    def test_perfect_separation_lowest_positive(self):
        t = an.select_threshold([0.9, 0.7, 0.4, 0.2], [1, 1, 0, 0], 0.95)
        assert t == 0.7

    def test_unattainable_reports_best(self):
        # cut at 0.8 keeps both (precision 0.5); cut at 0.9 keeps only the negative
        with pytest.raises(an.ThresholdUnattainableError) as err:
            an.select_threshold([0.9, 0.8], [0, 1], 1.0)
        assert err.value.best == pytest.approx(0.5)

    def test_always_achieves_target_property(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            scores = rng.random(n).round(2)  # encourage ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[int(rng.integers(0, n))] = 1
            target = float(rng.choice([0.5, 0.7, 0.9]))
            try:
                t = an.select_threshold(scores, labels, target)
            except an.ThresholdUnattainableError:
                continue
            sel = scores >= t
            assert labels[sel].sum() / sel.sum() >= target


# few distinct values so that most draws carry tie groups mixing both labels
_TIED_SCORE = st.one_of(
    st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.5000000000000001, 0.9, 1.0]),
    st.floats(0.0, 1.0),
)


@st.composite
def _scored_labels(draw):
    pairs = draw(st.lists(st.tuples(_TIED_SCORE, st.integers(0, 1)), min_size=1, max_size=60))
    scores = np.array([s for s, _ in pairs])
    labels = np.array([y for _, y in pairs])
    if not labels.any():
        labels[draw(st.integers(0, labels.size - 1))] = 1
    return scores, labels


class TestSelectThresholdOracle:
    @settings(max_examples=400, deadline=None)
    @given(_scored_labels(),
           st.one_of(st.sampled_from([0.0, 0.5, 2 / 3, 0.75, 0.95, 1.0]), st.floats(0.0, 1.0)))
    def test_matches_scan(self, data, target):
        scores, labels = data
        try:
            want = select_threshold_scan(scores, labels, target)
        except ScanUnattainable as err:
            with pytest.raises(an.ThresholdUnattainableError) as got:
                an.select_threshold(scores, labels, target)
            assert got.value.best == err.best
            assert got.value.target == target
        else:
            got = an.select_threshold(scores, labels, target)
            assert type(got) is float
            assert got == want


class TestRankedGeneList:
    def test_sorted_desc_then_key(self):
        r = an.RankedGeneList([("b", 0.5), ("a", 0.5), ("c", 0.9)])
        assert r.genes == ["c", "a", "b"]

    def test_duplicate_rejected(self):
        with pytest.raises(DataError):
            an.RankedGeneList([("a", 1.0), ("a", 0.5)])


class TestDiscover:
    def make(self):
        ds = build_dataset(n=6, d=3, labels={0: 1, 1: 0, 2: 1, 3: 0})  # 4, 5 unlabeled
        cfg = gnn.GnnConfig(encoder_layers=1, hidden_dim=3, meta_hidden_dim=3)
        params = gnn.init_params(cfg, 3, seed=0)
        return ds, cfg, params

    def test_impossible_threshold_empty_but_full_list(self):
        ds, cfg, params = self.make()
        out = an.discover_candidates(params, cfg, ds, threshold=1.01)
        assert len(out.candidates) == 0
        assert sorted(out.full_ranking.genes) == ["G4", "G5"]

    def test_zero_threshold_returns_all_unlabeled(self):
        ds, cfg, params = self.make()
        out = an.discover_candidates(params, cfg, ds, threshold=0.0)
        assert sorted(out.candidates.genes) == ["G4", "G5"]


class TestNeighborFraction:
    def make(self):
        # star: gene 0 linked to 1..4; labels: 1 positive among the neighbors
        ds = build_dataset(
            n=5, layer_edges=[[(0, 1), (0, 2), (0, 3), (0, 4)]],
            labels={1: 1, 2: 0, 3: 0, 4: 0},
        )
        return ds

    def test_quarter(self):
        assert an.cancer_neighbor_fraction(self.make(), 0, "L0") == 0.25

    def test_zero_and_one(self):
        ds = build_dataset(n=3, layer_edges=[[(0, 1), (0, 2)]], labels={1: 0, 2: 0})
        assert an.cancer_neighbor_fraction(ds, 0, "L0") == 0.0
        ds2 = build_dataset(n=3, layer_edges=[[(0, 1), (0, 2)]], labels={1: 1, 2: 1})
        assert an.cancer_neighbor_fraction(ds2, 0, "L0") == 1.0

    def test_absent_or_isolated_nan(self):
        ds = build_dataset(n=4, layer_edges=[[(0, 1)]], layer_nodes=[[0, 1, 2]])
        assert math.isnan(an.cancer_neighbor_fraction(ds, 2, "L0"))  # isolated
        assert math.isnan(an.cancer_neighbor_fraction(ds, 3, "L0"))  # absent


class TestVariability:
    def test_constant_vector_flagged(self):
        attr = ex.MetaEdgeAttribution(0, ("A", "B", "C"), np.array([1.0, 1.0, 1.0]), 4)
        recs = an.meta_edge_variability({0: attr}, {0: {"A": 0.1, "B": 0.5, "C": 0.9}})
        assert recs[0].std == 0.0
        assert math.isnan(recs[0].correlation)
        assert recs[0].flag == "constant vector"

    def test_perfect_linear_correlation(self):
        attr = ex.MetaEdgeAttribution(0, ("A", "B", "C"), np.array([0.2, 0.4, 0.6]), 4)
        recs = an.meta_edge_variability({0: attr}, {0: {"A": 0.1, "B": 0.2, "C": 0.3}})
        assert recs[0].correlation == pytest.approx(1.0)

    def test_two_point_anticorrelation(self):
        attr = ex.MetaEdgeAttribution(0, ("A", "B"), np.array([0.0, 1.0]), 4)
        recs = an.meta_edge_variability({0: attr}, {0: {"A": 1.0, "B": 0.0}})
        assert recs[0].correlation == pytest.approx(-1.0)

    def test_single_layer_flagged(self):
        attr = ex.MetaEdgeAttribution(0, ("A",), np.array([1.0]), 4)
        recs = an.meta_edge_variability({0: attr}, {0: {"A": 1.0}})
        assert recs[0].flag == "fewer than 2 layers"

    def test_undefined_fractions_flagged(self):
        attr = ex.MetaEdgeAttribution(0, ("A", "B"), np.array([0.3, 0.9]), 4)
        recs = an.meta_edge_variability({0: attr}, {0: {"A": float("nan"), "B": 0.2}})
        assert math.isnan(recs[0].correlation)
        assert "fewer than 2 defined fractions" == recs[0].flag


def gene_sets(d):
    return dm.GeneSetCollection(d, {k: "" for k in d})


class TestGsea:
    def test_single_top_gene_es_one(self):
        n = 50
        ranked = an.RankedGeneList([(f"g{i:03d}", 1.0) for i in range(n)])
        res = an.gsea_prerank(ranked, gene_sets({"S": ["g000"]}), permutations=0)
        es_oracle, _ = gsea_running_sum(ranked.genes, ranked.scores, {"g000"})
        assert res[0].es == es_oracle == 1.0
        assert res[0].leading_edge == 1

    def test_all_genes_set_es_one(self):
        ranked = an.RankedGeneList([(f"g{i}", float(10 - i)) for i in range(5)])
        res = an.gsea_prerank(ranked, gene_sets({"ALL": [f"g{i}" for i in range(5)]}),
                              permutations=0)
        assert res[0].es == 1.0

    def test_matches_oracle_exactly_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(3, 21))
            genes = [f"g{i:02d}" for i in range(n)]
            scores = rng.standard_normal(n)
            ranked = an.RankedGeneList(zip(genes, scores))
            k = int(rng.integers(1, min(6, n)))
            members = list(rng.choice(genes, size=k, replace=False))
            res = an.gsea_prerank(ranked, gene_sets({"S": members}), permutations=0)
            es_oracle, _ = gsea_running_sum(ranked.genes, ranked.scores, set(members))
            assert res[0].es == es_oracle

    def test_null_pvalues_uniform(self):
        rng = np.random.default_rng(2)
        n = 80
        genes = [f"g{i:02d}" for i in range(n)]
        ranked = an.RankedGeneList(zip(genes, rng.standard_normal(n)))
        sets = {}
        for s in range(200):
            k = int(rng.integers(3, 15))
            sets[f"R{s:03d}"] = list(rng.choice(genes, size=k, replace=False))
        res = an.gsea_prerank(ranked, gene_sets(sets), permutations=200, seed=3)
        pvals = [r.p_value for r in res]
        assert stats.kstest(pvals, "uniform").pvalue > 0.01

    def test_dropped_members_counted(self, caplog):
        ranked = an.RankedGeneList([("a", 1.0), ("b", 0.5)])
        res = an.gsea_prerank(ranked, gene_sets({"S": ["a", "zzz"]}), permutations=0)
        assert res[0].n_members == 1
        assert res[0].n_dropped == 1

    def test_no_usable_sets(self):
        ranked = an.RankedGeneList([("a", 1.0)])
        with pytest.raises(DataError, match="no usable"):
            an.gsea_prerank(ranked, gene_sets({"S": ["zzz"]}), permutations=0)

    def test_permutations_zero_leaves_p_nan(self):
        ranked = an.RankedGeneList([("a", 1.0), ("b", 0.5)])
        res = an.gsea_prerank(ranked, gene_sets({"S": ["a"]}), permutations=0)
        assert math.isnan(res[0].p_value) and math.isnan(res[0].fdr)

    def test_same_seed_identical(self):
        rng = np.random.default_rng(4)
        genes = [f"g{i}" for i in range(30)]
        ranked = an.RankedGeneList(zip(genes, rng.standard_normal(30)))
        sets = gene_sets({"S1": genes[:4], "S2": genes[10:16]})
        r1 = an.gsea_prerank(ranked, sets, permutations=100, seed=9)
        r2 = an.gsea_prerank(ranked, sets, permutations=100, seed=9)
        assert [(r.es, r.p_value, r.fdr) for r in r1] == [(r.es, r.p_value, r.fdr) for r in r2]

    def test_bh_fdr_small_case(self):
        # three p-values 0.01/0.02/0.03 all collapse to q = 0.03
        results = [
            an.EnrichmentResult(f"S{i}", 0.5, p, float("nan"), 1, 1, 0)
            for i, p in enumerate([0.01, 0.02, 0.03])
        ]
        an._apply_bh_fdr(results)
        assert all(r.fdr == pytest.approx(0.03) for r in results)
