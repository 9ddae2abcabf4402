"""Downstream analytics: discovery thresholds, neighborhood statistics, and
preranked gene-set enrichment.

The enrichment test is the weighted Kolmogorov-Smirnov running sum over a
ranked gene list: hits climb by |score|^p over the total hit weight, misses
fall by 1/(n - n_hits), and the enrichment score is the signed extremum.
Significance comes from permuting set membership over the ranked genes;
multiple testing is controlled with Benjamini-Hochberg.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import (GeneSetCollection, LabelSet, MultilayerDataset, POSITIVE, csv_records,
                   subseed, utf8_first)
from .errors import DataError
from .gnn import GnnConfig, ModelParams, forward

logger = logging.getLogger(__name__)


class RankedGeneList:
    """(gene, score) pairs strictly ordered by descending score, ties by
    ascending gene key; duplicate genes are rejected."""

    def __init__(self, pairs):
        pairs = [(g, float(s)) for g, s in pairs]
        genes = [g for g, _ in pairs]
        if len(set(genes)) != len(genes):
            raise DataError("ranked gene list contains duplicate genes")
        self.pairs = sorted(pairs, key=lambda gs: (-gs[1], gs[0]))

    @property
    def genes(self):
        return [g for g, _ in self.pairs]

    @property
    def scores(self):
        return np.array([s for _, s in self.pairs])

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


class ThresholdUnattainableError(DataError):
    def __init__(self, target, best):
        super().__init__(
            f"no threshold reaches precision {target}; best achievable is {best:.4f}"
        )
        self.target = target
        self.best = best


def select_threshold(scores, labels, precision_target: float = 0.95) -> float:
    """Smallest observed score t such that {score >= t} has precision >= target.

    Ties are included: the set at or above a score holds every gene scoring
    that score. One descending sort puts each such set in a prefix that ends
    at its tie group's last position, so one cumulative sum gives the
    precision of every candidate threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be matching 1-D arrays")
    if not (labels == 1).any():
        raise ValueError("threshold selection needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    group_end = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    precision = np.cumsum(labels[order])[group_end] / (group_end + 1)
    reached = ranked[group_end][precision >= precision_target]
    if reached.size == 0:
        raise ThresholdUnattainableError(precision_target, float(precision.max()))
    return float(reached.min())


@dataclass
class DiscoveryResult:
    threshold: float
    candidates: RankedGeneList    # unlabeled genes scoring >= threshold
    full_ranking: RankedGeneList  # every unlabeled gene


def discover_candidates(params: ModelParams, cfg: GnnConfig, dataset: MultilayerDataset,
                        threshold: float = None,
                        precision_target: float = 0.95) -> DiscoveryResult:
    """Rank all unlabeled genes by predicted probability; keep those scoring
    at or above ``threshold``.

    Without a threshold, :func:`select_threshold` picks it from the labeled
    genes' scores of the same forward pass at ``precision_target``.
    """
    probs = forward(params, cfg, dataset)
    if threshold is None:
        labeled = dataset.labels.labeled_ids()
        targets = np.array([dataset.labels.labels[g] for g in labeled])
        threshold = select_threshold(probs[labeled], targets, precision_target)
    names = dataset.catalog.names
    unlabeled = [g for g in range(dataset.n_genes) if dataset.labels.get(g) is None]
    full = RankedGeneList((names[g], probs[g]) for g in unlabeled)
    cands = RankedGeneList((g, s) for g, s in full if s >= threshold)
    return DiscoveryResult(float(threshold), cands, full)


def cancer_neighbor_fraction(dataset: MultilayerDataset, gene_id: int, layer_name: str) -> float:
    """Fraction of a gene's one-hop neighbors (in one layer) that carry a
    positive label. NaN when the gene is absent or isolated there."""
    lg = dataset.layer_by_name(layer_name)
    if not lg.contains(gene_id):
        return float("nan")
    neigh = lg.neighbors(gene_id)
    if neigh.size == 0:
        return float("nan")
    pos = sum(1 for v in neigh if dataset.labels.get(int(v)) == POSITIVE)
    return pos / neigh.size


def neighbor_fraction_table(dataset: MultilayerDataset, gene_ids) -> dict:
    """gene id -> {layer name -> fraction or NaN} over all layers."""
    return {
        int(g): {
            lg.layer_name: cancer_neighbor_fraction(dataset, int(g), lg.layer_name)
            for lg in dataset.layers
        }
        for g in gene_ids
    }


@dataclass
class VariabilityRecord:
    gene_id: int
    std: float
    correlation: float
    n_layers: int
    flag: str = ""


def meta_edge_variability(attributions: dict, fractions: dict) -> list:
    """Per gene: spread of meta-edge attributions across layers, and their
    Pearson correlation with the positive-neighbor fractions.

    ``attributions`` maps gene id -> MetaEdgeAttribution; ``fractions`` maps
    gene id -> {layer name -> fraction}. Genes with fewer than two usable
    layers, or constant vectors, are flagged rather than imputed.
    """
    out = []
    for gene_id, attr in sorted(attributions.items()):
        values = attr.normalized
        names = attr.layer_names
        if len(names) < 2:
            out.append(VariabilityRecord(gene_id, float("nan"), float("nan"),
                                         len(names), "fewer than 2 layers"))
            continue
        std = float(np.std(values, ddof=1))
        frac_map = fractions.get(gene_id, {})
        pairs = [
            (v, frac_map[n]) for v, n in zip(values, names)
            if n in frac_map and math.isfinite(frac_map[n])
        ]
        if len(pairs) < 2:
            out.append(VariabilityRecord(gene_id, std, float("nan"),
                                         len(pairs), "fewer than 2 defined fractions"))
            continue
        a = np.array([p[0] for p in pairs])
        f = np.array([p[1] for p in pairs])
        if np.ptp(a) == 0.0 or np.ptp(f) == 0.0:
            out.append(VariabilityRecord(gene_id, std, float("nan"),
                                         len(pairs), "constant vector"))
            continue
        corr = float(np.corrcoef(a, f)[0, 1])
        out.append(VariabilityRecord(gene_id, std, corr, len(pairs)))
    return out


# ---------------------------------------------------------------------------
# preranked gene-set enrichment
# ---------------------------------------------------------------------------

@dataclass
class EnrichmentResult:
    set_name: str
    es: float
    p_value: float
    fdr: float
    leading_edge: int
    n_members: int        # members found in the ranked list
    n_dropped: int        # members absent from the ranked list
    p_is_floor: bool = False  # no null |ES| reached |es|: p is the 1/(B+1) floor


def _es_from_hits(hit_mask, weights, miss_step):
    """Running-sum enrichment score for one membership assignment."""
    total_hit = float(weights[hit_mask].sum())
    incr = np.where(
        hit_mask,
        (weights / total_hit) if total_hit > 0 else (1.0 / hit_mask.sum()),
        -miss_step,
    )
    running = np.cumsum(incr)
    hi = float(running.max())
    lo = float(running.min())
    es = hi if hi >= -lo else lo
    return es, running


def gsea_prerank(ranked: RankedGeneList, sets: GeneSetCollection,
                 permutations: int = 1000, p: float = 1.0, seed: int = 0) -> list:
    """Enrichment score, permutation p-value, and BH FDR per gene set.

    The null permutes set membership over the ranked genes (same set size);
    the nominal p-value is two-sided on |ES|. ``permutations=0`` yields ES
    only, with p and FDR left as NaN.
    """
    if len(ranked) == 0:
        raise DataError("ranked gene list is empty")
    genes = ranked.genes
    n = len(genes)
    weights = np.abs(ranked.scores) ** p
    gene_pos = {g: i for i, g in enumerate(genes)}

    results = []
    for set_name, members in sets.sets.items():
        member_set = set(members)
        hit_idx = sorted(gene_pos[g] for g in member_set if g in gene_pos)
        n_dropped = len(member_set) - len(hit_idx)
        if n_dropped:
            logger.warning(
                "gene set %r: %d member(s) not in the ranked list", set_name, n_dropped
            )
        if not hit_idx:
            logger.warning("gene set %r skipped: no members in the ranked list", set_name)
            continue
        n_hits = len(hit_idx)
        miss_step = 1.0 / (n - n_hits) if n > n_hits else 0.0
        hit_mask = np.zeros(n, dtype=bool)
        hit_mask[hit_idx] = True
        es, running = _es_from_hits(hit_mask, weights, miss_step)

        if es >= 0:
            peak = int(np.argmax(running))
            leading = int(hit_mask[: peak + 1].sum())
        else:
            trough = int(np.argmin(running))
            leading = int(hit_mask[trough:].sum())

        p_value, floor = float("nan"), False
        if permutations > 0:
            rng = np.random.default_rng(subseed(seed, set_name))
            exceed = 0
            for _ in range(permutations):
                perm_mask = np.zeros(n, dtype=bool)
                perm_mask[rng.choice(n, size=n_hits, replace=False)] = True
                es_null, _ = _es_from_hits(perm_mask, weights, miss_step)
                if abs(es_null) >= abs(es):
                    exceed += 1
            p_value = (1 + exceed) / (permutations + 1)
            floor = exceed == 0
        results.append(EnrichmentResult(
            set_name, es, p_value, float("nan"), leading,
            n_hits, n_dropped, p_is_floor=floor,
        ))

    if not results:
        raise DataError("no usable gene sets (all empty against the ranked list)")
    if permutations > 0:
        _apply_bh_fdr(results)
    return results


def _apply_bh_fdr(results):
    m = len(results)
    order = sorted(range(m), key=lambda i: results[i].p_value)
    q = 1.0
    for rank in range(m, 0, -1):
        i = order[rank - 1]
        q = min(q, results[i].p_value * m / rank)
        results[i].fdr = q


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------

def write_candidates_csv(result: DiscoveryResult, path, header_note: str = ""):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header_note:
            fh.write(f"# {header_note}\n")
        fh.write(f"# threshold={result.threshold!r}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["gene", "probability", "rank"])
        for rank, (gene, score) in enumerate(result.candidates, start=1):
            writer.writerow([gene, repr(score), rank])


def write_ranking_csv(ranked: RankedGeneList, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["gene", "score", "rank"])
        for rank, (gene, score) in enumerate(ranked, start=1):
            writer.writerow([gene, repr(score), rank])


def load_ranking_csv(path) -> RankedGeneList:
    """The ``gene,score`` rows of a ranking CSV; a row whose score is missing,
    not a number or not finite, or whose gene an earlier row named, is a
    DataError naming its line."""
    with open(path, "r", encoding="utf-8", newline="") as fh, utf8_first(path):
        rows = [(line, row) for row, line in csv_records(fh, path, 0)
                if row and not row[0].startswith("#")]
    if not rows or [c.lower() for c in rows[0][1][:2]] != ["gene", "score"]:
        raise DataError("ranking CSV must start with a 'gene,score[,...]' header", path=path)
    scores = {}
    for line, row in rows[1:]:
        if len(row) < 2:
            raise DataError("row has no score", path=path, line=line)
        try:
            score = float(row[1])
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise DataError(f"score must be a finite number, got {row[1]!r}", path=path, line=line)
        if row[0] in scores:
            raise DataError(f"duplicate gene {row[0]!r}", path=path, line=line)
        scores[row[0]] = score
    return RankedGeneList(scores.items())


def write_neighbor_fractions_csv(table: dict, dataset: MultilayerDataset, path):
    layer_names = [lg.layer_name for lg in dataset.layers]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["gene"] + layer_names)
        for gene_id in sorted(table):
            row = [dataset.catalog.names[gene_id]]
            for name in layer_names:
                v = table[gene_id].get(name, float("nan"))
                row.append("" if not math.isfinite(v) else repr(v))
            writer.writerow(row)


def write_variability_csv(records, dataset: MultilayerDataset, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["gene", "std", "correlation", "n_layers", "flag"])
        for r in records:
            writer.writerow([
                dataset.catalog.names[r.gene_id],
                "" if not math.isfinite(r.std) else repr(r.std),
                "" if not math.isfinite(r.correlation) else repr(r.correlation),
                r.n_layers,
                r.flag,
            ])


def write_enrichment_csv(results, path, permutations: int = None):
    ordered = sorted(results, key=lambda r: (r.fdr if math.isfinite(r.fdr) else 2.0, r.set_name))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["set", "es", "p_value", "fdr", "leading_edge", "n_members", "n_dropped"])
        for r in ordered:
            if not math.isfinite(r.p_value):
                p_txt, fdr_txt = "unavailable", "unavailable"
            elif r.p_is_floor and permutations:
                p_txt, fdr_txt = f"<{1.0 / permutations!r}", repr(r.fdr)
            else:
                p_txt, fdr_txt = repr(r.p_value), repr(r.fdr)
            writer.writerow([r.set_name, repr(r.es), p_txt, fdr_txt,
                             r.leading_edge, r.n_members, r.n_dropped])
