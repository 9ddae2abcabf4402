"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (loops, dense algebra, explicit curve
enumeration) and shares no code with the package under test.
"""

import numpy as np
from scipy import sparse as sp


def fd_grad(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at matrix x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return g


def grad_err(g_ad, g_fd):
    """Max elementwise error, relative for large entries, absolute for small."""
    g_ad = np.asarray(g_ad, dtype=np.float64)
    g_fd = np.asarray(g_fd, dtype=np.float64)
    denom = np.maximum(1.0, np.abs(g_fd))
    return float(np.max(np.abs(g_ad - g_fd) / denom))


def dense_gcn(h, edges, w, n):
    """Dense D^-1/2 (A+I) D^-1/2 H W with degree-plus-one normalization."""
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    a += np.eye(n)
    dhat = 1.0 + np.array([sum(1 for x, y in edges if u in (x, y)) for u in range(n)])
    dinv = 1.0 / np.sqrt(dhat)
    norm = dinv[:, None] * a * dinv[None, :]
    return norm @ h @ w


def dense_gat(h, edges, w, a_vec, slope, n):
    """Direct per-edge evaluation of single-head attention aggregation.

    For node u: scores over N(u) and u itself from
    leaky_relu(a^T [W h_u || W h_v]), softmax, then sum of alpha * W h_v.
    """
    wh = h @ w
    d = wh.shape[1]
    a_dst = a_vec[:d].reshape(-1)
    a_src = a_vec[d:].reshape(-1)
    neigh = {u: {u} for u in range(n)}
    for u, v in edges:
        neigh[u].add(v)
        neigh[v].add(u)
    out = np.zeros_like(wh)
    for u in range(n):
        vs = sorted(neigh[u])
        scores = []
        for v in vs:
            s = float(a_dst @ wh[u] + a_src @ wh[v])
            scores.append(s if s > 0 else slope * s)
        scores = np.array(scores)
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        for av, v in zip(alpha, vs):
            out[u] += av * wh[v]
    return out


def average_precision_curve(scores, labels):
    """AP by explicit precision-recall curve enumeration.

    Ranks by descending score with ties broken by ascending position, walks
    the curve, and sums precision-at-rank over positives divided by the
    number of positives. Mirrors the canonical ordering exactly.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n = scores.size
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    n_pos = int(np.sum(labels == 1))
    if n_pos == 0:
        raise ValueError("no positives")
    tp = 0
    acc = 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            tp += 1
            acc += tp / rank
    return acc / n_pos


def gsea_running_sum(ranked_genes, ranked_scores, member_set, p=1.0):
    """Weighted Kolmogorov-Smirnov running sum, plain loop.

    Hits climb by |score|^p over the total hit weight; misses fall by
    1/(n - n_hits). Returns (es, running_sums).
    """
    n = len(ranked_genes)
    hits = [g in member_set for g in ranked_genes]
    n_hits = sum(hits)
    if n_hits == 0:
        raise ValueError("no members in list")
    weights = [abs(s) ** p for s in ranked_scores]
    total_hit_weight = 0.0
    for h, wt in zip(hits, weights):
        if h:
            total_hit_weight += wt
    running = []
    cur = 0.0
    miss_step = 1.0 / (n - n_hits) if n > n_hits else 0.0
    for h, wt in zip(hits, weights):
        if h:
            if total_hit_weight > 0:
                cur += wt / total_hit_weight
            else:
                cur += 1.0 / n_hits
        else:
            cur -= miss_step
        running.append(cur)
    hi = max(running)
    lo = min(running)
    es = hi if hi >= -lo else lo
    return es, running


class ScanUnattainable(Exception):
    """No threshold reaches the target; ``best`` is the best precision seen."""

    def __init__(self, best):
        super().__init__(best)
        self.best = best


def select_threshold_scan(scores, labels, precision_target):
    """Discovery threshold by rescanning every score once per unique score.

    Returns the smallest observed score t whose at-or-above set has
    precision >= target; raises ScanUnattainable with the best precision
    over all candidates when none does.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    best = 0.0
    chosen = None
    for t in np.unique(scores):  # ascending candidate thresholds
        sel = scores >= t
        prec = float(labels[sel].sum() / sel.sum())
        best = max(best, prec)
        if prec >= precision_target and chosen is None:
            chosen = float(t)
    if chosen is None:
        raise ScanUnattainable(best)
    return chosen


def edge_structure_fields(n_dst, n_src, dst, src):
    """Every array an EdgeStructure derives from its edge list, built with
    lexsort and unique the way the original constructor did."""
    dst = np.asarray(dst, dtype=np.intp)
    src = np.asarray(src, dtype=np.intp)
    order = np.lexsort((src, dst))
    dst, src = dst[order], src[order]
    row_ids, row_starts, counts = np.unique(dst, return_index=True, return_counts=True)
    perm_by_src = np.lexsort((dst, src))
    col_ids, col_starts = np.unique(src[perm_by_src], return_index=True)
    indptr = np.zeros(n_dst + 1, dtype=np.int64)
    np.add.at(indptr, dst + 1, 1)
    indptr_t = np.zeros(n_src + 1, dtype=np.int64)
    np.add.at(indptr_t, src + 1, 1)
    mat = sp.csr_matrix(
        (np.zeros(dst.size), src.astype(np.int64), np.cumsum(indptr)), shape=(n_dst, n_src)
    )
    mat_t = sp.csr_matrix(
        (np.zeros(dst.size), dst[perm_by_src].astype(np.int64), np.cumsum(indptr_t)),
        shape=(n_src, n_dst),
    )
    return {
        "order": order, "dst": dst, "src": src,
        "_row_ids": row_ids, "_row_starts": row_starts,
        "_edge_seg": np.repeat(np.arange(row_ids.size), counts),
        "_perm_by_src": perm_by_src, "_col_ids": col_ids, "_col_starts": col_starts,
        "_mat.indices": mat.indices, "_mat.indptr": mat.indptr,
        "_mat_t.indices": mat_t.indices, "_mat_t.indptr": mat_t.indptr,
    }
