"""Reverse-mode automatic differentiation over dense matrices and sparse graphs.

The engine is deliberately small: 2-D float64 tensors, a fixed set of ops
covering graph message passing, and a closure-based tape. Edge weights of a
sparse adjacency are first-class differentiable quantities so that gradients
with respect to individual edges are available, not just node features.

Summation orders are fixed (edges sorted by destination then source; segment
sums run left to right), so repeated evaluation of the same graph is
bit-identical.

Whether a tensor needs a gradient is fixed when it is built: a leaf needs one
when it is a variable, an op output when any of its inputs does. An op over
constants is itself a constant that keeps no tape, so ``backward`` computes
gradients only along paths that lead to a variable.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from .errors import NumericError

__all__ = [
    "Tensor",
    "EdgeStructure",
    "SparseWeighted",
    "constant",
    "variable",
    "matmul",
    "add",
    "add_bias",
    "scale",
    "mul",
    "relu",
    "leaky_relu",
    "row_gather",
    "concat_rows",
    "spmm",
    "neighbor_softmax",
    "cross_entropy_logits",
    "backward",
    "sigmoid",
]


def _as_matrix(data) -> np.ndarray:
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"tensors are 2-D matrices, got shape {arr.shape}")
    return arr


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by {what}")


class Tensor:
    """A 2-D float64 matrix participating in reverse-mode differentiation.

    ``grad`` is ``None`` until :func:`backward` reaches the node; tensors
    with ``needs_grad`` False (constants, and ops over constants only) never
    receive gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "needs_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, name=None, _parents=(), _backward=None):
        self.data = _as_matrix(data)
        _check_finite(self.data, name or "tensor construction")
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.needs_grad = self.requires_grad or any(p.needs_grad for p in _parents)
        self.name = name
        # a tensor that needs no gradient is a constant: it keeps no tape
        self._parents = tuple(_parents) if self.needs_grad else ()
        self._backward = _backward if self.needs_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    def __repr__(self):
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"


def constant(data, name=None) -> Tensor:
    return Tensor(data, requires_grad=False, name=name)


def variable(data, name=None) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def _accum(t: Tensor, g: np.ndarray) -> None:
    # Gradients are rebound, never mutated in place, so sharing is safe.
    if not t.needs_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _op(data, parents, backward_fn, name) -> Tensor:
    return Tensor(data, _parents=parents, _backward=backward_fn, name=name)


def _padded(arr: np.ndarray, first_row: int) -> np.ndarray:
    """``arr`` below ``first_row`` zero rows (``arr`` itself when there are none)."""
    if not first_row:
        return arr
    out = np.zeros((first_row + arr.shape[0], arr.shape[1]))
    out[first_row:] = arr
    return out


# ---------------------------------------------------------------------------
# dense ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor, first_row: int = 0) -> Tensor:
    """``a @ b``.

    With ``first_row`` k, ``a`` holds rows ``k:`` of a taller operand whose
    first k rows nothing reads. ``b``'s gradient is then ``a.T @ g`` with both
    zero-padded back to ``k + a.rows`` rows: BLAS may order a shorter sum
    differently, and so change its bits, while the padded one sums the same
    nonzero terms as the product over every row.
    """
    if a.cols != b.rows:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def backward_fn(out):
        g = out.grad
        if a.needs_grad:
            _accum(a, g @ b.data.T)
        if b.needs_grad:
            _accum(b, _padded(a.data, first_row).T @ _padded(g, first_row))

    out = _op(out_data, (a, b), backward_fn, "matmul")
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out_data = a.data + b.data

    def backward_fn(out):
        _accum(a, out.grad)
        _accum(b, out.grad)

    return _op(out_data, (a, b), backward_fn, "add")


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a 1 x d bias row to every row of ``x`` (the one sanctioned broadcast)."""
    if bias.shape != (1, x.cols):
        raise ValueError(f"bias shape {bias.shape} does not match columns of {x.shape}")
    out_data = x.data + bias.data

    def backward_fn(out):
        _accum(x, out.grad)
        if bias.needs_grad:
            _accum(bias, out.grad.sum(axis=0, keepdims=True))

    return _op(out_data, (x, bias), backward_fn, "add_bias")


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = x.data * c

    def backward_fn(out):
        _accum(x, out.grad * c)

    return _op(out_data, (x,), backward_fn, "scale")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    out_data = a.data * b.data

    def backward_fn(out):
        if a.needs_grad:
            _accum(a, out.grad * b.data)
        if b.needs_grad:
            _accum(b, out.grad * a.data)

    return _op(out_data, (a, b), backward_fn, "mul")


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0  # subgradient at 0 is 0
    out_data = np.where(mask, x.data, 0.0)

    def backward_fn(out):
        _accum(x, out.grad * mask)

    return _op(out_data, (x,), backward_fn, "relu")


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    slope = float(slope)
    mask = x.data > 0.0
    out_data = np.where(mask, x.data, x.data * slope)

    def backward_fn(out):
        _accum(x, out.grad * np.where(mask, 1.0, slope))

    return _op(out_data, (x,), backward_fn, "leaky_relu")


def row_gather(x: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1:
        raise ValueError("row ids must be a 1-D sequence")
    if ids.size and (ids.min() < 0 or ids.max() >= x.rows):
        raise ValueError(f"row id out of range for {x.rows} rows")
    out_data = x.data[ids]

    def backward_fn(out):
        if x.needs_grad:
            gx = np.zeros_like(x.data)
            if (ids[1:] > ids[:-1]).all():  # ascending ids: no repeats, same sums as add.at
                gx[ids] += out.grad
            else:
                np.add.at(gx, ids, out.grad)
            _accum(x, gx)

    return _op(out_data, (x,), backward_fn, "row_gather")


def concat_rows(tensors) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat_rows needs at least one tensor")
    cols = tensors[0].cols
    for t in tensors:
        if t.cols != cols:
            raise ValueError("concat_rows column mismatch")
    out_data = np.concatenate([t.data for t in tensors], axis=0)
    offsets = np.cumsum([0] + [t.rows for t in tensors])

    def backward_fn(out):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            _accum(t, out.grad[lo:hi])

    return _op(out_data, tuple(tensors), backward_fn, "concat_rows")


# ---------------------------------------------------------------------------
# sparse graph ops
# ---------------------------------------------------------------------------

class EdgeStructure:
    """Immutable directed edge set between ``n_src`` and ``n_dst`` node sets.

    Edges are stored sorted by (dst, src); this fixed order is the summation
    order of every segment reduction, which is what makes message passing
    deterministic. Rows without incoming edges simply produce zero rows.
    ``_mat`` is the CSR index layout of that order (its data is never read or
    written): every :func:`spmm` builds its matrix from these index arrays and
    the weights it is given.
    """

    __slots__ = ("n_dst", "n_src", "dst", "src", "n_edges", "order",
                 "_row_starts", "_edge_seg", "_mat")

    def __init__(self, n_dst, n_src, dst, src):
        dst = np.asarray(dst, dtype=np.intp)
        src = np.asarray(src, dtype=np.intp)
        if dst.shape != src.shape or dst.ndim != 1:
            raise ValueError("dst and src must be 1-D arrays of equal length")
        if dst.size:
            if dst.min() < 0 or dst.max() >= n_dst:
                raise ValueError("destination id out of range")
            if src.min() < 0 or src.max() >= n_src:
                raise ValueError("source id out of range")
        self.n_dst = int(n_dst)
        self.n_src = int(n_src)
        self.n_edges = int(dst.size)
        # a stable sort on an int64 key that orders edges like the (dst, src)
        # pair keeps duplicate edges in input order
        order = np.argsort(dst.astype(np.int64) * self.n_src + src, kind="stable")
        self.dst = dst[order]
        self.src = src[order]
        self.order = order  # arr[order] reorders caller-side arrays to match

        counts = np.bincount(self.dst, minlength=self.n_dst)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        row_ids = np.flatnonzero(counts)
        self._row_starts = indptr[row_ids]
        self._edge_seg = np.repeat(np.arange(row_ids.size), counts[row_ids])
        self._mat = sp.csr_matrix(
            (np.zeros(self.n_edges), self.src.astype(np.int64), indptr),
            shape=(self.n_dst, self.n_src),
        )


class SparseWeighted:
    """An :class:`EdgeStructure` paired with one weight per edge.

    The weight vector is an (E, 1) tensor, so it can be a constant (a
    degree-normalized adjacency), a tape intermediate (attention scores), or
    a differentiable variable (edge attribution targets).
    """

    __slots__ = ("structure", "weights")

    def __init__(self, structure: EdgeStructure, weights: Tensor):
        if weights.shape != (structure.n_edges, 1):
            raise ValueError(
                f"weights shape {weights.shape} does not match {structure.n_edges} edges"
            )
        self.structure = structure
        self.weights = weights


def spmm(adj: SparseWeighted, h: Tensor, first_row: int = 0) -> Tensor:
    """Weighted neighborhood sum: out[u] = sum over edges (u <- v) of w_uv * h[v],
    for the destination rows ``u >= first_row``.

    The CSR matrix is built per call over the structure's index arrays and a
    view of the weights, so no weight or column index is copied and no buffer
    is shared. With ``first_row`` it is the contiguous suffix of those arrays
    holding the edges into rows ``first_row:``. Each output row accumulates in ascending
    source order (CSR storage order), so it equals that row of the full sum
    bit for bit. The feature gradient runs the transpose over the same
    arrays, so each of its rows accumulates in ascending destination order,
    duplicate edges in input order; the edge-weight gradient is zero on the
    edges into rows before ``first_row``. Evaluation is deterministic either
    way.
    """
    s = adj.structure
    w = adj.weights
    if h.rows != s.n_src:
        raise ValueError(f"spmm shape mismatch: {s.n_src} source nodes vs {h.rows} rows")
    if not 0 <= first_row <= s.n_dst:
        raise ValueError(f"first row {first_row} out of range for {s.n_dst} destinations")
    indptr = s._mat.indptr[first_row:]
    lo = int(indptr[0])  # edges into the skipped rows
    mat = sp.csr_matrix((w.data[lo:, 0], s._mat.indices[lo:], indptr - lo),
                        shape=(s.n_dst - first_row, s.n_src))
    out_data = mat @ h.data

    def backward_fn(out):
        if h.needs_grad:
            _accum(h, mat.T @ out.grad)
        if w.needs_grad:
            g_dst = out.grad[s.dst[lo:] - first_row]
            gw = (g_dst * h.data[s.src[lo:]]).sum(axis=1, keepdims=True)
            _accum(w, _padded(gw, lo))

    return _op(out_data, (w, h), backward_fn, "spmm")


def neighbor_softmax(logits: Tensor, structure: EdgeStructure) -> Tensor:
    """Softmax over each destination's incoming edges, stabilized per group."""
    if logits.shape != (structure.n_edges, 1):
        raise ValueError("logits must be one value per edge")
    if structure.n_edges == 0:
        return _op(np.zeros((0, 1)), (logits,), lambda out: None, "neighbor_softmax")
    z = logits.data[:, 0]
    seg = structure._edge_seg
    group_max = np.maximum.reduceat(z, structure._row_starts)
    e = np.exp(z - group_max[seg])
    denom = np.add.reduceat(e, structure._row_starts)
    alpha = e / denom[seg]
    out_data = alpha[:, None]

    def backward_fn(out):
        g = out.grad[:, 0]
        weighted = alpha * g
        group_dot = np.add.reduceat(weighted, structure._row_starts)
        gz = alpha * (g - group_dot[seg])
        _accum(logits, gz[:, None])

    return _op(out_data, (logits,), backward_fn, "neighbor_softmax")


def cross_entropy_logits(logits: Tensor, targets, pos_weight: float = 1.0) -> Tensor:
    """Mean binary cross-entropy from logits, in overflow-safe log-sum-exp form.

    ``pos_weight`` multiplies the loss (and gradient) of positive targets.
    """
    if logits.cols != 1:
        raise ValueError("logits must be a column vector")
    t = np.asarray(targets, dtype=np.float64).reshape(-1)
    if t.shape[0] != logits.rows:
        raise ValueError("targets length does not match logits")
    if not np.isin(t, (0.0, 1.0)).all():
        raise ValueError("targets must be 0 or 1")
    z = logits.data[:, 0]
    n = z.size
    w = np.where(t == 1.0, float(pos_weight), 1.0)
    per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    out_data = np.array([[float(np.sum(w * per) / n)]])

    def backward_fn(out):
        g = out.grad[0, 0]
        _accum(logits, (g * w * (sigmoid(z) - t) / n)[:, None])

    return _op(out_data, (logits,), backward_fn, "cross_entropy_logits")


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _toposort(root: Tensor):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, variables=None):
    """Reverse accumulation from a scalar ``loss``.

    Returns a gradient map for ``variables`` (zeros for any variable the loss
    does not depend on). All gradients reachable from the loss are also left
    on the tensors' ``grad`` attribute.
    """
    if loss.shape != (1, 1):
        raise ValueError(f"loss must be scalar (1x1), got {loss.shape}")
    order = _toposort(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones((1, 1))
    for node in reversed(order):
        if node.grad is None or node._backward is None:
            continue
        node._backward(node)
    if variables is None:
        return None
    return {
        v: (v.grad if v.grad is not None else np.zeros_like(v.data))
        for v in variables
    }


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (plain numpy, not a tape op)."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
