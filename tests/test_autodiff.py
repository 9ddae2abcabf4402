"""Gradient and semantics checks for the autodiff engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multilayer_gnn import autodiff as ad
from multilayer_gnn.errors import NumericError

from oracles import edge_structure_fields, fd_grad, grad_err


def scalar_sum(t):
    """Reduce a tensor to the 1x1 scalar sum of its entries (on tape)."""
    ones = ad.constant(np.ones((t.cols, 1)))
    col = ad.matmul(t, ones)
    ones_r = ad.constant(np.ones((1, col.rows)))
    return ad.matmul(ones_r, col)


def random_structure(rng, n, extra_self_loops=True):
    """Random directed edge set over n nodes, each node with >= 1 in-edge."""
    dst, src = [], []
    for u in range(n):
        k = rng.integers(1, n)
        for v in rng.choice(n, size=k, replace=False):
            dst.append(u)
            src.append(int(v))
    return ad.EdgeStructure(n, n, np.array(dst), np.array(src))


class TestMatmul:
    def test_identity(self):
        a = ad.constant([[1.0, 0.0], [0.0, 1.0]])
        b = ad.constant([[3.0], [4.0]])
        out = ad.matmul(a, b)
        np.testing.assert_array_equal(out.data, [[3.0], [4.0]])

    def test_scalar_product_rule(self):
        a = ad.variable([[2.0]])
        b = ad.variable([[5.0]])
        out = ad.matmul(a, b)
        assert out.data[0, 0] == 10.0
        ad.backward(out)
        assert a.grad[0, 0] == 5.0
        assert b.grad[0, 0] == 2.0

    def test_fd_random(self):
        rng = np.random.default_rng(0)
        a0 = rng.standard_normal((3, 4))
        b0 = rng.standard_normal((4, 2))

        def loss_a(x):
            return ad.matmul(ad.constant(x), ad.constant(b0)).data.sum()

        def loss_b(x):
            return ad.matmul(ad.constant(a0), ad.constant(x)).data.sum()

        a = ad.variable(a0)
        b = ad.variable(b0)
        ad.backward(scalar_sum(ad.matmul(a, b)))
        assert grad_err(a.grad, fd_grad(loss_a, a0)) < 1e-6
        assert grad_err(b.grad, fd_grad(loss_b, b0)) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))


@st.composite
def _edge_lists(draw):
    """A node-set size per side and an edge list over them, duplicates allowed."""
    n_dst = draw(st.integers(0, 7))
    n_src = draw(st.integers(0, 7))
    if n_dst == 0 or n_src == 0:
        return n_dst, n_src, [], []
    edges = draw(st.lists(st.tuples(st.integers(0, n_dst - 1), st.integers(0, n_src - 1)),
                          max_size=40))
    return n_dst, n_src, [d for d, _ in edges], [s for _, s in edges]


class TestEdgeStructure:
    @settings(max_examples=300, deadline=None)
    @given(_edge_lists())
    def test_matches_reference_layout(self, graph):
        n_dst, n_src, dst, src = graph
        s = ad.EdgeStructure(n_dst, n_src, np.array(dst, dtype=int), np.array(src, dtype=int))
        got = {
            "order": s.order, "dst": s.dst, "src": s.src,
            "_row_ids": s._row_ids, "_row_starts": s._row_starts, "_edge_seg": s._edge_seg,
            "_perm_by_src": s._perm_by_src, "_col_ids": s._col_ids,
            "_col_starts": s._col_starts,
            "_mat.indices": s._mat.indices, "_mat.indptr": s._mat.indptr,
            "_mat_t.indices": s._mat_t.indices, "_mat_t.indptr": s._mat_t.indptr,
        }
        want = edge_structure_fields(n_dst, n_src, dst, src)
        for name, arr in want.items():
            assert got[name].dtype == arr.dtype, name
            np.testing.assert_array_equal(got[name], arr, err_msg=name)


class TestSpmm:
    def test_no_edges_zero_row(self):
        s = ad.EdgeStructure(1, 1, np.array([], dtype=int), np.array([], dtype=int))
        w = ad.constant(np.zeros((0, 1)))
        h = ad.constant([[7.0, 8.0]])
        out = ad.spmm(ad.SparseWeighted(s, w), h)
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_single_message(self):
        s = ad.EdgeStructure(2, 2, np.array([0]), np.array([1]))
        w = ad.constant([[1.0]])
        h = ad.constant([[9.0, 9.0], [2.0, 3.0]])
        out = ad.spmm(ad.SparseWeighted(s, w), h)
        np.testing.assert_array_equal(out.data[0], [2.0, 3.0])
        np.testing.assert_array_equal(out.data[1], [0.0, 0.0])

    def test_fd_weights_and_features(self):
        rng = np.random.default_rng(1)
        n, d = 5, 3
        s = random_structure(rng, n)
        w0 = rng.standard_normal((s.n_edges, 1))
        h0 = rng.standard_normal((n, d))

        def loss_w(x):
            sw = ad.SparseWeighted(s, ad.constant(x))
            return ad.spmm(sw, ad.constant(h0)).data.sum()

        def loss_h(x):
            sw = ad.SparseWeighted(s, ad.constant(w0))
            return ad.spmm(sw, ad.constant(x)).data.sum()

        w = ad.variable(w0)
        h = ad.variable(h0)
        ad.backward(scalar_sum(ad.spmm(ad.SparseWeighted(s, w), h)))
        assert grad_err(w.grad, fd_grad(loss_w, w0)) < 1e-6
        assert grad_err(h.grad, fd_grad(loss_h, h0)) < 1e-6


class TestNeighborSoftmax:
    def test_singleton_group(self):
        s = ad.EdgeStructure(1, 1, np.array([0]), np.array([0]))
        out = ad.neighbor_softmax(ad.constant([[123.0]]), s)
        assert out.data[0, 0] == 1.0

    def test_equal_logits(self):
        s = ad.EdgeStructure(1, 3, np.array([0, 0, 0]), np.array([0, 1, 2]))
        out = ad.neighbor_softmax(ad.constant([[0.0], [0.0], [0.0]]), s)
        np.testing.assert_allclose(out.data[:, 0], [1 / 3] * 3)

    def test_no_overflow(self):
        s = ad.EdgeStructure(1, 2, np.array([0, 0]), np.array([0, 1]))
        out = ad.neighbor_softmax(ad.constant([[1000.0], [0.0]]), s)
        assert out.data[0, 0] == pytest.approx(1.0)
        assert out.data[1, 0] == pytest.approx(0.0, abs=1e-300)

    def test_groups_sum_to_one(self):
        rng = np.random.default_rng(2)
        s = random_structure(rng, 6)
        z = rng.standard_normal((s.n_edges, 1)) * 5
        out = ad.neighbor_softmax(ad.constant(z), s)
        sums = np.zeros(6)
        np.add.at(sums, s.dst, out.data[:, 0])
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_fd(self):
        rng = np.random.default_rng(3)
        s = random_structure(rng, 4)
        z0 = rng.standard_normal((s.n_edges, 1))
        mix = rng.standard_normal((s.n_edges, 1))

        def loss(x):
            out = ad.neighbor_softmax(ad.constant(x), s)
            return float((out.data * mix).sum())

        z = ad.variable(z0)
        out = ad.neighbor_softmax(z, s)
        ad.backward(scalar_sum(ad.mul(out, ad.constant(mix))))
        assert grad_err(z.grad, fd_grad(loss, z0)) < 1e-6


class TestElementwise:
    def test_relu_values(self):
        out = ad.relu(ad.constant([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])

    def test_leaky_relu_value(self):
        out = ad.leaky_relu(ad.constant([[-2.0]]), 0.2)
        assert out.data[0, 0] == pytest.approx(-0.4)

    def test_relu_subgradient_at_zero_is_zero(self):
        x = ad.variable([[0.0]])
        ad.backward(ad.relu(x))
        assert x.grad[0, 0] == 0.0

    def test_row_gather_identity(self):
        x = ad.constant(np.eye(2))
        out = ad.row_gather(x, [0])
        np.testing.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_row_gather_out_of_range(self):
        with pytest.raises(ValueError):
            ad.row_gather(ad.constant(np.eye(2)), [2])

    def test_add_scale_bias_fd(self):
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((3, 2)) + 2.0  # away from relu kinks
        b0 = rng.standard_normal((1, 2))

        def loss(x):
            t = ad.add_bias(ad.scale(ad.relu(ad.constant(x)), 1.7), ad.constant(b0))
            return t.data.sum()

        x = ad.variable(x0)
        ad.backward(scalar_sum(ad.add_bias(ad.scale(ad.relu(x), 1.7), ad.constant(b0))))
        assert grad_err(x.grad, fd_grad(loss, x0)) < 1e-6

    def test_concat_rows_roundtrip(self):
        a = ad.variable([[1.0, 2.0]])
        b = ad.variable([[3.0, 4.0], [5.0, 6.0]])
        out = ad.concat_rows([a, b])
        assert out.shape == (3, 2)
        ad.backward(scalar_sum(out))
        np.testing.assert_array_equal(a.grad, [[1.0, 1.0]])
        np.testing.assert_array_equal(b.grad, np.ones((2, 2)))


class TestCrossEntropy:
    def test_logit_zero(self):
        loss = ad.cross_entropy_logits(ad.constant([[0.0]]), [1])
        assert loss.data[0, 0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_saturation_no_overflow(self):
        loss = ad.cross_entropy_logits(ad.constant([[20.0]]), [1])
        assert 0.0 <= loss.data[0, 0] < 1e-8

    def test_fd_random_batch(self):
        rng = np.random.default_rng(5)
        z0 = rng.standard_normal((6, 1)) * 2
        t = rng.integers(0, 2, size=6)

        def loss(x):
            return ad.cross_entropy_logits(ad.constant(x), t).data[0, 0]

        z = ad.variable(z0)
        ad.backward(ad.cross_entropy_logits(z, t))
        assert grad_err(z.grad, fd_grad(loss, z0)) < 1e-6

    def test_pos_weight_scales_positive_grad(self):
        z = ad.variable([[0.0], [0.0]])
        ad.backward(ad.cross_entropy_logits(z, [1, 0], pos_weight=3.0))
        assert z.grad[0, 0] == pytest.approx(3.0 * (0.5 - 1.0) / 2)
        assert z.grad[1, 0] == pytest.approx((0.5 - 0.0) / 2)

    def test_bad_targets(self):
        with pytest.raises(ValueError):
            ad.cross_entropy_logits(ad.constant([[0.0]]), [2])


class TestBackward:
    def test_identity_base_case(self):
        x = ad.variable([[4.0]])
        ad.backward(x)
        assert x.grad[0, 0] == 1.0

    def test_dead_relu(self):
        x = ad.variable([[3.0]])
        ad.backward(ad.relu(ad.scale(x, -1.0)))
        assert x.grad[0, 0] == 0.0

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            ad.backward(ad.constant(np.ones((2, 2))))

    def test_unreached_variable_gets_zeros(self):
        x = ad.variable([[1.0]])
        y = ad.variable([[2.0]])
        grads = ad.backward(ad.scale(x, 2.0), variables=[x, y])
        assert grads[x][0, 0] == 2.0
        np.testing.assert_array_equal(grads[y], [[0.0]])

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal((4, 3))
        w1 = ad.constant(rng.standard_normal((3, 2)))
        w2 = ad.constant(rng.standard_normal((3, 2)))

        def grads_for(ws):
            x = ad.variable(x0)
            total = None
            for w in ws:
                part = scalar_sum(ad.matmul(x, w))
                total = part if total is None else ad.add(total, part)
            ad.backward(total)
            return x.grad

        g_sum = grads_for([w1, w2])
        np.testing.assert_allclose(g_sum, grads_for([w1]) + grads_for([w2]), atol=1e-12)

    def test_rerun_bit_identical(self):
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal((5, 4))
        w0 = rng.standard_normal((4, 3))

        def run():
            x = ad.variable(x0)
            out = ad.relu(ad.matmul(x, ad.constant(w0)))
            loss = scalar_sum(out)
            ad.backward(loss)
            return loss.data.copy(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1.tobytes() == l2.tobytes()
        assert g1.tobytes() == g2.tobytes()

    def test_reused_leaf_grad_resets_between_passes(self):
        x = ad.variable([[1.0]])
        ad.backward(ad.scale(x, 3.0))
        ad.backward(ad.scale(x, 3.0))
        assert x.grad[0, 0] == 3.0  # not accumulated across tapes


class TestFiniteness:
    def test_nan_input_rejected(self):
        with pytest.raises(NumericError):
            ad.constant([[float("nan")]])

    def test_inf_op_output_rejected(self):
        big = ad.constant([[1e308]])
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            ad.add(big, big)


def test_fd_property_sweep_all_ops():
    """Ten random points per op: max relative error < 1e-5 (inputs kept a
    margin of 1e-3 away from relu kinks)."""
    rng = np.random.default_rng(8)
    for _ in range(10):
        n, d_in, d_out = 4, 3, 2
        s = random_structure(rng, n)
        x0 = rng.standard_normal((n, d_in))
        x0 += np.sign(x0) * 1e-3
        w0 = rng.standard_normal((d_in, d_out))
        ew0 = rng.standard_normal((s.n_edges, 1))
        t = rng.integers(0, 2, size=n)

        def build(x_data, w_data, ew_data):
            x = ad.variable(x_data)
            w = ad.variable(w_data)
            ew = ad.variable(ew_data)
            logits = ad.neighbor_softmax(ew, s)
            agg = ad.spmm(ad.SparseWeighted(s, logits), ad.leaky_relu(x, 0.2))
            h = ad.relu(ad.matmul(agg, w))
            ones = ad.constant(np.ones((d_out, 1)))
            z = ad.matmul(h, ones)
            loss = ad.cross_entropy_logits(z, t)
            return loss, x, w, ew

        loss, x, w, ew = build(x0, w0, ew0)
        ad.backward(loss)
        for var, v0, name in ((x, x0, "x"), (w, w0, "w"), (ew, ew0, "ew")):
            def f(val, _name=name):
                args = {"x": x0, "w": w0, "ew": ew0}
                args[_name] = val
                return build(args["x"], args["w"], args["ew"])[0].data[0, 0]

            assert grad_err(var.grad, fd_grad(f, v0)) < 1e-5
