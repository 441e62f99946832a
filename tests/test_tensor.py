import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgnn import tensor as T
from flowgnn.model import row_gather, row_place
import reference_ops
from reference_ops import (SEGMENT_REDUCERS, concat_cols, edge_operator,
                           gather_rows, put_rows, segment_mean)
from flowgnn.tensor import AdamState, Rng, Tensor, adam_step


def rand_tensor(rng, shape):
    return Tensor(rng.normal(shape))


class TestOps:
    def test_leaky_relu_values(self):
        out = T.leaky_relu(Tensor([[-1.0, 2.0, 0.0]]))
        assert np.allclose(out.data, [[-0.01, 2.0, 0.0]])

    def test_leaky_relu_gradient_negative_side(self):
        x = Tensor([[-3.0]])
        out = T.sum_all(T.leaky_relu(x))
        out.backward()
        assert x.grad[0, 0] == pytest.approx(0.01)

    def test_matmul_shapes_checked(self):
        with pytest.raises(ValueError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    @pytest.mark.parametrize("op_name", ["sum", "mean", "max"])
    def test_segment_reduce_gradients(self, op_name):
        rng = Rng(11).child(op_name)
        x = rand_tensor(rng, (6, 4))
        seg = np.array([0, 0, 2, 2, 2, 3])

        def f(params):
            reduced = SEGMENT_REDUCERS[op_name](params["x"], seg, 5)
            return T.sum_all(T.leaky_relu(reduced))

        assert reference_ops.check_gradients(f, {"x": x}) < 1e-8

    def test_segment_mean_empty_segment_is_zero(self):
        out = segment_mean(Tensor(np.ones((2, 3))), np.array([0, 2]), 4)
        assert np.allclose(out.data[1], 0.0)
        assert np.allclose(out.data[3], 0.0)

    def test_segment_max_picks_columnwise_max(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
        out = T.segment_max(x, np.array([0, 0]), 1)
        assert np.allclose(out.data, [[3.0, 5.0]])

    def test_spmm_gradients(self):
        rng = Rng(12)
        x = rand_tensor(rng, (6, 4))
        # duplicate edge 1 -> 3, node 5 without in-edges, rows out of order
        src = np.array([1, 4, 1, 0, 2, 1, 5])
        dst = np.array([3, 0, 3, 2, 0, 4, 2])
        op = edge_operator(src, dst, 6)
        dense = np.zeros((len(op.rows), 6))
        np.add.at(dense, (np.searchsorted(op.rows, dst), src), 1.0)
        assert np.array_equal(op.matrix.toarray(), dense)
        assert np.array_equal(op.transpose.toarray(), dense.T)
        assert np.allclose(T.spmm(op, x).data, dense @ x.data)

        def f(params):
            total = T.spmm(op, params["x"])
            return T.sum_all(T.leaky_relu(T.scale(total, -1.0)))

        assert reference_ops.check_gradients(f, {"x": x}) < 1e-8

    def test_row_placement_gradients(self):
        rng = Rng(13)
        x = rand_tensor(rng, (5, 3))
        rows = np.array([4, 0, 2])
        degree = np.array([2.0, 1.0, 3.0])[:, None]

        def f(params):
            picked = T.div_const(T.take_rows(params["x"], rows), degree)
            placed = put_rows(picked, rows, 5)
            return T.sum_all(T.leaky_relu(T.add(placed, params["x"])))

        assert reference_ops.check_gradients(f, {"x": x}) < 1e-8

    def test_gather_concat_gradients(self):
        rng = Rng(5)
        x = rand_tensor(rng, (4, 3))
        y = rand_tensor(rng, (4, 2))
        idx = np.array([0, 2, 2, 3])

        def f(params):
            g = gather_rows(params["x"], idx)
            c = concat_cols([g, gather_rows(params["y"], idx)])
            return T.sum_all(T.leaky_relu(c))

        assert reference_ops.check_gradients(f, {"x": x, "y": y}) < 1e-8

    def test_row_gather_matches_reference_gather(self):
        x = rand_tensor(Rng(14), (5, 3))
        idx = np.array([4, 1, 4, 0, 4, 1])       # repeats; row 2, 3 unused
        g = Rng(15).normal((len(idx), 3))
        out = T.spmm(row_gather(idx, 5), x)
        assert np.array_equal(out.data, x.data[idx])
        out._backward(g)
        ref = Tensor(x.data)
        gather_rows(ref, idx)._backward(g)
        assert np.array_equal(x.grad, ref.grad)

    def test_stack_affine_matches_composed_ops(self):
        rng = Rng(24)
        params = {name: rand_tensor(rng, shape) for name, shape in (
            ("x0", (3, 4)), ("w0", (4, 2)), ("y0", (3, 2)),
            ("x1", (1, 4)), ("w1", (4, 2)), ("y1", (1, 2)))}

        def parts(p):
            return [(p[f"x{i}"], p[f"w{i}"], p[f"y{i}"]) for i in range(2)]

        composed = T.concat_rows([T.add(T.matmul(x, w), y)
                                  for x, w, y in parts(params)])
        assert np.array_equal(T.stack_affine(parts(params)).data,
                              composed.data)

        def f(p):
            return T.sum_all(T.leaky_relu(T.stack_affine(parts(p))))

        assert reference_ops.check_gradients(f, params) < 1e-8

    @pytest.mark.parametrize("activation", ["leaky_relu", "identity"])
    def test_pair_mlp_matches_composed_ops(self, activation):
        rng = Rng(26)
        params = {name: rand_tensor(rng, shape) for name, shape in (
            ("top", (3, 5)), ("bottom", (4, 5)), ("b0", (5,)),
            ("w1", (5, 1)), ("b1", (1,)))}
        # repeated pairs, a row of `top` no pair reads
        src = np.array([0, 2, 2, 0, 2])
        dst = np.array([3, 1, 1, 0, 2])
        act = T.ACTIVATIONS[activation]

        def composed(p):
            x = T.add(T.spmm(row_gather(src, 3), p["top"]),
                      T.spmm(row_gather(dst, 4), p["bottom"]))
            x = act(T.add(x, p["b0"]))
            return T.add(T.matmul(x, p["w1"]), p["b1"])

        def fused(p):
            return T.pair_mlp(p["top"], p["bottom"], row_place(src, 3),
                              row_place(dst, 4), p["b0"], p["w1"], p["b1"],
                              activation)

        runs = []
        for scorer in (fused, composed):
            T.zero_grads(params)
            out = scorer(params)
            T.sum_all(T.scale(out, -1.5)).backward()
            runs.append((out.data, {n: p.grad.copy()
                                    for n, p in params.items()}))
        (logits, grads), (ref_logits, ref_grads) = runs
        assert np.array_equal(logits, ref_logits)
        for name in params:
            assert np.array_equal(grads[name], ref_grads[name]), name
        assert reference_ops.check_gradients(lambda p: T.sum_all(act(fused(p))),
                                 params) < 1e-8

    def test_pair_mlp_rejects_unknown_activation(self):
        x = Tensor(np.ones((1, 2)))
        place = row_place(np.array([0]), 1)
        with pytest.raises(ValueError, match="tanh"):
            T.pair_mlp(x, x, place, place, Tensor(np.ones(2)),
                       Tensor(np.ones((2, 1))), Tensor(np.ones(1)), "tanh")

    @pytest.mark.parametrize("hidden", [3, 16, 128])
    def test_products_round_each_row_whatever_the_row_count(self, hidden):
        rng = Rng(25)
        x = rng.normal((64, hidden))
        w = Tensor(rng.normal((hidden, hidden)))
        full = T.matmul(Tensor(x), w).data
        for k in range(1, 6):
            for lo in (0, 7, 64 - k):
                rows = x[lo:lo + k]
                expected = full[lo:lo + k].view(np.uint64)
                assert np.array_equal(
                    T.matmul(Tensor(rows), w).data.view(np.uint64), expected)
                zero = Tensor(np.zeros((k, hidden)))
                assert np.array_equal(
                    T.stack_affine([(Tensor(rows), w, zero)]).data
                    .view(np.uint64), expected)

    def test_replace_rows_forward_and_backward_exact(self):
        x = Tensor(np.array([[1.0, 2.0], [np.inf, -np.inf], [5.0, 6.0],
                             [7.0, 8.0]]))
        values = Tensor(np.array([[-1.5, 0.25], [3.0, -4.0]]))
        rows = np.array([1, 3])                  # row 1 holds infinities
        out = T.replace_rows(x, rows, values)
        assert np.array_equal(out.data, [[1.0, 2.0], [-1.5, 0.25],
                                         [5.0, 6.0], [3.0, -4.0]])
        g = Rng(16).normal((4, 2))
        out._backward(g)
        kept = g.copy()
        kept[rows] = 0.0
        assert np.array_equal(x.grad, kept)
        assert np.array_equal(values.grad, g[rows])

    def test_leaky_relu_bitwise_equal_to_masked_form(self):
        x = Rng(17).normal((2634, 128))
        x.reshape(-1)[:7] = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                             1e-320]
        out = T.leaky_relu(Tensor(x)).data
        masked = np.where(x > 0, x, 0.01 * x)
        assert np.array_equal(out.view(np.uint64), masked.view(np.uint64))

    def test_add_bias_broadcast_gradient(self):
        rng = Rng(6)
        w = rand_tensor(rng, (3, 2))
        b = Tensor(np.zeros(2))
        x = rng.normal((5, 3))

        def f(params):
            return T.sum_all(T.leaky_relu(
                T.add(T.matmul(Tensor(x), params["w"]), params["b"])))

        assert reference_ops.check_gradients(f, {"w": w, "b": b}) < 1e-8


class TestLosses:
    def test_uniform_logits_loss_is_log_c(self):
        logits = Tensor(np.zeros((3, 4)))
        loss = T.cross_entropy(logits, np.array([0, 1, 3]))
        assert loss.item() == pytest.approx(math.log(4))

    def test_large_margin_loss_vanishes(self):
        logits = Tensor(np.array([[50.0, 0.0, 0.0]]))
        loss = T.cross_entropy(logits, np.array([0]))
        assert loss.item() < 1e-8

    def test_two_class_closed_form(self):
        loss = T.cross_entropy(Tensor(np.array([[2.0, 0.0]])), np.array([0]))
        assert loss.item() == pytest.approx(math.log(1 + math.exp(-2)))

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            T.cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))

    def test_weighted_loss_scales_rows(self):
        logits = Tensor(np.zeros((2, 2)))
        weights = np.array([1.0, 3.0])
        loss = T.cross_entropy(logits, np.array([0, 1]), class_weights=weights)
        assert loss.item() == pytest.approx((1 + 3) / 2 * math.log(2))

    def test_cross_entropy_gradient(self):
        rng = Rng(3)
        logits = rand_tensor(rng, (5, 4))
        targets = np.array([0, 1, 2, 3, 1])
        weights = np.array([1.0, 2.0, 0.5, 1.5])

        def f(params):
            return T.cross_entropy(params["z"], targets, class_weights=weights)

        assert reference_ops.check_gradients(f, {"z": logits}) < 1e-9

    def test_bce_logit_zero(self):
        loss = T.binary_cross_entropy(Tensor(np.zeros((1, 1))), np.array([1.0]))
        assert loss.item() == pytest.approx(math.log(2))

    def test_bce_confident_positive(self):
        loss = T.binary_cross_entropy(Tensor(np.array([[20.0]])),
                                      np.array([1.0]))
        assert loss.item() == pytest.approx(2.06e-9, rel=0.01)

    def test_bce_gradient_is_sigmoid_minus_target(self):
        z = Tensor(np.zeros((1, 1)))
        loss = T.binary_cross_entropy(z, np.array([1.0]))
        loss.backward()
        assert z.grad[0, 0] == pytest.approx(-0.5)

    def test_bce_gradient_check(self):
        rng = Rng(4)
        z = rand_tensor(rng, (7, 1))
        t = np.array([1.0, 0, 1, 0, 0, 1, 1])

        def f(params):
            return T.binary_cross_entropy(params["z"], t)

        assert reference_ops.check_gradients(f, {"z": z}) < 1e-9


class TestAdam:
    def test_zero_gradient_is_identity(self):
        p = Tensor(np.array([[1.5, -2.0]]))
        state = AdamState(lr=0.1)
        for _ in range(10):
            adam_step({"p": p}, {"p": np.zeros((1, 2))}, state)
        assert np.array_equal(p.data, [[1.5, -2.0]])

    def test_first_step_magnitude(self):
        p = Tensor(np.array([[0.0]]))
        state = AdamState(lr=0.001)
        adam_step({"p": p}, {"p": np.ones((1, 1))}, state)
        assert p.data[0, 0] == pytest.approx(-0.001, rel=1e-6)

    def test_shape_mismatch_rejected(self):
        state = AdamState(lr=0.001)
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step({"p": Tensor(np.zeros((2, 2)))},
                      {"p": np.zeros((2, 3))}, state)

    @pytest.mark.parametrize("lr", [0.001, 0.0001, 0.01])
    def test_configured_learning_rates(self, lr):
        state = AdamState(lr=lr)
        p = Tensor(np.array([[0.0]]))
        adam_step({"p": p}, {"p": np.ones((1, 1))}, state)
        assert p.data[0, 0] == pytest.approx(-lr, rel=1e-6)

    def test_bitwise_equal_to_reference_update(self):
        rng = Rng(25)
        shapes = {"w": (4, 3), "b": (3,), "late": (2, 5), "never": (3, 3)}
        start = {name: rng.normal(shape) for name, shape in shapes.items()}
        params = {name: Tensor(x.copy()) for name, x in start.items()}
        ref_params = {name: Tensor(x.copy()) for name, x in start.items()}
        state, ref_state = AdamState(lr=0.01), AdamState(lr=0.01)
        for step in range(6):
            # `late` gets its first gradient at step 3, `b` none at step 4
            grads = {name: rng.normal(shape) for name, shape in shapes.items()
                     if name != "never" and (name != "late" or step >= 3)
                     and (name != "b" or step != 4)}
            adam_step(params, grads, state)
            reference_ops.adam_step(ref_params, grads, ref_state)
            for name in shapes:
                assert np.array_equal(params[name].data, ref_params[name].data)
            for name in state.m:
                assert np.array_equal(state.m[name], ref_state.m[name])
                assert np.array_equal(state.v[name], ref_state.v[name])
        assert np.array_equal(params["never"].data, start["never"])
        assert "never" not in state.m


class TestNoGrad:
    def test_values_equal_and_no_tape_kept(self):
        x = rand_tensor(Rng(26), (5, 4))
        w = rand_tensor(Rng(27), (4, 3))

        def forward():
            h = T.leaky_relu(T.matmul(x, w))
            return T.segment_max(h, np.array([0, 1, 1, 0, 2]), 3)

        taped = forward()
        with T.no_grad():
            untaped = forward()
        assert np.array_equal(untaped.data, taped.data)
        assert taped._parents and taped._backward is not None
        assert untaped._parents == () and untaped._backward is None

    def test_backward_raises_inside_the_block(self):
        x = Tensor(np.ones((2, 2)))
        loss = T.sum_all(T.scale(x, 2.0))
        with T.no_grad():
            with pytest.raises(ValueError, match="no_grad"):
                loss.backward()
        loss.backward()
        assert np.array_equal(x.grad, np.full((2, 2), 2.0))

    def test_recording_comes_back_after_an_exception(self):
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("inside")
        x = Tensor(np.ones((1, 1)))
        y = T.scale(x, 3.0)
        assert y._parents == (x,)
        T.sum_all(y).backward()
        assert x.grad[0, 0] == 3.0

    def test_nested_blocks_restore_the_outer_mode(self):
        x = Tensor(np.ones((1, 1)))
        with T.no_grad():
            with T.no_grad():
                pass
            assert T.scale(x, 2.0)._parents == ()
        assert T.scale(x, 2.0)._parents == (x,)


class TestRng:
    def test_identical_seed_identical_stream(self):
        a, b = Rng(123), Rng(123)
        assert np.array_equal(a.normal((4, 4)), b.normal((4, 4)))
        assert np.array_equal(a.integers(0, 100, 10), b.integers(0, 100, 10))

    def test_children_are_independent_and_stable(self):
        r = Rng(9)
        c1 = r.child("alpha").normal((3,))
        c2 = Rng(9).child("alpha").normal((3,))
        c3 = r.child("beta").normal((3,))
        assert np.array_equal(c1, c2)
        assert not np.array_equal(c1, c3)


class TestGradCheck:
    def test_quadratic(self):
        w = Tensor(np.array([[3.0]]))

        def quad(params):
            return T.sum_all(T.matmul(params["w"], params["w"]))

        assert reference_ops.check_gradients(quad, {"w": w}) < 1e-9

    def test_kink_avoided_by_construction(self):
        # sampling at exactly 0 is excluded: use offsets away from the kink
        x = Tensor(np.array([[0.5, -0.5]]))

        def f(params):
            return T.sum_all(T.leaky_relu(params["x"]))

        assert reference_ops.check_gradients(f, {"x": x}, eps=1e-6) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2,
                max_size=8))
def test_cross_entropy_nonnegative(logit_row):
    logits = Tensor(np.array([logit_row]))
    loss = T.cross_entropy(logits, np.array([0]))
    assert loss.item() >= 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-30, max_value=30),
       st.sampled_from([0.0, 1.0]))
def test_bce_nonnegative(logit, target):
    loss = T.binary_cross_entropy(Tensor(np.array([[logit]])),
                                  np.array([target]))
    assert loss.item() >= 0.0


class TestGradientSharing:
    """A first gradient is borrowed, not copied; a later one must never be
    added into the borrowed array, which may be another tensor's gradient."""

    def test_add_of_a_tensor_to_itself(self):
        x = Tensor(np.ones((2, 3)))
        y = T.add(x, x)
        g = Rng(18).normal((2, 3))
        y.grad = g
        y._backward(g)
        assert np.array_equal(x.grad, g + g)
        assert y.grad is g and np.array_equal(g, Rng(18).normal((2, 3)))

    def test_both_parents_of_one_add(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)))
        s = T.add(a, b)
        g = Rng(19).normal((2, 3))
        s.grad = g
        s._backward(g)
        extra = Rng(20).normal((2, 3))
        a._accum(extra)
        b._accum(extra[1:], np.array([1]))
        assert np.array_equal(a.grad, g + extra)
        expected = g.copy()
        expected[1] += extra[1]
        assert np.array_equal(b.grad, expected)
        assert np.array_equal(s.grad, Rng(19).normal((2, 3)))

    def test_concat_rows_slices(self):
        p, q = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))
        c = T.concat_rows([p, q])
        g = Rng(21).normal((5, 3))
        c.grad = g
        c._backward(g)
        extra = Rng(22).normal((2, 3))
        p._accum(extra)
        p._accum(extra)
        assert np.array_equal(p.grad, (g[:2] + extra) + extra)
        assert np.array_equal(q.grad, Rng(21).normal((5, 3))[2:])
        assert np.array_equal(c.grad, Rng(21).normal((5, 3)))
