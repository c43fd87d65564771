import math

import numpy as np
import pytest

from derivgen import numeric as nm

from conftest import (add, concat, finite_difference, log_softmax, matmul, max_grad_rel_error,
                      mul, pick, reference_adadelta_step, reference_sigmoid_array, row, sigmoid,
                      stack, sub, sum_all, tanh)

rng = np.random.default_rng(12345)


class TestForwardOps:
    def test_matmul_identity(self):
        a = nm.constant(rng.normal(size=(4, 3)))
        eye = nm.constant(np.eye(4))
        assert np.allclose(matmul(eye, a).values, a.values)

    def test_matmul_shape_error_names_shapes(self):
        a = nm.constant(np.zeros((2, 3)))
        b = nm.constant(np.zeros((4,)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4,\)"):
            matmul(a, b)

    def test_add_shape_error(self):
        with pytest.raises(ValueError, match="incompatible shapes"):
            add(nm.constant(np.zeros(3)), nm.constant(np.zeros((2, 2))))

    def test_softmax_constant_is_uniform(self):
        for n in (1, 3, 7):
            out = nm.softmax_array(np.full(n, 2.5))
            assert np.allclose(out, 1.0 / n)

    def test_softmax_simplex(self):
        out = nm.softmax_array(rng.normal(size=9))
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) < 1e-12

    def test_softmax_shift_invariance(self):
        x = rng.normal(size=6)
        a = nm.softmax_array(x)
        b = nm.softmax_array(x + 123.456)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_tanh_sigmoid_at_zero(self):
        assert tanh(nm.constant(0.0)).values == 0.0
        assert nm.sigmoid_array(np.float64(0.0)) == 0.5
        assert sigmoid(nm.constant(0.0)).values == 0.5

    def test_sigmoid_extreme_values_stable(self):
        out = nm.sigmoid_array(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0) and out[1] == pytest.approx(1.0)

    def test_sigmoid_bit_identical_to_reference_form(self):
        # the one-division form against the two-division form, on the GRU's shapes,
        # signed zeros, saturating and overflowing values, NaN and a 0-d value
        gen = np.random.default_rng(7)
        specials = [0.0, -0.0, 800.0, -800.0, 1000.0, -1000.0, np.nan]
        for shape in ((1, 128), (12, 128), (20, 200), (20, 12, 200)):
            x = gen.normal(scale=6.0, size=shape)
            x.flat[:len(specials)] = specials
            got, want = nm.sigmoid_array(x), reference_sigmoid_array(x)
            assert got.shape == shape and got.tobytes() == want.tobytes()
        for x in (np.float64(0.3), np.float64(-2.5), np.float64(np.nan)):
            got, want = nm.sigmoid_array(x), reference_sigmoid_array(x)
            assert np.shape(got) == () and np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_concat_and_stack(self):
        a = nm.constant(np.array([1.0, 2.0]))
        b = nm.constant(np.array([3.0]))
        assert list(concat([a, b]).values) == [1.0, 2.0, 3.0]
        s = stack([nm.constant(np.array([1.0, 2.0])), nm.constant(np.array([3.0, 4.0]))])
        assert s.values.shape == (2, 2)

    def test_row_lookup_and_range(self):
        table = nm.parameter(rng.normal(size=(5, 3)))
        assert np.array_equal(row(table, 2).values, table.values[2])
        with pytest.raises(ValueError, match="out of range"):
            row(table, 9)

    def test_deterministic(self):
        x = rng.normal(size=8)
        a = nm.softmax_array(tanh(nm.constant(x)).values)
        b = nm.softmax_array(tanh(nm.constant(x)).values)
        assert np.array_equal(a, b)


class TestBackward:
    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            nm.backward(nm.constant(np.zeros(3)))

    def test_linear_outer_product_structure(self):
        # loss = sum(W @ x): dW = ones outer x, checked against central differences
        W = nm.parameter(rng.normal(size=(3, 4)))
        x = np.asarray(rng.normal(size=4))
        xt = nm.constant(x)

        def build():
            return sum_all(matmul(W, xt))

        nm.backward(build())
        assert np.allclose(W.grad, np.outer(np.ones(3), x))
        for idx in range(W.values.size):
            num = finite_difference(build, W, idx)
            assert abs(W.grad.flat[idx] - num) < 1e-6

    def test_unused_parameter_grad_exactly_zero(self):
        used = nm.parameter(rng.normal(size=3))
        unused = nm.parameter(rng.normal(size=3))
        nm.backward(sum_all(tanh(used)))
        assert np.all(unused.grad == 0.0)

    def test_grads_accumulate_until_cleared(self):
        p = nm.parameter(rng.normal(size=4))
        loss = matmul(p, p)
        nm.backward(loss)
        once = p.grad.copy()
        nm.backward(loss)
        assert np.array_equal(p.grad, 2.0 * once)
        p.clear_grad()
        assert np.all(p.grad == 0.0)

    def test_shared_subexpression(self):
        p = nm.parameter(np.array([2.0]))
        # loss = p.p + p  -> dloss/dp = 2p + 1 = 5
        loss = add(matmul(p, p), sum_all(p))
        nm.backward(loss)
        assert p.grad[0] == pytest.approx(5.0)

    def test_all_ops_against_finite_differences(self):
        # the program's ops together with the reference tape ops of the
        # tests' op-by-op chain
        W = nm.parameter(rng.normal(size=(3, 4)))
        v = nm.parameter(rng.normal(size=4))
        b = nm.parameter(rng.normal(size=3))
        table = nm.parameter(rng.normal(size=(4, 3)))

        def build():
            h = tanh(add(matmul(W, v), b))
            g = sigmoid(matmul(h, stack([row(table, 0), row(table, 2), b])))
            return pick(log_softmax(concat([g, mul(h, b), sub(h, g)])), 1)

        err = max_grad_rel_error(build, {"W": W, "v": v, "b": b, "table": table})
        assert err < 1e-4


    def test_sequence_ops_against_finite_differences(self):
        # gather with a repeated id, concat along columns, matmul of a matrix
        # by a matrix, pick of a row, of a block and of distinct elements
        table = nm.parameter(rng.normal(size=(4, 3)))
        W = nm.parameter(rng.normal(size=(3, 5)))
        c = nm.parameter(rng.normal(size=(3, 2)))

        def build():
            x = nm.gather(table, [2, 0, 2])
            ones = nm.constant(np.ones((2, 5)))
            h = tanh(matmul(concat([x, c], axis=1), concat([W, ones], axis=0)))
            lp = log_softmax(h)
            rows = add(matmul(pick(lp, 1), pick(h, 2)),
                          sum_all(pick(h, (0, slice(1, 4)))))
            return add(rows, sum_all(pick(lp, (np.arange(3), np.array([4, 0, 4])))))

        err = max_grad_rel_error(build, {"table": table, "W": W, "c": c})
        assert err < 1e-4

    def test_batched_matmul_against_finite_differences(self):
        # a stack of matrices (2, 3, 4) by a matrix and by a vector, with the
        # stack itself built by gather with 2-D ids and concat on the last axis
        table = nm.parameter(rng.normal(size=(4, 3)))
        c = nm.parameter(rng.normal(size=(2, 3, 1)))
        W = nm.parameter(rng.normal(size=(4, 5)))
        v = nm.parameter(rng.normal(size=4))

        def build():
            x = concat([nm.gather(table, [[0, 3, 3], [2, 1, 0]]), c], axis=-1)
            return add(sum_all(tanh(matmul(x, W))), sum_all(matmul(x, v)))

        assert matmul(nm.constant(np.zeros((2, 3, 4))), W).values.shape == (2, 3, 5)
        err = max_grad_rel_error(build, {"table": table, "c": c, "W": W, "v": v})
        assert err < 1e-4

    def test_matmul_rejects_a_stacked_right_operand(self):
        with pytest.raises(ValueError, match=r"matmul: incompatible shapes \(4,\) and \(4, 5, 6\)"):
            matmul(nm.constant(np.zeros(4)), nm.constant(np.zeros((4, 5, 6))))

    def test_gather_range(self):
        table = nm.parameter(rng.normal(size=(5, 3)))
        assert np.array_equal(nm.gather(table, [4, 4, 0]).values, table.values[[4, 4, 0]])
        with pytest.raises(ValueError, match="out of range"):
            nm.gather(table, [0, 5])

class TestAdadelta:
    def test_zero_gradient_leaves_params(self):
        p = nm.parameter(rng.normal(size=3))
        params = {"p": p}
        state = nm.AdadeltaState(params)
        state.accum_grad_sq["p"][:] = 1.0
        state.accum_update_sq["p"][:] = 0.5
        before = p.values.copy()
        nm.adadelta_step(params, state)
        assert np.array_equal(p.values, before)
        assert np.allclose(state.accum_grad_sq["p"], 0.95)
        assert np.allclose(state.accum_update_sq["p"], 0.95 * 0.5)

    def test_two_steps_match_hand_arithmetic(self):
        # manual unroll of the update formulas, rho=0.95, eps=1e-6
        rho, eps = 0.95, 1e-6
        w0, g1, g2 = 1.0, 0.4, -0.2
        eg = (1 - rho) * g1 ** 2
        d1 = -math.sqrt(0.0 + eps) / math.sqrt(eg + eps) * g1
        ed = (1 - rho) * d1 ** 2
        w1 = w0 + d1
        eg2 = rho * eg + (1 - rho) * g2 ** 2
        d2 = -math.sqrt(ed + eps) / math.sqrt(eg2 + eps) * g2
        w2 = w1 + d2

        p = nm.parameter(np.array([w0]))
        params = {"p": p}
        state = nm.AdadeltaState(params, rho=rho, eps=eps)
        p.grad[0] = g1
        nm.adadelta_step(params, state)
        assert p.values[0] == pytest.approx(w1, rel=1e-12)
        p.grad[0] = g2
        nm.adadelta_step(params, state)
        assert p.values[0] == pytest.approx(w2, rel=1e-12)
        assert np.all(p.grad == 0.0)

    def test_decreases_convex_quadratic(self):
        # f(w) = (w - 3)^2, gradient 2(w - 3); loss after burn-in must shrink
        p = nm.parameter(np.array([0.0]))
        params = {"p": p}
        state = nm.AdadeltaState(params)
        losses = []
        for _ in range(100):
            losses.append((p.values[0] - 3.0) ** 2)
            p.grad[0] = 2.0 * (p.values[0] - 3.0)
            nm.adadelta_step(params, state)
        assert losses[-1] < losses[10] < losses[0]
        burn = losses[10:]
        assert all(b <= a + 1e-12 for a, b in zip(burn, burn[1:]))

    def test_clip_norm(self):
        p = nm.parameter(np.zeros(4))
        params = {"p": p}
        state = nm.AdadeltaState(params)
        p.grad[:] = 100.0
        nm.adadelta_step(params, state, clip_norm=1.0)
        assert np.all(np.isfinite(p.values))

    def test_bit_identical_to_reference_expression(self):
        # several steps on tensors of different shapes, with and without a
        # clip that binds, against the expression form in conftest; the
        # paper-size stacked dec_W, (300, 500), is above numpy's 256 KiB
        # threshold for reusing expression temporaries in place
        local = np.random.default_rng(3)
        shapes = {"w": (7, 5), "b": (5,), "v": (1,), "dec_W": (300, 500)}
        start = {n: local.normal(size=s) for n, s in shapes.items()}
        grads = [{n: local.normal(size=s) * 3.0 for n, s in shapes.items()} for _ in range(6)]
        for clip in (None, 0.5):
            runs = []
            for step in (nm.adadelta_step, reference_adadelta_step):
                params = {n: nm.parameter(v.copy()) for n, v in start.items()}
                state = nm.AdadeltaState(params, rho=0.9, eps=1e-5)
                for g in grads:
                    for n, p in params.items():
                        p.grad[...] = g[n]
                    step(params, state, clip_norm=clip)
                runs.append((params, state))
            (got, got_state), (want, want_state) = runs
            for n in shapes:
                assert np.array_equal(got[n].values, want[n].values), n
                assert np.array_equal(got_state.accum_grad_sq[n], want_state.accum_grad_sq[n]), n
                assert np.array_equal(got_state.accum_update_sq[n], want_state.accum_update_sq[n]), n
                assert np.all(got[n].grad == 0.0)

    def test_invalid_hyperparameters(self):
        p = {"p": nm.parameter(np.zeros(1))}
        with pytest.raises(ValueError):
            nm.AdadeltaState(p, rho=1.5)
        with pytest.raises(ValueError):
            nm.AdadeltaState(p, eps=0.0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = {"w": rng.normal(size=(3, 5)), "b": rng.normal(size=7)}
        path = tmp_path / "ckpt.json"
        nm.save_params(path, params, meta={"note": "test"})
        loaded, meta = nm.load_params(path)
        assert meta == {"note": "test"}
        for name in params:
            assert np.array_equal(loaded[name], params[name])
            assert loaded[name].dtype == np.float64

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a derivgen checkpoint"):
            nm.load_params(path)
