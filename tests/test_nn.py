"""Layer forward examples, hand-derived backward passes vs finite
differences, and optimizer behaviour."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fastcolor import nn
from fastcolor.errors import ContractError, ParameterError
from fastcolor.nn import (
    AdamState,
    ParamStore,
    adam_step,
    batchnorm_backward,
    batchnorm_forward,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    finite_diff_check,
    init_batchnorm,
    init_conv1d,
    init_dense,
    init_lstm,
    lstm_cell_backward,
    lstm_cell_forward,
    ragged_taps,
    relu_backward,
    relu_forward,
    softmax,
)

from conftest import reference_conv1d_backward, reference_conv1d_forward

RNG = np.random.default_rng(20240817)
TOL = 1e-4


def f64_store() -> ParamStore:
    return ParamStore(dtype=np.float64)


class TestForwardExamples:
    def test_dense_identity(self):
        x = RNG.normal(size=(3, 4))
        y, _ = dense_forward(x, np.eye(4), np.zeros(4))
        npt.assert_allclose(y, x)

    def test_dense_bias_broadcast(self):
        y, _ = dense_forward(np.zeros((2, 3)), np.zeros((3, 2)), np.array([1.0, -1.0]))
        npt.assert_allclose(y, [[1.0, -1.0], [1.0, -1.0]])

    def test_softmax_of_zeros_is_uniform(self):
        npt.assert_allclose(softmax(np.zeros(5)), np.full(5, 0.2))

    def test_softmax_shift_invariant(self):
        x = RNG.normal(size=7)
        npt.assert_allclose(softmax(x), softmax(x + 1000.0), atol=1e-12)

    def test_conv1d_same_length(self):
        x = RNG.normal(size=(2, 16, 3))
        k = RNG.normal(size=(7, 3, 5))
        y, _ = conv1d_forward(x, k, np.zeros(5))
        assert y.shape == (2, 16, 5)

    def test_conv1d_identity_kernel(self):
        # A filter-1 kernel equal to the identity passes channels through.
        x = RNG.normal(size=(1, 6, 4))
        y, _ = conv1d_forward(x, np.eye(4)[None, :, :], np.zeros(4))
        npt.assert_allclose(y, x)

    def test_conv1d_rejects_even_filter(self):
        with pytest.raises(ParameterError):
            conv1d_forward(np.zeros((1, 4, 2)), np.zeros((4, 2, 2)), np.zeros(2))

    def test_lstm_zero_everything_is_zero(self):
        w = np.zeros((3, 12))
        b = np.zeros(12)
        h, c, _ = lstm_cell_forward(np.zeros((1, 3)), np.zeros((1, 3)), w, b)
        npt.assert_allclose(h, 0.0)
        npt.assert_allclose(c, 0.0)

    def test_lstm_forget_gate_carries_cell(self):
        # Huge forget bias, zero input gate: c passes through, h = o*tanh(c).
        width = 2
        w = np.zeros((width, 4 * width))
        b = np.zeros(4 * width)
        b[width : 2 * width] = 50.0  # forget ~ 1
        b[:width] = -50.0  # input ~ 0
        c0 = np.array([[0.5, -1.5]])
        h, c1, _ = lstm_cell_forward(np.zeros((1, width)), c0, w, b)
        npt.assert_allclose(c1, c0, atol=1e-12)
        npt.assert_allclose(h, 0.5 * np.tanh(c0), atol=1e-12)

    def test_batchnorm_training_normalizes(self):
        x = RNG.normal(loc=3.0, scale=2.0, size=(64, 5))
        rm, rv = np.zeros(5), np.ones(5)
        y, _ = batchnorm_forward(x, np.ones(5), np.zeros(5), rm, rv, training=True)
        npt.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
        npt.assert_allclose(y.var(axis=0), 1.0, atol=1e-3)
        assert abs(rm.mean() - 0.3) < 0.2  # momentum 0.1 pulled toward batch mean

    def test_batchnorm_eval_uses_running(self):
        x = np.ones((4, 2))
        rm, rv = np.zeros(2), np.ones(2)
        y, _ = batchnorm_forward(x, np.full(2, 2.0), np.full(2, 1.0), rm, rv, training=False)
        npt.assert_allclose(y, 2.0 * 1.0 / np.sqrt(1 + 1e-5) + 1.0)
        npt.assert_allclose(rm, 0.0)  # eval never mutates buffers


def two_branch_sigmoid(x: np.ndarray) -> np.ndarray:
    """The masked two-branch sigmoid ``nn._sigmoid`` must match byte for byte."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 100.5, -100.5, 1e30, -1e30,
            750.0, -750.0, 1e-40, -1e-40, 5e-324, -5e-324]  # exp overflow, subnormals


class TestSigmoid:
    @given(dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_two_branch_formula(self, dtype, data):
        width = np.dtype(dtype).itemsize * 8
        x = data.draw(hnp.arrays(dtype, hnp.array_shapes(max_dims=2, max_side=40),
                                 elements=st.floats(width=width)
                                 | st.sampled_from(SPECIALS).map(dtype)))
        assert nn._sigmoid(x).tobytes() == two_branch_sigmoid(x).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_specials(self, dtype):
        x = np.array(SPECIALS, dtype=dtype)
        got = nn._sigmoid(x)
        assert got.dtype == dtype and got.tobytes() == two_branch_sigmoid(x).tobytes()
        npt.assert_array_equal(got[:4], [0.5, 0.5, 1.0, 0.0])
        assert np.isnan(got[4:6]).all()


class TestBackwardVsFiniteDifferences:
    """Each layer gets a scalar loss built from a random projection so the
    chain includes nontrivial upstream gradients."""

    def _check(self, store, loss_fn, analytic, samples=6):
        err = finite_diff_check(loss_fn, store, analytic, np.random.default_rng(7), samples_per_tensor=samples)
        assert err <= TOL, f"max relative error {err:.3e}"

    def test_dense(self):
        store = f64_store()
        rng = np.random.default_rng(0)
        init_dense(store, "d", 5, 3, rng)
        store["d.w"] = rng.normal(size=(5, 3))
        store["d.b"] = rng.normal(size=3)
        x = rng.normal(size=(4, 5))
        proj = rng.normal(size=(4, 3))

        def loss():
            y, _ = dense_forward(x, store["d.w"], store["d.b"])
            return float((y * proj).sum())

        y, cache = dense_forward(x, store["d.w"], store["d.b"])
        _, dw, db = dense_backward(proj, cache)
        self._check(store, loss, {"d.w": dw, "d.b": db})

    def test_dense_input_gradient(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=3)
        x = rng.normal(size=(2, 5))
        proj = rng.normal(size=(2, 3))
        store = f64_store()
        store.add("x", x)

        def loss():
            y, _ = dense_forward(store["x"], w, b)
            return float((y * proj).sum())

        _, cache = dense_forward(x, w, b)
        dx, _, _ = dense_backward(proj, cache)
        self._check(store, loss, {"x": dx}, samples=10)

    def test_relu(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 4)) + 0.05  # keep entries away from the kink
        proj = rng.normal(size=(6, 4))
        store = f64_store()
        store.add("x", x)

        def loss():
            y, _ = relu_forward(store["x"])
            return float((y * proj).sum())

        _, cache = relu_forward(x)
        dx = relu_backward(proj, cache)
        self._check(store, loss, {"x": dx}, samples=12)

    def test_lstm_cell(self):
        rng = np.random.default_rng(3)
        width = 4
        store = f64_store()
        init_lstm(store, "cell", width, rng)
        x = rng.normal(size=(3, width))
        c = rng.normal(size=(3, width))
        proj_h = rng.normal(size=(3, width))
        proj_c = rng.normal(size=(3, width))

        def loss():
            h, c_new, _ = lstm_cell_forward(x, c, store["cell.w"], store["cell.b"])
            return float((h * proj_h).sum() + (c_new * proj_c).sum())

        h, c_new, cache = lstm_cell_forward(x, c, store["cell.w"], store["cell.b"])
        dx, dc, dw, db = lstm_cell_backward(proj_h, proj_c, cache)
        self._check(store, loss, {"cell.w": dw, "cell.b": db}, samples=10)

        # input-side gradients through a store holding x and c
        store2 = f64_store()
        store2.add("x", x)
        store2.add("c", c)
        w_fixed, b_fixed = store["cell.w"], store["cell.b"]

        def loss2():
            h2, c2, _ = lstm_cell_forward(store2["x"], store2["c"], w_fixed, b_fixed)
            return float((h2 * proj_h).sum() + (c2 * proj_c).sum())

        self._check(store2, loss2, {"x": dx, "c": dc}, samples=10)

    def test_conv1d(self):
        rng = np.random.default_rng(4)
        store = f64_store()
        init_conv1d(store, "c", 5, 3, 2, rng)
        x = rng.normal(size=(2, 9, 3))
        proj = rng.normal(size=(2, 9, 2))

        def loss():
            y, _ = conv1d_forward(x, store["c.k"], store["c.b"])
            return float((y * proj).sum())

        _, cache = conv1d_forward(x, store["c.k"], store["c.b"])
        dx, dk, db = conv1d_backward(proj, cache)
        self._check(store, loss, {"c.k": dk, "c.b": db}, samples=10)

        store_x = f64_store()
        store_x.add("x", x)
        k_fixed, b_fixed = store["c.k"], store["c.b"]

        def loss_x():
            y, _ = conv1d_forward(store_x["x"], k_fixed, b_fixed)
            return float((y * proj).sum())

        self._check(store_x, loss_x, {"x": dx}, samples=10)

    def test_conv1d_ragged(self):
        rng = np.random.default_rng(4)
        store = f64_store()
        init_conv1d(store, "c", 5, 3, 2, rng)
        taps = ragged_taps([4, 1, 3, 6], 5)
        x = rng.normal(size=(14, 3))
        proj = rng.normal(size=(14, 2))

        def loss():
            y, _ = conv1d_forward(x, store["c.k"], store["c.b"], taps=taps)
            return float((y * proj).sum())

        _, cache = conv1d_forward(x, store["c.k"], store["c.b"], taps=taps)
        dx, dk, db = conv1d_backward(proj, cache)
        self._check(store, loss, {"c.k": dk, "c.b": db}, samples=10)

        store_x = f64_store()
        store_x.add("x", x)
        k_fixed, b_fixed = store["c.k"], store["c.b"]

        def loss_x():
            y, _ = conv1d_forward(store_x["x"], k_fixed, b_fixed, taps=taps)
            return float((y * proj).sum())

        self._check(store_x, loss_x, {"x": dx}, samples=10)

    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm(self, training):
        rng = np.random.default_rng(5)
        store = f64_store()
        init_batchnorm(store, "bn", 3)
        store["bn.gamma"] = rng.normal(size=3) + 1.0
        store["bn.beta"] = rng.normal(size=3)
        store["bn._running_mean"] = rng.normal(size=3)
        store["bn._running_var"] = rng.uniform(0.5, 2.0, size=3)
        x = rng.normal(size=(8, 3))
        proj = rng.normal(size=(8, 3))

        def run():
            rm = store["bn._running_mean"].copy()
            rv = store["bn._running_var"].copy()
            return batchnorm_forward(x, store["bn.gamma"], store["bn.beta"], rm, rv, training=training)

        def loss():
            y, _ = run()
            return float((y * proj).sum())

        _, cache = run()
        dx, dgamma, dbeta = batchnorm_backward(proj, cache)
        self._check(store, loss, {"bn.gamma": dgamma, "bn.beta": dbeta}, samples=6)

        store_x = f64_store()
        store_x.add("x", x)
        gamma, beta = store["bn.gamma"], store["bn.beta"]
        rm0 = store["bn._running_mean"]
        rv0 = store["bn._running_var"]

        def loss_x():
            y, _ = batchnorm_forward(store_x["x"], gamma, beta, rm0.copy(), rv0.copy(), training=training)
            return float((y * proj).sum())

        self._check(store_x, loss_x, {"x": dx}, samples=12)


class TestRaggedConv1d:
    @given(lengths=st.lists(st.integers(1, 10), min_size=1, max_size=8),
           filter_size=st.sampled_from([1, 3, 5, 7]), c_in=st.integers(1, 5),
           c_out=st.integers(1, 5), seed=st.integers(0, 999))
    @settings(max_examples=80, deadline=None)
    def test_backward_matches_per_sequence_conv(self, lengths, filter_size, c_in, c_out, seed):
        rng = np.random.default_rng(seed)
        kernel = rng.normal(size=(filter_size, c_in, c_out))
        b = rng.normal(size=c_out)
        x = rng.normal(size=(sum(lengths), c_in))
        dy = rng.normal(size=(sum(lengths), c_out))
        y, cache = conv1d_forward(x, kernel, b, taps=ragged_taps(lengths, filter_size))
        dx, dk, db = conv1d_backward(dy, cache)
        bounds = np.cumsum(lengths)[:-1]
        want_y, want_dx = [], []
        want_dk, want_db = np.zeros_like(kernel), np.zeros_like(b)
        for xs, dys in zip(np.split(x, bounds), np.split(dy, bounds)):
            ys, seq_cache = reference_conv1d_forward(xs[None], kernel, b)
            dxs, dks, dbs = reference_conv1d_backward(dys[None], seq_cache)
            want_y.append(ys[0])
            want_dx.append(dxs[0])
            want_dk += dks
            want_db += dbs
        assert dx.shape == x.shape and dk.shape == kernel.shape and db.shape == b.shape
        for got, want in ((y, np.concatenate(want_y)), (dx, np.concatenate(want_dx)),
                          (dk, want_dk), (db, want_db)):
            assert np.abs(got - want).max() <= 1e-12

    @given(batch=st.integers(0, 4), length=st.integers(1, 9),
           filter_size=st.sampled_from([1, 3, 5, 7]), c_in=st.integers(1, 5),
           c_out=st.integers(1, 5), dtype=st.sampled_from(["float64", "float32"]),
           seed=st.integers(0, 999))
    @settings(max_examples=80, deadline=None)
    def test_equal_length_batch_matches_im2col(self, batch, length, filter_size, c_in, c_out,
                                               dtype, seed):
        rng = np.random.default_rng(seed)
        kernel = rng.normal(size=(filter_size, c_in, c_out)).astype(dtype)
        b = rng.normal(size=c_out).astype(dtype)
        x = rng.normal(size=(batch, length, c_in)).astype(dtype)
        dy = rng.normal(size=(batch, length, c_out)).astype(dtype)
        y, cache = conv1d_forward(x, kernel, b)
        dx, dk, db = conv1d_backward(dy, cache)
        want_y, ref_cache = reference_conv1d_forward(x, kernel, b)
        want_dx, want_dk, want_db = reference_conv1d_backward(dy, ref_cache)
        # float32 sums of up to filter * c_in or batch * length products
        tol = 1e-12 if dtype == "float64" else 1e-5
        for got, want in ((y, want_y), (dx, want_dx), (dk, want_dk), (db, want_db)):
            assert got.shape == want.shape and got.dtype == np.dtype(dtype)
            scale = max(1.0, np.abs(want).max(initial=0.0))
            assert np.abs(got - want).max(initial=0.0) <= tol * scale


class TestAdam:
    def test_zero_gradient_no_change(self):
        store = f64_store()
        store.add("p", np.array([1.0, -2.0]))
        state = AdamState.for_store(store, lr=0.001)
        adam_step(store, {"p": np.zeros(2)}, state)
        npt.assert_allclose(store["p"], [1.0, -2.0])

    def test_first_step_is_minus_lr(self):
        store = f64_store()
        store.add("p", np.array([0.0]))
        state = AdamState.for_store(store, lr=0.001)
        adam_step(store, {"p": np.array([1.0])}, state)
        assert store["p"][0] == pytest.approx(-0.001, rel=1e-6)

    def test_quadratic_converges(self):
        store = f64_store()
        store.add("x", np.array([3.0]))
        state = AdamState.for_store(store, lr=0.05)
        for _ in range(800):
            adam_step(store, {"x": 2.0 * store["x"]}, state)
        assert abs(store["x"][0]) < 1e-3

    def test_gradient_key_mismatch_rejected(self):
        store = f64_store()
        store.add("p", np.zeros(1))
        state = AdamState.for_store(store)
        with pytest.raises(ContractError):
            adam_step(store, {}, state)
        with pytest.raises(ContractError):
            adam_step(store, {"p": np.zeros(1), "q": np.zeros(1)}, state)

    def test_buffers_not_updated(self):
        store = f64_store()
        store.add("bn.gamma", np.ones(2))
        store.add("bn._running_mean", np.zeros(2))
        state = AdamState.for_store(store)
        adam_step(store, {"bn.gamma": np.ones(2)}, state)
        npt.assert_allclose(store["bn._running_mean"], 0.0)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_reference_adam_bit_for_bit(self, dtype):
        def reference_step(params, grads, m, v, step, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
            bc1 = 1.0 - b1 ** step
            bc2 = 1.0 - b2 ** step
            for name in params:
                g = grads[name].astype(np.float64)
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * g * g
                update = (lr / bc1) * m[name] / (np.sqrt(v[name] / bc2) + eps)
                params[name] = params[name] - update.astype(dtype)

        rng = np.random.default_rng(3)
        store = ParamStore(dtype=dtype)
        for name, shape in (("a.w", (5, 7)), ("a.b", (7,)), ("c.k", (3, 2, 4)), ("s", ())):
            store.add(name, rng.normal(size=shape))
        store.add("bn._running_var", np.ones(3))
        state = AdamState.for_store(store, lr=0.01)
        params = {n: store[n].copy() for n in store.trainable_names()}
        m = {n: np.zeros(store[n].shape) for n in params}
        v = {n: np.zeros(store[n].shape) for n in params}
        for step in range(1, 6):
            # float32 and float64 gradients, one of them a strided view
            grads = {n: rng.normal(size=params[n].shape).astype(
                np.float32 if (step + len(n)) % 2 else np.float64) for n in params}
            grads["a.w"] = rng.normal(size=(7, 5)).T
            before = {n: store[n] for n in params}
            adam_step(store, grads, state)
            reference_step(params, grads, m, v, step)
            for n in params:
                assert store[n] is not before[n], n
                assert store[n].dtype == dtype
                assert np.array_equal(store[n], params[n]), n
                assert np.array_equal(state.m[n], m[n]) and np.array_equal(state.v[n], v[n]), n


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", [1, 4, 7])
    def test_blocks_match_one_block(self, dtype, block, monkeypatch):
        # parameters span several blocks and end mid-block
        def run():
            rng = np.random.default_rng(5)
            store = ParamStore(dtype=dtype)
            for name, shape in (("a.w", (5, 7)), ("c.k", (3, 2, 4)), ("s", ())):
                store.add(name, rng.normal(size=shape))
            state = AdamState.for_store(store, lr=0.01)
            for _ in range(3):
                grads = {n: rng.normal(size=store[n].shape).astype(np.float32)
                         for n in store.trainable_names()}
                grads["a.w"] = rng.normal(size=(7, 5)).T
                adam_step(store, grads, state)
            return store, state

        whole, whole_state = run()
        monkeypatch.setattr(nn, "ADAM_BLOCK", block)
        blocked, blocked_state = run()
        for n in whole.trainable_names():
            assert np.array_equal(blocked[n], whole[n]), n
            assert np.array_equal(blocked_state.m[n], whole_state.m[n]), n
            assert np.array_equal(blocked_state.v[n], whole_state.v[n]), n


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = f64_store()
        store.add("a", np.zeros(1))
        with pytest.raises(ParameterError):
            store.add("a", np.zeros(1))

    def test_shape_locked_after_add(self):
        store = f64_store()
        store.add("a", np.zeros(2))
        with pytest.raises(ParameterError):
            store["a"] = np.zeros(3)

    def test_copy_is_deep(self):
        store = f64_store()
        store.add("a", np.zeros(2))
        dup = store.copy()
        dup["a"] = np.ones(2)
        npt.assert_allclose(store["a"], 0.0)
