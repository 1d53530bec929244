"""Minimal differentiable-layer toolkit on numpy.

A fixed menu of layers (dense, LSTM cell, 1-d convolution, batch norm)
with hand-derived backward passes, a softmax, Adam and a
central-finite-difference gradient checker. There is no general
autodiff here on purpose: the networks in this package compose a small,
known set of blocks, and every backward pass is held to a 1e-4 relative
error bound against finite differences in the test suite.

Conventions: batch axis first, features last. Forward functions return
``(output, cache)``; the matching backward takes ``(d_output, cache)``
and returns input gradients followed by parameter gradients in the same
order the forward took them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import ContractError, ParameterError

__all__ = [
    "ParamStore",
    "AdamState",
    "adam_step",
    "dense_forward",
    "dense_backward",
    "relu_forward",
    "relu_backward",
    "lstm_cell_forward",
    "lstm_cell_backward",
    "conv1d_forward",
    "conv1d_backward",
    "ragged_taps",
    "conv1d_ragged_forward",
    "conv1d_ragged_backward",
    "batchnorm_forward",
    "batchnorm_backward",
    "softmax",
    "finite_diff_check",
    "init_dense",
    "init_lstm",
    "init_conv1d",
    "init_batchnorm",
]

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# Elements per Adam block: two float64 scratch blocks of this size stay in
# L2, so each parameter streams through memory once instead of once per
# NumPy operation.
ADAM_BLOCK = 16384


class ParamStore:
    """Named parameter tensors with a fixed dtype and stable ordering.

    Insertion order is the serialization order and the iteration order
    everywhere, so checkpoints and optimizer state line up by name.
    Arrays whose names start with an underscore after the final dot
    (e.g. ``v.fc1._running_mean``) are buffers: saved and loaded but not
    touched by the optimizer.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, np.ndarray] = {}

    def add(self, name: str, array: np.ndarray) -> np.ndarray:
        if name in self._params:
            raise ParameterError(f"duplicate parameter name {name!r}")
        if any(ch.isspace() for ch in name):
            raise ParameterError(f"parameter name {name!r} contains whitespace")
        arr = np.ascontiguousarray(array, dtype=self.dtype)
        self._params[name] = arr
        return arr

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if name not in self._params:
            raise ParameterError(f"unknown parameter {name!r}")
        if value.shape != self._params[name].shape:
            raise ParameterError(f"shape mismatch for {name!r}")
        self._params[name] = np.ascontiguousarray(value, dtype=self.dtype)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    @staticmethod
    def is_buffer(name: str) -> bool:
        return name.rsplit(".", 1)[-1].startswith("_")

    def trainable_names(self) -> list[str]:
        return [n for n in self._params if not self.is_buffer(n)]

    def copy(self) -> "ParamStore":
        other = ParamStore(self.dtype)
        for n, a in self._params.items():
            other.add(n, a.copy())
        return other


def init_dense(store: ParamStore, prefix: str, fan_in: int, fan_out: int,
               rng: np.random.Generator, zero: bool = False) -> None:
    """Fan-in-scaled uniform weights, zero bias. ``zero`` makes both zero
    (used for final heads so fresh networks emit uniform distributions)."""
    if zero:
        w = np.zeros((fan_in, fan_out))
    else:
        bound = math.sqrt(1.0 / max(1, fan_in))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    store.add(prefix + ".w", w)
    store.add(prefix + ".b", np.zeros(fan_out))


def init_lstm(store: ParamStore, prefix: str, width: int, rng: np.random.Generator) -> None:
    """Single-input LSTM cell params: gate matrix (width, 4*width), gate
    order (input, forget, cell, output); forget bias starts at +1."""
    bound = math.sqrt(1.0 / max(1, width))
    store.add(prefix + ".w", rng.uniform(-bound, bound, size=(width, 4 * width)))
    b = np.zeros(4 * width)
    b[width : 2 * width] = 1.0
    store.add(prefix + ".b", b)


def init_conv1d(store: ParamStore, prefix: str, filter_size: int, c_in: int, c_out: int,
                rng: np.random.Generator) -> None:
    bound = math.sqrt(1.0 / max(1, filter_size * c_in))
    store.add(prefix + ".k", rng.uniform(-bound, bound, size=(filter_size, c_in, c_out)))
    store.add(prefix + ".b", np.zeros(c_out))


def init_batchnorm(store: ParamStore, prefix: str, width: int) -> None:
    store.add(prefix + ".gamma", np.ones(width))
    store.add(prefix + ".beta", np.zeros(width))
    store.add(prefix + "._running_mean", np.zeros(width))
    store.add(prefix + "._running_var", np.ones(width))


# ---------------------------------------------------------------- layers


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    return x @ w + b, (x, w)


def dense_backward(dy: np.ndarray, cache):
    x, w = cache
    dx = dy @ w.T
    dw = x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    return dx, dw, db


def relu_forward(x: np.ndarray):
    y = np.maximum(x, 0.0)
    return y, (x > 0.0)


def relu_backward(dy: np.ndarray, cache):
    return dy * cache


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, with e = exp(-|x|)
    # so neither branch overflows; np.minimum returns its first NaN, so a
    # NaN keeps its sign, as in exp(x). As e <= 1, max(e, x >= 0) is the
    # numerator of both branches (a NaN stays NaN): a masked divide costs
    # far more on the random signs of LSTM gates.
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, d, out=e)


def lstm_cell_forward(x: np.ndarray, c: np.ndarray, w: np.ndarray, b: np.ndarray):
    """One step of a single-input LSTM cell.

    The incoming activation ``x`` plays the role of both input and
    recurrent state: gates are computed from ``x`` alone, and the
    returned ``h`` is fed back as the next step's ``x``.
    """
    width = x.shape[-1]
    gates = x @ w + b
    i = _sigmoid(gates[..., :width])
    f = _sigmoid(gates[..., width : 2 * width])
    g = np.tanh(gates[..., 2 * width : 3 * width])
    o = _sigmoid(gates[..., 3 * width :])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    h = o * tanh_c
    return h, c_new, (x, c, w, i, f, g, o, tanh_c)


def lstm_cell_backward(dh: np.ndarray, dc_new: np.ndarray, cache):
    x, c, w, i, f, g, o, tanh_c = cache
    dc_total = dc_new + dh * o * (1.0 - tanh_c * tanh_c)
    do = dh * tanh_c
    di = dc_total * g
    df = dc_total * c
    dg = dc_total * i
    dc = dc_total * f
    dgates = np.concatenate(
        [
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ],
        axis=-1,
    )
    dx = dgates @ w.T
    dw = x.reshape(-1, x.shape[-1]).T @ dgates.reshape(-1, dgates.shape[-1])
    db = dgates.reshape(-1, dgates.shape[-1]).sum(axis=0)
    return dx, dc, dw, db


def _im2col(x: np.ndarray, filter_size: int) -> np.ndarray:
    # x (B, S, C) -> (B, S, filter_size*C) with zero 'same' padding.
    b, s, c = x.shape
    pad = filter_size // 2
    xp = np.zeros((b, s + 2 * pad, c), dtype=x.dtype)
    xp[:, pad : pad + s, :] = x
    cols = np.empty((b, s, filter_size * c), dtype=x.dtype)
    for tap in range(filter_size):
        cols[:, :, tap * c : (tap + 1) * c] = xp[:, tap : tap + s, :]
    return cols


def conv1d_forward(x: np.ndarray, kernel: np.ndarray, b: np.ndarray):
    """'Same'-padded 1-d convolution. x (B, S, C_in), kernel
    (filter, C_in, C_out), output (B, S, C_out). Odd filter sizes only."""
    filter_size, c_in, c_out = kernel.shape
    if filter_size % 2 == 0:
        raise ParameterError("filter size must be odd for same padding")
    if x.shape[-1] != c_in:
        raise ParameterError(f"input has {x.shape[-1]} channels, kernel wants {c_in}")
    cols = _im2col(x, filter_size)
    w2 = kernel.reshape(filter_size * c_in, c_out)
    y = cols @ w2 + b
    return y, (cols, kernel, x.shape)


def conv1d_backward(dy: np.ndarray, cache):
    cols, kernel, x_shape = cache
    filter_size, c_in, c_out = kernel.shape
    b, s, _ = x_shape
    w2 = kernel.reshape(filter_size * c_in, c_out)
    dcols = dy @ w2.T
    dw2 = cols.reshape(-1, filter_size * c_in).T @ dy.reshape(-1, c_out)
    db = dy.reshape(-1, c_out).sum(axis=0)
    pad = filter_size // 2
    dxp = np.zeros((b, s + 2 * pad, c_in), dtype=dy.dtype)
    for tap in range(filter_size):
        dxp[:, tap : tap + s, :] += dcols[:, :, tap * c_in : (tap + 1) * c_in]
    dx = dxp[:, pad : pad + s, :]
    return dx, dw2.reshape(filter_size, c_in, c_out), db


def ragged_taps(sizes: list[int], filter_size: int):
    """(tap, dst, src) for each off-centre kernel tap of a 'same'
    convolution over concatenated sequences of ``sizes`` rows: the output
    rows dst whose input row src = dst + tap - filter_size // 2 lies in
    the same sequence. Taps with no such row are left out."""
    pad = filter_size // 2
    starts = list(accumulate(sizes, initial=0))
    taps = []
    for off in range(1, min(pad, max(sizes) - 1) + 1):
        # the rows with a row `off` later in their sequence; a plain loop
        # beats NumPy's per-call cost at a few dozen rows
        lo = np.array([s + i for s, k in zip(starts, sizes) for i in range(k - off)])
        taps += [(pad + off, lo, lo + off), (pad - off, lo + off, lo)]
    return taps


def conv1d_ragged_forward(x: np.ndarray, kernel: np.ndarray, b: np.ndarray, taps):
    """``conv1d_forward`` over concatenated sequences x (N, C_in), each
    with its own zero padding, with ``taps`` from ``ragged_taps``: only
    the row pairs inside a sequence are multiplied; y is (N, C_out)."""
    filter_size, c_in, _ = kernel.shape
    if filter_size % 2 == 0:
        raise ParameterError("filter size must be odd for same padding")
    if x.shape[-1] != c_in:
        raise ParameterError(f"input has {x.shape[-1]} channels, kernel wants {c_in}")
    y = x @ kernel[filter_size // 2] + b
    for tap, dst, src in taps:
        y[dst] += x[src] @ kernel[tap]
    return y, (x, kernel, taps)


def conv1d_ragged_backward(dy: np.ndarray, cache):
    """The transposed taps of ``conv1d_ragged_forward``. Within one tap
    the src rows are distinct, so a fancy-index ``+=`` adds each once."""
    x, kernel, taps = cache
    centre = kernel.shape[0] // 2
    dx = dy @ kernel[centre].T
    dk = np.zeros(kernel.shape, dtype=np.result_type(x, dy))
    dk[centre] = x.T @ dy
    for tap, dst, src in taps:
        dx[src] += dy[dst] @ kernel[tap].T
        dk[tap] = x[src].T @ dy[dst]
    return dx, dk, dy.sum(axis=0)


def batchnorm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                      running_mean: np.ndarray, running_var: np.ndarray,
                      training: bool, momentum: float = BN_MOMENTUM, eps: float = BN_EPS):
    """Normalize over all leading axes, per trailing feature channel.

    In training mode batch statistics are used and the running buffers
    are updated in place (biased variance). In eval mode the buffers are
    used and nothing is mutated.
    """
    width = x.shape[-1]
    flat = x.reshape(-1, width)
    if training:
        mean = flat.mean(axis=0)
        var = flat.var(axis=0)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    y = gamma * xhat + beta
    return y, (xhat, gamma, inv_std, training)


def batchnorm_backward(dy: np.ndarray, cache):
    xhat, gamma, inv_std, training = cache
    width = dy.shape[-1]
    dxhat = dy * gamma
    flat_dxhat = dxhat.reshape(-1, width)
    flat_xhat = xhat.reshape(-1, width)
    dgamma = (dy.reshape(-1, width) * flat_xhat).sum(axis=0)
    dbeta = dy.reshape(-1, width).sum(axis=0)
    if training:
        n = flat_xhat.shape[0]
        dx = (inv_std / n) * (
            n * flat_dxhat
            - flat_dxhat.sum(axis=0)
            - flat_xhat * (flat_dxhat * flat_xhat).sum(axis=0)
        )
        dx = dx.reshape(dy.shape)
    else:
        dx = dxhat * inv_std
    return dx, dgamma, dbeta


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


# ------------------------------------------------------------- optimizer


@dataclass
class AdamState:
    """Per-parameter first/second moment estimates plus the step count."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @staticmethod
    def for_store(store: ParamStore, lr: float = 0.001) -> "AdamState":
        state = AdamState(lr=lr)
        for name in store.trainable_names():
            state.m[name] = np.zeros_like(store[name], dtype=np.float64)
            state.v[name] = np.zeros_like(store[name], dtype=np.float64)
        return state


def adam_step(store: ParamStore, grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, in place.

    ``grads`` must cover exactly the trainable parameters of the store;
    callers pass explicit zeros for parameters that received no signal.
    """
    expected = set(store.trainable_names())
    got = set(grads)
    if expected != got:
        missing = sorted(expected - got)[:3]
        extra = sorted(got - expected)[:3]
        raise ContractError(f"gradient keys mismatch (missing={missing}, extra={extra})")
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    # Each parameter streams through two cache-sized scratch blocks; the
    # in-place steps keep the operation order of the textbook expressions,
    # so results are bit-identical to them.
    tmp_buf, den_buf = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for name in store.trainable_names():
        g = np.asarray(grads[name])
        if g.shape != store[name].shape:
            raise ContractError(f"gradient shape mismatch for {name!r}")
        # contiguous moments, so their flat reshapes are views updated in place
        state.m[name] = np.ascontiguousarray(state.m[name])
        state.v[name] = np.ascontiguousarray(state.v[name])
        g, m, v = g.reshape(-1), state.m[name].reshape(-1), state.v[name].reshape(-1)
        param = store[name].reshape(-1)
        # a new array, not an in-place write: frozen snapshots share the
        # store's arrays
        fresh = np.empty_like(param)
        for lo in range(0, g.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, g.size)
            gb = g[lo:hi].astype(np.float64, copy=False)
            mb, vb, out = m[lo:hi], v[lo:hi], fresh[lo:hi]
            tmp, den = tmp_buf[:hi - lo], den_buf[:hi - lo]
            mb *= state.beta1
            mb += np.multiply(gb, 1.0 - state.beta1, out=tmp)
            vb *= state.beta2
            np.multiply(gb, 1.0 - state.beta2, out=tmp)
            tmp *= gb
            vb += tmp
            np.divide(vb, bc2, out=den)
            np.sqrt(den, out=den)
            den += state.eps
            np.multiply(mb, state.lr / bc1, out=tmp)
            tmp /= den
            out[...] = tmp  # rounds to the store's dtype, as astype does
            np.subtract(param[lo:hi], out, out=out)
        store[name] = fresh.reshape(store[name].shape)


# ---------------------------------------------------------- grad checker


def finite_diff_check(loss_fn, store: ParamStore, analytic: dict[str, np.ndarray],
                      rng: np.random.Generator, samples_per_tensor: int = 4,
                      eps: float = 1e-5, names: list[str] | None = None) -> float:
    """Central-difference check of ``analytic`` against ``loss_fn``.

    ``loss_fn()`` must recompute the scalar loss from the store's current
    values. For each checked tensor a random subsample of entries is
    perturbed in place by +-eps (scaled by entry magnitude) and the
    two-sided slope is compared. Returns the maximum relative error
    max |fd - an| / max(|fd|, |an|, 1e-4) over the sampled entries.

    Run this in double precision; float32 roundoff swamps the bound.
    """
    if store.dtype != np.float64:
        raise ParameterError("finite_diff_check requires a float64 store")
    worst = 0.0
    for name in names if names is not None else list(analytic):
        arr = store[name]
        if arr.size == 0:
            continue
        flat_idx = rng.choice(arr.size, size=min(samples_per_tensor, arr.size), replace=False)
        for fi in flat_idx:
            idx = np.unravel_index(int(fi), arr.shape)
            orig = arr[idx]
            h = eps * max(1.0, abs(float(orig)))
            arr[idx] = orig + h
            up = loss_fn()
            arr[idx] = orig - h
            down = loss_fn()
            arr[idx] = orig
            fd = (up - down) / (2.0 * h)
            an = float(analytic[name][idx])
            err = abs(fd - an) / max(abs(fd), abs(an), 1e-4)
            worst = max(worst, err)
    return worst
