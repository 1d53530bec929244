"""Shared graph constructions and reference helpers used across the test suite."""

import tracemalloc

import numpy as np
import pytest

from fastcolor.coloring import ActionSet, ColoringState, outcome_vs_baseline
from fastcolor.errors import ContractError, ParameterError
from fastcolor.fastcolornet import (
    InferenceNet,
    MoveInput,
    policy_value_forward,
    window_terms,
)
from fastcolor.graph import Graph
from fastcolor.nn import ParamStore
from fastcolor.rng import mix64


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def crown_graph(n: int) -> Graph:
    """Complete bipartite K_{n/2,n/2} minus a perfect matching, with the
    two sides interleaved: side A at even ids, side B at odd ids. The
    interleaving makes id-order greedy use n/2 colors while the chromatic
    number is 2."""
    assert n % 2 == 0 and n >= 4
    half = n // 2
    return Graph.from_edges(
        n, [(2 * i, 2 * j + 1) for i in range(half) for j in range(half) if i != j]
    )


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def encode_onehot(value: int, maximum: int, size: int = 32) -> int:
    """Reference bucket index = min(floor(value / maximum * size), size - 1).

    ``maximum = 0`` maps everything (necessarily 0) to bucket 0. The
    clamp handles value == maximum, where the raw formula says ``size``.
    """
    if maximum < 0:
        raise ParameterError(f"maximum must be >= 0, got {maximum}")
    if value < 0 or value > maximum:
        raise ContractError(f"value {value} outside [0, {maximum}]")
    if maximum == 0:
        return 0
    return min(int(value * size // maximum), size - 1)


def degree_onehot_matrix(g: Graph, bins: int = 32, dtype=np.float32) -> np.ndarray:
    """Reference (V, bins) matrix of bucketed degrees; zero-degree graphs
    scale by 1."""
    maximum = max(1, g.max_degree)
    idx = np.minimum(g.degrees.astype(np.int64) * bins // maximum, bins - 1)
    out = np.zeros((g.n, bins), dtype=dtype)
    if g.n:
        out[np.arange(g.n), idx] = 1.0
    return out


def sampled_neighbors_all(g: Graph, t: int, seed: int) -> np.ndarray:
    """Reference sampled neighbor of every vertex at iteration t, -1 for
    isolated: the hash of (seed, v, t) modulo the degree, drawn for every
    vertex at once."""
    if g.n == 0:
        return np.empty(0, dtype=np.int64)
    degs = g.degrees.astype(np.uint64)
    h = mix64(np.full(g.n, seed, dtype=np.uint64), np.arange(g.n, dtype=np.uint64), np.uint64(t))
    idx = (h % np.maximum(degs, 1)).astype(np.int64)
    present = g.degrees > 0
    nbr = np.full(g.n, -1, dtype=np.int64)
    if present.any():
        pos = g.offsets[:-1][present] + idx[present]
        nbr[present] = g.neighbors[pos].astype(np.int64)
    return nbr


def onehot_vector(value: int, maximum: int, size: int = 32, dtype=np.float32) -> np.ndarray:
    """One bucketed one-hot feature vector, built from ``encode_onehot``."""
    vec = np.zeros(size, dtype=dtype)
    vec[encode_onehot(value, maximum, size)] = 1.0
    return vec


def reference_conv1d_forward(x: np.ndarray, kernel: np.ndarray, b: np.ndarray):
    """Reference 'same'-padded 1-d convolution by im2col: x (B, S, C_in)
    is zero padded, its filter-wide windows copied into columns
    (B, S, filter * C_in), and the columns multiplied by the flattened
    kernel in one product. Returns ``(y, cache)``."""
    filter_size, c_in, c_out = kernel.shape
    batch, s, _ = x.shape
    pad = filter_size // 2
    xp = np.zeros((batch, s + 2 * pad, c_in), dtype=x.dtype)
    xp[:, pad : pad + s, :] = x
    cols = np.empty((batch, s, filter_size * c_in), dtype=x.dtype)
    for tap in range(filter_size):
        cols[:, :, tap * c_in : (tap + 1) * c_in] = xp[:, tap : tap + s, :]
    y = cols @ kernel.reshape(filter_size * c_in, c_out) + b
    return y, (cols, kernel, x.shape)


def reference_conv1d_backward(dy: np.ndarray, cache):
    """``(dx, dk, db)`` of ``reference_conv1d_forward``: the column
    gradient scattered back onto the padded input, tap by tap."""
    cols, kernel, (batch, s, _) = cache
    filter_size, c_in, c_out = kernel.shape
    w2 = kernel.reshape(filter_size * c_in, c_out)
    dcols = dy @ w2.T
    dw2 = cols.reshape(-1, filter_size * c_in).T @ dy.reshape(-1, c_out)
    pad = filter_size // 2
    dxp = np.zeros((batch, s + 2 * pad, c_in), dtype=dy.dtype)
    for tap in range(filter_size):
        dxp[:, tap : tap + s, :] += dcols[:, :, tap * c_in : (tap + 1) * c_in]
    return dxp[:, pad : pad + s, :], dw2.reshape(kernel.shape), dy.reshape(-1, c_out).sum(axis=0)


def randomize_inference_params(store: ParamStore, rng) -> None:
    """Batchnorm statistics away from the identity and non-zero heads."""
    for name in store.names():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("gamma", "beta", "_running_mean") or ".head." in name:
            store[name] = rng.normal(size=store[name].shape)
        elif leaf == "_running_var":
            store[name] = rng.uniform(0.1, 4.0, size=store[name].shape)


def random_move(cfg, k: int, rng) -> MoveInput:
    """A move with k candidates and random contexts in the config dtype."""
    w, m, dim = cfg.window, cfg.color_set_size, cfg.embed_dim

    def draw(*shape):
        return rng.normal(size=shape).astype(cfg.dtype)

    return MoveInput(table=None, graph=None, gc=draw(4 * cfg.feature_bins),
                     pc=draw(2 * w, dim), pc_vertices=np.full(2 * w, -1),
                     cand_sets=draw(k, m, dim), cand_vertices=np.full((k, m), -1),
                     actions=list(range(k)))


def stack_contexts(moves: list[MoveInput]):
    """``(gc, pc, slots, sizes)``: the moves' graph contexts (B, G) and
    problem windows (B, 2w, D) stacked, the member-slot rows of every
    candidate concatenated (N, m * D), and the moves' candidate counts;
    the arrays ``decode_logits`` and ``policy_value_forward`` take, built
    move by move."""
    sizes = [mi.cand_sets.shape[0] for mi in moves]
    slots = np.concatenate([mi.cand_sets.reshape(k, -1) for mi, k in zip(moves, sizes)])
    return np.stack([mi.gc for mi in moves]), np.stack([mi.pc for mi in moves]), slots, sizes


def forward_moves(net: InferenceNet, moves: list[MoveInput]):
    """``policy_value_forward`` of the moves' own contexts: (p (K_b,) per
    move, v3 (B, 3)), their window terms computed for this call alone."""
    gc, pc, slots, sizes = stack_contexts(moves)
    return policy_value_forward(net, gc, window_terms(net, pc), slots, sizes)


def policy_forward(net: InferenceNet, mi: MoveInput) -> np.ndarray:
    """Candidate probabilities (K,) for one move; what p_forward computes
    with training=False."""
    return forward_moves(net, [mi])[0][0]


class RolloutEvaluator:
    """Uniform priors; value = exact outcome of a greedy completion,
    played on the state itself and undone before returning. A
    network-free evaluator whose leaf values are exact."""

    def __init__(self, t_end: int, baseline_cum: np.ndarray):
        self.t_end = t_end
        self.baseline_cum = baseline_cum

    def evaluate(self, state: ColoringState):
        actions = state.valid_actions().actions()
        priors = np.full(len(actions), 1.0 / len(actions))
        start = state.t
        while state.t < self.t_end:
            state.apply_inplace(state.greedy_action())
        v = outcome_vs_baseline(state.colors_used,
                                int(self.baseline_cum[self.t_end])).game_value
        while state.t > start:
            state.undo()
        return actions, priors, v


def traced_peak(fn):
    """``(fn(), peak)``: peak is the most memory, in bytes, that ``fn``
    held at once beyond what was allocated before the call (tracemalloc).
    It counts allocations, not time, so it repeats exactly."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def reference_blocked(state: ColoringState) -> set[int]:
    """Colors of the current vertex's colored neighbors, read from ``color_of``."""
    cols = state.color_of[state.graph.neighbors_of(int(state.order[state.t]))]
    return set(cols[cols >= 0].tolist())


def assert_moves_match_colors(state: ColoringState) -> None:
    """``valid_actions``, ``greedy_action`` and the conflict check agree
    with the blocked colors read from ``color_of``; a rejected move leaves
    the state as it was."""
    blocked = reference_blocked(state)
    free = tuple(c for c in range(state.colors_used) if c not in blocked)
    assert state.valid_actions() == ActionSet(existing=free, new_color=state.colors_used)
    assert state.greedy_action() == (free[0] if free else state.colors_used)
    t, color_of = state.t, state.color_of.copy()
    for c in sorted(blocked):
        with pytest.raises(ContractError, match="conflicts"):
            state.apply_inplace(c)
    assert state.t == t and np.array_equal(state.color_of, color_of)


def assert_same_state(got: ColoringState, want: ColoringState) -> None:
    """Every field a reader can see, plus the moves each state offers,
    checked against ``color_of`` too."""
    assert got.graph is want.graph and np.array_equal(got.order, want.order)
    assert got.t == want.t and got.colors_used == want.colors_used
    assert np.array_equal(got.color_of, want.color_of)
    assert got.color_members == want.color_members
    if not want.is_terminal:
        assert_moves_match_colors(got)
        assert got.valid_actions() == want.valid_actions()
        assert got.greedy_action() == want.greedy_action()


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture
def crown8() -> Graph:
    return crown_graph(8)


@pytest.fixture
def petersen() -> Graph:
    return petersen_graph()


@pytest.fixture
def empty3() -> Graph:
    return Graph.from_edges(3, [])
