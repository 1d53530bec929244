"""Vertex embeddings from a learned LSTM transfer function, plus the
bucketed one-hot feature encoders.

Embeddings are static per graph: each of T update iterations feeds every
vertex a message built from its own degree bucket and previous embedding
together with those of one uniformly sampled neighbor. The sample is
counter-seeded per (global seed, vertex, iteration), so any vertex's
message chain can be regenerated later without storing it; that is what
makes walk-truncated backpropagation possible: gradients follow the exact
sampled chain backwards for a bounded number of iterations while every
off-chain embedding is held constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractError, ParameterError
from .graph import Graph
from .nn import (
    ParamStore,
    dense_backward,
    dense_forward,
    init_dense,
    init_lstm,
    lstm_cell_backward,
    lstm_cell_forward,
)
from .rng import mix64

__all__ = [
    "encode_onehot",
    "onehot_vector",
    "degree_onehot_matrix",
    "sampled_neighbor",
    "sampled_neighbors_all",
    "EmbeddingTable",
    "init_transfer_params",
    "transfer_forward",
    "transfer_backward",
    "compute_embeddings",
    "sample_walk",
    "walk_value",
    "walk_backprop",
]


def encode_onehot(value: int, maximum: int, size: int = 32) -> int:
    """Bucket index = min(floor(value / maximum * size), size - 1).

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


def onehot_vector(value: int, maximum: int, size: int = 32, dtype=np.float32) -> np.ndarray:
    vec = np.zeros(size, dtype=dtype)
    vec[encode_onehot(value, maximum, size)] = 1.0
    return vec


def degree_onehot_matrix(g: Graph, bins: int = 32, dtype=np.float32) -> np.ndarray:
    """(V, bins) matrix of bucketed degrees; zero-degree graphs scale by 1."""
    maximum = max(1, g.max_degree)
    idx = np.minimum(g.degrees.astype(np.int64) * bins // maximum, bins - 1)
    out = np.zeros((g.n, bins), dtype=dtype)
    if g.n:
        out[np.arange(g.n), idx] = 1.0
    return out


def sampled_neighbors_all(g: Graph, t: int, seed: int) -> np.ndarray:
    """Sampled neighbor of every vertex at iteration t; -1 for isolated.

    The draw for vertex v is a pure function of (seed, v, t), so the
    scalar and vectorized paths agree and walks can be replayed.
    """
    if g.n == 0:
        return np.empty(0, dtype=np.int64)
    degs = g.degrees.astype(np.uint64)
    safe = np.maximum(degs, 1)
    h = mix64(np.full(g.n, seed, dtype=np.uint64), np.arange(g.n, dtype=np.uint64), np.full(g.n, t, dtype=np.uint64))
    idx = (np.asarray(h, dtype=np.uint64) % safe).astype(np.int64)
    # gather only rows with neighbors; an isolated row's offset can sit
    # at the end of the adjacency array
    present = g.degrees > 0
    nbr = np.full(g.n, -1, dtype=np.int64)
    if present.any():
        pos = g.offsets[:-1][present] + idx[present]
        nbr[present] = g.neighbors[pos].astype(np.int64)
    return nbr


def sampled_neighbor(g: Graph, v: int, t: int, seed: int) -> int | None:
    deg = g.degree(v)
    if deg == 0:
        return None
    h = int(mix64(np.uint64(seed), np.uint64(v), np.uint64(t)))
    return int(g.neighbors_of(v)[h % deg])


@dataclass
class EmbeddingTable:
    """Per-iteration embedding tables for one graph.

    ``tables[t]`` is the (V, D) table after t update iterations;
    ``tables[0]`` is all zeros. Keeping every iteration allows walk
    recomputation to read exact off-chain values.
    """

    graph_key: str
    seed: int
    iterations: int
    tables: np.ndarray  # (T+1, V, D)
    capped_moves: int = field(default=0, compare=False)  # moves cut to candidate_cap

    @property
    def final(self) -> np.ndarray:
        return self.tables[-1]

    @cached_property
    def padded(self) -> np.ndarray:
        """``final`` plus a zero row last, so a gather of vertex ids with
        -1 for padding yields zeros there."""
        return np.concatenate([self.final, np.zeros_like(self.final[:1])])


def init_transfer_params(store: ParamStore, cfg, rng: np.random.Generator) -> None:
    """Transfer-function parameters under the 'emb.' prefix.

    Layout: input projection (feature concat -> hidden), one shared LSTM
    cell applied L times, output projection (hidden -> embedding width).
    """
    feat = 2 * (cfg.feature_bins + cfg.embed_dim)
    init_dense(store, "emb.in", feat, cfg.embed_hidden, rng)
    init_lstm(store, "emb.cell", cfg.embed_hidden, rng)
    init_dense(store, "emb.out", cfg.embed_hidden, cfg.embed_dim, rng)


def transfer_forward(store: ParamStore, cfg, features: np.ndarray):
    """Apply the transfer function to a batch of message vectors.

    features (N, 2*(bins+D)) -> embeddings (N, D). The LSTM runs L steps
    from a zero cell state, with its own output fed back as input.
    """
    x, in_cache = dense_forward(features, store["emb.in.w"], store["emb.in.b"])
    c = np.zeros_like(x)
    step_caches = []
    for _ in range(cfg.lstm_steps):
        x, c, cache = lstm_cell_forward(x, c, store["emb.cell.w"], store["emb.cell.b"])
        step_caches.append(cache)
    mu, out_cache = dense_forward(x, store["emb.out.w"], store["emb.out.b"])
    return mu, (in_cache, step_caches, out_cache)


def transfer_backward(store: ParamStore, dmu: np.ndarray, cache):
    """Gradients of the transfer function; returns (d_features, grads)."""
    in_cache, step_caches, out_cache = cache
    grads = {
        "emb.in.w": 0.0, "emb.in.b": 0.0,
        "emb.cell.w": 0.0, "emb.cell.b": 0.0,
        "emb.out.w": 0.0, "emb.out.b": 0.0,
    }
    dx, dw, db = dense_backward(dmu, out_cache)
    grads["emb.out.w"] = grads["emb.out.w"] + dw
    grads["emb.out.b"] = grads["emb.out.b"] + db
    dc = np.zeros_like(dx)
    for step in reversed(step_caches):
        dx, dc, dw, db = lstm_cell_backward(dx, dc, step)
        grads["emb.cell.w"] = grads["emb.cell.w"] + dw
        grads["emb.cell.b"] = grads["emb.cell.b"] + db
    dfeat, dw, db = dense_backward(dx, in_cache)
    grads["emb.in.w"] = grads["emb.in.w"] + dw
    grads["emb.in.b"] = grads["emb.in.b"] + db
    return dfeat, grads


def _message_features(deg1hot: np.ndarray, prev: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    # [own degree bucket | own previous embedding | neighbor degree bucket |
    #  neighbor previous embedding]; both neighbor blocks zero when isolated.
    n = deg1hot.shape[0]
    nbr_deg = np.zeros_like(deg1hot)
    nbr_prev = np.zeros_like(prev)
    present = nbrs >= 0
    nbr_deg[present] = deg1hot[nbrs[present]]
    nbr_prev[present] = prev[nbrs[present]]
    return np.concatenate([deg1hot, prev, nbr_deg, nbr_prev], axis=1)


def compute_embeddings(g: Graph, store: ParamStore, cfg, seed: int) -> EmbeddingTable:
    """Run T update iterations over every vertex (vectorized)."""
    if cfg.embed_iterations < 0:
        raise ParameterError("iterations must be >= 0")
    dtype = store.dtype
    tables = np.zeros((cfg.embed_iterations + 1, g.n, cfg.embed_dim), dtype=dtype)
    deg1hot = degree_onehot_matrix(g, cfg.feature_bins, dtype=dtype)
    for t in range(1, cfg.embed_iterations + 1):
        nbrs = sampled_neighbors_all(g, t, seed)
        feats = _message_features(deg1hot, tables[t - 1], nbrs)
        mu, _ = transfer_forward(store, cfg, feats)
        tables[t] = mu
    return EmbeddingTable(graph_key=g.key(), seed=seed, iterations=cfg.embed_iterations, tables=tables)


def sample_walk(g: Graph, cfg, vertex: int, length: int, seed: int) -> list[tuple[int, int, int | None]]:
    """The reverse message chain ending at ``vertex``.

    Element (t, v, j) says: at iteration t, vertex v consumed the message
    from j (None when v is isolated; the chain stops there because a zero
    message carries no gradient). At most min(length, T) elements.
    """
    chain: list[tuple[int, int, int | None]] = []
    v = vertex
    t = cfg.embed_iterations
    while t >= 1 and len(chain) < length:
        j = sampled_neighbor(g, v, t, seed)
        chain.append((t, v, j))
        if j is None:
            break
        v = j
        t -= 1
    return chain


def _walk_forward(g: Graph, store: ParamStore, cfg, table: EmbeddingTable,
                  chain: list[tuple[int, int, int | None]]):
    """Recompute embeddings along the chain bottom-up with current params.

    Off-chain inputs come from ``table`` (constants). Returns the top
    embedding (for ``chain[0]``'s vertex) and per-element caches.
    """
    maximum = max(1, g.max_degree)

    def deg1hot(u: int) -> np.ndarray:
        # the chain vertex's row of degree_onehot_matrix, without building it
        return onehot_vector(g.degree(u), maximum, cfg.feature_bins, store.dtype)

    caches = []
    lower_mu: np.ndarray | None = None
    for t, v, j in reversed(chain):
        own_prev = table.tables[t - 1][v]
        if j is None:
            nbr_deg = np.zeros(cfg.feature_bins, dtype=store.dtype)
            nbr_prev = np.zeros(cfg.embed_dim, dtype=store.dtype)
        else:
            nbr_deg = deg1hot(j)
            nbr_prev = lower_mu if lower_mu is not None else table.tables[t - 1][j]
        feats = np.concatenate([deg1hot(v), own_prev, nbr_deg, nbr_prev])[None, :]
        mu, cache = transfer_forward(store, cfg, feats)
        caches.append(cache)
        lower_mu = mu[0]
    return lower_mu, caches


def walk_value(g: Graph, store: ParamStore, cfg, table: EmbeddingTable,
               vertex: int, length: int | None, seed: int) -> np.ndarray:
    """Embedding of ``vertex`` recomputed through its walk with current
    params; equals the cached row when params match the table's. Length 0
    returns the cached row itself."""
    if length is None:
        length = cfg.embed_iterations
    chain = sample_walk(g, cfg, vertex, length, seed)
    if not chain:
        return np.array(table.tables[-1][vertex], copy=True)
    mu, _ = _walk_forward(g, store, cfg, table, chain)
    return mu


def walk_backprop(g: Graph, store: ParamStore, cfg, table: EmbeddingTable,
                  vertex: int, upstream: np.ndarray, length: int | None, seed: int) -> dict[str, np.ndarray]:
    """Transfer-parameter gradients from a loss gradient on one embedding.

    Recomputes the sampled chain (length capped at T) and backpropagates
    ``upstream`` through it; every off-chain embedding is a constant, so
    the only parameter gradients produced are those of the chain's own
    transfer applications. Empty chains (length 0) give zero gradients.
    """
    if length is None:
        length = cfg.embed_iterations
    chain = sample_walk(g, cfg, vertex, length, seed)
    grads = {name: np.zeros_like(store[name]) for name in
             ("emb.in.w", "emb.in.b", "emb.cell.w", "emb.cell.b", "emb.out.w", "emb.out.b")}
    if not chain:
        return grads
    _, caches = _walk_forward(g, store, cfg, table, chain)
    d_mu = np.asarray(upstream, dtype=store.dtype)[None, :]
    bins, dim = cfg.feature_bins, cfg.embed_dim
    # caches are bottom-up; walk gradient flows top-down.
    for cache, (t, v, j) in zip(reversed(caches), chain):
        dfeat, step_grads = transfer_backward(store, d_mu, cache)
        for name, val in step_grads.items():
            grads[name] += val
        if j is None:
            break
        # Only the neighbor-embedding block continues down the chain.
        d_mu = dfeat[:, bins + dim + bins:]
    return grads
