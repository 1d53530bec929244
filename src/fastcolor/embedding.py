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

from dataclasses import dataclass, field, replace
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
    "degree_onehot_matrix",
    "sampled_neighbors_all",
    "EmbeddingTable",
    "init_transfer_params",
    "transfer_forward",
    "transfer_backward",
    "compute_embeddings",
    "walks_forward",
    "walks_backward",
    "walk_value",
    "walk_backprop",
]

# Vertices per transfer call while building a table: one block's LSTM
# tapes are a few MB at the default widths, against V rows' worth when a
# whole iteration runs in one call.
EMBED_BLOCK = 512


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


def degree_onehot_matrix(g: Graph, bins: int = 32, dtype=np.float32) -> np.ndarray:
    """(V, bins) matrix of bucketed degrees; zero-degree graphs scale by 1."""
    maximum = max(1, g.max_degree)
    idx = np.minimum(g.degrees.astype(np.int64) * bins // maximum, bins - 1)
    out = np.zeros((g.n, bins), dtype=dtype)
    if g.n:
        out[np.arange(g.n), idx] = 1.0
    return out


def _neighbor_picks(seeds: np.ndarray, verts: np.ndarray, t: int, degs: np.ndarray) -> np.ndarray:
    """Position of each vertex's sampled neighbor in its adjacency row:
    the hash of (seed, v, t) modulo the degree (0 for isolated vertices)."""
    h = mix64(seeds, verts, np.uint64(t))
    return (h % np.maximum(degs, 1)).astype(np.int64)


def sampled_neighbors_all(g: Graph, t: int, seed: int) -> np.ndarray:
    """Sampled neighbor of every vertex at iteration t; -1 for isolated.

    The draw for vertex v is a pure function of (seed, v, t), so the
    scalar and vectorized paths agree and walks can be replayed.
    """
    if g.n == 0:
        return np.empty(0, dtype=np.int64)
    idx = _neighbor_picks(np.full(g.n, seed, dtype=np.uint64), np.arange(g.n, dtype=np.uint64),
                          t, g.degrees.astype(np.uint64))
    # gather only rows with neighbors; an isolated row's offset can sit
    # at the end of the adjacency array
    present = g.degrees > 0
    nbr = np.full(g.n, -1, dtype=np.int64)
    if present.any():
        pos = g.offsets[:-1][present] + idx[present]
        nbr[present] = g.neighbors[pos].astype(np.int64)
    return nbr


@dataclass
class EmbeddingTable:
    """Per-iteration embedding tables for one graph.

    ``tables[t]`` is the (V, D) table after t update iterations;
    ``tables[0]`` is all zeros. Keeping every iteration allows walk
    recomputation to read exact off-chain values.
    """

    graph_key: str
    seed: int
    tables: np.ndarray  # (T+1, V, D)
    capped_moves: int = field(default=0, compare=False)  # moves cut to candidate_cap
    # (weakref to an inference snapshot, its memo of pooled window terms);
    # see ``fastcolornet.evaluate_frozen``. Freed with the table.
    window_memo: tuple | None = field(default=None, init=False, compare=False, repr=False)

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


def _message_features(deg1hot: np.ndarray, prev: np.ndarray, nbrs: np.ndarray, lo: int) -> np.ndarray:
    """Messages of rows ``lo .. lo + len(nbrs)``, whose sampled neighbors
    are ``nbrs``; neighbor rows are read from the full ``deg1hot``/``prev``."""
    # [own degree bucket | own previous embedding | neighbor degree bucket |
    #  neighbor previous embedding]; both neighbor blocks zero when isolated.
    hi = lo + nbrs.shape[0]
    nbr_deg = np.zeros_like(deg1hot[lo:hi])
    nbr_prev = np.zeros_like(prev[lo:hi])
    present = nbrs >= 0
    nbr_deg[present] = deg1hot[nbrs[present]]
    nbr_prev[present] = prev[nbrs[present]]
    return np.concatenate([deg1hot[lo:hi], prev[lo:hi], nbr_deg, nbr_prev], axis=1)


def compute_embeddings(g: Graph, store: ParamStore, cfg, seed: int) -> EmbeddingTable:
    """Run T update iterations over every vertex, ``EMBED_BLOCK`` rows per
    transfer call, so the working set is the table plus one block's tapes.
    At the quick-start and ``Config()`` widths a row's result does not
    depend on the other rows (two or more) of its call, so the tables are
    bit-identical to one call per iteration; at some float64 widths the
    BLAS sums a row by its place in the call, and the last bit can differ."""
    dtype = store.dtype
    tables = np.zeros((cfg.embed_iterations + 1, g.n, cfg.embed_dim), dtype=dtype)
    deg1hot = degree_onehot_matrix(g, cfg.feature_bins, dtype=dtype)
    for t in range(1, cfg.embed_iterations + 1):
        nbrs = sampled_neighbors_all(g, t, seed)
        for lo in range(0, max(g.n - 1, 1), EMBED_BLOCK):
            # a one-row tail joins the block before it: NumPy multiplies a
            # single row by the matrix-vector path, which adds in another
            # order than the matrix product of a larger call
            hi = g.n if g.n - lo <= EMBED_BLOCK + 1 else lo + EMBED_BLOCK
            feats = _message_features(deg1hot, tables[t - 1], nbrs[lo:hi], lo)
            # index the result so the block's tapes are freed right away
            tables[t, lo:hi] = transfer_forward(store, cfg, feats)[0]
    return EmbeddingTable(graph_key=g.key(), seed=seed, tables=tables)


def _chain_levels(walks, top: int, length: int):
    """Every walk's reverse message chain, sampled level by level.

    Level k holds iteration ``top - k`` of every chain still running:
    (t, rows, verts, nbrs) with the walk indices in ascending order, the
    chain vertex and its sampled neighbor (-1 when isolated, which ends
    that chain). Each row draws its neighbor as ``sampled_neighbors_all`` does.
    """
    seeds = np.array([table.seed for _, table, _ in walks], dtype=np.uint64)
    rows = np.arange(len(walks))
    verts = np.array([v for _, _, v in walks], dtype=np.int64)
    levels = []
    for t in range(top, top - min(length, top), -1):
        if rows.size == 0:
            break
        graphs = [walks[w][0] for w in rows.tolist()]
        degs = np.array([g.degrees[v] for g, v in zip(graphs, verts.tolist())], dtype=np.uint64)
        picks = _neighbor_picks(seeds[rows], verts.astype(np.uint64), t, degs)
        nbrs = np.array([int(g.neighbors[g.offsets[v] + p]) if d else -1
                         for g, v, p, d in zip(graphs, verts.tolist(), picks.tolist(),
                                               degs.tolist())], dtype=np.int64)
        levels.append((t, rows, verts, nbrs))
        rows, verts = rows[nbrs >= 0], nbrs[nbrs >= 0]
    return levels


def walks_forward(store: ParamStore, cfg, walks: list[tuple[Graph, EmbeddingTable, int]],
                  length: int):
    """Live embeddings of many walks, recomputed with current params.

    ``walks`` lists (graph, table, vertex); each chain is sampled with its
    table's seed and truncated to ``length`` elements. Every chain starts
    at iteration T, so level k of every chain sits at iteration T - k and
    one ``transfer_forward`` per level, bottom-up, serves them all. A
    level's neighbor rows come from the level below where that chain
    continues, else from the table (constants); isolated neighbors give
    zero blocks. Returns the live rows (W, D) and the tape
    ``walks_backward`` needs; length 0 returns the cached rows.
    """
    dtype = store.dtype
    bins, dim = cfg.feature_bins, cfg.embed_dim
    levels = _chain_levels(walks, cfg.embed_iterations, length)
    if not levels:
        cached = np.array([table.tables[-1][v] for _, table, v in walks], dtype=dtype)
        return cached.reshape(len(walks), dim), []
    nbr_col = 2 * bins + dim
    tape = []
    below = None  # (rows, mu) of the level under the current one
    for t, rows, verts, nbrs in reversed(levels):
        feats = np.zeros((rows.size, nbr_col + dim), dtype=dtype)
        for i, (w, v, j) in enumerate(zip(rows.tolist(), verts.tolist(), nbrs.tolist())):
            g, table, _ = walks[w]
            prev = table.tables[t - 1]
            maximum = max(1, g.max_degree)
            feats[i, encode_onehot(g.degree(v), maximum, bins)] = 1.0
            feats[i, bins:bins + dim] = prev[v]
            if j >= 0:
                feats[i, bins + dim + encode_onehot(g.degree(j), maximum, bins)] = 1.0
                feats[i, nbr_col:] = prev[j]
        down = np.empty(0, dtype=np.int64)
        if below is not None:
            # rows whose chain continues read the fresh neighbor row
            down = np.searchsorted(rows, below[0])
            feats[down, nbr_col:] = below[1]
        mu, cache = transfer_forward(store, cfg, feats)
        tape.append((cache, down))
        below = (rows, mu)
    tape.reverse()
    return below[1], tape


def walks_backward(store: ParamStore, cfg, tape, upstream: np.ndarray) -> dict[str, np.ndarray]:
    """Summed transfer-parameter gradients of ``walks_forward``'s walks.

    ``upstream`` (W, D) is the loss gradient on the live rows. One
    ``transfer_backward`` per level, top-down; only the neighbor-embedding
    block of rows whose chain continues flows to the level below. Every
    off-chain embedding is a constant, so the only parameter gradients
    are those of the chains' own transfer applications.
    """
    grads = {name: np.zeros_like(store[name]) for name in
             ("emb.in.w", "emb.in.b", "emb.cell.w", "emb.cell.b", "emb.out.w", "emb.out.b")}
    d_mu = np.asarray(upstream, dtype=store.dtype)
    nbr_col = 2 * cfg.feature_bins + cfg.embed_dim
    for cache, down in tape:
        dfeat, level_grads = transfer_backward(store, d_mu, cache)
        for name, val in level_grads.items():
            grads[name] += val
        d_mu = dfeat[down, nbr_col:]
    return grads


def walk_value(g: Graph, store: ParamStore, cfg, table: EmbeddingTable,
               vertex: int, length: int | None, seed: int) -> np.ndarray:
    """Embedding of ``vertex`` recomputed through its walk with current
    params; equals the cached row when params match the table's. Length 0
    returns the cached row itself. The one-walk case of ``walks_forward``."""
    if length is None:
        length = cfg.embed_iterations
    live, _ = walks_forward(store, cfg, [(g, replace(table, seed=seed), vertex)], length)
    return live[0]


def walk_backprop(g: Graph, store: ParamStore, cfg, table: EmbeddingTable,
                  vertex: int, upstream: np.ndarray, length: int | None, seed: int) -> dict[str, np.ndarray]:
    """Transfer-parameter gradients from a loss gradient on one embedding;
    the one-walk case of ``walks_forward``/``walks_backward``. Empty
    chains (length 0) give zero gradients."""
    if length is None:
        length = cfg.embed_iterations
    _, tape = walks_forward(store, cfg, [(g, replace(table, seed=seed), vertex)], length)
    return walks_backward(store, cfg, tape, np.asarray(upstream)[None, :])
