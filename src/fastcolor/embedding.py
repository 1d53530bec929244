"""Vertex embeddings from a learned LSTM transfer function.

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
    "sampled_neighbors",
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


def sampled_neighbors(g: Graph, t: int, seed: int, verts: np.ndarray) -> np.ndarray:
    """Sampled neighbor of each of ``verts`` at iteration t; -1 for isolated.

    The draw for vertex v is ``mix64(seed, v, t)`` modulo its degree, a
    pure function of (seed, v, t), so a walk replays the table build's
    draws whatever rows it asks for.
    """
    degs = g.degrees[verts]
    present = degs > 0
    nbrs = np.full(len(verts), -1, dtype=np.int64)
    # gather only rows with neighbors; an isolated row's offset can sit
    # at the end of the adjacency array
    v = verts[present]
    picks = mix64(seed, v, t) % degs[present].astype(np.uint64)
    nbrs[present] = g.neighbors[g.offsets[v] + picks.astype(np.int64)]
    return nbrs


def _degree_buckets(g: Graph, verts: np.ndarray, bins: int) -> np.ndarray:
    """Degree bucket of each of ``verts``: min(deg * bins // max_degree,
    bins - 1), where an edgeless graph scales by 1."""
    return np.minimum(g.degrees[verts].astype(np.int64) * bins // max(1, g.max_degree), bins - 1)


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
    dx, dw_out, db_out = dense_backward(dmu, out_cache)
    dc = np.zeros_like(dx)
    dw_cell = db_cell = 0.0
    for step in reversed(step_caches):
        dx, dc, dw, db = lstm_cell_backward(dx, dc, step)
        dw_cell, db_cell = dw_cell + dw, db_cell + db
    dfeat, dw_in, db_in = dense_backward(dx, in_cache)
    return dfeat, {"emb.in.w": dw_in, "emb.in.b": db_in, "emb.cell.w": dw_cell,
                   "emb.cell.b": db_cell, "emb.out.w": dw_out, "emb.out.b": db_out}


def _message_features(g: Graph, bins: int, prev: np.ndarray, verts: np.ndarray,
                      nbrs: np.ndarray) -> np.ndarray:
    """Messages of ``verts``, whose sampled neighbors are ``nbrs``, read
    from the previous iteration's table ``prev``: [own degree bucket | own
    previous embedding | neighbor degree bucket | neighbor previous
    embedding], both neighbor blocks zero when isolated (-1)."""
    dim = prev.shape[1]
    feats = np.zeros((len(verts), 2 * (bins + dim)), dtype=prev.dtype)
    rows = np.arange(len(verts))
    present = nbrs >= 0
    feats[rows, _degree_buckets(g, verts, bins)] = 1.0
    feats[:, bins:bins + dim] = prev[verts]
    feats[rows[present], bins + dim + _degree_buckets(g, nbrs[present], bins)] = 1.0
    feats[present, 2 * bins + dim:] = prev[nbrs[present]]
    return feats


def compute_embeddings(g: Graph, store: ParamStore, cfg, seed: int) -> EmbeddingTable:
    """Run T update iterations over every vertex, ``EMBED_BLOCK`` rows per
    transfer call, so the working set is the table plus one block's tapes.
    At the quick-start and ``Config()`` widths a row's result does not
    depend on the other rows (two or more) of its call, so the tables are
    bit-identical to one call per iteration; at some float64 widths the
    BLAS sums a row by its place in the call, and the last bit can differ."""
    dtype = store.dtype
    tables = np.zeros((cfg.embed_iterations + 1, g.n, cfg.embed_dim), dtype=dtype)
    for t in range(1, cfg.embed_iterations + 1):
        nbrs = sampled_neighbors(g, t, seed, np.arange(g.n))
        for lo in range(0, max(g.n - 1, 1), EMBED_BLOCK):
            # a one-row tail joins the block before it: NumPy multiplies a
            # single row by the matrix-vector path, which adds in another
            # order than the matrix product of a larger call
            hi = g.n if g.n - lo <= EMBED_BLOCK + 1 else lo + EMBED_BLOCK
            feats = _message_features(g, cfg.feature_bins, tables[t - 1], np.arange(lo, hi),
                                      nbrs[lo:hi])
            # index the result so the block's tapes are freed right away
            tables[t, lo:hi] = transfer_forward(store, cfg, feats)[0]
    return EmbeddingTable(graph_key=g.key(), seed=seed, tables=tables)


def _chain_levels(groups: dict, group: np.ndarray, verts: np.ndarray, top: int, length: int):
    """Every walk's reverse message chain, sampled level by level.

    Walk w starts at vertex ``verts[w]`` and draws with the graph and seed
    of table ``groups[group[w]]``. Level k holds iteration ``top - k`` of
    every chain still running: (t, rows, verts, nbrs) with the walk
    indices in ascending order, the chain vertex and its sampled neighbor
    (-1 when isolated, which ends that chain).
    """
    rows = np.arange(len(verts))
    levels = []
    for t in range(top, top - min(length, top), -1):
        if rows.size == 0:
            break
        nbrs = np.empty_like(verts)
        for key, (g, table) in groups.items():
            sel = group[rows] == key
            nbrs[sel] = sampled_neighbors(g, t, table.seed, verts[sel])
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
    zero blocks. Walks sharing a table share its graph and seed, so each
    level draws and builds the messages of one table's rows in one call.
    Returns the live rows (W, D) and the tape ``walks_backward`` needs;
    length 0 returns the cached rows.
    """
    dtype = store.dtype
    bins, dim = cfg.feature_bins, cfg.embed_dim
    groups = {id(table): (g, table) for g, table, _ in walks}
    group = np.array([id(table) for _, table, _ in walks], dtype=np.int64)
    verts = np.array([v for _, _, v in walks], dtype=np.int64)
    levels = _chain_levels(groups, group, verts, cfg.embed_iterations, length)
    if not levels:
        cached = np.empty((len(walks), dim), dtype=dtype)
        for key, (_, table) in groups.items():
            sel = group == key
            cached[sel] = table.tables[-1][verts[sel]]
        return cached, []
    nbr_col = 2 * bins + dim
    tape = []
    below = None  # (rows, mu) of the level under the current one
    for t, rows, verts, nbrs in reversed(levels):
        feats = np.empty((rows.size, nbr_col + dim), dtype=dtype)
        for key, (g, table) in groups.items():
            sel = group[rows] == key
            feats[sel] = _message_features(g, bins, table.tables[t - 1], verts[sel], nbrs[sel])
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
