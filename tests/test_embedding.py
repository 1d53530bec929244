"""Feature encoders, embedding tables, and walk-truncated gradients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastcolor import embedding
from fastcolor.config import Config
from fastcolor.embedding import (
    EmbeddingTable,
    compute_embeddings,
    degree_onehot_matrix,
    encode_onehot,
    init_transfer_params,
    sampled_neighbors_all,
    transfer_backward,
    transfer_forward,
    walk_backprop,
    walk_value,
    walks_backward,
    walks_forward,
)
from fastcolor.errors import ContractError
from fastcolor.graph import Graph, gen_er, gen_ws
from fastcolor.nn import ParamStore, finite_diff_check
from fastcolor.rng import make_rng, mix64

from conftest import cycle_graph, onehot_vector, path_graph, star_graph, traced_peak


# -- one-vertex references for the vectorized sampling and walk paths --


def sampled_neighbor(g: Graph, v: int, t: int, seed: int) -> int | None:
    deg = g.degree(v)
    if deg == 0:
        return None
    h = int(mix64(np.uint64(seed), np.uint64(v), np.uint64(t)))
    return int(g.neighbors_of(v)[h % deg])


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


def small_cfg(**kw) -> Config:
    base = dict(feature_bins=8, embed_dim=6, embed_hidden=10, embed_iterations=3, lstm_steps=2)
    base.update(kw)
    return Config(**base)


def make_store(cfg: Config, seed: int = 0, dtype=np.float64) -> ParamStore:
    store = ParamStore(dtype=dtype)
    init_transfer_params(store, cfg, make_rng(seed))
    return store


class TestEncoders:
    def test_midpoint(self):
        assert encode_onehot(5, 10, 32) == 16

    def test_zero(self):
        assert encode_onehot(0, 7, 32) == 0
        assert encode_onehot(0, 0, 32) == 0

    def test_value_at_max_clamps(self):
        assert encode_onehot(10, 10, 32) == 31

    def test_above_max_rejected(self):
        with pytest.raises(ContractError):
            encode_onehot(11, 10, 32)

    def test_monotone_and_surjective(self):
        idx = [encode_onehot(v, 100, 32) for v in range(101)]
        assert idx == sorted(idx)
        assert set(idx) == set(range(32))

    def test_onehot_vector_single_nonzero(self):
        vec = onehot_vector(5, 10, 32)
        assert vec.shape == (32,)
        assert vec.sum() == 1.0 and vec[16] == 1.0

    def test_degree_matrix_regular_graph_clamps(self):
        g = cycle_graph(4)
        mat = degree_onehot_matrix(g, bins=8)
        # every degree equals max_degree, so every row hits the top bucket
        assert np.array_equal(mat.sum(axis=1), np.ones(4))
        assert np.array_equal(mat[:, 7], np.ones(4))

    def test_degree_matrix_empty_graph(self):
        g = Graph.from_edges(3, [])
        mat = degree_onehot_matrix(g, bins=8)
        assert np.array_equal(mat[:, 0], np.ones(3))


class TestNeighborSampling:
    def test_scalar_matches_vectorized(self):
        g = path_graph(6)
        for t in (1, 2, 3):
            allv = sampled_neighbors_all(g, t, seed=9)
            for v in range(6):
                got = sampled_neighbor(g, v, t, seed=9)
                assert (got if got is not None else -1) == allv[v]

    def test_isolated_vertex_has_no_sample(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert sampled_neighbor(g, 2, 1, seed=0) is None
        assert sampled_neighbors_all(g, 1, seed=0)[2] == -1

    def test_samples_are_valid_neighbors(self):
        g = gen_ws(64, 4, 0.3, seed=2)
        for t in (1, 2):
            nbr = sampled_neighbors_all(g, t, seed=5)
            for v in range(g.n):
                assert nbr[v] in set(g.neighbors_of(v).tolist())

    def test_counter_seeding_varies_over_iterations(self):
        # vertex 1 of a path has two distinguishable neighbors; over many
        # iteration counters the draw must hit both
        g = path_graph(4)
        seen = {sampled_neighbor(g, 1, t, seed=0) for t in range(1, 51)}
        assert seen == {0, 2}


class TestComputeEmbeddings:
    def test_zero_iterations_zero_table(self):
        cfg = small_cfg(embed_iterations=0)
        g = cycle_graph(4)
        table = compute_embeddings(g, make_store(cfg), cfg, seed=0)
        assert table.tables.shape == (1, 4, cfg.embed_dim)
        assert not table.tables.any()

    def test_deterministic(self):
        cfg = small_cfg()
        g = gen_ws(32, 4, 0.2, seed=1)
        store = make_store(cfg)
        a = compute_embeddings(g, store, cfg, seed=3)
        b = compute_embeddings(g, store, cfg, seed=3)
        assert np.array_equal(a.tables, b.tables)

    def test_isolated_vertex_matches_hand_trace(self):
        # one vertex, no edges: the update is the transfer function applied
        # to [degree bucket | zero state | zero neighbor blocks]
        cfg = small_cfg(embed_iterations=1)
        g = Graph.from_edges(1, [])
        store = make_store(cfg)
        table = compute_embeddings(g, store, cfg, seed=0)
        feats = np.zeros((1, 2 * (cfg.feature_bins + cfg.embed_dim)))
        feats[0, 0] = 1.0  # degree 0 in bucket 0
        mu, _ = transfer_forward(store, cfg, feats)
        assert np.allclose(table.final[0], mu[0])

    def test_rows_change_across_iterations(self):
        cfg = small_cfg()
        g = cycle_graph(6)
        table = compute_embeddings(g, make_store(cfg), cfg, seed=0)
        assert not np.allclose(table.tables[1], table.tables[2])

    def test_disjoint_copies_of_regular_component_agree(self):
        # in a regular component every vertex sees identical features at
        # every iteration, so two disjoint copies must produce identical
        # rows no matter which neighbors the counters pick
        cfg = small_cfg()
        store = make_store(cfg)
        two = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                   (4, 5), (5, 6), (6, 7), (7, 4)])
        table = compute_embeddings(two, store, cfg, seed=11)
        for v in range(1, 8):
            assert np.allclose(table.final[v], table.final[0])

    def test_union_matches_standalone_component(self):
        cfg = small_cfg()
        store = make_store(cfg)
        two = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                   (4, 5), (5, 6), (6, 7), (7, 4)])
        alone = cycle_graph(4)
        t_union = compute_embeddings(two, store, cfg, seed=11)
        t_alone = compute_embeddings(alone, store, cfg, seed=11)
        assert np.allclose(t_union.final[:4], t_alone.final)

    def test_star_copies_orbit_consistent(self):
        # leaves of a star are mutually indistinguishable, so a second
        # disjoint copy reproduces the center and leaf rows exactly
        cfg = small_cfg()
        store = make_store(cfg)
        g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3),
                                 (4, 5), (4, 6), (4, 7)])
        table = compute_embeddings(g, store, cfg, seed=4)
        assert np.allclose(table.final[0], table.final[4])
        for leaf in (2, 3, 5, 6, 7):
            assert np.allclose(table.final[leaf], table.final[1])

    def test_work_scales_linearly(self):
        # doubling V and E should roughly double the runtime; the wide
        # band keeps the check meaningful (quadratic work would land at
        # ~4x) without making CI timing-sensitive
        import time

        cfg = small_cfg(feature_bins=16, embed_dim=16, embed_hidden=16)
        store = make_store(cfg, dtype=np.float32)
        small = gen_ws(1024, 8, 0.1, seed=0)
        big = gen_ws(2048, 8, 0.1, seed=0)

        def clock(g):
            runs = []
            for _ in range(3):
                t0 = time.perf_counter()
                compute_embeddings(g, store, cfg, seed=0)
                runs.append(time.perf_counter() - t0)
            return sorted(runs)[1]

        clock(small)  # warm caches
        ratio = clock(big) / clock(small)
        assert ratio < 3.6


def one_pass_reference(g, store, cfg, seed) -> np.ndarray:
    """Every iteration's messages of all V vertices in one
    ``transfer_forward`` call; returns the (T+1, V, D) tables."""
    dtype = store.dtype
    tables = np.zeros((cfg.embed_iterations + 1, g.n, cfg.embed_dim), dtype=dtype)
    deg1hot = degree_onehot_matrix(g, cfg.feature_bins, dtype=dtype)
    for t in range(1, cfg.embed_iterations + 1):
        nbrs = sampled_neighbors_all(g, t, seed)
        prev = tables[t - 1]
        nbr_deg, nbr_prev = np.zeros_like(deg1hot), np.zeros_like(prev)
        present = nbrs >= 0
        nbr_deg[present] = deg1hot[nbrs[present]]
        nbr_prev[present] = prev[nbrs[present]]
        feats = np.concatenate([deg1hot, prev, nbr_deg, nbr_prev], axis=1)
        tables[t] = transfer_forward(store, cfg, feats)[0]
    return tables


class TestBlockedEmbeddings:
    # quick-start widths: at these (and Config()'s) a row's result does not
    # depend on the other rows of a call of two or more, which is not so
    # for small_cfg in float64; one-row calls take NumPy's matrix-vector
    # path, so blocks of 1 cannot match one pass
    @settings(max_examples=60, deadline=None)
    @given(block=st.sampled_from([2, 3, 7]), n=st.integers(1, 30), isolated=st.booleans(),
           kind=st.sampled_from(["er", "ws"]), p=st.floats(0.0, 0.6),
           iterations=st.integers(0, 3), dtype=st.sampled_from([np.float64, np.float32]),
           seed=st.integers(0, 2**16))
    def test_blocks_match_one_pass(self, block, n, isolated, kind, p, iterations, dtype, seed):
        if kind == "er":
            g = gen_er(n, p, seed)
        else:
            g = gen_ws(n, min(4, (n - 1) // 2 * 2), p, seed)
        if isolated:
            g = with_isolated_vertex(g)
        cfg = small_cfg(feature_bins=16, embed_dim=16, embed_hidden=16, embed_iterations=iterations)
        store = make_store(cfg, seed=seed % 5, dtype=dtype)
        want = one_pass_reference(g, store, cfg, seed)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(embedding, "EMBED_BLOCK", block)
            got = compute_embeddings(g, store, cfg, seed)
        assert got.tables.dtype == dtype
        assert np.array_equal(got.tables, want)

    @pytest.mark.parametrize("tail", [5, 1, 0])
    def test_default_blocks_and_one_row_tail(self, monkeypatch, tail):
        block = embedding.EMBED_BLOCK
        calls = {5: [block, block, 5], 1: [block, block + 1], 0: [block, block]}[tail]
        cfg = Config()
        store = make_store(cfg, dtype=np.float32)
        g = gen_ws(2 * block + tail, 4, 0.3, seed=1)
        rows = []
        forward = embedding.transfer_forward
        monkeypatch.setattr(embedding, "transfer_forward",
                            lambda *a: rows.append(a[2].shape[0]) or forward(*a))
        got = compute_embeddings(g, store, cfg, seed=2)
        assert rows == calls * cfg.embed_iterations
        assert np.array_equal(got.tables, one_pass_reference(g, store, cfg, seed=2))

    def test_working_set_is_table_plus_one_block(self):
        # Config() widths on ws:4096: one pass over all rows held ~80 MB
        # of LSTM tapes beyond the 8 MB table
        cfg = Config()
        store = make_store(cfg, dtype=np.float32)
        g = gen_ws(4096, 4, 0.5, seed=1)
        table, peak = traced_peak(lambda: compute_embeddings(g, store, cfg, seed=17))
        assert peak - table.tables.nbytes < 16 * 2**20


class TestWalks:
    def test_walk_descends_iterations(self):
        cfg = small_cfg()
        g = cycle_graph(6)
        chain = sample_walk(g, cfg, vertex=2, length=3, seed=0)
        assert len(chain) == 3
        assert [t for t, _, _ in chain] == [3, 2, 1]
        assert chain[0][1] == 2
        for (_, v, j), (_, v2, _) in zip(chain, chain[1:]):
            assert j == v2 and j in set(g.neighbors_of(v).tolist())

    def test_walk_stops_at_isolated_vertex(self):
        cfg = small_cfg()
        g = Graph.from_edges(1, [])
        chain = sample_walk(g, cfg, vertex=0, length=3, seed=0)
        assert chain == [(3, 0, None)]

    def test_walk_value_matches_cached_row(self):
        cfg = small_cfg()
        g = cycle_graph(5)
        store = make_store(cfg)
        table = compute_embeddings(g, store, cfg, seed=2)
        for length in (0, 1, 3):
            got = walk_value(g, store, cfg, table, vertex=1, length=length, seed=2)
            assert np.allclose(got, table.final[1], atol=1e-10)

    def test_zero_length_walk_zero_grads(self):
        cfg = small_cfg()
        g = cycle_graph(5)
        store = make_store(cfg)
        table = compute_embeddings(g, store, cfg, seed=0)
        up = np.ones(cfg.embed_dim)
        grads = walk_backprop(g, store, cfg, table, vertex=0, upstream=up, length=0, seed=0)
        assert all(not v.any() for v in grads.values())

    def test_zero_update_iterations_zero_grads(self):
        cfg = small_cfg(embed_iterations=0)
        g = cycle_graph(5)
        store = make_store(cfg)
        table = compute_embeddings(g, store, cfg, seed=0)
        grads = walk_backprop(g, store, cfg, table, vertex=0,
                              upstream=np.ones(cfg.embed_dim), length=None, seed=0)
        assert all(not v.any() for v in grads.values())

    def test_isolated_vertex_grads_flow_through_one_step(self):
        cfg = small_cfg()
        g = Graph.from_edges(1, [])
        store = make_store(cfg)
        table = compute_embeddings(g, store, cfg, seed=0)
        up = np.ones(cfg.embed_dim)
        grads = walk_backprop(g, store, cfg, table, vertex=0, upstream=up, length=None, seed=0)
        assert grads["emb.out.w"].any() and grads["emb.in.w"].any()

    def _walk_fd(self, g, cfg, vertex, length, seed):
        store = make_store(cfg, seed=1)
        table = compute_embeddings(g, store, cfg, seed=seed)
        probe = make_rng(99).normal(size=cfg.embed_dim)

        def loss_fn() -> float:
            # off-walk rows stay frozen in `table`; only the chain's own
            # transfer applications see the perturbed parameters
            return float(probe @ walk_value(g, store, cfg, table, vertex, length, seed))

        grads = walk_backprop(g, store, cfg, table, vertex, probe, length, seed)
        worst = finite_diff_check(loss_fn, store, grads, make_rng(5), samples_per_tensor=4)
        assert worst <= 1e-4, f"worst relative error {worst:.3e}"

    def test_length_two_walk_matches_finite_differences(self):
        self._walk_fd(cycle_graph(4), small_cfg(), vertex=2, length=2, seed=7)

    def test_isolated_walk_matches_finite_differences(self):
        self._walk_fd(Graph.from_edges(2, []), small_cfg(), vertex=1, length=None, seed=0)

    def test_full_length_walk_matches_finite_differences(self):
        self._walk_fd(path_graph(6), small_cfg(), vertex=3, length=None, seed=3)

    def test_walks_bucket_only_chain_vertices(self, monkeypatch):
        # a walk touches at most T vertices, so it must not build the
        # (V, bins) degree matrix that compute_embeddings uses
        cfg = small_cfg()
        g = star_graph(5)
        store = make_store(cfg)
        table = compute_embeddings(g, store, cfg, seed=4)

        def whole_graph(*args, **kwargs):
            raise AssertionError("degree_onehot_matrix called by a walk")

        monkeypatch.setattr(embedding, "degree_onehot_matrix", whole_graph)
        for v in range(g.n):
            got = walk_value(g, store, cfg, table, v, None, seed=4)
            assert np.allclose(got, table.final[v], atol=1e-10)
            grads = walk_backprop(g, store, cfg, table, v, np.ones(cfg.embed_dim), None, seed=4)
            assert grads["emb.in.w"].any()

    def test_walk_grads_deterministic(self):
        cfg = small_cfg()
        g = star_graph(5)
        store = make_store(cfg)
        table = compute_embeddings(g, store, cfg, seed=1)
        up = make_rng(0).normal(size=cfg.embed_dim)
        a = walk_backprop(g, store, cfg, table, 0, up, None, seed=1)
        b = walk_backprop(g, store, cfg, table, 0, up, None, seed=1)
        assert all(np.array_equal(a[k], b[k]) for k in a)


TRANSFER_NAMES = ("emb.in.w", "emb.in.b", "emb.cell.w", "emb.cell.b", "emb.out.w", "emb.out.b")


def per_walk_reference(g, store, cfg, table, vertex, length, upstream):
    """One walk on its own: its ``sample_walk`` chain, one
    ``transfer_forward`` per element bottom-up, then one
    ``transfer_backward`` per element top-down. Returns the live row and
    the walk's transfer-parameter gradients."""
    chain = sample_walk(g, cfg, vertex, length, table.seed)
    grads = {name: np.zeros_like(store[name]) for name in TRANSFER_NAMES}
    if not chain:
        return table.tables[-1][vertex].copy(), grads
    bins, dim = cfg.feature_bins, cfg.embed_dim
    maximum = max(1, g.max_degree)

    def deg1hot(u):
        return onehot_vector(g.degree(u), maximum, bins, store.dtype)

    caches, lower = [], None
    for t, v, j in reversed(chain):
        if j is None:
            nbr_deg, nbr_prev = np.zeros(bins, store.dtype), np.zeros(dim, store.dtype)
        else:
            nbr_deg = deg1hot(j)
            nbr_prev = lower if lower is not None else table.tables[t - 1][j]
        feats = np.concatenate([deg1hot(v), table.tables[t - 1][v], nbr_deg, nbr_prev])
        mu, cache = transfer_forward(store, cfg, feats[None, :])
        caches.append(cache)
        lower = mu[0]
    d_mu = np.asarray(upstream, dtype=store.dtype)[None, :]
    for cache, (_, _, j) in zip(reversed(caches), chain):
        dfeat, step = transfer_backward(store, d_mu, cache)
        for name, val in step.items():
            grads[name] += val
        if j is None:
            break
        d_mu = dfeat[:, 2 * bins + dim:]
    return lower, grads


def with_isolated_vertex(g: Graph) -> Graph:
    edges = [(u, int(w)) for u in range(g.n) for w in g.neighbors_of(u) if u < w]
    return Graph.from_edges(g.n + 1, edges)


class TestBatchedWalks:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), iterations=st.integers(1, 3),
           dtype=st.sampled_from([np.float64, np.float32]), seed=st.integers(0, 2**16))
    def test_matches_per_walk_reference(self, data, iterations, dtype, seed):
        cfg = small_cfg(embed_iterations=iterations)
        store = make_store(cfg, seed=seed % 7, dtype=dtype)
        sizes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
        graphs = [with_isolated_vertex(gen_er(n, data.draw(st.floats(0.0, 0.6)), seed + i))
                  for i, n in enumerate(sizes)]
        # tables from other parameters, as training reads a frozen
        # incumbent's, so a chain's fresh rows differ from the cached ones
        frozen = make_store(cfg, seed=seed % 7 + 1, dtype=dtype)
        tables = [compute_embeddings(g, frozen, cfg, seed=seed + 10 * i)
                  for i, g in enumerate(graphs)]
        picks = data.draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=12))
        walks = [(graphs[p % len(graphs)], tables[p % len(graphs)],
                  (p // len(graphs)) % graphs[p % len(graphs)].n) for p in picks]
        walks.append(walks[0])  # the same vertex twice counts twice
        length = data.draw(st.integers(0, iterations + 1))
        upstream = make_rng(seed).normal(size=(len(walks), cfg.embed_dim))

        live, tape = walks_forward(store, cfg, walks, length)
        grads = walks_backward(store, cfg, tape, upstream)
        want_grads = {name: np.zeros_like(store[name]) for name in TRANSFER_NAMES}
        tol = 1e-12 if dtype == np.float64 else 1e-5
        assert live.shape == (len(walks), cfg.embed_dim) and live.dtype == dtype
        for row, (g, table, v), up in zip(live, walks, upstream):
            want, walk_grads = per_walk_reference(g, store, cfg, table, v, length, up)
            assert np.abs(row - want).max() <= tol * max(1.0, np.abs(want).max())
            for name in TRANSFER_NAMES:
                want_grads[name] += walk_grads[name]
        assert grads.keys() == want_grads.keys()
        for name, want in want_grads.items():
            assert grads[name].dtype == dtype
            assert np.abs(grads[name] - want).max() <= tol * max(1.0, np.abs(want).max()), name
