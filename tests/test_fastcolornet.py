"""Context assembly, the two networks, the joint loss, and training steps."""

import dataclasses
import gc
import importlib
import logging
import pkgutil
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastcolor.coloring import HEURISTIC_KINDS, ColoringState, Outcome, compute_order, greedy_color
from fastcolor.config import Config
from fastcolor.embedding import compute_embeddings
from fastcolor.errors import ContractError
from fastcolor.fastcolornet import (
    TrainMove,
    _stack_forward,
    build_contexts,
    decode_logits,
    draw_walks,
    evaluate,
    fcn_loss,
    fcn_train_step,
    forward_backward,
    freeze,
    init_fastcolornet,
    p_forward,
    v_forward,
    window_terms,
)
import fastcolor
from fastcolor import embedding, fastcolornet, mcts, nn, selfplay
from fastcolor.graph import Graph, gen_er, gen_ws
from fastcolor.mcts import NetEvaluator, UniformEvaluator, evaluate_batch
from fastcolor.nn import AdamState, dense_forward, finite_diff_check, softmax
from fastcolor.pipeline import Model, policy_colors
from fastcolor.rng import make_rng
from fastcolor.selfplay import (
    EmbeddingCache,
    NetPolicy,
    ReplayBuffer,
    bootstrap_oracle,
    run_selfplay,
)

from conftest import (
    complete_graph,
    cycle_graph,
    encode_onehot,
    forward_moves,
    onehot_vector,
    path_graph,
    random_move,
    randomize_inference_params,
    reference_conv1d_forward,
    stack_contexts,
)


def tiny_cfg(**kw) -> Config:
    base = dict(feature_bins=8, embed_dim=6, embed_hidden=10, embed_iterations=2,
                lstm_steps=1, window=2, color_set_size=2, v_width=16, v_layers=2,
                p_width=16, p_layers=2, seq_channels=8, seq_layers=2, seq_filter=3,
                walk_length=2, dtype="float64")
    base.update(kw)
    return Config(**base)


def setup_state(g, cfg, moves=(), seed=0, init_seed=None):
    store = init_fastcolornet(cfg, seed=init_seed)
    table = compute_embeddings(g, store, cfg, seed=seed)
    state = ColoringState(g)
    for a in moves:
        state.apply_inplace(a)
    return store, table, state


def reference_graph_context(state, aset, cfg) -> np.ndarray:
    """build_contexts' gc block by block: three one-hot vectors and the
    multi-hot of the valid existing colors, concatenated."""
    g = state.graph
    bins = cfg.feature_bins
    maxc = g.max_degree + 1
    blocks = np.zeros((4, bins))
    blocks[0, min(bins - 1, g.n.bit_length() - 1)] = 1.0
    blocks[1] = onehot_vector(min(state.colors_used, maxc), maxc, bins)
    blocks[2] = onehot_vector(state.t, g.n, bins)
    for c in aset.existing:
        blocks[3, encode_onehot(min(c, maxc), maxc, bins)] = 1.0
    return blocks.ravel()


def reference_contexts(state, table, cfg) -> dict:
    """build_contexts one row at a time, from ``table.final``."""
    g = state.graph
    w, m, dim = cfg.window, cfg.color_set_size, cfg.embed_dim
    rows = table.final
    pc = np.zeros((2 * w, dim), dtype=rows.dtype)
    pc_vertices = np.full(2 * w, -1, dtype=np.int64)
    for i in range(2 * w):
        src = state.t - w + i
        if 0 <= src < g.n:
            pc_vertices[i] = state.order[src]
            pc[i] = rows[state.order[src]]
    aset = state.valid_actions()
    existing = list(aset.existing)[: cfg.candidate_cap - 1]
    cand_sets = np.zeros((len(existing) + 1, m, dim), dtype=rows.dtype)
    cand_vertices = np.full((len(existing) + 1, m), -1, dtype=np.int64)
    for ci, color in enumerate(existing):
        for si, v in enumerate(state.color_members[color][-m:][::-1]):
            cand_sets[ci, si] = rows[v]
            cand_vertices[ci, si] = v
    return dict(pc=pc, pc_vertices=pc_vertices, cand_sets=cand_sets,
                cand_vertices=cand_vertices,
                gc=reference_graph_context(state, aset, cfg).astype(rows.dtype),
                actions=existing + [aset.new_color],
                capped=len(aset.existing) + 1 > cfg.candidate_cap)


class TestContexts:
    @given(st.integers(1, 16), st.floats(0.0, 0.9), st.integers(0, 999),
           st.sampled_from(["float32", "float64"]), st.integers(1, 6), st.integers(1, 4),
           st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_gathers_match_per_row_reference(self, n, p, seed, dtype, window, set_size, cap):
        # every move of a random episode: the window pads past both ends
        # of the order, and moves with more than cap - 1 reusable colors
        # take the capped path; odd moves pass the caller's action set
        cfg = tiny_cfg(dtype=dtype, window=window, color_set_size=set_size, candidate_cap=cap)
        store, table, state = setup_state(gen_er(n, p, seed), cfg, seed=seed)
        assert table.final.dtype == np.dtype(dtype)
        rng = np.random.default_rng(seed)
        while not state.is_terminal:
            mi = build_contexts(state, table, cfg, state.valid_actions() if state.t % 2 else None)
            want = reference_contexts(state, table, cfg)
            for name in ("pc", "pc_vertices", "cand_sets", "cand_vertices", "gc"):
                got = getattr(mi, name)
                assert got.dtype == want[name].dtype and np.array_equal(got, want[name]), name
            assert not np.shares_memory(mi.pc, table.padded)
            assert mi.actions == want["actions"] and mi.capped == want["capped"]
            state.apply_inplace(mi.actions[rng.integers(len(mi.actions))])

    def test_first_move(self):
        cfg = tiny_cfg()
        g = path_graph(6)
        store, table, state = setup_state(g, cfg)
        mi = build_contexts(state, table, cfg)
        # nothing colored: past half of the window is padding, and the
        # only candidate is the new color with an all-zero set
        assert not mi.pc[: cfg.window].any()
        assert (mi.pc_vertices[: cfg.window] == -1).all()
        assert mi.cand_sets.shape == (1, cfg.color_set_size, cfg.embed_dim)
        assert not mi.cand_sets.any()
        assert mi.actions == [0]

    def test_k4_after_two_moves_forced(self):
        cfg = tiny_cfg()
        g = complete_graph(4)
        store, table, state = setup_state(g, cfg, moves=(0, 1))
        mi = build_contexts(state, table, cfg)
        assert mi.actions == [2]
        assert mi.cand_sets.shape[0] == 1
        assert not mi.cand_sets.any()

    def test_path_color_set_rows(self):
        cfg = tiny_cfg(color_set_size=4)
        g = path_graph(3)
        store, table, state = setup_state(g, cfg, moves=(0, 1))
        mi = build_contexts(state, table, cfg)
        assert mi.actions == [0, 2]
        assert np.allclose(mi.cand_sets[0, 0], table.final[0])
        assert not mi.cand_sets[0, 1:].any()
        assert not mi.cand_sets[1].any()
        assert mi.cand_vertices[0, 0] == 0 and (mi.cand_vertices[0, 1:] == -1).all()

    def test_graph_context_block_structure(self):
        cfg = tiny_cfg()
        g = path_graph(5)
        store, table, state = setup_state(g, cfg, moves=(0,))
        gc = build_contexts(state, table, cfg).gc
        bins = cfg.feature_bins
        assert gc.shape == (4 * bins,)
        for block in range(3):  # the three one-hot blocks
            assert gc[block * bins:(block + 1) * bins].sum() == 1.0

    def test_problem_window_rows_match_table(self):
        cfg = tiny_cfg()
        g = path_graph(8)
        store, table, state = setup_state(g, cfg, moves=(0, 1, 0))
        mi = build_contexts(state, table, cfg)  # t=3, w=2
        assert mi.pc_vertices.tolist() == [1, 2, 3, 4]
        for i, v in enumerate(mi.pc_vertices):
            assert np.allclose(mi.pc[i], table.final[v])

    def test_window_pads_past_graph_end(self):
        cfg = tiny_cfg(window=4)
        g = path_graph(5)
        store, table, state = setup_state(g, cfg, moves=(0, 1, 0, 1))
        mi = build_contexts(state, table, cfg)  # t=4, next window runs off the end
        assert mi.pc_vertices.tolist() == [0, 1, 2, 3, 4, -1, -1, -1]
        assert not mi.pc[5:].any()

    def test_recent_members_come_first(self):
        cfg = tiny_cfg(color_set_size=2)
        g = Graph.from_edges(5, [])  # no conflicts: everything reusable
        store, table, state = setup_state(g, cfg, moves=(0, 0, 0))
        mi = build_contexts(state, table, cfg)
        # color 0 holds [0, 1, 2]; the set shows the 2 newest, newest first
        assert mi.cand_vertices[0].tolist() == [2, 1]

    def test_candidate_cap_logged(self, caplog):
        cfg = tiny_cfg(candidate_cap=3)
        g = Graph.from_edges(6, [])
        store, table, state = setup_state(g, cfg, moves=(0, 1, 2, 3))
        with caplog.at_level(logging.WARNING):
            mi = build_contexts(state, table, cfg)
        assert mi.capped
        assert mi.actions == [0, 1, 4]
        assert any("candidate cap" in rec.message for rec in caplog.records)

    def test_candidate_cap_counted_after_first_log(self, caplog):
        cfg = tiny_cfg(candidate_cap=3)
        g = Graph.from_edges(6, [])
        store, table, state = setup_state(g, cfg, moves=(0, 1, 2, 3))
        with caplog.at_level(logging.WARNING):
            for _ in range(3):
                build_contexts(state, table, cfg)
        assert table.capped_moves == 3
        assert sum("candidate cap" in rec.message for rec in caplog.records) == 1

    def test_table_size_mismatch_rejected(self):
        cfg = tiny_cfg()
        store, table, _ = setup_state(path_graph(4), cfg)
        state = ColoringState(path_graph(5))
        with pytest.raises(ContractError, match="embedding table"):
            build_contexts(state, table, cfg)


class TestForward:
    def test_v3_is_distribution(self):
        cfg = tiny_cfg()
        store, table, state = setup_state(cycle_graph(7), cfg, moves=(0, 1))
        out = evaluate(store, cfg, state, table)
        assert out.v3.shape == (3,)
        assert (out.v3 >= 0).all() and abs(out.v3.sum() - 1.0) < 1e-6
        assert -1.0 <= out.v <= 1.0
        assert abs(out.v - (out.v3[0] - out.v3[2])) < 1e-12

    def test_p_matches_action_set_and_sums_to_one(self):
        cfg = tiny_cfg()
        g = gen_er(12, 0.4, seed=3)
        store, table, state = setup_state(g, cfg)
        rng = make_rng(0)
        while not state.is_terminal:
            out = evaluate(store, cfg, state, table)
            aset = state.valid_actions()
            assert out.actions == list(aset.existing) + [aset.new_color]
            assert out.p.shape == (aset.size,)
            assert abs(out.p.sum() - 1.0) < 1e-6
            state.apply_inplace(out.actions[rng.integers(len(out.actions))])

    def test_fresh_heads_give_uniform_outputs(self):
        cfg = tiny_cfg()
        store, table, state = setup_state(Graph.from_edges(5, []), cfg, moves=(0, 1, 2))
        out = evaluate(store, cfg, state, table)
        assert np.allclose(out.v3, 1.0 / 3.0)
        assert out.v == 0.0
        assert len(out.p) == 4 and np.allclose(out.p, 0.25)

    def test_singleton_candidate_is_certain(self):
        cfg = tiny_cfg()
        store, table, state = setup_state(complete_graph(4), cfg, moves=(0, 1))
        store["p.head.w"] = make_rng(1).normal(size=store["p.head.w"].shape)
        out = evaluate(store, cfg, state, table)
        assert out.p.shape == (1,) and out.p[0] == 1.0

    def test_deterministic(self):
        cfg = tiny_cfg()
        store, table, state = setup_state(cycle_graph(6), cfg, moves=(0,))
        a = evaluate(store, cfg, state, table)
        b = evaluate(store, cfg, state, table)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.v3, b.v3)

    def test_rows_outside_windows_are_ignored(self):
        # locality: the forward pass only reads embedding rows that the
        # contexts reference, so rows of far-away vertices can change freely
        cfg = tiny_cfg()
        g = path_graph(8)
        store, table, state = setup_state(g, cfg, moves=(0, 1))
        base = evaluate(store, cfg, state, table)
        # windows at t=2 (w=2) cover vertices 0..3; 0,1 also appear in
        # color sets; rows 5..7 appear nowhere
        import copy
        other = copy.deepcopy(table)
        other.tables[-1][5:] += 7.5
        got = evaluate(store, cfg, state, other)
        assert np.array_equal(base.v3, got.v3)
        assert np.array_equal(base.p, got.p)

    def test_batched_moves_score_as_single_moves(self):
        cfg = tiny_cfg()
        g, store, table, batch = _training_batch(cfg, n_moves=6)
        randomize_inference_params(store, make_rng(6))
        moves = [tm.move for tm in batch]
        assert len({len(mi.actions) for mi in moves}) > 1
        p_list, _, _ = p_forward(store, cfg, moves, training=False)
        v3, _, _ = v_forward(store, cfg, moves, training=False)
        for b, mi in enumerate(moves):
            assert np.allclose(p_list[b], p_forward(store, cfg, [mi], training=False)[0][0],
                               rtol=0, atol=1e-12)
            assert np.allclose(v3[b], v_forward(store, cfg, [mi], training=False)[0][0],
                               rtol=0, atol=1e-12)

    def test_empty_candidates_rejected(self):
        cfg = tiny_cfg()
        store, table, state = setup_state(path_graph(4), cfg)
        mi = build_contexts(state, table, cfg)
        mi.cand_sets = mi.cand_sets[:0]
        mi.cand_vertices = mi.cand_vertices[:0]
        with pytest.raises(ContractError, match="candidate"):
            p_forward(store, cfg, [mi], training=False)

    def test_default_architecture_shapes(self):
        cfg = Config()
        store = init_fastcolornet(cfg)
        assert store["v.seq.0.k"].shape == (7, 128, 128)
        assert store["v.seq.2.k"].shape == (7, 128, 128)
        assert store["v.fc.0.w"].shape == (128 + 128, 512)
        assert store["v.fc.2.w"].shape == (512, 512)
        assert store["v.head.w"].shape == (512, 3) and not store["v.head.w"].any()
        # per-candidate input: gc 128 + pooled pc 128 + 4 set embeddings
        assert store["p.fc.0.w"].shape == (128 + 128 + 4 * 128, 512)
        assert store["p.fc.4.w"].shape == (512, 512)
        assert store["p.seq.0.k"].shape == (7, 512, 128)
        assert store["p.head.w"].shape == (128, 1) and not store["p.head.w"].any()


class TestLoss:
    def test_perfect_prediction_zero_loss(self):
        p = [np.array([0.0, 1.0])]
        v3 = [np.array([1.0, 0.0, 0.0])]
        loss, clamps = fcn_loss(p, v3, [np.array([0.0, 1.0])], [Outcome.WIN])
        assert loss == 0.0 and clamps == 0

    def test_textbook_values(self):
        p = [np.array([0.5, 0.5])]
        v3 = [np.array([0.25, 0.5, 0.25])]
        loss, clamps = fcn_loss(p, v3, [np.array([0.5, 0.5])], [Outcome.WIN])
        assert abs(loss - (np.log(2) + np.log(4))) < 1e-12
        assert clamps == 0

    def test_zero_probability_clamped_and_flagged(self):
        p = [np.array([1.0, 0.0])]
        v3 = [np.array([1.0, 0.0, 0.0])]
        loss, clamps = fcn_loss(p, v3, [np.array([0.0, 1.0])], [Outcome.WIN])
        assert np.isfinite(loss) and loss > 20.0
        assert clamps == 1

    def test_batch_is_mean(self):
        p = [np.array([0.5, 0.5]), np.array([1.0])]
        v3 = [np.array([0.25, 0.5, 0.25]), np.array([1.0, 0.0, 0.0])]
        pis = [np.array([0.5, 0.5]), np.array([1.0])]
        zs = [Outcome.WIN, Outcome.WIN]
        loss, _ = fcn_loss(p, v3, pis, zs)
        assert abs(loss - (np.log(2) + np.log(4)) / 2) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            fcn_loss([np.array([1.0])], [np.ones(3) / 3], [np.array([0.5, 0.5])], [Outcome.TIE])


def _training_batch(cfg, n_moves=3, seed=0):
    g = gen_er(10, 0.35, seed=1)
    store = init_fastcolornet(cfg, seed=2)
    table = compute_embeddings(g, store, cfg, seed=seed)
    state = ColoringState(g)
    batch = []
    rng = make_rng(seed + 10)
    for _ in range(n_moves):
        mi = build_contexts(state, table, cfg)
        k = len(mi.actions)
        pi = rng.dirichlet(np.ones(k))
        z = [Outcome.WIN, Outcome.TIE, Outcome.LOSE][rng.integers(3)]
        batch.append(TrainMove(move=mi, pi=pi, z=z))
        state.apply_inplace(mi.actions[rng.integers(k)])
    return g, store, table, batch


class TestGradients:
    def test_policy_gradient_is_probs_minus_target(self):
        cfg = tiny_cfg()
        g, store, table, batch = _training_batch(cfg)
        moves = [tm.move for tm in batch]
        pis = [tm.pi for tm in batch]
        zs = [tm.z for tm in batch]
        names = ["p.head.b"]
        _, grads, _ = forward_backward(moves, pis, zs, store, cfg, [], training=False)
        p_list, _, _ = p_forward(store, cfg, moves, training=False)
        # with a shared scalar head bias, dL/db = sum over candidates of
        # (p - pi)/B, which telescopes to 0 since both sum to 1 per move
        assert abs(grads["p.head.b"][0]) < 1e-12
        v3, _, _ = v_forward(store, cfg, moves, training=False)
        want = np.zeros(3)
        for z in zs:
            t = np.zeros(3)
            t[Outcome(z).index] = 1.0
            want += (np.ones(3) / 3 - t) / len(batch)
        assert np.allclose(grads["v.head.b"], want, atol=1e-12)

    def test_full_model_finite_difference(self):
        cfg = tiny_cfg(walk_rate=1.0, walk_budget=1000)
        g = gen_er(10, 0.35, seed=1)
        store = init_fastcolornet(cfg, seed=2)
        # zero-initialized heads block signal into the stacks below, and
        # zero additive params leave padded rows exactly on the relu kink
        # where central differences straddle the boundary; move off both
        prng = make_rng(5)
        store["p.head.w"] = prng.normal(size=store["p.head.w"].shape) * 0.3
        store["v.head.w"] = prng.normal(size=store["v.head.w"].shape) * 0.3
        for name in store.trainable_names():
            if name.endswith((".b", ".beta")):
                store[name] = prng.normal(size=store[name].shape) * 0.2
        table = compute_embeddings(g, store, cfg, seed=0)
        state = ColoringState(g)
        while state.t < cfg.window:
            state.apply_inplace(state.greedy_action())
        rng = make_rng(10)
        moves, pis, zs = [], [], []
        for _ in range(3):
            mi = build_contexts(state, table, cfg)
            k = len(mi.actions)
            moves.append(mi)
            pis.append(rng.dirichlet(np.ones(k)))
            zs.append([Outcome.WIN, Outcome.TIE, Outcome.LOSE][rng.integers(3)])
            state.apply_inplace(mi.actions[rng.integers(k)])
        walks = draw_walks(moves, cfg, make_rng(4))
        assert walks, "expected live context rows"

        def loss_fn():
            return forward_backward(moves, pis, zs, store, cfg, walks, training=False)[0]

        _, grads, _ = forward_backward(moves, pis, zs, store, cfg, walks, training=False)
        for name in store.trainable_names():
            assert name in grads or not grads.get(name, np.zeros(1)).any()
        check_names = [n for n in store.trainable_names() if n in grads]
        for prefix in ("emb.", "v.seq.", "p."):
            named = [n for n in check_names if n.startswith(prefix)]
            assert named and any(grads[n].any() for n in named), prefix
        worst = finite_diff_check(loss_fn, store, grads, make_rng(8),
                                  samples_per_tensor=3, names=check_names)
        assert worst <= 1e-4, f"worst relative error {worst:.3e}"

    def test_walk_rows_route_gradients_to_transfer_params(self):
        cfg = tiny_cfg(walk_rate=1.0, walk_budget=1000)
        g, store, table, batch = _training_batch(cfg)
        moves = [tm.move for tm in batch]
        pis = [tm.pi for tm in batch]
        zs = [tm.z for tm in batch]
        # give the policy head signal so context gradients are nonzero
        store["p.head.w"] = make_rng(5).normal(size=store["p.head.w"].shape) * 0.3
        store["v.head.w"] = make_rng(6).normal(size=store["v.head.w"].shape) * 0.3
        walks = draw_walks(moves, cfg, make_rng(4))
        _, grads, _ = forward_backward(moves, pis, zs, store, cfg, walks, training=False)
        assert grads["emb.in.w"].any() and grads["emb.cell.w"].any()
        _, grads_nw, _ = forward_backward(moves, pis, zs, store, cfg, [], training=False)
        assert "emb.in.w" not in grads_nw

    def test_walks_run_one_transfer_pass_per_chain_level(self, monkeypatch):
        cfg = tiny_cfg(walk_rate=1.0, walk_budget=1000, embed_iterations=3, walk_length=3)
        g, store, table, batch = _training_batch(cfg)
        moves = [tm.move for tm in batch]
        pis = [tm.pi for tm in batch]
        zs = [tm.z for tm in batch]
        calls = {"transfer_forward": 0, "transfer_backward": 0}
        for key in calls:
            def spy(*args, _key=key, _fn=getattr(embedding, key)):
                calls[_key] += 1
                return _fn(*args)
            monkeypatch.setattr(embedding, key, spy)
        _, grads, _ = forward_backward(moves, pis, zs, store, cfg, [], training=True)
        assert calls == {"transfer_forward": 0, "transfer_backward": 0}
        assert not any(name.startswith("emb.") for name in grads)
        walks = draw_walks(moves, cfg, make_rng(4))
        assert len(walks) > cfg.walk_length
        forward_backward(moves, pis, zs, store, cfg, walks, training=True)
        assert 1 <= calls["transfer_forward"] <= cfg.walk_length
        assert 1 <= calls["transfer_backward"] <= cfg.walk_length

    def test_training_mode_finite_difference(self):
        # batch statistics in every batchnorm, and moves of different
        # candidate counts, so the candidate seq2seq runs over ragged sequences
        cfg = tiny_cfg(walk_rate=1.0, walk_budget=1000)
        g = gen_er(12, 0.4, seed=3)
        store = init_fastcolornet(cfg, seed=2)
        prng = make_rng(5)
        store["p.head.w"] = prng.normal(size=store["p.head.w"].shape) * 0.3
        store["v.head.w"] = prng.normal(size=store["v.head.w"].shape) * 0.3
        for name in store.trainable_names():
            if name.endswith((".b", ".beta")):
                store[name] = prng.normal(size=store[name].shape) * 0.2
        table = compute_embeddings(g, store, cfg, seed=0)
        state = ColoringState(g)
        rng = make_rng(10)
        moves, pis, zs = [], [], []
        while not state.is_terminal:
            mi = build_contexts(state, table, cfg)
            k = len(mi.actions)
            if state.t >= cfg.window and state.t % 3 == 0:
                moves.append(mi)
                pis.append(rng.dirichlet(np.ones(k)))
                zs.append([Outcome.WIN, Outcome.TIE, Outcome.LOSE][rng.integers(3)])
            state.apply_inplace(mi.actions[rng.integers(k)])
        assert len({len(mi.actions) for mi in moves}) > 1
        walks = draw_walks(moves, cfg, make_rng(4))
        assert {kind for _, kind, _, _ in walks} == {"pc", "cand"}

        def loss_fn():
            return forward_backward(moves, pis, zs, store, cfg, walks, training=True)[0]

        _, grads, _ = forward_backward(moves, pis, zs, store, cfg, walks, training=True)
        check_names = [n for n in store.trainable_names() if n in grads]
        for prefix in ("emb.", "v.seq.", "p.fc.", "p.seq."):
            named = [n for n in check_names if n.startswith(prefix)]
            assert named and any(grads[n].any() for n in named), prefix
        worst = finite_diff_check(loss_fn, store, grads, make_rng(8),
                                  samples_per_tensor=3, names=check_names)
        assert worst <= 1e-4, f"worst relative error {worst:.3e}"

    def test_budget_caps_walk_count(self):
        cfg = tiny_cfg(walk_rate=1.0, walk_budget=3)
        g, store, table, batch = _training_batch(cfg)
        walks = draw_walks([tm.move for tm in batch], cfg, make_rng(0))
        assert len(walks) == 3


class TestTrainStep:
    def test_zero_lr_leaves_params_unchanged(self):
        cfg = tiny_cfg()
        g, store, table, batch = _training_batch(cfg)
        adam = AdamState.for_store(store, lr=0.0)
        before = {name: arr.copy() for name, arr in store.items()}
        loss, stats = fcn_train_step(batch, store, cfg, adam, make_rng(0))
        assert np.isfinite(loss)
        for name, arr in store.items():
            if name.split(".")[-1].startswith("_"):
                continue  # batchnorm running buffers do move in training mode
            assert np.array_equal(arr, before[name]), name

    def test_loss_decreases_on_fixed_batch(self):
        cfg = tiny_cfg(walk_rate=0.0)
        g, store, table, batch = _training_batch(cfg, n_moves=4)
        adam = AdamState.for_store(store, lr=0.005)
        rng = make_rng(1)
        first, _ = fcn_train_step(batch, store, cfg, adam, rng)
        last = first
        for _ in range(120):
            last, _ = fcn_train_step(batch, store, cfg, adam, rng)
        assert last < first * 0.55, f"{first:.4f} -> {last:.4f}"

    def test_stats_reported(self):
        cfg = tiny_cfg(walk_rate=1.0, walk_budget=5)
        g, store, table, batch = _training_batch(cfg)
        adam = AdamState.for_store(store)
        _, stats = fcn_train_step(batch, store, cfg, adam, make_rng(0))
        assert stats["walks"] == 5
        assert stats["capped_moves"] == 0
        assert "clamps" in stats


# -- frozen inference ----------------------------------------------------


class TestFrozenInference:
    @given(n=st.integers(2, 12), p=st.floats(0.1, 0.9), seed=st.integers(0, 999),
           dtype=st.sampled_from(["float64", "float32"]))
    @settings(max_examples=40, deadline=None)
    def test_snapshot_matches_eval_mode_forward(self, n, p, seed, dtype):
        cfg = tiny_cfg(dtype=dtype)
        tol = 1e-9 if dtype == "float64" else 1e-4
        g = gen_er(n, p, seed)
        store = init_fastcolornet(cfg, seed=seed)
        randomize_inference_params(store, make_rng(seed))
        table = compute_embeddings(g, store, cfg, seed=seed)
        net = freeze(store, cfg)
        state = ColoringState(g)
        rng = make_rng(seed + 1)
        while not state.is_terminal:
            mi = build_contexts(state, table, cfg)
            # reference: the eval-mode training forward on float64 contexts
            pc = mi.pc[None].astype(np.float64)
            cands = [mi.cand_sets.astype(np.float64)]
            v3, _, _ = v_forward(store, cfg, [mi], training=False, pc_override=pc)
            p_ref, _, _ = p_forward(store, cfg, [mi], training=False,
                                    pc_override=pc, cand_override=cands)
            p_ref = p_ref[0]
            (got_p,), (got_v3,) = forward_moves(net, [mi])
            assert np.abs(got_p - p_ref).max() <= tol
            assert np.abs(got_v3 - v3[0]).max() <= tol
            top = np.sort(p_ref)[::-1]
            if top.size == 1 or top[0] - top[1] > tol:
                assert np.argmax(got_p) == np.argmax(p_ref)
            state.apply_inplace(mi.actions[rng.integers(len(mi.actions))])

    @given(sizes=st.lists(st.integers(1, 7), min_size=1, max_size=8),
           seed=st.integers(0, 999), dtype=st.sampled_from(["float64", "float32"]))
    @settings(max_examples=60, deadline=None)
    def test_batch_scores_each_move_as_alone(self, sizes, seed, dtype):
        cfg = tiny_cfg(dtype=dtype)
        tol = 1e-12 if dtype == "float64" else 1e-5
        store = init_fastcolornet(cfg, seed=seed)
        rng = make_rng(seed)
        randomize_inference_params(store, rng)
        moves = [random_move(cfg, k, rng) for k in sizes]
        net = freeze(store, cfg)
        p_list, v3 = forward_moves(net, moves)
        assert len(p_list) == len(moves) and v3.shape == (len(moves), 3)
        # reference: the eval-mode training forward over the same batch
        p_ref, _, _ = p_forward(store, cfg, moves, training=False)
        v3_ref, _, _ = v_forward(store, cfg, moves, training=False)
        for b, mi in enumerate(moves):
            (alone_p,), (alone_v3,) = forward_moves(net, [mi])
            assert p_list[b].shape == (sizes[b],)
            assert np.abs(p_list[b] - alone_p).max() <= tol
            assert np.abs(v3[b] - alone_v3).max() <= tol
            assert np.abs(p_list[b] - p_ref[b]).max() <= tol
            assert np.abs(v3[b] - v3_ref[b]).max() <= tol

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_priors_are_per_move_softmax_of_batch_logits(self, dtype, seed, monkeypatch):
        cfg = tiny_cfg(dtype=dtype)
        store = init_fastcolornet(cfg, seed=seed)
        rng = make_rng(seed)
        randomize_inference_params(store, rng)
        sizes = rng.permutation(np.arange(1, 17)).tolist()
        moves = [random_move(cfg, k, rng) for k in sizes]
        moves[0].cand_sets[:] = 0  # equal logits: exactly uniform priors
        outputs = []

        def spy(x, w, b):
            out = dense_forward(x, w, b)
            outputs.append(out[0])
            return out

        monkeypatch.setattr(fastcolornet, "dense_forward", spy)
        p_list, _ = forward_moves(freeze(store, cfg), moves)
        # the p.head call comes last; its scores are the batch's logits
        logits = outputs[-1][:, 0].astype(np.float64)
        for p, lg in zip(p_list, np.split(logits, np.cumsum(sizes)[:-1])):
            assert np.array_equal(p, softmax(lg))

    def test_evaluate_batch_scores_each_state_with_its_evaluator(self):
        cfg = tiny_cfg()
        graphs = [cycle_graph(7), path_graph(5), gen_er(9, 0.4, seed=1)]
        evaluators, states = [UniformEvaluator()], [ColoringState(graphs[0])]
        for seed in range(2):  # two snapshots, so two batched groups
            store = init_fastcolornet(cfg, seed=seed)
            randomize_inference_params(store, make_rng(seed))
            net = freeze(store, cfg)
            for g in graphs:
                state = ColoringState(g)
                state.apply_inplace(0)
                table = compute_embeddings(g, store, cfg, seed=0)
                evaluators.append(NetEvaluator(store, cfg, table, net))
                states.append(state)
        got = evaluate_batch(evaluators, states)
        for ev, state, (actions, p, v) in zip(evaluators, states, got):
            want_actions, want_p, want_v = ev.evaluate(state)
            assert actions == want_actions
            assert np.abs(p - want_p).max() <= 1e-12 and abs(v - want_v) <= 1e-12

    def test_evaluate_matches_snapshot_path(self):
        cfg = tiny_cfg()
        store, table, state = setup_state(cycle_graph(7), cfg, moves=(0, 1))
        randomize_inference_params(store, make_rng(3))
        out = evaluate(store, cfg, state, table)
        (p,), (v3,) = forward_moves(freeze(store, cfg),
                                           [build_contexts(state, table, cfg)])
        assert np.array_equal(out.p, p) and np.array_equal(out.v3, v3)
        assert out.v == float(v3[0] - v3[2])

    def test_snapshot_outlives_parameter_updates(self):
        # adam_step replaces the store's arrays, so a snapshot keeps
        # describing the version it was frozen from
        cfg = tiny_cfg()
        g, store, table, batch = _training_batch(cfg)
        randomize_inference_params(store, make_rng(4))
        mi = batch[0].move
        net = freeze(store, cfg)
        (p_before,), v3_before = forward_moves(net, [mi])
        adam = AdamState.for_store(store, lr=0.05)
        fcn_train_step(batch, store, cfg, adam, make_rng(0))
        (p_after,), v3_after = forward_moves(net, [mi])
        assert np.array_equal(p_before, p_after) and np.array_equal(v3_before, v3_after)
        assert not np.array_equal(forward_moves(freeze(store, cfg), [mi])[1],
                                  v3_before)

    def test_model_freezes_once_per_version(self):
        cfg = tiny_cfg()
        model = Model(init_fastcolornet(cfg))
        net = model.net(cfg)
        assert model.net(cfg) is net
        assert model.policy(cfg).net is net
        assert model.evaluator(path_graph(4), cfg).net is net
        model.version += 1
        assert model.net(cfg) is not net


class TestLeafIds:
    """Search leaves are scored from ids (``evaluate_frozen``): one gather
    per batch and window terms memoised per (snapshot, table, window). The
    reference is each state's ``build_contexts`` scored alone."""

    @staticmethod
    def states_on(graphs, cfg, store, per_graph, rng):
        """(state, table) pairs, ``per_graph`` per graph at random moves of
        random episodes along the config order, grouped by graph."""
        pairs = []
        for i, g in enumerate(graphs):
            table = compute_embeddings(g, store, cfg, seed=i)
            for _ in range(per_graph):
                state = ColoringState(g, compute_order(g, cfg.order_kind))
                for _ in range(int(rng.integers(g.n))):
                    actions = state.valid_actions().actions()
                    state.apply_inplace(actions[rng.integers(len(actions))])
                pairs.append((state, table))
        return pairs

    @given(kind=st.sampled_from(["er", "ws"]), sizes=st.lists(st.integers(6, 24), min_size=1,
                                                                max_size=4),
           seed=st.integers(0, 999), order_kind=st.sampled_from(HEURISTIC_KINDS),
           cap=st.integers(2, 5), dtype=st.sampled_from(["float64", "float32"]),
           per_graph=st.integers(1, 3), interleave=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_build_contexts(self, kind, sizes, seed, order_kind, cap, dtype,
                                          per_graph, interleave):
        cfg = tiny_cfg(dtype=dtype, order_kind=order_kind, candidate_cap=cap)
        tol = 1e-12 if dtype == "float64" else 1e-5
        store = init_fastcolornet(cfg, seed=seed)
        rng = make_rng(seed)
        randomize_inference_params(store, rng)
        net = freeze(store, cfg)
        graphs = [gen_er(n, 0.4, seed + i) if kind == "er" else gen_ws(n, 4, 0.5, seed + i)
                  for i, n in enumerate(sizes)]
        pairs = self.states_on(graphs, cfg, store, per_graph, rng)
        if interleave:  # tables in runs, not grouped
            pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        forward = fastcolornet.policy_value_forward
        seen = []

        def spy(net_, gc, terms, slots, sizes_):
            seen.append((gc, terms, slots, sizes_))
            return forward(net_, gc, terms, slots, sizes_)

        for _ in range(2):  # the second round reads the memo where a state stays put
            states = [state for state, _ in pairs]
            tables = [table for _, table in pairs]
            capped_before = sum({id(t): t.capped_moves for t in tables}.values())
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fastcolornet, "policy_value_forward", spy)
                outs = fastcolornet.evaluate_frozen(net, cfg, states, tables)
            assert sum({id(t): t.capped_moves for t in tables}.values()) - capped_before == \
                sum(out.capped for out in outs)
            moves = [build_contexts(state, table, cfg, count=False) for state, table in pairs]
            gc, pc, slots, sizes_ = stack_contexts(moves)
            got_gc, got_terms, got_slots, got_sizes = seen.pop()
            assert got_gc.dtype == gc.dtype and np.array_equal(got_gc, gc)
            assert got_slots.dtype == slots.dtype and np.array_equal(got_slots, slots)
            assert got_sizes == sizes_
            assert np.abs(got_terms - window_terms(net, pc)).max() <= tol
            for out, mi in zip(outs, moves):
                (p,), (v3,) = forward_moves(net, [mi])
                assert out.actions == mi.actions and out.capped == mi.capped
                assert np.abs(out.p - p).max() <= tol and np.abs(out.v3 - v3).max() <= tol
                assert abs(out.v - (v3[0] - v3[2])) <= 2 * tol
                top = np.sort(p)[::-1]
                if top.size == 1 or top[0] - top[1] > tol:
                    assert np.argmax(out.p) == np.argmax(p)
            for state, _ in pairs:
                if state.t < state.graph.n - 1 and rng.random() < 0.5:
                    state.apply_inplace(state.valid_actions().actions()[0])

    def test_window_terms_memoised_per_snapshot_and_table(self, monkeypatch):
        cfg = tiny_cfg(order_kind="dynamic", move_sample_rate=0.5, run_ahead=5, mcts_segment=3,
                       simulations=8)
        gs = [gen_er(12, 0.4, seed=s) for s in range(3)]
        model = Model(init_fastcolornet(cfg))
        randomize_inference_params(model.store, make_rng(0))
        computed: list[int] = []
        terms = fastcolornet.window_terms

        def count_terms(net, pc):
            computed.append(len(pc))
            return terms(net, pc)

        leaves: set[tuple[int, int]] = set()
        rounds = []
        frozen = mcts.evaluate_frozen

        def count_leaves(net, cfg_, states, tables):
            rounds.append(len(states))
            leaves.update((id(table), state.t) for state, table in zip(states, tables))
            return frozen(net, cfg_, states, tables)

        monkeypatch.setattr(fastcolornet, "window_terms", count_terms)
        monkeypatch.setattr(mcts, "evaluate_frozen", count_leaves)
        for seed in (0, 1):
            run_selfplay(gs, cfg, lambda g: model.evaluator(g, cfg), bootstrap_oracle(),
                         ReplayBuffer(capacity=256), seed=seed)
        # every (table, t) window went through window_terms once over all rounds,
        # though leaves revisit each many times
        assert sum(computed) == len(leaves) and sum(rounds) > 10 * len(leaves)
        assert len(rounds) > 2 * len(computed)

        # another snapshot on the same table computes and reads its own terms
        table = model.cache.table(gs[0], model.store, cfg, model.version)
        store2 = model.store.copy()
        randomize_inference_params(store2, make_rng(1))
        net2 = freeze(store2, cfg)
        state = ColoringState(gs[0], compute_order(gs[0], cfg.order_kind))
        for t in range(4):
            state.apply_inplace(state.greedy_action())
        before = sum(computed)
        (actions, p, v), = evaluate_batch([NetEvaluator(store2, cfg, table, net2)], [state])
        assert sum(computed) == before + 1
        (want_p,), (want_v3,) = forward_moves(net2, [build_contexts(state, table, cfg)])
        assert np.abs(p - want_p).max() <= 1e-12 and abs(v - (want_v3[0] - want_v3[2])) <= 1e-12

        # a table dropped from the cache is freed together with its terms
        table_ref = weakref.ref(table)
        term_ref = weakref.ref(next(iter(table.window_memo[1].values())))
        del table, state
        model.cache.drop_below(model.version + 1)
        gc.collect()
        assert table_ref() is None and term_ref() is None


class TestSplitDecode:
    """``NetPolicy`` scores moves with ``decode_logits``, the policy half of
    the search path, with p.fc.0 split by its input columns. Every scored
    move must match the eval-mode training forward on the same contexts."""

    @staticmethod
    def scored(mp, policy) -> list[tuple[np.ndarray, np.ndarray]]:
        """(decode, reference) probabilities of every move ``policy``
        scores, drafts it rejects included. The reference is p_forward
        with training=False on float64 contexts."""
        seen = []
        split = selfplay.decode_logits

        def reference(gc, pc, cands):
            mi = fastcolornet.MoveInput(table=None, graph=None, gc=gc, pc=pc, pc_vertices=None,
                                        cand_sets=cands, cand_vertices=None,
                                        actions=list(range(len(cands))))
            p, _, _ = p_forward(policy.store, policy.cfg, [mi], training=False,
                                pc_override=pc[None].astype(np.float64),
                                cand_override=[cands.astype(np.float64)])
            return p[0]

        def spy(net, gc, pc, slots, sizes, rows=None):
            logits = split(net, gc, pc, slots, sizes, rows)
            rows_ = slots if rows is None else slots[rows]
            cands = np.split(rows_.reshape(len(rows_), -1, pc.shape[2]), np.cumsum(sizes)[:-1])
            seen.extend((softmax(lg), reference(*move))
                        for lg, move in zip(logits, zip(gc, pc, cands)))
            return logits

        mp.setattr(selfplay, "decode_logits", spy)
        return seen

    @staticmethod
    def assert_match(seen, tol):
        assert seen
        for got, want in seen:
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= tol
            top = np.sort(want)[::-1]
            if top.size == 1 or top[0] - top[1] > tol:
                assert np.argmax(got) == np.argmax(want)

    @staticmethod
    def policy(cfg, seed):
        store = init_fastcolornet(cfg, seed=seed)
        randomize_inference_params(store, make_rng(seed))
        return NetPolicy(store, cfg, EmbeddingCache(), version=0)

    @given(kind=st.sampled_from(["er", "ws"]), n=st.integers(6, 40), seed=st.integers(0, 999),
           order_kind=st.sampled_from(HEURISTIC_KINDS), cap=st.integers(2, 4),
           dtype=st.sampled_from(["float64", "float32"]), width=st.sampled_from([16, 50]))
    @settings(max_examples=40, deadline=None)
    def test_decode_matches_batched_path(self, kind, n, seed, order_kind, cap, dtype, width):
        # p_width 50 is p.fc.0's input width at these sizes: a residual first block
        cfg = tiny_cfg(dtype=dtype, order_kind=order_kind, candidate_cap=cap, p_width=width)
        g = gen_er(n, 0.4, seed) if kind == "er" else gen_ws(n, 4, 0.5, seed)
        policy = self.policy(cfg, seed)
        with pytest.MonkeyPatch.context() as mp:
            seen = self.scored(mp, policy)
            policy_colors(g, policy, cfg)
        self.assert_match(seen, 1e-9 if dtype == "float64" else 1e-4)

    def test_one_policy_over_interleaved_graphs(self, monkeypatch):
        cfg = tiny_cfg()
        policy = self.policy(cfg, 1)
        seen = self.scored(monkeypatch, policy)
        states = [ColoringState(gen_er(16, 0.4, seed)) for seed in (0, 1)]
        while not all(state.is_terminal for state in states):
            for state in states:
                if not state.is_terminal:
                    state.apply_inplace(policy.choose(state))
        self.assert_match(seen, 1e-9)

    def test_undone_moves_restepped_with_other_colors(self, monkeypatch):
        cfg = tiny_cfg()
        policy = self.policy(cfg, 2)
        seen = self.scored(monkeypatch, policy)
        state = ColoringState(gen_er(20, 0.3, seed=2))
        while state.t < 14:
            state.apply_inplace(policy.choose(state))
        for _ in range(8):
            state.undo()
        before = len(seen)
        while not state.is_terminal:
            actions = state.valid_actions().actions()
            pick = actions.index(policy.choose(state))
            state.apply_inplace(actions[(pick + 1) % len(actions)])  # not the net's pick
        assert len(seen) > before
        self.assert_match(seen, 1e-9)

    @given(sizes=st.lists(st.integers(1, 7), min_size=1, max_size=8),
           seed=st.integers(0, 999), dtype=st.sampled_from(["float64", "float32"]),
           width=st.sampled_from([16, 50]))
    @settings(max_examples=60, deadline=None)
    def test_search_priors_are_softmax_of_decode_logits(self, sizes, seed, dtype, width):
        # search and decode run one policy path: the same bits on the same batch;
        # p_width 50 is p.fc.0's input width at these sizes: a residual first block
        cfg = tiny_cfg(dtype=dtype, p_width=width)
        store = init_fastcolornet(cfg, seed=seed)
        rng = make_rng(seed)
        randomize_inference_params(store, rng)
        moves = [random_move(cfg, k, rng) for k in sizes]
        net = freeze(store, cfg)
        p_list, _ = forward_moves(net, moves)
        logits = decode_logits(net, *stack_contexts(moves))
        assert len(p_list) == len(logits) == len(moves)
        for p, lg in zip(p_list, logits):
            assert lg.dtype == np.float64 and np.array_equal(p, softmax(lg))

    def test_fresh_model_at_default_widths_decodes_greedy(self):
        cfg = Config()
        g = gen_ws(256, 4, 0.5, seed=1)
        policy = Model(init_fastcolornet(cfg)).policy(cfg)
        state = ColoringState(g, compute_order(g, cfg.order_kind))
        while not state.is_terminal:
            state.apply_inplace(policy.choose(state))
        assert np.array_equal(state.color_of, greedy_color(g, cfg.order_kind).assignment)


class TestBlockIds:
    """Decode scores a draft block from ids (``block_contexts``): one
    gather per block, each distinct member-slot row multiplied once. The
    reference is each drafted state's ``build_contexts``, stacked."""

    @staticmethod
    def draft(state, table, cfg, block):
        """Greedy drafts from ``state``, as ``NetPolicy`` takes them, up to
        ``block`` non-forced moves, then undone: ``(ts, members, hot,
        moves)``, ``moves`` being each drafted move's ``build_contexts``."""
        t0 = state.t
        ts, members, hot, moves = [], [], [], []
        while not state.is_terminal and len(moves) < block:
            aset = state.valid_actions()
            if aset.existing:
                _, ids, bins, _ = fastcolornet.context_ids(state, table, cfg, aset, count=False)
                ts.append(state.t)
                members += ids
                hot.append(bins)
                moves.append(build_contexts(state, table, cfg, aset, count=False))
            state.apply_inplace(state.greedy_action())
        while state.t > t0:
            state.undo()
        return ts, members, hot, moves

    @given(kind=st.sampled_from(["er", "ws"]), n=st.integers(6, 40), seed=st.integers(0, 999),
           order_kind=st.sampled_from(HEURISTIC_KINDS), cap=st.integers(2, 5),
           dtype=st.sampled_from(["float64", "float32"]), width=st.sampled_from([16, 50]),
           start=st.floats(0.0, 0.9), block=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_block_matches_build_contexts(self, kind, n, seed, order_kind, cap, dtype, width,
                                          start, block):
        # p_width 50 is p.fc.0's input width at these sizes: a residual first block
        cfg = tiny_cfg(dtype=dtype, order_kind=order_kind, candidate_cap=cap, p_width=width)
        g = gen_er(n, 0.4, seed) if kind == "er" else gen_ws(n, 4, 0.5, seed)
        store = init_fastcolornet(cfg, seed=seed)
        rng = make_rng(seed)
        randomize_inference_params(store, rng)
        net = freeze(store, cfg)
        table = compute_embeddings(g, store, cfg, seed=seed)
        state = ColoringState(g, compute_order(g, order_kind))
        while state.t < int(start * n):  # random colors, so colors hold several members
            actions = state.valid_actions().actions()
            state.apply_inplace(actions[rng.integers(len(actions))])
        ts, members, hot, moves = self.draft(state, table, cfg, block)
        if not moves:
            return
        gc, pc, slots, rows = fastcolornet.block_contexts(
            cfg, table, state.order_window(cfg.window, ts), members, hot)
        want_gc, want_pc, want_slots, sizes = stack_contexts(moves)
        for got, want in ((gc, want_gc), (pc, want_pc), (slots[rows], want_slots)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

        # one slot row per distinct key of m member ids
        m = cfg.color_set_size
        keys = [tuple(members[i:i + m]) for i in range(0, len(members), m)]
        key_of: dict[int, tuple] = {}
        for row, key in zip(rows.tolist(), keys):
            assert key_of.setdefault(row, key) == key
        assert len(key_of) == len(set(key_of.values())) == len(slots)

        got = np.concatenate(decode_logits(net, gc, pc, slots, sizes, rows))
        want = np.concatenate(decode_logits(net, gc, pc, slots[rows], sizes))
        tol = 1e-12 if dtype == "float64" else 1e-5 * (1.0 + np.abs(want).max())
        assert np.abs(got - want).max() <= tol

        # the one-move call on the block's slice: today's bits
        lo = 0
        for b, mi in enumerate(moves):
            k = len(mi.actions)
            (alone,) = decode_logits(net, gc[b:b + 1], pc[b:b + 1], slots[rows[lo:lo + k]], [k])
            (today,) = decode_logits(net, *stack_contexts([mi]))
            assert np.array_equal(alone, today)
            lo += k

    def test_slot_product_sees_distinct_rows(self, monkeypatch):
        cfg = tiny_cfg()
        g = gen_ws(200, 4, 0.5, seed=3)
        # a fresh model keeps every draft: long blocks that share slot rows
        policy = NetPolicy(init_fastcolornet(cfg), cfg, EmbeddingCache(), version=0)
        calls = []
        scores = fastcolornet._policy_scores

        def spy(net, gc, pooled_pc, slots, sizes, rows=None):
            calls.append((slots.copy(), rows, sum(sizes)))
            return scores(net, gc, pooled_pc, slots, sizes, rows)

        monkeypatch.setattr(fastcolornet, "_policy_scores", spy)
        policy_colors(g, policy, cfg)
        assert calls
        for slots, rows, total in calls:
            assert rows is not None and len(rows) == total
            assert sorted(set(rows.tolist())) == list(range(len(slots)))
            assert len(np.unique(slots, axis=0)) == len(slots)
        assert sum(len(slots) for slots, _, _ in calls) < sum(total for *_, total in calls) / 2


# -- training stacks -----------------------------------------------------


def per_sequence_conv_stack(store, prefix, seqs, layers, training):
    """Reference for a ragged stack: one convolution per sequence, with
    batchnorm statistics joint over all rows."""
    for i in range(layers):
        name = f"{prefix}.{i}"
        ys = [reference_conv1d_forward(x[None], store[f"{name}.k"], store[f"{name}.b"])[0][0]
              for x in seqs]
        flat, _ = nn.batchnorm_forward(
            np.concatenate(ys), store[f"{name}.bn.gamma"], store[f"{name}.bn.beta"],
            store[f"{name}.bn._running_mean"], store[f"{name}.bn._running_var"], training)
        flat = np.maximum(flat, 0.0)
        pieces = np.split(flat, np.cumsum([len(x) for x in seqs])[:-1])
        seqs = [x + y if x.shape[-1] == y.shape[-1] else y for x, y in zip(seqs, pieces)]
    return np.concatenate(seqs)


class TestStacks:
    @given(lengths=st.lists(st.integers(1, 7), min_size=1, max_size=6),
           training=st.booleans(), seed=st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_training_stack_matches_per_sequence_loop(self, lengths, training, seed):
        cfg = tiny_cfg(seq_filter=5)
        store = init_fastcolornet(cfg, seed=seed)
        randomize_inference_params(store, make_rng(seed))
        ref_store = store.copy()
        x = make_rng(seed + 1).normal(size=(sum(lengths), cfg.p_width))
        taps = nn.ragged_taps(lengths, cfg.seq_filter)
        got, _ = _stack_forward(store, "p.seq", "k", x, cfg.seq_layers, training,
                                lambda x, k, b: nn.conv1d_forward(x, k, b, taps=taps))
        want = per_sequence_conv_stack(ref_store, "p.seq", np.split(x, np.cumsum(lengths)[:-1]),
                                       cfg.seq_layers, training)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12
        for name in store.names():
            assert np.abs(store[name] - ref_store[name]).max() <= 1e-12, name

    @given(lengths=st.lists(st.integers(1, 10), min_size=1, max_size=8),
           filter_size=st.sampled_from([1, 3, 5, 7]), width=st.sampled_from([8, 16]),
           dtype=st.sampled_from(["float64", "float32"]), seed=st.integers(0, 999))
    @settings(max_examples=80, deadline=None)
    def test_ragged_stack_matches_per_sequence_conv(self, lengths, filter_size, width, dtype,
                                                    seed):
        # p_width 8 is seq_channels: a residual first block
        cfg = tiny_cfg(seq_filter=filter_size, p_width=width, dtype=dtype)
        store = init_fastcolornet(cfg, seed=seed)
        randomize_inference_params(store, make_rng(seed))
        layers = freeze(store, cfg).p_seq
        x = make_rng(seed + 1).normal(size=(sum(lengths), width)).astype(dtype)
        taps = nn.ragged_taps(lengths, filter_size)
        got = fastcolornet._folded_stack(
            x.copy(), layers, lambda x, k, b: nn.conv1d_forward(x, k, b, taps=taps))
        want = []
        for seq in np.split(x.astype(np.float64), np.cumsum(lengths)[:-1]):
            for layer in layers:  # float64 reference, zero 'same' padding per sequence
                y = reference_conv1d_forward(seq[None], layer.w.astype(np.float64),
                                             layer.b)[0][0]
                y = np.maximum(y * layer.scale + layer.shift, 0.0)
                seq = seq + y if seq.shape == y.shape else y
            want.append(seq)
        want = np.concatenate(want)
        assert got.dtype == np.dtype(dtype) and got.shape == want.shape
        scale = 1e-12 if dtype == "float64" else 1e-5 * max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= scale


def spy_layer_inputs(monkeypatch) -> list[np.dtype]:
    """Record the dtype of every array passed to a dense or conv1d forward,
    positionally or by keyword (conv1d's tap index excluded), wherever a
    fastcolor module looks the function up."""
    seen: list[np.dtype] = []
    modules = [importlib.import_module(f"fastcolor.{m.name}")
               for m in pkgutil.iter_modules(fastcolor.__path__)]
    for original in (nn.dense_forward, nn.conv1d_forward):
        def spy(*args, _fn=original, **kwargs):
            seen.extend(a.dtype for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray))
            return _fn(*args, **kwargs)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, spy)
    return seen


class TestDtype:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_inference_computes_in_config_dtype(self, dtype, monkeypatch):
        cfg = tiny_cfg(dtype=dtype)
        g = gen_er(12, 0.4, seed=3)
        model = Model(init_fastcolornet(cfg))
        seen = spy_layer_inputs(monkeypatch)
        policy_colors(g, model.policy(cfg), cfg)
        state = ColoringState(g)
        for evaluator in (model.evaluator(g, cfg),
                          NetEvaluator(model.store, cfg, model.cache.table(g, model.store,
                                                                           cfg, 0))):
            evaluator.evaluate(state)
        assert seen and set(seen) == {np.dtype(dtype)}

    def test_training_ignores_context_dtype(self):
        cfg = tiny_cfg(dtype="float32", walk_rate=0.5)
        g, store, table, batch = _training_batch(cfg, n_moves=4)
        assert {tm.move.pc.dtype for tm in batch} == {np.dtype(np.float32)}
        wide = [dataclasses.replace(tm.move, gc=tm.move.gc.astype(np.float64),
                                    pc=tm.move.pc.astype(np.float64),
                                    cand_sets=tm.move.cand_sets.astype(np.float64))
                for tm in batch]
        pis = [tm.pi for tm in batch]
        zs = [tm.z for tm in batch]
        walks = draw_walks(wide, cfg, make_rng(4))
        assert walks
        runs = [forward_backward(moves, pis, zs, store.copy(), cfg, walks, training=True)
                for moves in ([tm.move for tm in batch], wide)]
        (loss_a, grads_a, _), (loss_b, grads_b, _) = runs
        assert loss_a == loss_b
        assert grads_a.keys() == grads_b.keys()
        for name in grads_a:
            assert np.array_equal(grads_a[name], grads_b[name]), name
