"""Episode generation, window scoring, and the replay buffer."""

import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastcolor.config import Config
from fastcolor.coloring import HEURISTIC_KINDS, ColoringState, Outcome, compute_order
from fastcolor.errors import ParameterError, StateError
from fastcolor.fastcolornet import build_contexts, decode_logits, init_fastcolornet
from fastcolor.graph import Graph, gen_er, gen_ws
from fastcolor.nn import softmax
from fastcolor import mcts, selfplay
from fastcolor.mcts import UniformEvaluator
from fastcolor.pipeline import Model
from fastcolor.rng import make_rng, mix64
from fastcolor.selfplay import (
    BaselineOracle,
    EmbeddingCache,
    GreedyPolicy,
    MoveRecord,
    NetPolicy,
    ReplayBuffer,
    abort_outcome,
    bootstrap_oracle,
    fast_forward,
    play_segment,
    reconstruct_state,
    run_selfplay,
    sample_positions,
)

from conftest import (
    RolloutEvaluator,
    complete_graph,
    crown_graph,
    policy_forward,
    randomize_inference_params,
)


def small_cfg(**kw) -> Config:
    base = dict(run_ahead=6, mcts_segment=3, simulations=8)
    base.update(kw)
    return Config(**base)


def net_cfg(**kw) -> Config:
    base = dict(
        feature_bins=8,
        embed_dim=6,
        embed_hidden=10,
        embed_iterations=2,
        lstm_steps=1,
        window=2,
        color_set_size=2,
        v_width=16,
        v_layers=2,
        p_width=16,
        p_layers=2,
        seq_channels=8,
        seq_layers=2,
        seq_filter=3,
        dtype="float64",
    )
    base.update(kw)
    return small_cfg(**base)


class WorstPolicy:
    """Opens a new color every move; useful as a beatable baseline."""

    def choose(self, state):
        return state.colors_used


class TestBaseline:
    def test_k4_bootstrap_trace(self):
        trace = bootstrap_oracle().trace(complete_graph(4), small_cfg())
        assert trace.cumulative.tolist() == [0, 1, 2, 3, 4]
        assert trace.chi == 4
        assert trace.actions.tolist() == [0, 1, 2, 3]

    def test_empty_graph_single_color(self):
        trace = bootstrap_oracle().trace(Graph.from_edges(3, []), small_cfg())
        assert trace.chi == 1
        assert trace.cumulative.tolist() == [0, 1, 1, 1]
        assert trace.actions.tolist() == [0, 0, 0]

    def test_deterministic_across_oracles(self):
        g = gen_er(20, 0.3, seed=5)
        cfg = small_cfg()
        a = bootstrap_oracle().trace(g, cfg)
        b = bootstrap_oracle().trace(g, cfg)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.cumulative, b.cumulative)

    def test_trace_is_cached_per_graph_and_order(self):
        g = gen_er(12, 0.4, seed=1)
        oracle = bootstrap_oracle()
        cfg = small_cfg()
        assert oracle.trace(g, cfg) is oracle.trace(g, cfg)
        other = oracle.trace(g, small_cfg(order_kind="ordered"))
        assert other is not oracle.trace(g, cfg)

    def test_cumulative_monotone_steps(self):
        g = gen_er(15, 0.5, seed=2)
        trace = bootstrap_oracle().trace(g, small_cfg(order_kind="dynamic"))
        diff = np.diff(trace.cumulative)
        assert ((diff == 0) | (diff == 1)).all()
        assert trace.cumulative[0] == 0


class TestFastForward:
    def test_matches_cumulative(self):
        g = gen_er(14, 0.4, seed=9)
        cfg = small_cfg()
        oracle = bootstrap_oracle()
        trace = oracle.trace(g, cfg)
        for start in (0, 5, g.n):
            state = fast_forward(g, trace, start, cfg)
            assert state.t == start
            assert state.colors_used == trace.cumulative[start]

    def test_deterministic(self):
        g = gen_er(14, 0.4, seed=9)
        cfg = small_cfg()
        trace = bootstrap_oracle().trace(g, cfg)
        a = fast_forward(g, trace, 7, cfg)
        b = fast_forward(g, trace, 7, cfg)
        assert np.array_equal(a.color_of, b.color_of)

    def test_rejects_bad_start(self):
        g = complete_graph(4)
        trace = bootstrap_oracle().trace(g, small_cfg())
        with pytest.raises(ParameterError):
            fast_forward(g, trace, 5, small_cfg())


class TestAbortOutcome:
    def test_lose_once_baseline_exceeded(self):
        # colors only grow, so 5 > 4 cannot be recovered
        assert abort_outcome(5, 6, 8, 4) is Outcome.LOSE

    def test_win_when_worst_case_still_below(self):
        # at most one new color per remaining move: 2 + 2 < 5
        assert abort_outcome(2, 6, 8, 5) is Outcome.WIN

    def test_open_window_returns_none(self):
        assert abort_outcome(3, 6, 8, 4) is None
        assert abort_outcome(4, 6, 8, 4) is None
        assert abort_outcome(3, 6, 8, 5) is None


class TestPlaySegment:
    def test_forced_graph_ties(self):
        # K4 admits exactly one action per move for agent and baseline
        cfg = small_cfg(mcts_segment=4)
        records, info = play_segment(
            complete_graph(4), 0, cfg, UniformEvaluator(), bootstrap_oracle(), seed=0
        )
        assert info.z is Outcome.TIE
        assert info.aborted_at is None
        assert len(records) == 4
        assert all(r.z is Outcome.TIE for r in records)
        assert info.agent_colors == info.baseline_colors == 4

    def test_records_share_one_trace(self):
        g = gen_er(12, 0.4, seed=4)
        records, info = play_segment(
            g, 2, small_cfg(), UniformEvaluator(), bootstrap_oracle(), seed=1
        )
        assert len(records) >= 1
        assert all(r.trace is records[0].trace for r in records)
        assert all(r.t < len(r.trace) for r in records)
        for r in records:
            assert r.pi.sum() == pytest.approx(1.0)
        assert len({rec.z for rec in records}) == 1

    def test_reconstruction_matches_pi_support(self):
        g = gen_er(12, 0.4, seed=4)
        cfg = small_cfg()
        records, _ = play_segment(g, 3, cfg, UniformEvaluator(), bootstrap_oracle(), seed=2)
        for rec in records:
            state = reconstruct_state(rec, cfg)
            assert state.t == rec.t
            assert state.valid_actions().size == rec.pi.size

    def test_win_abort_against_weak_baseline(self):
        # worst baseline on an empty graph uses n colors; one reused
        # color makes the window mathematically unreachable for it
        cfg = small_cfg()
        oracle = BaselineOracle(WorstPolicy())
        records, info = play_segment(
            Graph.from_edges(6, []), 0, cfg, UniformEvaluator(), oracle, seed=0
        )
        assert info.z is Outcome.WIN
        assert info.aborted_at == 2
        assert len(records) == 2
        assert all(r.z is Outcome.WIN for r in records)

    def test_lose_abort_labels_all_records(self):
        g = gen_er(16, 0.5, seed=3)
        cfg = small_cfg()
        records, info = play_segment(g, 7, cfg, UniformEvaluator(), bootstrap_oracle(), seed=7)
        assert info.z is Outcome.LOSE
        assert info.aborted_at is not None
        assert len(records) >= 1
        assert all(r.z is Outcome.LOSE for r in records)

    def test_aborted_outcome_equals_played_out(self):
        # soundness of both bounds over many random windows
        g = gen_er(16, 0.5, seed=3)
        cfg = small_cfg()
        base = bootstrap_oracle()
        aborts = 0
        for seed in range(40):
            start = seed % (g.n - 1)
            _, early = play_segment(
                g, start, cfg, UniformEvaluator(), base, seed=seed, early_abort=True
            )
            _, full = play_segment(
                g, start, cfg, UniformEvaluator(), base, seed=seed, early_abort=False
            )
            assert early.z == full.z
            assert full.aborted_at is None
            aborts += early.aborted_at is not None
        assert aborts >= 10

    def test_deterministic_per_seed(self):
        g = gen_er(14, 0.5, seed=6)
        cfg = small_cfg()
        ra, ia = play_segment(g, 4, cfg, UniformEvaluator(), bootstrap_oracle(), seed=11)
        rb, ib = play_segment(g, 4, cfg, UniformEvaluator(), bootstrap_oracle(), seed=11)
        assert ia == ib
        assert all(np.array_equal(x.pi, y.pi) for x, y in zip(ra, rb))
        assert np.array_equal(ra[0].trace, rb[0].trace)

    def test_max_decoding_ignores_seed(self):
        # past sample_first_k moves are argmax, so play is seed-free
        g = gen_er(14, 0.5, seed=6)
        cfg = small_cfg(sample_first_k=0)
        ra, ia = play_segment(g, 4, cfg, UniformEvaluator(), bootstrap_oracle(), seed=1)
        rb, ib = play_segment(g, 4, cfg, UniformEvaluator(), bootstrap_oracle(), seed=2)
        assert ia == ib
        assert np.array_equal(ra[0].trace, rb[0].trace)

    def test_segment_clipped_by_window(self):
        g = gen_er(12, 0.4, seed=4)
        cfg = small_cfg(run_ahead=2, mcts_segment=8, early_abort=False)
        records, info = play_segment(g, 5, cfg, UniformEvaluator(), bootstrap_oracle(), seed=3)
        assert len(records) == 2
        assert info.baseline_colors == bootstrap_oracle().trace(g, cfg).cumulative[7]

    def test_rejects_bad_start(self):
        with pytest.raises(ParameterError):
            play_segment(
                complete_graph(4), 4, small_cfg(), UniformEvaluator(), bootstrap_oracle(), seed=0
            )


class TestSamplePositions:
    def test_full_rate_covers_every_move(self):
        g = gen_er(4, 0.5, seed=0)
        got = sample_positions([g], small_cfg(move_sample_rate=1.0), seed=0)
        assert got == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_zero_rate_empty_schedule(self):
        g = gen_er(4, 0.5, seed=0)
        assert sample_positions([g], small_cfg(move_sample_rate=0.0), seed=0) == []

    def test_count_floors(self):
        g = gen_er(5, 0.5, seed=0)
        got = sample_positions([g], small_cfg(move_sample_rate=0.5), seed=1)
        assert len(got) == 2

    def test_no_replacement_across_graphs(self):
        gs = [gen_er(6, 0.5, seed=0), gen_er(9, 0.5, seed=1)]
        got = sample_positions(gs, small_cfg(move_sample_rate=1.0), seed=2)
        assert len(got) == 15
        assert len(set(got)) == 15
        assert {gi for gi, _ in got} == {0, 1}
        assert all(0 <= t < gs[gi].n for gi, t in got)

    def test_uniform_over_union(self):
        # 10 of 100 moves live on the small graph, so about 10% of
        # samples should, aggregated over many seeds
        gs = [gen_er(10, 0.5, seed=0), gen_er(90, 0.1, seed=1)]
        cfg = small_cfg(move_sample_rate=0.2)
        small = total = 0
        for seed in range(400):
            for gi, _ in sample_positions(gs, cfg, seed=seed):
                small += gi == 0
                total += 1
        assert total == 8000
        assert abs(small / total - 0.10) < 0.0125

    def test_rejects_empty_set(self):
        with pytest.raises(ParameterError):
            sample_positions([], small_cfg(), seed=0)


def _record(g: Graph, t: int = 0) -> MoveRecord:
    return MoveRecord(
        graph=g,
        t=t,
        pi=np.array([1.0]),
        z=Outcome.TIE,
        trace=np.zeros(max(t, 1), dtype=np.int64),
    )


class TestReplayBuffer:
    def test_eviction_is_fifo(self):
        ga, gb = gen_er(6, 0.5, seed=0), gen_er(6, 0.5, seed=1)
        buf = ReplayBuffer(capacity=2)
        buf.append([_record(ga, t=0), _record(ga, t=1), _record(gb, t=2)])
        assert len(buf) == 2
        seen = {r.t for r in buf.sample(200, make_rng(0))}
        assert seen == {1, 2}

    def test_sample_uniform_with_replacement(self):
        g = gen_er(6, 0.5, seed=0)
        buf = ReplayBuffer(capacity=16)
        buf.append([_record(g, t=t) for t in range(10)])
        counts = np.zeros(10, dtype=np.int64)
        rng = make_rng(7)
        for r in buf.sample(100_000, rng):
            counts[r.t] += 1
        freq = counts / counts.sum()
        assert (np.abs(freq - 0.10) < 0.01).all()

    def test_sample_errors(self):
        buf = ReplayBuffer(capacity=2)
        with pytest.raises(StateError):
            buf.sample(1, make_rng(0))
        buf.append([_record(gen_er(6, 0.5, seed=0))])
        with pytest.raises(ParameterError):
            buf.sample(0, make_rng(0))
        with pytest.raises(ParameterError):
            ReplayBuffer(capacity=0)

    def test_table_for_caches(self):
        cfg = net_cfg()
        store = init_fastcolornet(cfg)
        g = gen_er(6, 0.5, seed=0)
        buf = ReplayBuffer(capacity=4)
        rec = _record(g)
        buf.append([rec])
        assert len(buf.embeddings) == 0
        t1 = buf.table_for(rec, store, cfg, version=0)
        assert len(buf.embeddings) == 1
        assert buf.table_for(rec, store, cfg, version=0) is t1
        assert t1.tables.shape == (cfg.embed_iterations + 1, g.n, cfg.embed_dim)


class TestEmbeddingCache:
    def test_version_keys_fresh_tables(self):
        cfg = net_cfg()
        store = init_fastcolornet(cfg)
        g = gen_er(6, 0.5, seed=0)
        cache = EmbeddingCache()
        t0 = cache.table(g, store, cfg, version=0)
        assert cache.table(g, store, cfg, version=0) is t0
        t1 = cache.table(g, store, cfg, version=1)
        assert t1 is not t0
        assert len(cache) == 2
        cache.drop_below(1)
        assert len(cache) == 1
        assert cache.table(g, store, cfg, version=1) is t1


class TestNetPolicy:
    def test_chooses_valid_actions_deterministically(self):
        cfg = net_cfg()
        store = init_fastcolornet(cfg)
        g = gen_er(10, 0.4, seed=2)
        policy = NetPolicy(store, cfg, EmbeddingCache(), version=0)
        oracle = BaselineOracle(policy)
        trace = oracle.trace(g, cfg)
        again = BaselineOracle(NetPolicy(store, cfg, EmbeddingCache(), version=0)).trace(g, cfg)
        assert np.array_equal(trace.actions, again.actions)
        diff = np.diff(trace.cumulative)
        assert ((diff == 0) | (diff == 1)).all()

    def test_forced_first_move(self):
        cfg = net_cfg()
        store = init_fastcolornet(cfg)
        from fastcolor.coloring import ColoringState

        state = ColoringState(complete_graph(3))
        assert NetPolicy(store, cfg, EmbeddingCache(), version=0).choose(state) == 0

    def test_forced_moves_skip_the_network(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("network called on a forced move")

        monkeypatch.setattr(selfplay, "build_contexts", refuse)
        monkeypatch.setattr(selfplay, "decode_logits", refuse)
        cfg = net_cfg()
        cache = EmbeddingCache()
        g = complete_graph(5)  # every move opens a new color
        trace = BaselineOracle(NetPolicy(init_fastcolornet(cfg), cfg, cache, 0)).trace(g, cfg)
        assert trace.actions.tolist() == [0, 1, 2, 3, 4] and len(cache) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_decoded_colors_unchanged_by_forced_move_shortcut(self, seed):
        from fastcolor.coloring import ColoringState, compute_order
        from fastcolor.fastcolornet import build_contexts

        cfg = net_cfg(order_kind=("unordered", "ordered", "dynamic")[seed % 3])
        store = init_fastcolornet(cfg, seed=seed)
        rng = make_rng(seed)
        for name in store.names():  # non-zero heads, so the network decides
            if ".head." in name:
                store[name] = rng.normal(size=store[name].shape)
        g = gen_er(14, 0.2 + 0.1 * seed, seed=seed)
        policy = NetPolicy(store, cfg, EmbeddingCache(), version=0)
        state = ColoringState(g, compute_order(g, cfg.order_kind))
        forced = 0
        while not state.is_terminal:
            # reference: always score the move with the network
            mi = build_contexts(state, policy.cache.table(g, store, cfg, 0), cfg)
            want = mi.actions[int(np.argmax(policy_forward(policy.net, mi)))]
            forced += len(mi.actions) == 1
            assert policy.choose(state) == want
            state.apply_inplace(want)
        assert forced >= 1


def alone_choice(policy, state) -> int:
    """Reference decode step: the move scored by itself with the one-move
    ``decode_logits`` call."""
    aset = state.valid_actions()
    if not aset.existing:
        return aset.new_color
    table = policy.cache.table(state.graph, policy.store, policy.cfg, policy.version)
    mi = build_contexts(state, table, policy.cfg, aset, count=False)
    (logits,) = decode_logits(policy.net, [mi])
    return mi.actions[int(np.argmax(softmax(logits)))]


def random_head_policy(cfg, seed) -> NetPolicy:
    store = init_fastcolornet(cfg, seed=seed)
    randomize_inference_params(store, make_rng(seed))
    return NetPolicy(store, cfg, EmbeddingCache(), version=0)


def decode(policy, g, cfg) -> list[int]:
    state = ColoringState(g, compute_order(g, cfg.order_kind))
    actions = []
    while not state.is_terminal:
        actions.append(policy.choose(state))
        state.apply_inplace(actions[-1])
    return actions


class TestSpeculativeDecode:
    """``NetPolicy`` drafts greedy moves and keeps the prefix its net agrees
    with; every answer must be the move-by-move decode's."""

    def assert_answers_alone(self, policy, state) -> int:
        want = alone_choice(policy, state)
        assert policy.choose(state) == want
        return want

    @given(kind=st.sampled_from(["er", "ws"]), n=st.integers(6, 48), seed=st.integers(0, 999),
           order_kind=st.sampled_from(HEURISTIC_KINDS), cap=st.integers(2, 4),
           dtype=st.sampled_from(["float64", "float32"]), width=st.sampled_from([16, 50]),
           draft_rows=st.one_of(st.none(), st.integers(3, 8)))
    @settings(max_examples=40, deadline=None)
    def test_same_actions_as_move_by_move(self, kind, n, seed, order_kind, cap, dtype, width,
                                          draft_rows):
        # p_width 50 is p.fc.0's input width at these sizes: a residual first block;
        # a small row budget binds on these small graphs
        cfg = net_cfg(dtype=dtype, order_kind=order_kind, candidate_cap=cap, p_width=width)
        g = gen_er(n, 0.4, seed) if kind == "er" else gen_ws(n, 4, 0.5, seed)
        policy = random_head_policy(cfg, seed)
        with pytest.MonkeyPatch.context() as m:
            if draft_rows is not None:
                m.setattr(selfplay, "DRAFT_ROWS", draft_rows)
            got = decode(policy, g, cfg)
        state = ColoringState(g, compute_order(g, cfg.order_kind))
        for a in got:
            assert alone_choice(policy, state) == a
            state.apply_inplace(a)
        assert policy.kept <= policy.drafted and policy.forwards >= (policy.drafted > 0)

    def test_fresh_model_keeps_every_draft(self):
        # fully kept blocks double past 32 moves, up to the row budget
        cfg = net_cfg()
        g = gen_ws(1000, 4, 0.5, seed=1)
        policy = NetPolicy(init_fastcolornet(cfg), cfg, EmbeddingCache(), version=0)
        decode(policy, g, cfg)
        assert policy.kept == policy.drafted > 0
        assert policy.forwards < policy.drafted / 32 and policy.block == selfplay.DRAFT_ROWS

    @pytest.mark.parametrize("draft_rows,cap", [(None, 256), (8, 3)])
    def test_forward_rows_within_budget(self, monkeypatch, draft_rows, cap):
        # drafting stops once the rows reach the budget: the last move adds at most cap
        if draft_rows is not None:
            monkeypatch.setattr(selfplay, "DRAFT_ROWS", draft_rows)
        rows, split = [], selfplay.decode_logits

        def spy(net, moves):
            rows.append(sum(len(mi.actions) for mi in moves))
            return split(net, moves)

        monkeypatch.setattr(selfplay, "decode_logits", spy)
        cfg = net_cfg(candidate_cap=cap)
        decode(NetPolicy(init_fastcolornet(cfg), cfg, EmbeddingCache(), version=0),
               gen_ws(1000, 4, 0.5, seed=2), cfg)
        assert max(rows) >= selfplay.DRAFT_ROWS
        assert max(rows) < selfplay.DRAFT_ROWS + cfg.candidate_cap

    def test_near_tie_decided_alone(self, monkeypatch):
        # batched scores that put another candidate a hair above the net's
        # pick: inside the tie bound, so the one-move call decides
        cfg = net_cfg(candidate_cap=3)
        g = gen_ws(200, 4, 0.5, seed=4)
        want = decode(random_head_policy(cfg, 4), g, cfg)
        split = selfplay.decode_logits
        calls = {"batched": 0, "alone": 0}

        def tie(net, moves):
            logits = split(net, moves)
            if len(moves) == 1:
                calls["alone"] += 1
                return logits
            calls["batched"] += 1
            for lg in logits:
                top, other = int(np.argmax(lg)), int(np.argmin(lg))
                lg[other] = lg[top] + 1e-14 * (1 + abs(lg[top]))
            return logits

        monkeypatch.setattr(selfplay, "decode_logits", tie)
        policy = random_head_policy(cfg, 4)
        assert decode(policy, g, cfg) == want
        assert calls["batched"] > 0 and calls["alone"] > calls["batched"]

    @staticmethod
    def restep(state, t_end: int, stale: int) -> None:
        """Step to ``t_end`` without asking, giving ``stale`` to a neighbor
        of move t_end's vertex where valid, else a new color, so that move
        no longer offers ``stale``."""
        v = state.order[t_end]
        while state.t < t_end:
            u = state.current_vertex()
            ok = state.graph.has_edge(u, v) and stale in state.valid_actions().existing
            state.apply_inplace(stale if ok else state.colors_used)

    def test_undone_mid_plan_and_restepped(self):
        cfg = net_cfg()
        policy = NetPolicy(init_fastcolornet(cfg), cfg, EmbeddingCache(), version=0)
        state = ColoringState(gen_ws(80, 4, 0.5, seed=4))
        while state.t < 40:  # a fresh model agrees with greedy: long plans
            state.apply_inplace(self.assert_answers_alone(policy, state))
        stale = self.assert_answers_alone(policy, state)  # the plan has seen every move
        for _ in range(5):
            state.undo()
        self.restep(state, 40, stale)
        assert alone_choice(policy, state) != stale
        while not state.is_terminal:
            state.apply_inplace(self.assert_answers_alone(policy, state))

    def test_other_color_than_advised(self):
        cfg = net_cfg()
        policy = random_head_policy(cfg, 4)
        state = ColoringState(gen_ws(60, 4, 0.5, seed=4))
        while not state.is_terminal:
            actions = state.valid_actions().actions()
            pick = actions.index(self.assert_answers_alone(policy, state))
            step = 1 if state.t % 5 == 2 else 0  # now and then not the net's pick
            state.apply_inplace(actions[(pick + step) % len(actions)])

    def test_two_states_interleaved(self):
        cfg = net_cfg()
        policy = random_head_policy(cfg, 4)
        states = [ColoringState(gen_ws(50, 4, 0.5, seed)) for seed in (4, 5)]
        states.append(ColoringState(states[0].graph))  # same graph, second state
        while not all(state.is_terminal for state in states):
            for i, state in enumerate(states):
                for _ in range(i + 1):
                    if not state.is_terminal:
                        state.apply_inplace(self.assert_answers_alone(policy, state))

    def test_new_state_at_same_t(self):
        cfg = net_cfg()
        policy = NetPolicy(init_fastcolornet(cfg), cfg, EmbeddingCache(), version=0)
        g = gen_ws(80, 4, 0.5, seed=4)
        first = ColoringState(g)
        while first.t < 40:
            first.apply_inplace(self.assert_answers_alone(policy, first))
        stale = self.assert_answers_alone(policy, first)  # the plan has seen every move
        second = ColoringState(g)
        for a in first.color_of[first.order[:30]]:  # same graph and t, other colors
            second.apply_inplace(int(a))
        self.restep(second, 40, stale)
        second.undos = first.undos  # counters may match: only identity tells them apart
        assert alone_choice(policy, second) != stale
        while not second.is_terminal:
            second.apply_inplace(self.assert_answers_alone(policy, second))

    @pytest.mark.parametrize("cap", [2, 3])
    def test_capped_moves_counted_once_per_decided_move(self, cap, caplog):
        cfg = net_cfg(candidate_cap=cap)
        g = gen_ws(120, 6, 0.5, seed=cap)
        policy = random_head_policy(cfg, 7)
        with caplog.at_level(logging.WARNING):
            actions = decode(policy, g, cfg)
        state = ColoringState(g, compute_order(g, cfg.order_kind))
        capped = 0
        for a in actions:
            capped += len(state.valid_actions().existing) + 1 > cap
            state.apply_inplace(a)
        assert policy.kept < policy.drafted  # some drafts were rejected and redrafted
        assert policy.cache.table(g, policy.store, cfg, 0).capped_moves == capped > 0
        assert sum("candidate cap" in r.getMessage() for r in caplog.records) == 1


class TestRunSelfplay:
    def test_fills_buffer_and_logs(self, tmp_path):
        gs = [gen_er(10, 0.4, seed=0), gen_er(10, 0.4, seed=1)]
        cfg = small_cfg(move_sample_rate=0.3, mcts_segment=2, simulations=4)
        buf = ReplayBuffer(capacity=64)
        log = tmp_path / "episodes.jsonl"
        results = run_selfplay(
            gs, cfg, lambda g: UniformEvaluator(), bootstrap_oracle(), buf, seed=0,
            log_path=str(log),
        )
        assert len(results) == 6
        assert len(buf) == sum(r.moves for r in results)
        lines = log.read_text().splitlines()
        assert len(lines) == 6
        row = json.loads(lines[0])
        assert set(row) == {
            "graph", "start_t", "moves", "z", "agent_colors", "baseline_colors", "aborted_at",
        }
        assert row["z"] in {"win", "tie", "lose"}

    def test_candidate_cap_logged_per_graph_and_pass(self, caplog):
        # a triangle, then isolated vertices: every later move offers 3 existing colors
        gs = [Graph.from_edges(n, [(0, 1), (1, 2), (0, 2)]) for n in (8, 9)]
        cfg = net_cfg(candidate_cap=2, move_sample_rate=0.5, mcts_segment=2, simulations=4)
        model = Model(init_fastcolornet(cfg))
        with caplog.at_level(logging.WARNING):
            run_selfplay(gs, cfg, lambda g: model.evaluator(g, cfg), bootstrap_oracle(),
                         ReplayBuffer(capacity=64), seed=0)
        total = sum(model.cache.table(g, model.store, cfg, 0).capped_moves for g in gs)
        messages = [r.getMessage() for r in caplog.records if "candidate cap" in r.getMessage()]
        assert total > len(gs)
        assert len(messages) == len(gs) + 1
        assert f"hit on {total} moves during this pass" in messages[-1]

    def test_pass_is_deterministic(self):
        gs = [gen_er(10, 0.4, seed=0), gen_er(10, 0.4, seed=1)]
        cfg = small_cfg(move_sample_rate=0.3, mcts_segment=2, simulations=4)
        a = run_selfplay(gs, cfg, lambda g: UniformEvaluator(), bootstrap_oracle(),
                         ReplayBuffer(capacity=64), seed=5)
        b = run_selfplay(gs, cfg, lambda g: UniformEvaluator(), bootstrap_oracle(),
                         ReplayBuffer(capacity=64), seed=5)
        assert a == b


class TestLockstep:
    """A pass plays its segments together, scoring their pending leaves in
    one batch; every segment must play exactly what it plays alone."""

    @pytest.mark.parametrize("lanes", [64, 3])
    @pytest.mark.parametrize("kind", ["uniform", "rollout", "net"])
    def test_pass_equals_sequential_segments(self, kind, lanes, tmp_path, monkeypatch):
        gs = [gen_er(10, 0.4, seed=0), gen_er(12, 0.5, seed=1), gen_er(9, 0.3, seed=2)]
        cfg = net_cfg(move_sample_rate=0.3, run_ahead=5, mcts_segment=3, simulations=6,
                      sample_first_k=5, root_noise=True)
        baseline = bootstrap_oracle()
        if kind == "uniform":
            def make_evaluator(g):
                return UniformEvaluator()
        elif kind == "rollout":
            def make_evaluator(g):
                return RolloutEvaluator(g.n, baseline.trace(g, cfg).cumulative)
        else:
            model = Model(init_fastcolornet(cfg))

            def make_evaluator(g):
                return model.evaluator(g, cfg)

        batches: list[int] = []
        frozen = mcts.evaluate_frozen

        def spy(net, cfg_, states, tables):
            batches.append(len(states))
            return frozen(net, cfg_, states, tables)

        monkeypatch.setattr(mcts, "evaluate_frozen", spy)
        monkeypatch.setattr(selfplay, "LOCKSTEP_SEGMENTS", lanes)
        log = tmp_path / "lockstep.jsonl"
        buf = ReplayBuffer(capacity=4096)
        results = run_selfplay(gs, cfg, make_evaluator, baseline, buf, seed=3,
                               log_path=str(log))
        lockstep_batches = list(batches)
        batches.clear()

        ref_buf = ReplayBuffer(capacity=4096)
        ref_results, ref_lines = [], []
        for j, (gi, start_t) in enumerate(sample_positions(gs, cfg, 3)):
            records, info = play_segment(gs[gi], start_t, cfg, make_evaluator(gs[gi]),
                                         baseline, seed=int(mix64(3, j)))
            ref_buf.append(records)
            ref_results.append(info)
            ref_lines.append(info.to_json() + "\n")

        assert len(results) > 3  # more segments than the smaller lane count
        assert results == ref_results
        assert log.read_bytes() == "".join(ref_lines).encode()
        got, want = list(buf._records), list(ref_buf._records)
        assert len(got) == len(want) > 0
        for a, b in zip(got, want):
            assert a.graph.key() == b.graph.key() and a.t == b.t and a.z == b.z
            assert np.array_equal(a.pi, b.pi) and np.array_equal(a.trace, b.trace)
        if kind == "net":
            assert max(lockstep_batches) > 1 and set(batches) == {1}
