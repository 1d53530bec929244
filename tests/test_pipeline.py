"""Gating, the evaluation harness, and the policy-iteration loop."""

import os

import numpy as np
import pytest

from fastcolor.checkpoint import load_checkpoint
from fastcolor.config import Config
from fastcolor.coloring import greedy_color
from fastcolor.errors import ParameterError, StateError
from fastcolor.fastcolornet import init_fastcolornet
from fastcolor.graph import Graph, gen_er
from fastcolor.pipeline import (
    METRICS_HEADER,
    EvalReport,
    GateResult,
    IterationMetrics,
    Model,
    evaluate,
    gate_model,
    load_sources,
    mcts_color,
    policy_colors,
    policy_iteration,
)
from fastcolor import fastcolornet, pipeline
from fastcolor.selfplay import EmbeddingCache, GreedyPolicy, ReplayBuffer

from conftest import complete_graph


def tiny_cfg(**kw) -> Config:
    base = dict(
        train_sources="er:12,0.5:seed=0..1",
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
        run_ahead=5,
        mcts_segment=2,
        simulations=6,
        move_sample_rate=0.3,
        steps_per_iteration=4,
        batch_size=2,
        train_iterations=2,
        seed=0,
    )
    base.update(kw)
    return Config(**base)


class TargetPolicy:
    """Opens colors up to a per-graph target, then reuses color 0.

    On an edgeless graph the episode ends with exactly the target count,
    letting tests pin arbitrary per-graph scores.
    """

    def __init__(self, targets: dict[str, int]):
        self.targets = targets

    def choose(self, state):
        if state.colors_used < self.targets[state.graph.key()]:
            return state.colors_used
        return 0


def edgeless(n: int, tag: int) -> Graph:
    # distinct keys via one self-edge-free unique structure: size
    return Graph.from_edges(n + tag, [])


class TestLoadSources:
    def test_expands_ranges(self):
        graphs = load_sources("er:12,0.5:seed=0..2")
        assert [g.n for g in graphs] == [12, 12, 12]
        assert len({g.key() for g in graphs}) == 3

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            load_sources("")


class TestPolicyColors:
    def test_greedy_policy_matches_heuristic(self):
        g = gen_er(20, 0.4, seed=1)
        cfg = tiny_cfg()
        assert policy_colors(g, GreedyPolicy(), cfg) == greedy_color(g, "unordered").colors_used

    def test_follows_config_order(self):
        g = gen_er(20, 0.4, seed=1)
        cfg = tiny_cfg(order_kind="dynamic")
        assert policy_colors(g, GreedyPolicy(), cfg) == greedy_color(g, "dynamic").colors_used


def decoded_avg(policy, graphs, cfg) -> float:
    return float(np.mean([policy_colors(g, policy, cfg) for g in graphs]))


class TestGate:
    def test_lower_average_accepted(self):
        graphs = [edgeless(40, t) for t in range(10)]
        cfg = tiny_cfg()
        cand = TargetPolicy({g.key(): 29 if i < 5 else 30 for i, g in enumerate(graphs)})
        inc = TargetPolicy({g.key(): 30 if i < 9 else 31 for i, g in enumerate(graphs)})
        gate = gate_model(cand, decoded_avg(inc, graphs, cfg), graphs, cfg)
        assert gate == GateResult(accepted=True, candidate_avg=29.5, incumbent_avg=30.1)

    def test_tie_accepted(self):
        graphs = [edgeless(40, t) for t in range(4)]
        cfg = tiny_cfg()
        cand = TargetPolicy({g.key(): 30 for g in graphs})
        inc = TargetPolicy({g.key(): 30 for g in graphs})
        assert gate_model(cand, decoded_avg(inc, graphs, cfg), graphs, cfg).accepted

    def test_average_decides_not_best_graph(self):
        graphs = [edgeless(40, t) for t in range(2)]
        cfg = tiny_cfg()
        cand = TargetPolicy({graphs[0].key(): 28, graphs[1].key(): 33})
        inc = TargetPolicy({g.key(): 30 for g in graphs})
        gate = gate_model(cand, decoded_avg(inc, graphs, cfg), graphs, cfg)
        assert not gate.accepted
        assert gate.candidate_avg == 30.5

    def test_empty_set_rejected(self):
        with pytest.raises(ParameterError):
            gate_model(GreedyPolicy(), 0.0, [], tiny_cfg())


class TestEvaluate:
    def test_heuristics_report(self):
        graphs = [gen_er(16, 0.5, seed=s) for s in range(6)]
        cfg = tiny_cfg()
        report = evaluate(graphs, cfg)
        assert report.methods == ["unordered", "ordered", "dynamic"]
        for m in report.methods:
            assert len(report.colors[m]) == 6
            assert report.averages[m] == pytest.approx(np.mean(report.colors[m]))
            won, tied, lost = report.tallies[m]
            assert won == 0  # nothing beats the per-graph best of the trio
            assert won + tied + lost == 6
            assert report.wall_clock[m] >= 0.0

    def test_fresh_model_decodes_like_unordered_greedy(self):
        # zero-initialized policy head scores candidates equally and
        # argmax falls to the lowest color id, which is exactly greedy
        graphs = [gen_er(14, 0.5, seed=s) for s in range(3)]
        cfg = tiny_cfg()
        model = Model(init_fastcolornet(cfg))
        report = evaluate(graphs, cfg, model=model)
        assert report.methods[-1] == "model"
        assert report.colors["model"] == report.colors["unordered"]

    def test_mcts_mode_produces_proper_colorings(self):
        graphs = [gen_er(10, 0.5, seed=s) for s in range(2)]
        cfg = tiny_cfg()
        model = Model(init_fastcolornet(cfg))
        report = evaluate(graphs, cfg, model=model, mode="mcts", simulations=4)
        assert all(1 <= c <= 10 for c in report.colors["model"])

    def test_empty_set_empty_report(self):
        report = evaluate([], tiny_cfg())
        assert report.graph_keys == []
        assert all(v == [] for v in report.colors.values())
        assert report.to_csv() == "graph,n,unordered,ordered,dynamic\n"

    def test_csv_is_deterministic(self):
        graphs = [gen_er(16, 0.5, seed=s) for s in range(4)]
        cfg = tiny_cfg()
        a = evaluate(graphs, cfg).to_csv()
        b = evaluate(graphs, cfg).to_csv()
        assert a == b
        header, first = a.splitlines()[:2]
        assert header == "graph,n,unordered,ordered,dynamic"
        assert first.split(",")[1] == "16"
        assert a.splitlines()[-1].startswith("average,,")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ParameterError):
            evaluate([], tiny_cfg(), mode="exhaustive")

    def test_mcts_color_at_least_matches_forced_graph(self):
        cfg = tiny_cfg()
        model = Model(init_fastcolornet(cfg))
        assert mcts_color(complete_graph(4), cfg, model, simulations=4) == 4


def assert_tables_computed_once(tmp_path, monkeypatch, **kw) -> None:
    """Run policy iteration and check that each (graph, version) table is
    computed once, and that the gate's candidate computes into the cache
    that holds them.

    The candidate and the incumbent share one cache keyed by version, so
    a promoted candidate's tables, computed by the gate, are the new
    incumbent's."""
    misses = []  # (cache, graph key, version) per computed table
    table = EmbeddingCache.table

    def spy_table(self, g, store, cfg, version):
        before = len(self)
        out = table(self, g, store, cfg, version)
        if len(self) > before:
            misses.append((id(self), g.key(), version))
        return out

    gated = []
    gate = pipeline.gate_model

    def spy_gate(candidate_policy, *args):
        gated.append(id(candidate_policy.cache))
        return gate(candidate_policy, *args)

    monkeypatch.setattr(EmbeddingCache, "table", spy_table)
    monkeypatch.setattr(pipeline, "gate_model", spy_gate)
    result = policy_iteration(tiny_cfg(**kw), out_dir=str(tmp_path))
    promoted = {it for it, accepted, _, _ in result.gate_history if accepted}
    assert {1, 2} <= promoted
    computed = [(key, version) for _, key, version in misses]
    assert len(computed) == len(set(computed))
    assert {version for _, version in computed} >= {0, 1, 2}
    assert {cache for cache, _, _ in misses} & set(gated)


class TestPolicyIteration:
    def test_zero_iterations_bootstrap_eval_only(self, tmp_path):
        cfg = tiny_cfg(train_iterations=0)
        result = policy_iteration(cfg, out_dir=str(tmp_path))
        assert len(result.metrics) == 1
        row = result.metrics[0]
        assert row.iteration == 0
        graphs = load_sources(cfg.train_sources)
        expected = np.mean([greedy_color(g, "unordered").colors_used for g in graphs])
        assert row.eval_avg_colors == pytest.approx(expected)
        assert result.best is None
        assert result.checkpoint_path is None
        assert (tmp_path / "metrics.csv").read_text().splitlines()[0] == METRICS_HEADER
        assert (tmp_path / "last.ckpt").exists()
        assert not (tmp_path / "best.ckpt").exists()

    def test_two_iterations_artifacts(self, tmp_path):
        cfg = tiny_cfg()
        result = policy_iteration(cfg, out_dir=str(tmp_path))
        assert [m.iteration for m in result.metrics] == [0, 1, 2]
        assert len(result.gate_history) == 2
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert len(lines) == 4
        assert (tmp_path / "episodes.jsonl").exists()
        # the zero-head candidate decodes like the greedy bootstrap, so
        # the first gate is a tie and must promote the candidate
        assert result.gate_history[0][1] is True
        assert result.best is not None
        ck = load_checkpoint(str(tmp_path / "best.ckpt"))
        assert ck.config_hash == cfg.hash()
        assert ck.gate_history.shape[1] == 4

    def test_gated_metric_monotone(self, tmp_path):
        cfg = tiny_cfg(train_iterations=3)
        result = policy_iteration(cfg, out_dir=str(tmp_path))
        avgs = [m.eval_avg_colors for m in result.metrics]
        assert all(b <= a for a, b in zip(avgs, avgs[1:]))

    def test_promotion_frees_superseded_embedding_tables(self, tmp_path, monkeypatch):
        buffers = []

        class SpyBuffer(ReplayBuffer):
            def __init__(self, capacity):
                super().__init__(capacity)
                buffers.append(self)

        seen = []
        train_step = pipeline.fcn_train_step

        def spy_step(batch, store, cfg, adam, rng):
            seen.append({version for _, version in buffers[0].embeddings._tables})
            return train_step(batch, store, cfg, adam, rng)

        monkeypatch.setattr(pipeline, "ReplayBuffer", SpyBuffer)
        monkeypatch.setattr(pipeline, "fcn_train_step", spy_step)
        cfg = tiny_cfg(train_iterations=3)
        result = policy_iteration(cfg, out_dir=str(tmp_path))
        # iterations 1 and 2 promote, so iteration 3 trains on version-2 tables only
        assert [accepted for _, accepted, _, _ in result.gate_history[:2]] == [True, True]
        steps = cfg.steps_per_iteration
        assert len(seen) == 3 * steps
        assert seen[2 * steps:] == [{2}] * steps

    def test_incumbent_tables_computed_once_per_version(self, tmp_path, monkeypatch):
        assert_tables_computed_once(tmp_path, monkeypatch, train_iterations=3)

    def test_tables_computed_once_with_separate_eval_graphs(self, tmp_path, monkeypatch):
        assert_tables_computed_once(tmp_path, monkeypatch, train_iterations=4,
                                    eval_sources="er:12,0.5:seed=5..6", seed=1)

    def test_rejected_candidates_keep_two_versions_cached(self, tmp_path, monkeypatch):
        # at every training step and gate the run's one cache holds tables
        # of the incumbent's and the candidate's versions only, also after
        # a rejected candidate trains on past its version, and each
        # (graph, version) table is computed once
        buffers, misses, seen = [], [], []

        class SpyBuffer(ReplayBuffer):
            def __init__(self, capacity):
                super().__init__(capacity)
                buffers.append(self)

        table = EmbeddingCache.table

        def spy_table(self, g, store, cfg, version):
            before = len(self)
            out = table(self, g, store, cfg, version)
            if len(self) > before:
                misses.append((id(self), g.key(), version))
            return out

        def cached():
            return {version for _, version in buffers[0].embeddings._tables}

        train_step, gate = pipeline.fcn_train_step, pipeline.gate_model

        def spy_step(*args):
            seen.append(("train", cached()))
            return train_step(*args)

        def spy_gate(*args):
            out = gate(*args)
            seen.append(("gate", cached()))
            return out

        monkeypatch.setattr(pipeline, "ReplayBuffer", SpyBuffer)
        monkeypatch.setattr(EmbeddingCache, "table", spy_table)
        monkeypatch.setattr(pipeline, "fcn_train_step", spy_step)
        monkeypatch.setattr(pipeline, "gate_model", spy_gate)
        cfg = tiny_cfg(train_iterations=4, seed=5, lr=0.05)
        result = policy_iteration(cfg, out_dir=str(tmp_path))
        accepted = [acc for _, acc, _, _ in result.gate_history]
        assert accepted == [False, True, True, False]
        steps, incumbent, want = cfg.steps_per_iteration, 0, []
        for it, acc in enumerate(accepted, start=1):
            want += [("train", {incumbent, it - 1})] * steps + [("gate", {incumbent, it})]
            incumbent = it if acc else incumbent
        assert len(seen) == len(want)
        for (phase, versions), (want_phase, live) in zip(seen, want):
            assert phase == want_phase and versions <= live
        computed = [(key, version) for _, key, version in misses]
        assert len(computed) == len(set(computed))
        assert {cache for cache, _, _ in misses} == {id(buffers[0].embeddings)}

    def test_rerun_replaces_earlier_artifacts(self, tmp_path):
        result = policy_iteration(tiny_cfg(), out_dir=str(tmp_path))
        assert result.best is not None and (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "episodes.jsonl").read_text()
        (tmp_path / "nan_dump.ckpt").write_bytes(b"stale")
        rerun = policy_iteration(tiny_cfg(train_iterations=0), out_dir=str(tmp_path))
        assert rerun.best is None
        assert not (tmp_path / "best.ckpt").exists()
        assert not (tmp_path / "nan_dump.ckpt").exists()
        assert (tmp_path / "episodes.jsonl").read_text() == ""

    def test_deterministic_metrics(self, tmp_path):
        cfg = tiny_cfg()
        a = policy_iteration(cfg, out_dir=str(tmp_path / "a"))
        b = policy_iteration(cfg, out_dir=str(tmp_path / "b"))
        stripped_a = [(m.iteration, m.loss, m.eval_avg_colors, m.win_rate) for m in a.metrics]
        stripped_b = [(m.iteration, m.loss, m.eval_avg_colors, m.win_rate) for m in b.metrics]
        assert stripped_a == stripped_b
        assert a.gate_history == b.gate_history

    def test_nan_loss_aborts_with_dump(self, tmp_path, monkeypatch):
        def poisoned(batch, store, cfg, adam, rng):
            return float("nan"), {}

        monkeypatch.setattr("fastcolor.pipeline.fcn_train_step", poisoned)
        cfg = tiny_cfg(train_iterations=1)
        with pytest.raises(StateError, match="non-finite loss"):
            policy_iteration(cfg, out_dir=str(tmp_path))
        assert (tmp_path / "nan_dump.ckpt").exists()

    def test_nan_parameter_aborts_with_dump(self, tmp_path, monkeypatch):
        step = fastcolornet.adam_step

        def poisoned(store, grads, state):
            step(store, grads, state)
            store["p.head.w"][0, 0] = np.nan

        monkeypatch.setattr(fastcolornet, "adam_step", poisoned)
        cfg = tiny_cfg(train_iterations=1)
        with pytest.raises(StateError, match="non-finite parameter 'p.head.w'"):
            policy_iteration(cfg, out_dir=str(tmp_path))
        dumped = load_checkpoint(str(tmp_path / "nan_dump.ckpt")).params
        assert np.isnan(dumped["p.head.w"][0, 0])

    def test_target_stops_early(self, tmp_path):
        cfg = tiny_cfg(train_iterations=50, target_avg_colors=100.0)
        result = policy_iteration(cfg, out_dir=str(tmp_path))
        assert [m.iteration for m in result.metrics] == [0, 1]

    def test_metrics_row_format(self):
        row = IterationMetrics(3, 1.25, 30.5, 0.5, 2.0)
        assert row.csv_row() == "3,1.250000,30.500000,0.500000,2.000"
        assert METRICS_HEADER == "iteration,loss,eval_avg_colors,win_rate,wall_clock"
