"""Search behavior: selection, backup, pi extraction, and tree reuse."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastcolor.coloring import (
    ColoringState,
    brute_force_chromatic,
    greedy_color,
    outcome_vs_baseline,
)
from fastcolor.config import Config
from fastcolor.errors import ContractError, ParameterError
from fastcolor.fastcolornet import init_fastcolornet
from fastcolor.graph import Graph, gen_er
from fastcolor.mcts import (
    Node,
    SearchTree,
    UniformEvaluator,
    backup,
    pi_from_counts,
    search,
    select_index,
    ucb_score,
)
from fastcolor.pipeline import Model, mcts_color
from fastcolor.rng import make_rng
from fastcolor.selfplay import bootstrap_oracle, play_segment

from conftest import RolloutEvaluator, assert_same_state, complete_graph, crown_graph


def greedy_cum(g: Graph) -> np.ndarray:
    """Baseline color counts after each move of smallest-valid greedy."""
    state = ColoringState(g)
    cum = [0]
    while not state.is_terminal:
        state.apply_inplace(state.greedy_action())
        cum.append(state.colors_used)
    return np.asarray(cum, dtype=np.int64)


def stepped(state: ColoringState, action: int) -> ColoringState:
    nxt = state.clone()
    nxt.apply_inplace(action)
    return nxt


def make_tree(g: Graph, state: ColoringState | None = None, t_end: int | None = None, **kw):
    state = state if state is not None else ColoringState(g)
    t_end = g.n if t_end is None else t_end
    cum = greedy_cum(g)
    return SearchTree(state=state, evaluator=RolloutEvaluator(t_end, cum),
                      t_end=t_end, baseline_cum=cum, **kw)


def count_nodes(node) -> int:
    """Nodes in the subtree under ``node``, itself included."""
    return 1 + sum(count_nodes(child) for child in map(node.child, range(len(node.actions)))
                   if child is not None)


class TestUcb:
    def _node(self, prior, visits, value):
        node = Node.expanded(list(range(len(prior))), np.asarray(prior, dtype=float))
        node.visits[:] = visits
        node.value[:] = value
        return node

    def test_unvisited_child(self):
        node = self._node([0.5, 0.5], [0, 4], [0.0, 0.0])
        assert ucb_score(node, 0, c=1.0) == 1.0

    def test_visited_child(self):
        node = self._node([0.5, 0.5], [3, 1], [0.2, 0.0])
        assert abs(ucb_score(node, 0, c=2.0) - 0.7) < 1e-12

    def test_fresh_node_zero_exploration(self):
        node = self._node([0.9, 0.1], [0, 0], [0.0, 0.0])
        assert ucb_score(node, 0, c=1.0) == 0.0
        assert ucb_score(node, 1, c=1.0) == 0.0

    def test_fresh_tie_broken_by_prior(self):
        node = self._node([0.1, 0.9], [0, 0], [0.0, 0.0])
        assert select_index(node, c=1.5) == 1

    def test_score_tie_broken_by_lower_index(self):
        node = self._node([0.5, 0.5], [0, 0], [0.0, 0.0])
        assert select_index(node, c=1.5) == 0


class TestBackup:
    def test_mean_update(self):
        node = Node.expanded([0], np.ones(1))
        node.value[0], node.visits[0] = 0.5, 3
        backup([(node, 0)], 1.0)
        assert node.value[0] == 0.625 and node.visits[0] == 4

    def test_first_visit(self):
        node = Node.expanded([0], np.ones(1))
        backup([(node, 0)], -1.0)
        assert node.value[0] == -1.0 and node.visits[0] == 1

    def test_constant_values_converge_exactly(self):
        node = Node.expanded([0], np.ones(1))
        for _ in range(17):
            backup([(node, 0)], 0.5)
        assert node.value[0] == 0.5 and node.visits[0] == 17

    def test_whole_path_updated(self):
        a = Node.expanded([0, 1], np.full(2, 0.5))
        b = Node.expanded([0], np.ones(1))
        backup([(a, 1), (b, 0)], 1.0)
        assert a.visits.tolist() == [0, 1] and b.visits[0] == 1
        assert a.value[1] == 1.0 and b.value[0] == 1.0


def reference_select(stats: np.ndarray, c: float) -> int:
    """The selection rule on a (4, K) NumPy array of (prior, visits,
    value, action) rows, one score at a time."""
    root = math.sqrt(float(stats[1].sum()))
    best, best_score = 0, None
    for i in range(stats.shape[1]):
        p = stats[0, i]
        score = stats[2, i] + c * p * root / (1.0 + stats[1, i])
        if best_score is None or score > best_score or (
                score == best_score and p > stats[0, best]):
            best, best_score = i, score
    return best


def reference_backup(stats: np.ndarray, i: int, v: float) -> None:
    n = stats[1, i]
    stats[2, i] = (stats[2, i] * n + v) / (n + 1)
    stats[1, i] = n + 1


class TestArrayNode:
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.1, 4.0),
           st.sampled_from(["distinct", "tied", "uniform"]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_select_and_backup_match_numpy_reference(self, k, seed, c, priors, visited):
        rng = np.random.default_rng(seed)
        if priors == "distinct":
            prior = rng.dirichlet(np.ones(k))
        elif priors == "tied":  # a few prior values, so score ties are common
            prior = rng.integers(1, 3, size=k) / 4.0
        else:
            prior = np.full(k, 1.0 / k)
        actions = sorted(rng.choice(3 * k, size=k, replace=False).tolist())
        node = Node.expanded(actions, prior)
        ref = np.zeros((4, k))
        ref[0], ref[3] = prior, actions
        if visited:
            ref[1] = rng.integers(0, 6, size=k)
            ref[2] = rng.choice([-1.0, 0.0, 0.5, 1.0], size=k)
            node.visits[:], node.value[:] = ref[1], ref[2]
        other = Node.expanded([0], np.ones(1))
        other_ref = np.array([[1.0], [0.0], [0.0], [0.0]])
        for _ in range(24):
            i = select_index(node, c)
            assert i == reference_select(ref, c)
            v = float(rng.choice([-1.0, 0.0, 1.0, rng.uniform(-1.0, 1.0)]))
            backup([(node, i), (other, 0)], v)
            reference_backup(ref, i, v)
            reference_backup(other_ref, 0, v)
            assert np.array_equal(node.visits, ref[1]) and np.array_equal(node.value, ref[2])
            assert np.array_equal(other.value, other_ref[2])
        assert np.array_equal(node.prior, ref[0]) and node.actions == actions
        assert np.array_equal(node.visits, ref[1])

    def test_views_write_through(self):
        node = Node.expanded([2, 5], np.array([0.25, 0.75]))
        node.prior = [0.5, 0.5]
        node.visits[1] = 3
        node.value[1] = -0.5
        assert node.stats.tolist() == [0.5, 0.5, 0.0, 3.0, 0.0, -0.5, 2.0, 5.0]
        assert node.actions == [2, 5] and Node.terminal(1.0).actions == []

    @pytest.mark.parametrize("prior", [[1.0], [0.25, 0.25, 0.5], []])
    def test_prior_length_must_match_actions(self, prior):
        with pytest.raises(ContractError, match="priors for 2 actions"):
            Node.expanded([0, 1], np.array(prior))

    def test_three_action_node_fits_288_bytes(self):
        prior = np.full(3, 1.0 / 3.0)
        nodes = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            nodes.extend(Node.expanded([0, 1, 2], prior) for _ in range(1000))
            per_node = (tracemalloc.get_traced_memory()[0] - before) / len(nodes)
        finally:
            tracemalloc.stop()
        assert per_node <= 288


class TestSelectPath:
    def test_single_child_path(self):
        # first move of any graph is forced: only the new color is valid
        tree = make_tree(complete_graph(3))
        assert tree.root.actions == [0]
        tree.simulate()
        assert tree.root.visits.tolist() == [1]

    def test_rewarding_child_dominates_visits(self):
        # empty graph: reusing color 0 ties the baseline, opening a new
        # color loses, so search must concentrate on reuse
        g = Graph.from_edges(3, [])
        state = ColoringState(g)
        state.apply_inplace(0)
        tree = make_tree(g, state=state)
        assert tree.root.actions == [0, 1]
        for _ in range(100):
            tree.simulate()
        reuse, fresh = tree.root.visits
        assert reuse > fresh
        assert tree.root.value[0] > tree.root.value[1]


class TestSearch:
    def test_forced_move_pi(self):
        for sims in (1, 7, 64):
            tree = make_tree(complete_graph(4))
            pi = search(tree, sims)
            assert pi.tolist() == [1.0]

    def test_pi_from_counts_tau_one(self):
        assert pi_from_counts(np.array([3, 1]), tau=1.0).tolist() == [0.75, 0.25]

    def test_pi_argmax_limit(self):
        assert pi_from_counts(np.array([3, 9, 9]), tau=0.0).tolist() == [0.0, 1.0, 0.0]
        assert pi_from_counts(np.zeros(3), tau=0.0).tolist() == [1.0, 0.0, 0.0]

    def test_pi_empty_rejected(self):
        with pytest.raises(ParameterError):
            pi_from_counts(np.zeros(0))

    def test_visit_sum_equals_simulations(self):
        g = gen_er(10, 0.4, seed=0)
        tree = make_tree(g)
        search(tree, 57)
        assert int(tree.root.visits.sum()) == 57

    def test_q_stays_bounded(self):
        g = gen_er(12, 0.5, seed=1)
        tree = make_tree(g)
        search(tree, 200)

        def check(node):
            assert (node.value <= 1.0).all() and (node.value >= -1.0).all()
            assert (node.visits >= 0).all()
            if node.prior.size:
                assert abs(node.prior.sum() - 1.0) < 1e-6
            for i in range(len(node.actions)):
                child = node.child(i)
                if child is not None:
                    check(child)

        check(tree.root)

    def test_search_from_window_end_rejected(self):
        g = complete_graph(3)
        state = ColoringState(g)
        tree = make_tree(g, state=state, t_end=0)
        with pytest.raises(ContractError):
            search(tree, 1)

    def test_crown_search_completes_optimal_coloring(self):
        # greedy wastes colors on the interleaved crown, but search scored
        # against the true chromatic number must recover the 2-coloring;
        # root noise varies the priors per seed, moves are max-decoded
        g = crown_graph(8)
        assert greedy_color(g).colors_used == 4
        target = brute_force_chromatic(g)
        assert target == 2
        cum = np.full(g.n + 1, target, dtype=np.int64)
        cum[0] = 0
        hits = 0
        for seed in range(10):
            tree = SearchTree(state=ColoringState(g), evaluator=UniformEvaluator(),
                              t_end=g.n, baseline_cum=cum, root_noise=True,
                              rng=make_rng(seed))
            while not tree.state.is_terminal:
                pi = search(tree, 256, tau=0.0)
                tree.advance_root(tree.root.actions[int(np.argmax(pi))])
            hits += tree.state.colors_used == target
        assert hits >= 9

    def test_root_matches_exhaustive_optimum(self):
        # small-window oracle: enumerate every completion per root action
        g = crown_graph(8)
        cum = greedy_cum(g)
        t_end = g.n

        def best_outcome(state):
            if state.t >= t_end:
                return outcome_vs_baseline(state.colors_used, int(cum[t_end])).game_value
            aset = state.valid_actions()
            return max(best_outcome(stepped(state, a))
                       for a in list(aset.existing) + [aset.new_color])

        state = ColoringState(g)
        state.apply_inplace(0)  # skip the forced first move
        optimal = best_outcome(state)
        tree = SearchTree(state=state, evaluator=RolloutEvaluator(t_end, cum),
                          t_end=t_end, baseline_cum=cum)
        search(tree, 3000)
        chosen = int(np.argmax(tree.root.visits))
        achievable = best_outcome(stepped(state, tree.root.actions[chosen]))
        assert achievable == optimal
        assert abs(tree.root.value[chosen] - optimal) <= 0.15


class TestAdvanceRoot:
    def test_grandchild_statistics_retained(self):
        g = gen_er(10, 0.4, seed=2)
        tree = make_tree(g)
        search(tree, 100)
        i = int(np.argmax(tree.root.visits))
        child = tree.root.child(i)
        assert child is not None
        grand_visits = child.visits.copy()
        tree.advance_root(tree.root.actions[i])
        assert tree.root is child
        assert np.array_equal(tree.root.visits, grand_visits)

    def test_forced_path_preserves_retained_visits(self):
        g = complete_graph(5)  # every move forced
        tree = make_tree(g)
        search(tree, 50)
        child = tree.root.child(0)
        expect = int(child.visits.sum()) if child is not None else 0
        tree.advance_root(0)
        assert int(tree.root.visits.sum()) == expect

    def test_arena_shrinks(self):
        g = gen_er(12, 0.45, seed=3)
        state = ColoringState(g)
        while state.valid_actions().size < 2:  # a root with siblings to discard
            state.apply_inplace(state.greedy_action())
        tree = make_tree(g, state)
        search(tree, 300)
        before = count_nodes(tree.root)
        i = int(np.argmax(tree.root.visits))
        child = tree.root.child(i)
        kept = count_nodes(child)
        assert kept < before - 1  # some sibling subtree was expanded
        tree.advance_root(tree.root.actions[i])
        # only the chosen child's subtree survives
        assert tree.root is child
        assert count_nodes(tree.root) == kept

    def test_unexpanded_child_becomes_fresh_root(self):
        g = gen_er(10, 0.4, seed=4)
        tree = make_tree(g)
        # no simulations: the root's children are all unexpanded
        tree.advance_root(tree.root.actions[0])
        assert tree.root.terminal_value is None
        assert int(tree.root.visits.sum()) == 0
        assert tree.state.t == 1

    def test_unknown_action_rejected(self):
        tree = make_tree(gen_er(8, 0.4, seed=5))
        with pytest.raises(ParameterError):
            tree.advance_root(99)

    def test_advance_to_terminal_state(self):
        g = complete_graph(3)
        tree = make_tree(g)
        for a in (0, 1, 2):
            search(tree, 8)
            tree.advance_root(a)
        assert tree.state.is_terminal
        assert tree.root.terminal_value == 0.0  # K3 always ties its own greedy

    def test_root_noise_changes_priors(self):
        g = Graph.from_edges(4, [])
        state = ColoringState(g)
        state.apply_inplace(0)
        cum = greedy_cum(g)
        plain = SearchTree(state=state.clone(), evaluator=RolloutEvaluator(4, cum),
                           t_end=4, baseline_cum=cum)
        noisy = SearchTree(state=state.clone(), evaluator=RolloutEvaluator(4, cum),
                           t_end=4, baseline_cum=cum, root_noise=True, rng=make_rng(0))
        assert abs(noisy.root.prior.sum() - 1.0) < 1e-9
        assert not np.array_equal(plain.root.prior, noisy.root.prior)


class TestSharedRootState:
    """Simulations step the tree's own state and take their path back."""

    @pytest.mark.parametrize("make_evaluator", [
        lambda g, cum: UniformEvaluator(),
        lambda g, cum: RolloutEvaluator(g.n, cum),
    ], ids=["uniform", "rollout"])
    def test_every_pass_restores_the_root_state(self, make_evaluator):
        g = gen_er(12, 0.5, seed=6)
        cum = greedy_cum(g)
        tree = SearchTree(state=ColoringState(g), evaluator=make_evaluator(g, cum),
                          t_end=g.n, baseline_cum=cum)
        while not tree.state.is_terminal:
            for _ in range(40):
                before = tree.state.clone()
                leaf = tree.descend()
                evaluation = None
                if leaf is not None:
                    assert leaf is tree.state and leaf.t > before.t
                    want = before.clone()
                    for v in leaf.order[before.t:leaf.t].tolist():
                        want.apply_inplace(int(leaf.color_of[v]))
                    assert_same_state(leaf, want)
                    evaluation = tree.evaluator.evaluate(leaf)
                    assert_same_state(leaf, want)
                tree.expand(evaluation)
                assert_same_state(tree.state, before)
            tree.advance_root(tree.root.actions[int(np.argmax(tree.root.visits))])

    def test_second_descend_before_expand_raises(self):
        g = gen_er(12, 0.5, seed=6)
        tree = make_tree(g)
        search(tree, 8)
        root = tree.state.clone()
        leaf = tree.descend()
        assert leaf is not None
        pending = leaf.clone()
        with pytest.raises(ContractError, match="before expand"):
            tree.descend()
        assert_same_state(tree.state, pending)
        tree.expand(tree.evaluator.evaluate(leaf))
        assert_same_state(tree.state, root)

    def test_expand_without_descend_raises(self):
        g = gen_er(12, 0.5, seed=6)
        tree = make_tree(g)
        with pytest.raises(ContractError, match="no pending descend"):
            tree.expand()
        tree.simulate()
        with pytest.raises(ContractError, match="no pending descend"):
            tree.expand((tree.root.actions, np.ones(len(tree.root.actions)), 0.0))
        assert tree.state.t == 0

    def test_search_never_clones(self, monkeypatch):
        def refuse(self):
            raise AssertionError("ColoringState.clone called")

        monkeypatch.setattr(ColoringState, "clone", refuse)
        g = gen_er(12, 0.5, seed=7)
        search(make_tree(g), 64)
        cum = greedy_cum(g)
        search(SearchTree(state=ColoringState(g), evaluator=UniformEvaluator(), t_end=g.n,
                          baseline_cum=cum), 64)
        cfg = Config(feature_bins=8, embed_dim=6, embed_hidden=10, embed_iterations=2,
                     lstm_steps=1, window=2, color_set_size=2, v_width=16, v_layers=2,
                     p_width=16, p_layers=2, seq_channels=8, seq_layers=2, seq_filter=3,
                     dtype="float64", run_ahead=5, mcts_segment=3, simulations=16)
        model = Model(init_fastcolornet(cfg))
        assert mcts_color(g, cfg, model, simulations=16) >= brute_force_chromatic(g)
        records, _ = play_segment(g, 2, cfg, model.evaluator(g, cfg), bootstrap_oracle(), seed=0)
        assert len(records) == 3
