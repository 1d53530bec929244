"""Coloring decision process, greedy heuristics, and exact oracles."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastcolor.coloring import (
    HEURISTIC_KINDS,
    ActionSet,
    ColoringState,
    Outcome,
    brute_force_chromatic,
    check_proper,
    compute_order,
    estimate_mdp_size,
    greedy_color,
    outcome_vs_baseline,
)
from fastcolor.errors import ContractError, ParameterError, SizeError, StateError
from fastcolor.graph import Graph, gen_er, gen_ws

from conftest import (
    assert_same_state,
    complete_graph,
    crown_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
    traced_peak,
)


class TestOutcome:
    def test_fewer_wins(self):
        assert outcome_vs_baseline(3, 4) is Outcome.WIN
        assert outcome_vs_baseline(3, 4).game_value == 1.0

    def test_equal_ties(self):
        assert outcome_vs_baseline(4, 4) is Outcome.TIE
        assert outcome_vs_baseline(4, 4).game_value == 0.0

    def test_more_loses(self):
        assert outcome_vs_baseline(5, 4) is Outcome.LOSE

    def test_index_order_is_win_tie_lose(self):
        assert [Outcome.WIN.index, Outcome.TIE.index, Outcome.LOSE.index] == [0, 1, 2]


class TestActionsAndTransitions:
    def test_first_move_only_new(self, k4):
        state = ColoringState(k4)
        acts = state.valid_actions()
        assert acts.existing == () and acts.new_color == 0
        assert acts.actions() == [0] and acts.size == 1

    def test_k4_after_two_moves_forces_new(self, k4):
        state = ColoringState(k4)
        state.apply_inplace(0)
        state.apply_inplace(1)
        acts = state.valid_actions()
        assert acts.existing == () and acts.new_color == 2

    def test_independent_vertex_sees_all_colors(self, empty3):
        state = ColoringState(empty3)
        state.apply_inplace(0)
        state.apply_inplace(0)
        acts = state.valid_actions()
        assert acts.existing == (0,) and acts.new_color == 1
        assert acts.size == 2

    def test_clone_is_independent(self, k4):
        state = ColoringState(k4)
        nxt = state.clone()
        nxt.apply_inplace(0)
        assert state.t == 0 and nxt.t == 1
        assert state.colors_used == 0 and nxt.colors_used == 1
        assert state.color_of[0] == -1 and state.color_members == []

    def test_color_of_is_a_read_only_copy(self, k4):
        state = ColoringState(k4)
        state.apply_inplace(0)
        colors = state.color_of
        assert colors.dtype == np.int32 and colors.tolist() == [0, -1, -1, -1]
        with pytest.raises(ValueError):
            colors[1] = 1
        state.apply_inplace(1)
        assert colors.tolist() == [0, -1, -1, -1]
        assert state.color_of.tolist() == [0, 1, -1, -1]
        assert "color_of" not in ColoringState.__slots__

    def test_conflicting_action_rejected(self, k4):
        state = ColoringState(k4)
        state.apply_inplace(0)
        with pytest.raises(ContractError):
            state.apply_inplace(0)

    def test_out_of_range_action_rejected(self, k4):
        state = ColoringState(k4)
        with pytest.raises(ContractError):
            state.apply_inplace(3)

    def test_terminal_state_refuses_moves(self):
        g = path_graph(2)
        state = ColoringState(g)
        state.apply_inplace(0)
        state.apply_inplace(1)
        assert state.is_terminal
        with pytest.raises(StateError):
            state.valid_actions()

    def test_color_members_track_recency(self, empty3):
        state = ColoringState(empty3)
        for _ in range(3):
            state.apply_inplace(0)
        assert state.color_members[0] == [0, 1, 2]

    @given(st.integers(4, 14), st.floats(0.1, 0.9), st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_random_play_stays_proper(self, n, p, seed):
        g = gen_er(n, p, seed)
        rng = np.random.default_rng(seed)
        state = ColoringState(g)
        while not state.is_terminal:
            acts = state.valid_actions().actions()
            state.apply_inplace(acts[rng.integers(len(acts))])
        check_proper(g, state.color_of)
        assert state.colors_used == state.color_of.max() + 1


def replay(g: Graph, order: np.ndarray, moves: list[int]) -> ColoringState:
    state = ColoringState(g, order)
    for a in moves:
        state.apply_inplace(a)
    return state


class TestUndo:
    @given(st.integers(1, 14), st.floats(0.0, 0.9), st.integers(0, 999),
           st.sampled_from(HEURISTIC_KINDS), st.sampled_from(["random", "new"]))
    @settings(max_examples=60, deadline=None)
    def test_apply_undo_matches_fresh_replay(self, n, p, seed, kind, policy):
        # "new" opens a color every move, past max_degree + 1 colors on
        # any graph with a vertex of degree below n - 2; it climbs to the
        # full coloring before undoing at random, so it always gets there
        g = gen_er(n, p, seed)
        order = compute_order(g, kind)
        rng = np.random.default_rng(seed)
        state = ColoringState(g, order)
        moves: list[int] = []
        peak = 0
        climbing = policy == "new"
        for _ in range(3 * n):
            climbing = climbing and not state.is_terminal
            if moves and not climbing and (state.is_terminal or rng.random() < 0.3):
                state.undo()
                moves.pop()
            else:
                acts = state.valid_actions().actions()
                a = acts[-1] if policy == "new" else acts[rng.integers(len(acts))]
                state.apply_inplace(a)
                moves.append(a)
            peak = max(peak, state.colors_used)
            # also checks the moves offered against color_of
            assert_same_state(state, replay(g, order, moves))
        if policy == "new" and n > g.max_degree + 2:
            assert peak > g.max_degree + 2
        while moves:
            state.undo()
            moves.pop()
        assert_same_state(state, ColoringState(g, order))
        assert state.color_members == [] and (state.color_of == -1).all()

    def test_undo_at_start_rejected(self, k4):
        with pytest.raises(StateError):
            ColoringState(k4).undo()

    def test_undo_on_clone_leaves_original(self, k4):
        state = ColoringState(k4)
        state.apply_inplace(0)
        other = state.clone()
        other.undo()
        assert state.valid_actions() == ActionSet(existing=(), new_color=1)
        assert other.valid_actions() == ActionSet(existing=(), new_color=0)
        other.apply_inplace(0)
        other.apply_inplace(1)
        assert state.t == 1 and state.color_of.tolist() == [0, -1, -1, -1]
        assert_same_state(state, replay(k4, state.order, [0]))


class TestOrders:
    def test_unordered_is_identity(self, petersen):
        assert compute_order(petersen, "unordered").tolist() == list(range(10))

    def test_ordered_sorts_by_degree_then_id(self):
        g = star_graph(3)  # center 0 has degree 3, leaves degree 1
        assert compute_order(g, "ordered").tolist() == [0, 1, 2, 3]
        g2 = Graph.from_edges(4, [(1, 2), (1, 3), (2, 3)])  # vertex 0 isolated
        assert compute_order(g2, "ordered").tolist() == [1, 2, 3, 0]

    def test_dynamic_decrements_neighbors(self):
        # Path 0-1-2-3-4: dynamic degrees start (1,2,2,2,1). Vertex 1 goes
        # first (smallest id among the 2s), dropping 0 and 2; vertex 3 is
        # then the only 2. After that every survivor has dynamic degree 0
        # and ascending id order takes over.
        g = path_graph(5)
        assert compute_order(g, "dynamic").tolist() == [1, 3, 0, 2, 4]

    def test_dynamic_ties_ascending_id(self, empty3):
        assert compute_order(empty3, "dynamic").tolist() == [0, 1, 2]

    def test_computed_once_per_graph_and_read_only(self, petersen):
        for kind in HEURISTIC_KINDS:
            order = compute_order(petersen, kind)
            assert compute_order(petersen, kind) is order
            assert not order.flags.writeable
        assert compute_order(petersen_graph(), "dynamic") is not compute_order(petersen, "dynamic")
        with pytest.raises(ParameterError):
            compute_order(petersen, "sideways")


def heap_dynamic_order(g: Graph) -> np.ndarray:
    """The dynamic order by one lazy max-heap over (dynamic degree, id)
    with NumPy state: the reference the bucket queue replaces."""
    dyn = g.degrees.astype(np.int64).copy()
    done = np.zeros(g.n, dtype=bool)
    heap = [(-int(dyn[v]), v) for v in range(g.n)]
    heapq.heapify(heap)
    order = np.empty(g.n, dtype=np.int32)
    for slot in range(g.n):
        while True:
            negd, v = heapq.heappop(heap)
            if not done[v] and -negd == dyn[v]:
                break
        order[slot] = v
        done[v] = True
        for u in g.neighbors_of(v):
            u = int(u)
            if not done[u]:
                dyn[u] -= 1
                heapq.heappush(heap, (-int(dyn[u]), u))
    return order


DENSITIES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def generated_graphs(draw) -> Graph:
    """A gen_er or gen_ws graph of random size, density and seed; er
    covers the empty graph, edgeless and complete graphs, and (at low p)
    isolated vertices."""
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        return gen_er(draw(st.integers(0, 120)), draw(DENSITIES), seed)
    n = draw(st.integers(3, 300))
    k = 2 * draw(st.integers(0, min(n - 1, 16) // 2))
    return gen_ws(n, k, draw(DENSITIES), seed)


class TestDynamicOrderMatchesHeap:
    @given(generated_graphs())
    @settings(max_examples=150, deadline=None)
    def test_bucket_queue_equals_heap(self, g):
        order = compute_order(g, "dynamic")
        assert order.dtype == np.int32
        assert np.array_equal(order, heap_dynamic_order(g))

    @pytest.mark.parametrize("g", [Graph.from_edges(0, []), Graph.from_edges(6, []),
                                   complete_graph(7), star_graph(5), petersen_graph(),
                                   Graph.from_edges(6, [(1, 4), (4, 5)])],
                             ids=["empty", "edgeless", "complete", "star", "petersen",
                                  "isolated"])
    def test_named_graphs(self, g):
        assert compute_order(g, "dynamic").tolist() == heap_dynamic_order(g).tolist()


class TestStateLists:
    def test_shared_per_graph_and_order(self, petersen):
        order = compute_order(petersen, "dynamic")
        first = ColoringState(petersen, order)
        same = ColoringState(petersen, order.copy())  # keyed by content
        other = ColoringState(petersen, compute_order(petersen, "ordered"))
        assert same._earlier is first._earlier and same._order is first._order
        assert other._earlier is not first._earlier
        assert first.clone()._earlier is first._earlier
        fresh = ColoringState(petersen_graph(), order)
        assert fresh._earlier is not first._earlier and fresh._earlier == first._earlier
        for state in (first, same, other, fresh):
            while not state.is_terminal:
                state.apply_inplace(state.greedy_action())
            check_proper(state.graph, state.color_of)

    def test_non_permutation_rejected_every_time(self, petersen):
        ColoringState(petersen)  # the identity order is kept
        bad = np.array([0, 0, 2, 3, 4, 5, 6, 7, 8, 9], dtype=np.int32)
        # the reshaped identity has the kept order's bytes
        for order in (bad, bad, np.arange(9), np.arange(10).reshape(1, 10), np.arange(1, 11)):
            with pytest.raises(ParameterError, match="permutation"):
                ColoringState(petersen, order)
        assert list(petersen.memo("_order_lists", dict)) == [np.arange(10, dtype=np.int32).tobytes()]

    def test_second_state_allocates_no_earlier_lists(self):
        # the neighbor lists take at least a list header per vertex (64n
        # bytes); a second state allocates its colors and the order's key
        g = gen_ws(2048, 4, 0.5, seed=1)
        order = compute_order(g, "dynamic")
        first, _ = traced_peak(lambda: ColoringState(g, order))
        second, peak = traced_peak(lambda: ColoringState(g, order))
        assert second._earlier is first._earlier
        assert peak < 24 * g.n


class TestGreedyHeuristics:
    def test_complete_graph_needs_n(self):
        for n in (1, 2, 5, 8):
            g = complete_graph(n)
            for kind in ("unordered", "ordered", "dynamic"):
                assert greedy_color(g, kind).colors_used == n

    def test_crown_interleaved_id_order_is_worst_case(self, crown8):
        col = greedy_color(crown8, "unordered")
        assert col.colors_used == 4
        check_proper(crown8, col.assignment)

    def test_crown_chromatic_is_two(self, crown8):
        assert brute_force_chromatic(crown8) == 2

    def test_star_greedy_two_colors(self):
        g = star_graph(5)
        for kind in ("unordered", "ordered", "dynamic"):
            assert greedy_color(g, kind).colors_used == 2

    def test_explicit_order_override(self, crown8):
        # Coloring side A before side B avoids the greedy trap.
        order = np.array([0, 2, 4, 6, 1, 3, 5, 7])
        assert greedy_color(crown8, order=order).colors_used == 2

    @given(st.integers(2, 12), st.floats(0.1, 0.9), st.integers(0, 999))
    @settings(max_examples=30, deadline=None)
    def test_heuristics_proper_and_bounded(self, n, p, seed):
        g = gen_er(n, p, seed)
        chrom = brute_force_chromatic(g)
        for kind in ("unordered", "ordered", "dynamic"):
            col = greedy_color(g, kind)
            check_proper(g, col.assignment)
            assert chrom <= col.colors_used <= g.max_degree + 1


class TestMdpSize:
    def test_empty_three_vertices(self, empty3):
        # Action products 1 * 2 * 2 = 4.
        assert estimate_mdp_size(empty3) == pytest.approx(math.log10(4.0), abs=1e-12)

    def test_complete_graph_is_forced(self):
        assert estimate_mdp_size(complete_graph(6)) == 0.0

    def test_larger_graph_grows(self):
        small = estimate_mdp_size(gen_er(16, 0.5, 0))
        large = estimate_mdp_size(gen_er(32, 0.5, 0))
        assert large > small > 0


class TestBruteForce:
    def test_known_chromatic_numbers(self, petersen, crown8):
        assert brute_force_chromatic(petersen) == 3
        assert brute_force_chromatic(crown8) == 2
        assert brute_force_chromatic(cycle_graph(5)) == 3
        assert brute_force_chromatic(cycle_graph(6)) == 2
        assert brute_force_chromatic(complete_graph(7)) == 7
        assert brute_force_chromatic(Graph.from_edges(1, [])) == 1
        assert brute_force_chromatic(Graph.from_edges(0, [])) == 0

    def test_cap_enforced(self):
        with pytest.raises(SizeError):
            brute_force_chromatic(gen_er(13, 0.5, 0), cap=12)

    @given(st.integers(2, 10), st.floats(0.1, 0.9), st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_never_exceeds_greedy(self, n, p, seed):
        g = gen_er(n, p, seed)
        chrom = brute_force_chromatic(g)
        assert chrom <= greedy_color(g, "dynamic").colors_used
        # clique lower bound sanity: chromatic of any edge-bearing graph >= 2
        if g.edge_count:
            assert chrom >= 2


def reference_check_proper(g: Graph, assignment: np.ndarray) -> str | None:
    """Per-vertex loop: the message check_proper raises, or None."""
    if (assignment < 0).any():
        return f"vertex {int(np.flatnonzero(assignment < 0)[0])} is uncolored"
    for v in range(g.n):
        row = g.neighbors_of(v)
        hits = row[assignment[row] == assignment[v]]
        if hits.size:
            return f"edge ({v}, {int(hits[0])}) is monochromatic"
    return None


class TestProperness:
    @given(st.integers(0, 16), st.floats(0.0, 0.9), st.integers(0, 999), st.integers(1, 5),
           st.floats(0.0, 0.3))
    @settings(max_examples=80, deadline=None)
    def test_vectorized_checks_match_loop(self, n, p, seed, colors, uncolored):
        g = gen_er(n, p, seed)
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, colors, size=n)
        assignment[rng.random(n) < uncolored] = -1
        want = reference_check_proper(g, assignment)
        if want is None:
            check_proper(g, assignment)
        else:
            with pytest.raises(ContractError) as err:
                check_proper(g, assignment)
            assert str(err.value) == want

    def test_check_proper_names_offender(self, k4):
        with pytest.raises(ContractError, match="monochromatic"):
            check_proper(k4, np.array([0, 0, 1, 2]))
        with pytest.raises(ContractError, match="uncolored"):
            check_proper(k4, np.array([0, -1, 1, 2]))
