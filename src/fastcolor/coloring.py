"""Sequential graph coloring as a decision process, plus greedy baselines.

Vertices are colored one at a time along a fixed visitation order. At each
move the agent picks either an existing color that no colored neighbor
uses, or opens a new color (always available). The three classic greedy
heuristics differ only in the order they visit vertices; all of them pick
the smallest valid color id.

Episode outcomes are scored zero-sum against a baseline color count:
fewer colors wins (+1), equal ties (0), more loses (-1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .errors import ContractError, ParameterError, SizeError, StateError
from .graph import Graph

__all__ = [
    "HEURISTIC_KINDS",
    "Outcome",
    "outcome_vs_baseline",
    "ActionSet",
    "ColoringState",
    "compute_order",
    "greedy_color",
    "Coloring",
    "estimate_mdp_size",
    "brute_force_chromatic",
    "check_proper",
]

HEURISTIC_KINDS = ("unordered", "ordered", "dynamic")


class Outcome(enum.IntEnum):
    """Zero-sum episode result from the agent's point of view."""

    WIN = 1
    TIE = 0
    LOSE = -1

    @property
    def game_value(self) -> float:
        return float(self.value)

    @property
    def index(self) -> int:
        """Position in (win, tie, lose) distributions."""
        return {Outcome.WIN: 0, Outcome.TIE: 1, Outcome.LOSE: 2}[self]


def outcome_vs_baseline(agent_colors: int, baseline_colors: int) -> Outcome:
    """Compare color counts at the same move index."""
    if agent_colors < baseline_colors:
        return Outcome.WIN
    if agent_colors == baseline_colors:
        return Outcome.TIE
    return Outcome.LOSE


@dataclass(frozen=True)
class ActionSet:
    """Valid moves at one state: existing compatible colors plus 'new'.

    ``existing`` is sorted ascending; ``new_color`` equals the current
    number of colors in use, so actions are plain ints in
    [0, new_color] and 'new' is always the largest.
    """

    existing: tuple[int, ...]
    new_color: int

    @property
    def size(self) -> int:
        return len(self.existing) + 1

    def actions(self) -> list[int]:
        return list(self.existing) + [self.new_color]


class ColoringState:
    """Mutable partial coloring along a fixed visitation order.

    The next vertex to color is ``order[t]``. ``_colors[v]`` is v's color,
    -1 while uncolored: a plain list, the one record of the coloring, so
    the per-move loops read and write no NumPy scalars; ``color_of`` is a
    read-only array copy of it. ``color_members[c]`` lists the vertices of
    color c in the order they were colored (newest last). ``_order``
    mirrors ``order`` as a list. ``_earlier[v]`` lists the
    neighbors of v that come before it in the order: they are all colored
    when v is current, so the colors v may not take are read from them on
    demand, and stepping or undoing a move touches no neighbor.
    ``_order`` and ``_earlier`` are read-only and shared by every state
    on the same (graph, order). ``undos`` counts the moves this object has
    taken back, so a reader that saw the same ``undos`` and a ``t`` no
    smaller than before knows every move it saw is still in place.
    """

    __slots__ = ("graph", "order", "t", "colors_used", "color_members",
                 "undos", "_colors", "_order", "_earlier", "_padded", "__weakref__")

    def __init__(self, graph: Graph, order: np.ndarray | None = None):
        self.graph = graph
        if order is None:
            order = np.arange(graph.n, dtype=np.int32)
        else:
            order = np.asarray(order, dtype=np.int32)
            if order.shape != (graph.n,):
                raise ParameterError("order must be a permutation of 0..n-1")
        self.order = order
        self.t = 0
        self.colors_used = 0
        self.color_members: list[list[int]] = []
        self.undos = 0
        self._colors = [-1] * graph.n
        self._order, self._earlier = _order_lists(graph, order)
        self._padded: np.ndarray | None = None

    def clone(self) -> "ColoringState":
        other = ColoringState.__new__(ColoringState)
        other.graph = self.graph
        other.order = self.order
        other.t = self.t
        other.colors_used = self.colors_used
        other.color_members = [m.copy() for m in self.color_members]
        other.undos = 0
        other._colors = self._colors.copy()
        other._order = self._order
        other._earlier = self._earlier
        other._padded = self._padded
        return other

    @property
    def color_of(self) -> np.ndarray:
        """Each vertex's color, -1 while uncolored, as a new read-only array."""
        colors = np.array(self._colors, dtype=np.int32)
        colors.flags.writeable = False
        return colors

    @property
    def is_terminal(self) -> bool:
        return self.t >= self.graph.n

    def current_vertex(self) -> int:
        if self.t >= self.graph.n:
            raise StateError("all vertices are colored")
        return self._order[self.t]

    def _blocked(self, v: int) -> set[int]:
        colors = self._colors
        return {colors[u] for u in self._earlier[v]}

    def valid_actions(self) -> ActionSet:
        blocked = self._blocked(self.current_vertex())
        existing = tuple(c for c in range(self.colors_used) if c not in blocked)
        return ActionSet(existing=existing, new_color=self.colors_used)

    def apply_inplace(self, action: int) -> None:
        """Color the current vertex. ``action`` must come from valid_actions."""
        v = self.current_vertex()
        colors = self._colors
        if action == self.colors_used:
            self.colors_used += 1
            self.color_members.append([])
        elif not (0 <= action < self.colors_used):
            raise ContractError(f"action {action} out of range at t={self.t}")
        else:
            for u in self._earlier[v]:
                if colors[u] == action:
                    raise ContractError(f"color {action} conflicts at vertex {v}")
        colors[v] = action
        self.color_members[action].append(v)
        self.t += 1

    def undo(self) -> None:
        """Take back the last move, restoring the state before it."""
        if self.t == 0:
            raise StateError("no move to undo")
        self.undos += 1
        self.t -= 1
        v = self._order[self.t]
        color = self._colors[v]
        self._colors[v] = -1
        members = self.color_members[color]
        members.pop()
        if not members:  # this move opened the color, the newest one
            self.color_members.pop()
            self.colors_used -= 1

    def greedy_action(self) -> int:
        """Smallest valid color id; opens a new color only when forced."""
        blocked = self._blocked(self.current_vertex())
        for c in range(self.colors_used):
            if c not in blocked:
                return c
        return self.colors_used

    def order_window(self, w: int, ts: list[int] | None = None) -> np.ndarray:
        """order[t-w .. t+w) as a read-only int64 view, -1 past either end
        of the order; with ``ts``, a (len(ts), 2w) array of the windows at
        each move t of ``ts``. The padded order behind them is built once
        per w and shared with clones."""
        n = self.graph.n
        padded = self._padded
        if padded is None or padded.size != n + 2 * w:
            padded = np.full(n + 2 * w, -1, dtype=np.int64)
            padded[w:w + n] = self.order
            padded.flags.writeable = False
            self._padded = padded
        if ts is None:
            return padded[self.t:self.t + 2 * w]
        return padded[np.add.outer(ts, np.arange(2 * w))]


def _order_lists(g: Graph, order: np.ndarray) -> tuple[list[int], list[list[int]]]:
    """``order`` as a list and each vertex's neighbors earlier in it,
    built once per (graph, order) and kept on the graph, keyed by the
    order's bytes. Raises ParameterError, every time, unless ``order`` (of
    shape (n,)) is a permutation of 0..n-1; such orders are never kept."""
    memo = g.memo("_order_lists", dict)
    key = order.tobytes()
    lists = memo.get(key)
    if lists is None:
        order_list = order.tolist()
        if sorted(order_list) != list(range(g.n)):
            raise ParameterError("order must be a permutation of 0..n-1")
        pos = [0] * g.n
        for i, v in enumerate(order_list):
            pos[v] = i
        adjacency = g.adjacency()
        lists = memo[key] = (order_list, [[u for u in adjacency[v] if pos[u] < pos[v]]
                                          for v in range(g.n)])
    return lists


def compute_order(g: Graph, kind: str) -> np.ndarray:
    """Visitation order used by each heuristic; computed once per (graph,
    kind) and returned read-only.

    unordered: ascending vertex id. ordered: descending static degree,
    ties by ascending id. dynamic: repeatedly take the uncolored vertex
    with the most uncolored neighbors (ties by ascending id), decrementing
    neighbors as vertices leave the pool. The dynamic order depends only
    on adjacency, never on chosen colors, so it can be precomputed; a
    bucket queue keyed by dynamic degree builds it in O((V + E) log V) time,
    nearly linear (see ``_dynamic_order``).
    """

    def build() -> np.ndarray:
        order = _order(g, kind)
        order.flags.writeable = False
        return order

    return g.memo(f"_order_{kind}", build)


def _order(g: Graph, kind: str) -> np.ndarray:
    if kind == "unordered":
        return np.arange(g.n, dtype=np.int32)
    if kind == "ordered":
        # lexsort: last key is primary, so degree descending then id.
        return np.lexsort((np.arange(g.n), -g.degrees.astype(np.int64))).astype(np.int32)
    if kind == "dynamic":
        return np.array(_dynamic_order(g.adjacency()), dtype=np.int32)
    raise ParameterError(f"unknown heuristic kind {kind!r}")


def _dynamic_order(adjacency: list[list[int]]) -> list[int]:
    """The dynamic order from neighbor lists, with a bucket queue keyed by
    dynamic degree (Matula & Beck, JACM 1983).

    ``buckets[d]`` is a lazy min-heap of the vertices that had dynamic
    degree d when pushed, so each bucket hands out its lowest id first.
    A vertex is pushed again, one bucket down, each time a neighbor
    leaves; entries whose degree has since dropped are skipped when
    popped. Degrees only fall, so the top bucket only moves down, and
    the whole run costs O((V + E) log V).
    """
    dyn = [len(row) for row in adjacency]
    buckets: list[list[int]] = [[] for _ in range(max(dyn, default=0) + 1)]
    for v, d in enumerate(dyn):
        buckets[d].append(v)  # ascending ids: already a heap
    order = []
    top = len(buckets) - 1
    while top >= 0:
        bucket = buckets[top]
        if not bucket:
            top -= 1
            continue
        v = heappop(bucket)
        if dyn[v] != top:
            continue  # stale: v's degree fell after this push
        order.append(v)
        dyn[v] = -1  # left the pool: never matches a bucket again
        for u in adjacency[v]:
            d = dyn[u]
            if d > 0:
                dyn[u] = d - 1
                heappush(buckets[d - 1], u)
    return order


@dataclass(frozen=True)
class Coloring:
    """A completed proper coloring and the order that produced it."""

    assignment: np.ndarray
    colors_used: int
    order: np.ndarray


def greedy_color(g: Graph, kind: str = "unordered", order: np.ndarray | None = None) -> Coloring:
    """Greedy smallest-valid-color run along the given heuristic's order.

    Passing ``order`` explicitly overrides ``kind`` (used to replay a
    fixed order with the greedy action policy).
    """
    if order is None:
        order = compute_order(g, kind)
    state = ColoringState(g, order)
    while not state.is_terminal:
        state.apply_inplace(state.greedy_action())
    return Coloring(assignment=state.color_of, colors_used=state.colors_used, order=order)


def estimate_mdp_size(g: Graph, kind: str = "unordered") -> float:
    """log10 of the product of action-set sizes along one greedy trajectory.

    A cheap proxy for the size of the reachable decision space; summing
    logs avoids overflow on graphs where the product is astronomically
    large.
    """
    order = compute_order(g, kind)
    state = ColoringState(g, order)
    total = 0.0
    while not state.is_terminal:
        total += math.log10(state.valid_actions().size)
        state.apply_inplace(state.greedy_action())
    return total


def _greedy_clique_lower_bound(g: Graph) -> int:
    best = 1 if g.n else 0
    by_degree = sorted(range(g.n), key=lambda v: (-int(g.degrees[v]), v))
    for start in by_degree[: min(g.n, 8)]:
        clique = [start]
        for v in by_degree:
            if v != start and all(g.has_edge(v, u) for u in clique):
                clique.append(v)
        best = max(best, len(clique))
    return best


def brute_force_chromatic(g: Graph, cap: int = 12) -> int:
    """Exact chromatic number by backtracking; refuses graphs above ``cap``.

    Starts at a greedy clique lower bound and tests k-colorability with
    color classes kept as vertex bitmasks; only the first empty class may
    be opened, which kills color-permutation symmetry.
    """
    if g.n > cap:
        raise SizeError(f"graph has {g.n} vertices, cap is {cap}")
    if g.n == 0:
        return 0
    if g.edge_count == 0:
        return 1
    adj = [0] * g.n
    for v in range(g.n):
        for u in g.neighbors_of(v):
            adj[v] |= 1 << int(u)
    verts = sorted(range(g.n), key=lambda v: (-int(g.degrees[v]), v))
    upper = greedy_color(g, "dynamic").colors_used
    lower = _greedy_clique_lower_bound(g)

    def colorable(k: int) -> bool:
        classes = [0] * k

        def place(i: int) -> bool:
            if i == len(verts):
                return True
            v = verts[i]
            opened_new = False
            for c in range(k):
                if classes[c] == 0:
                    if opened_new:
                        break  # all further empty classes are symmetric
                    opened_new = True
                if classes[c] & adj[v]:
                    continue
                classes[c] |= 1 << v
                if place(i + 1):
                    return True
                classes[c] &= ~(1 << v)
            return False

        return place(0)

    for k in range(lower, upper):
        if colorable(k):
            return k
    return upper


def _monochromatic(g: Graph, assignment: np.ndarray) -> np.ndarray:
    """Positions in ``g.neighbors`` whose edge joins two equal colors,
    ascending, so in (v, neighbor) row order."""
    sources = np.repeat(np.arange(g.n), np.diff(g.offsets))
    return np.flatnonzero(assignment[sources] == assignment[g.neighbors])


def check_proper(g: Graph, assignment: np.ndarray) -> None:
    """Raise ContractError naming the first offending vertex or edge."""
    assignment = np.asarray(assignment)
    if assignment.shape != (g.n,):
        raise ContractError(f"assignment length {assignment.shape} != vertex count {g.n}")
    bad = np.nonzero(assignment < 0)[0]
    if bad.size:
        raise ContractError(f"vertex {int(bad[0])} is uncolored")
    hits = _monochromatic(g, assignment)
    if hits.size:
        v = int(np.searchsorted(g.offsets, hits[0], side="right")) - 1
        raise ContractError(f"edge ({v}, {int(g.neighbors[hits[0]])}) is monochromatic")
