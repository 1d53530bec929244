"""Tree search over coloring moves, guided by a pluggable evaluator.

The game is single-trajectory: the agent colors vertices along a fixed
order and is scored at a window boundary against a precomputed baseline
color count, so backed-up values never flip sign. Child selection
maximizes Q + c * P * sqrt(sum N) / (1 + N); ties fall to the higher
prior, then the lower action index. The tree is reused across moves by
promoting the chosen child to root.

A simulation is two steps, ``descend`` to a leaf and ``expand`` it with
its evaluation, so a caller can score the pending leaves of many trees
in one batch (``evaluate_batch``) without changing any tree's search.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .coloring import ColoringState, outcome_vs_baseline
from .errors import ContractError, ParameterError
from .fastcolornet import evaluate_frozen, freeze

__all__ = [
    "Node",
    "SearchTree",
    "ucb_score",
    "select_index",
    "backup",
    "pi_from_counts",
    "search",
    "UniformEvaluator",
    "NetEvaluator",
    "evaluate_batch",
]


def _block(i: int, doc: str) -> property:
    def view(self) -> np.ndarray:
        k = len(self.stats) >> 2
        return np.frombuffer(self.stats)[i * k:(i + 1) * k]

    def assign(self, values) -> None:
        view(self)[:] = values

    return property(view, assign, doc=doc)


_NO_STATS = array("d")  # shared by every terminal node; it has no actions


class Node:
    """Per-action statistics of one expanded state.

    One flat ``array('d')`` of 4K doubles holds, for K actions, the K
    priors, the K visit counts, the K running-mean values and the K action
    ids, in that order. Search reads and writes it as plain floats;
    ``prior``, ``visits`` and ``value`` are writable NumPy views of its
    blocks. Most nodes of a tree are leaves, so the child list is
    allocated when the first child is attached.
    """

    __slots__ = ("stats", "_children", "terminal_value")

    prior = _block(0, "P(s, a)")
    visits = _block(1, "N(s, a)")
    value = _block(2, "Q(s, a), running mean of backed-up values")

    def __init__(self, stats: array, terminal_value: float | None = None):
        self.stats = stats
        self._children: list["Node | None"] | None = None
        self.terminal_value = terminal_value  # set at window-end states

    @staticmethod
    def expanded(actions: list[int], prior: np.ndarray) -> "Node":
        prior = np.asarray(prior, dtype=np.float64).tolist()
        if len(prior) != len(actions):
            raise ContractError(f"{len(prior)} priors for {len(actions)} actions")
        return Node(array("d", prior + [0.0] * (2 * len(actions)) + actions))

    @staticmethod
    def terminal(v: float) -> "Node":
        return Node(_NO_STATS, terminal_value=v)

    @property
    def actions(self) -> list[int]:
        stats = self.stats
        return [int(a) for a in stats[3 * (len(stats) >> 2):]]

    def child(self, i: int) -> "Node | None":
        return None if self._children is None else self._children[i]

    def attach(self, i: int, child: "Node") -> None:
        if self._children is None:
            self._children = [None] * (len(self.stats) >> 2)
        self._children[i] = child


def ucb_score(node: Node, index: int, c: float) -> float:
    """Q(s,a) + c * P(s,a) * sqrt(sum_b N(s,b)) / (1 + N(s,a))."""
    total = int(node.visits.sum())
    return float(node.value[index]
                 + c * node.prior[index] * math.sqrt(total) / (1 + int(node.visits[index])))


def select_index(node: Node, c: float) -> int:
    """Argmax of the UCB score; ties go to the higher prior, then the
    lower action index."""
    s = node.stats
    k = len(s) >> 2
    if k == 1:
        return 0
    root = math.sqrt(sum(s[k:2 * k]))
    best, best_score = 0, s[2 * k] + c * s[0] * root / (1.0 + s[k])
    for i in range(1, k):
        p = s[i]
        score = s[2 * k + i] + c * p * root / (1.0 + s[k + i])
        if score > best_score or (score == best_score and p > s[best]):
            best, best_score = i, score
    return best


def backup(path: list[tuple[Node, int]], v: float) -> None:
    """Mean-value update along every edge of the path; no sign flip."""
    for node, i in path:
        s = node.stats
        k = len(s) >> 2
        n = s[k + i]
        s[2 * k + i] = (s[2 * k + i] * n + v) / (n + 1)
        s[k + i] = n + 1


def pi_from_counts(counts: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Visit counts to move probabilities: N^(1/tau), normalized.

    tau <= 1e-3 is treated as the argmax limit (lowest index on ties).
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.size == 0:
        raise ParameterError("no actions to normalize over")
    if tau <= 1e-3:
        pi = np.zeros_like(counts)
        pi[int(np.argmax(counts))] = 1.0
        return pi
    if not counts.any():
        return np.full(counts.size, 1.0 / counts.size)
    powered = np.power(counts, 1.0 / tau)
    return powered / powered.sum()


# -- evaluators --------------------------------------------------------


class UniformEvaluator:
    """Uniform priors and a neutral leaf value.

    With this evaluator the only informative values entering the tree
    are the exact outcomes computed at window-end states.
    """

    def evaluate(self, state: ColoringState):
        actions = state.valid_actions().actions()
        return actions, np.full(len(actions), 1.0 / len(actions)), 0.0


class NetEvaluator:
    """Priors and value from a frozen FastColorNet snapshot.

    ``net`` is the snapshot of ``store``; it is built here when the
    caller has none to share.
    """

    def __init__(self, store, cfg, table, net=None):
        self.cfg = cfg
        self.table = table
        self.net = net if net is not None else freeze(store, cfg)

    def evaluate(self, state: ColoringState):
        return evaluate_batch([self], [state])[0]


def evaluate_batch(evaluators: list, states: list[ColoringState]) -> list[tuple]:
    """Score each state with its evaluator, as ``evaluate`` does.

    States whose ``NetEvaluator``s share one frozen snapshot are scored by
    one batched forward; any other evaluator scores its state alone.
    """
    out: list = [None] * len(states)
    groups: dict[tuple[int, int], list[int]] = {}
    for j, ev in enumerate(evaluators):
        if isinstance(ev, NetEvaluator):
            groups.setdefault((id(ev.net), id(ev.cfg)), []).append(j)
        else:
            out[j] = ev.evaluate(states[j])
    for idx in groups.values():
        ev = evaluators[idx[0]]
        scored = evaluate_frozen(ev.net, ev.cfg, [states[j] for j in idx],
                                 [evaluators[j].table for j in idx])
        for j, o in zip(idx, scored):
            out[j] = (o.actions, o.p, o.v)
    return out


# -- the tree ----------------------------------------------------------


@dataclass
class SearchTree:
    """Search state for one agent within one scoring window.

    ``baseline_cum[t]`` is the baseline's color count after t moves;
    states reaching ``t_end`` (or running out of vertices) are scored
    exactly against it instead of being evaluated.
    """

    state: ColoringState
    evaluator: object
    t_end: int
    baseline_cum: np.ndarray
    c: float = 1.5
    root_noise: bool = False
    dirichlet_alpha: float = 0.3
    dirichlet_frac: float = 0.25
    rng: np.random.Generator | None = None
    root: Node = field(init=False)
    _pending: tuple | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if not 0 <= self.t_end <= self.state.graph.n:
            raise ParameterError(f"t_end {self.t_end} outside [0, {self.state.graph.n}]")
        if self.state.t > self.t_end:
            raise ParameterError("root state already past the window end")
        if len(self.baseline_cum) < self.t_end + 1:
            raise ContractError("baseline trace shorter than the window")
        self.root = self._make_node(self.state)

    def _window_end(self, state: ColoringState) -> bool:
        return state.t >= self.t_end

    def _exact_value(self, state: ColoringState) -> float:
        return outcome_vs_baseline(state.colors_used,
                                   int(self.baseline_cum[self.t_end])).game_value

    def _make_node(self, state: ColoringState) -> Node:
        if self._window_end(state):
            return Node.terminal(self._exact_value(state))
        actions, priors, _ = self.evaluator.evaluate(state)
        node = Node.expanded(actions, priors)
        self._mix_root_noise(node)
        return node

    def _mix_root_noise(self, node: Node) -> None:
        # fresh noise whenever a node becomes root, never compounded
        if self.root_noise and self.rng is not None and node.terminal_value is None:
            noise = self.rng.dirichlet(np.full(len(node.actions), self.dirichlet_alpha))
            node.prior = (1.0 - self.dirichlet_frac) * node.prior + self.dirichlet_frac * noise

    def descend(self) -> ColoringState | None:
        """Select from the root to an unexpanded edge or a window-end state.

        Steps the tree's own ``state`` down the path. Returns it, now the
        state behind the edge, when it needs an evaluation, and None at a
        window-end state, whose value is exact. ``expand`` completes the
        pass either way and takes the path back, so nothing may step the
        state in between; a second ``descend`` before it raises
        ContractError.
        """
        if self._pending is not None:
            raise ContractError("descend called again before expand")
        node = self.root
        state = self.state
        c = self.c
        path: list[tuple[Node, int]] = []
        while node.terminal_value is None:
            i = select_index(node, c)
            path.append((node, i))
            stats = node.stats
            state.apply_inplace(int(stats[3 * (len(stats) >> 2) + i]))
            child = node.child(i)
            if child is None:
                if not self._window_end(state):
                    self._pending = (path, None)
                    return state
                child = Node.terminal(self._exact_value(state))
                node.attach(i, child)
            node = child
        self._pending = (path, node.terminal_value)
        return None

    def expand(self, evaluation: tuple | None = None) -> float:
        """Finish the pass ``descend`` began: undo its path, attach the
        leaf from ``evaluation`` (actions, priors, value) when it returned
        a state, then back the value up the path; returns the value.
        Raises ContractError when no ``descend`` is pending."""
        if self._pending is None:
            raise ContractError("expand called with no pending descend")
        path, v = self._pending
        self._pending = None
        for _ in path:
            self.state.undo()
        if evaluation is not None:
            actions, priors, v = evaluation
            node, i = path[-1]
            node.attach(i, Node.expanded(actions, priors))
        backup(path, v)
        return v

    def simulate(self) -> float:
        """One select / expand-evaluate / backup pass; returns the value."""
        leaf = self.descend()
        return self.expand(None if leaf is None else self.evaluator.evaluate(leaf))

    def advance_root(self, action: int) -> None:
        """Promote the chosen child to root, discarding its siblings."""
        actions = self.root.actions
        if action not in actions:
            raise ParameterError(f"action {action} is not a root child")
        child = self.root.child(actions.index(action))
        self.state.apply_inplace(action)
        if child is None:
            child = self._make_node(self.state)
        else:
            self._mix_root_noise(child)
        self.root = child

    def root_pi(self, tau: float = 1.0) -> np.ndarray:
        return pi_from_counts(self.root.visits, tau)


def search(tree: SearchTree, simulations: int, tau: float = 1.0) -> np.ndarray:
    """Run simulations from the current root and return pi over its actions."""
    if simulations < 1:
        raise ParameterError("simulations must be >= 1")
    if tree.root.terminal_value is not None:
        raise ContractError("cannot search from a window-end state")
    for _ in range(simulations):
        tree.simulate()
    return tree.root_pi(tau)
