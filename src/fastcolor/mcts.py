"""Tree search over coloring moves, guided by a pluggable evaluator.

The game is single-trajectory: the agent colors vertices along a fixed
order and is scored at a window boundary against a precomputed baseline
color count, so backed-up values never flip sign. Child selection
maximizes Q + c * P * sqrt(sum N) / (1 + N); ties fall to the higher
prior, then the lower action index. The tree is reused across moves by
promoting the chosen child to root.
"""

from __future__ import annotations

import math
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
    "RolloutEvaluator",
    "NetEvaluator",
]


@dataclass
class Node:
    """Per-action statistics of one expanded state."""

    actions: list[int]
    prior: np.ndarray  # P(s, a)
    visits: np.ndarray  # N(s, a), int64
    value: np.ndarray  # Q(s, a), running mean of backed-up values
    children: list["Node | None"]
    terminal_value: float | None = None  # set at window-end states

    @staticmethod
    def expanded(actions: list[int], prior: np.ndarray) -> "Node":
        k = len(actions)
        return Node(actions=list(actions), prior=np.asarray(prior, dtype=np.float64),
                    visits=np.zeros(k, dtype=np.int64), value=np.zeros(k),
                    children=[None] * k)

    @staticmethod
    def terminal(v: float) -> "Node":
        return Node(actions=[], prior=np.zeros(0), visits=np.zeros(0, dtype=np.int64),
                    value=np.zeros(0), children=[], terminal_value=v)

    def subtree_size(self) -> int:
        total = 1
        for child in self.children:
            if child is not None:
                total += child.subtree_size()
        return total


def ucb_score(node: Node, index: int, c: float) -> float:
    """Q(s,a) + c * P(s,a) * sqrt(sum_b N(s,b)) / (1 + N(s,a))."""
    total = int(node.visits.sum())
    return float(node.value[index]
                 + c * node.prior[index] * math.sqrt(total) / (1 + int(node.visits[index])))


def select_index(node: Node, c: float) -> int:
    """Argmax of the UCB score; ties go to the higher prior, then the
    lower action index."""
    total = int(node.visits.sum())
    scores = node.value + c * node.prior * math.sqrt(total) / (1.0 + node.visits)
    best = None
    for i in range(len(node.actions)):
        if best is None or scores[i] > scores[best] or (
                scores[i] == scores[best] and node.prior[i] > node.prior[best]):
            best = i
    return best


def backup(path: list[tuple[Node, int]], v: float) -> None:
    """Mean-value update along every edge of the path; no sign flip."""
    for node, i in path:
        n = int(node.visits[i])
        node.value[i] = (node.value[i] * n + v) / (n + 1)
        node.visits[i] = n + 1


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
        aset = state.valid_actions()
        actions = list(aset.existing) + [aset.new_color]
        return actions, np.full(len(actions), 1.0 / len(actions)), 0.0


class RolloutEvaluator:
    """Uniform priors; value = exact outcome of a greedy completion.

    Serves both as the network-free search configuration and as the
    bootstrap evaluator before any training has happened.
    """

    def __init__(self, t_end: int, baseline_cum: np.ndarray):
        self.t_end = t_end
        self.baseline_cum = baseline_cum

    def evaluate(self, state: ColoringState):
        aset = state.valid_actions()
        actions = list(aset.existing) + [aset.new_color]
        priors = np.full(len(actions), 1.0 / len(actions))
        rollout = state.clone()
        while rollout.t < self.t_end:
            rollout.apply_inplace(rollout.greedy_action())
        v = outcome_vs_baseline(rollout.colors_used,
                                int(self.baseline_cum[self.t_end])).game_value
        return actions, priors, v


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
        out = evaluate_frozen(self.net, self.cfg, state, self.table)
        return out.actions, out.p, out.v


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
    simulations_run: int = field(init=False, default=0)
    arena_size: int = field(init=False, default=0)

    def __post_init__(self):
        if not 0 <= self.t_end <= self.state.graph.n:
            raise ParameterError(f"t_end {self.t_end} outside [0, {self.state.graph.n}]")
        if self.state.t > self.t_end:
            raise ParameterError("root state already past the window end")
        if len(self.baseline_cum) < self.t_end + 1:
            raise ContractError("baseline trace shorter than the window")
        self.root = self._make_node(self.state)
        self.arena_size = 1

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

    def simulate(self) -> float:
        """One select / expand-evaluate / backup pass; returns the value."""
        node = self.root
        state = self.state.clone()
        path: list[tuple[Node, int]] = []
        while True:
            if node.terminal_value is not None:
                v = node.terminal_value
                break
            i = select_index(node, self.c)
            path.append((node, i))
            state.apply_inplace(node.actions[i])
            child = node.children[i]
            if child is None:
                if self._window_end(state):
                    child = Node.terminal(self._exact_value(state))
                    v = child.terminal_value
                else:
                    actions, priors, v = self.evaluator.evaluate(state)
                    child = Node.expanded(actions, priors)
                node.children[i] = child
                self.arena_size += 1
                break
            node = child
        backup(path, v)
        self.simulations_run += 1
        return v

    def advance_root(self, action: int) -> None:
        """Promote the chosen child to root, discarding its siblings."""
        if action not in self.root.actions:
            raise ParameterError(f"action {action} is not a root child")
        i = self.root.actions.index(action)
        child = self.root.children[i]
        self.state.apply_inplace(action)
        if child is None:
            child = self._make_node(self.state)
        else:
            self._mix_root_noise(child)
        self.root = child
        self.arena_size = child.subtree_size()

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
