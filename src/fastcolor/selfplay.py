"""Self-play episode generation and the replay buffer.

Training tuples (graph, move, pi, z) come from short MCTS bursts played
inside limited run-ahead windows. Each window is scored against a frozen
baseline policy that walks the same visitation order, so agent and
baseline differ only in color choice. Windows that are already decided
are abandoned early using sound monotonicity bounds.
"""

from __future__ import annotations

import json
import logging
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Sequence

import numpy as np

from .coloring import ColoringState, Outcome, compute_order, outcome_vs_baseline
from .config import Config
from .embedding import EmbeddingTable, compute_embeddings
from .errors import ParameterError, StateError
from .fastcolornet import block_contexts, context_ids, count_capped, decode_logits, freeze
from .graph import Graph
from .mcts import SearchTree, evaluate_batch
from .nn import softmax
from .rng import make_rng, mix64

logger = logging.getLogger(__name__)

# Segments a self-play pass plays in lockstep; bounds the live search trees.
LOCKSTEP_SEGMENTS = 64
# Candidate rows at which NetPolicy stops drafting: a forward's GEMM rows and
# activation memory scale with rows, and too few rows cannot pay for loading
# the policy weights. The last draft can add up to candidate_cap rows more.
DRAFT_ROWS = 512
# A batched move's logits match its alone logits to a few units of roundoff
# (relative to 1 + the largest |logit|); a top-two margin within this many
# is decided by the exact one-move call instead.
TIE_ULPS = 1024

# -- fast policies ------------------------------------------------------


class GreedyPolicy:
    """Bootstrap policy: smallest valid color along the fixed order."""

    def choose(self, state: ColoringState) -> int:
        return state.greedy_action()


class NetPolicy:
    """Greedy argmax of the P-network, no search, decoded speculatively.

    ``net`` is the frozen snapshot of ``store`` at ``version``; it is
    built here when the caller has none to share.

    At a move it has no plan for, ``choose`` drafts moves with the greedy
    heuristic on the caller's state, up to ``block`` non-forced ones or
    until their candidate rows reach ``DRAFT_ROWS``, reading each one's
    context ids (``context_ids``) just before its draft move, and scores
    them all in one ``decode_logits`` call on the block's arrays
    (``block_contexts``, which hold each distinct member-slot row once).
    It keeps the drafts up to the first one the net's argmax differs
    from, plus the net's own choice there (its context was exact), undoes
    every draft, and answers the following calls from that plan
    (``_Plan.follows``). A fully kept block doubles ``block``, up
    to ``DRAFT_ROWS`` (the row budget then binds first); a rejection or a
    new state resets it to 1.

    The choices are those of scoring each move alone. A move's logits in
    a batch may differ from its alone logits in the last bits, so a
    batched move whose top two logits lie within ``TIE_ULPS`` units of
    roundoff is scored again alone, by the one-move call. With an
    all-zero policy head (a fresh model) every logit is the head's bias
    in any batch, so nothing is scored again.

    ``drafted``, ``kept`` and ``forwards`` count the scored drafts, those
    the net agreed with, and the ``decode_logits`` calls.
    """

    def __init__(self, store, cfg: Config, cache: "EmbeddingCache", version: int,
                 net=None):
        self.store = store
        self.cfg = cfg
        self.cache = cache
        self.version = version
        self.net = net if net is not None else freeze(store, cfg)
        self._rescore_ties = bool(self.net.p_head[0].any())
        self._eps = float(np.finfo(self.net.p_fc[0].w.dtype).eps)
        self.block = 1
        self.drafted = self.kept = self.forwards = 0
        self._plan: _Plan | None = None

    def choose(self, state: ColoringState) -> int:
        plan = self._plan
        if plan is None or not plan.follows(state):
            plan = self._plan = self._draft(state)
        i = state.t - plan.t0
        if plan.capped[i]:  # once per answered move, not per drafted context
            count_capped(plan.table, self.cfg, state.t, plan.capped[i])
        return plan.actions[i]

    def _draft(self, state: ColoringState) -> "_Plan":
        if self._plan is None or self._plan.state() is not state:
            self.block = 1
        t0 = state.t
        actions: list[int] = []
        capped: list[int] = []
        # per drafted non-forced move: its candidates, t, index in actions
        # and hot gc bins; members concatenates the moves' member ids
        cands, ts, at, hot, members = [], [], [], [], []
        table = None
        rows = 0
        while True:
            aset = state.valid_actions()
            capped.append(0)
            if aset.existing:
                if table is None:
                    table = self.cache.table(state.graph, self.store, self.cfg, self.version)
                move, ids, bins, cut = context_ids(state, table, self.cfg, aset, count=False)
                if cut:
                    capped[-1] = len(aset.existing)
                cands.append(move)
                ts.append(state.t)
                at.append(len(actions))
                members += ids
                hot.append(bins)
                rows += len(move)
            # greedy_action: the smallest valid color, a new one only when forced
            actions.append(aset.existing[0] if aset.existing else aset.new_color)
            if len(cands) == self.block or rows >= DRAFT_ROWS:
                break  # the last draft: no context is read after it
            state.apply_inplace(actions[-1])
            if state.is_terminal:
                break
        while state.t > t0:
            state.undo()
        if cands:
            arrays = block_contexts(self.cfg, table, state.order_window(self.cfg.window, ts),
                                    members, hot)
            choices = self._decide(cands, arrays, [actions[i] for i in at])
            last = at[len(choices) - 1]
            del actions[last + 1:], capped[last + 1:]
            actions[last] = choices[-1]
        # the table only to count capped moves, so a plan keeps no other alive
        return _Plan(weakref.ref(state), state.undos, t0, actions, capped,
                     table if any(capped) else None)

    def _decide(self, cands: list[list[int]], arrays, drafts: list[int]) -> list[int]:
        """The net's choices at the drafted moves, each offering the
        candidates of ``cands``, in order, up to the first that differs
        from its draft; adapts ``block``. ``arrays`` are the moves'
        ``block_contexts``."""
        gc, pc, slots, rows = arrays
        sizes = [len(move) for move in cands]
        batch = decode_logits(self.net, gc, pc, slots, sizes, rows)
        self.forwards += 1
        self.drafted += len(cands)
        choices: list[int] = []
        lo = 0
        for b, (move, lg, draft) in enumerate(zip(cands, batch, drafts)):
            if not _near_tie(lg, self._eps):
                pick = int(lg.argmax())
            else:  # decide as the move alone does: argmax of its softmax
                if len(cands) > 1 and self._rescore_ties:
                    (lg,) = decode_logits(self.net, gc[b:b + 1], pc[b:b + 1],
                                          slots[rows[lo:lo + len(move)]], [len(move)])
                    self.forwards += 1
                pick = int(np.argmax(softmax(lg)))
            choices.append(move[pick])
            if choices[-1] != draft:
                break
            self.kept += 1
            lo += len(move)
        full = len(choices) == len(cands) and choices[-1] == drafts[-1]
        self.block = min(2 * self.block, DRAFT_ROWS) if full else 1
        return choices


def _near_tie(logits: np.ndarray, eps: float) -> bool:
    """Whether the top two logits lie within ``TIE_ULPS`` units of
    roundoff, relative to 1 + the largest magnitude. Outside that, the
    argmax of the logits is the argmax of their softmax."""
    if logits.size < 2:
        return False
    ranked = sorted(logits.tolist())  # a move's few candidates: cheaper than NumPy
    return ranked[-1] - ranked[-2] <= TIE_ULPS * eps * (1.0 + max(ranked[-1], -ranked[0]))


@dataclass
class _Plan:
    """Moves a ``NetPolicy`` decided for one state from move ``t0`` on.

    ``actions[i]`` is the choice at move t0 + i and ``capped[i]`` the
    count of valid existing colors there when the move was cut to
    ``candidate_cap``, else 0. The state is held weakly, so a plan never
    keeps a finished decode alive; ``undos`` is its undo count once the
    drafts were taken back.
    """

    state: weakref.ref
    undos: int
    t0: int
    actions: list[int]
    capped: list[int]
    table: EmbeddingTable | None
    checked: int = 0  # moves from t0 on already seen to follow the plan

    def follows(self, state: ColoringState) -> bool:
        """Whether the plan answers ``state``'s current move: the same
        object, no undo since, ``t`` inside the plan, and every move since
        ``t0`` as planned (checked once each)."""
        if self.state() is not state or state.undos != self.undos:
            return False
        i = state.t - self.t0
        if not 0 <= i < len(self.actions):
            return False
        while self.checked < i:
            if state.color_of[state.order[self.t0 + self.checked]] != self.actions[self.checked]:
                return False
            self.checked += 1
        return True


class EmbeddingCache:
    """Lazy per-(graph, parameter version) message-passing tables.

    Tables are immutable once computed; a version bump (new gated
    parameters) keys fresh entries instead of mutating old ones.
    """

    def __init__(self) -> None:
        self._tables: dict[tuple[str, int], EmbeddingTable] = {}

    def __len__(self) -> int:
        return len(self._tables)

    def table(self, g: Graph, store, cfg: Config, version: int) -> EmbeddingTable:
        key = (g.key(), version)
        hit = self._tables.get(key)
        if hit is None:
            hit = compute_embeddings(g, store, cfg, seed=cfg.embed_seed)
            self._tables[key] = hit
        return hit

    def drop_below(self, version: int) -> None:
        """Free tables computed under superseded parameters."""
        self._tables = {k: v for k, v in self._tables.items() if k[1] >= version}

    def adopt(self, other: "EmbeddingCache", version: int) -> None:
        """Share ``other``'s tables of ``version``, computed from the same
        parameters; tables are immutable, so both caches may hold them."""
        for key, table in other._tables.items():
            if key[1] == version:
                self._tables.setdefault(key, table)


# -- baseline -----------------------------------------------------------


@dataclass(frozen=True)
class BaselineTrace:
    """Deterministic full coloring by a frozen policy.

    ``cumulative[t]`` is the color count after t moves (``cumulative[0]``
    is 0), so a window ending at move t is scored by ``cumulative[t]``.
    """

    actions: np.ndarray
    cumulative: np.ndarray

    @property
    def chi(self) -> int:
        return int(self.cumulative[-1])


class BaselineOracle:
    """Frozen best policy plus cached per-graph score traces."""

    def __init__(self, policy) -> None:
        self.policy = policy
        self._traces: dict[tuple[str, str], BaselineTrace] = {}

    def trace(self, g: Graph, cfg: Config) -> BaselineTrace:
        key = (g.key(), cfg.order_kind)
        hit = self._traces.get(key)
        if hit is None:
            hit = _run_policy(g, self.policy, cfg)
            self._traces[key] = hit
        return hit


def _run_policy(g: Graph, policy, cfg: Config) -> BaselineTrace:
    state = ColoringState(g, compute_order(g, cfg.order_kind))
    actions = np.empty(g.n, dtype=np.int64)
    cumulative = np.empty(g.n + 1, dtype=np.int64)
    cumulative[0] = 0
    for t in range(g.n):
        a = policy.choose(state)
        actions[t] = a
        state.apply_inplace(a)
        cumulative[t + 1] = state.colors_used
    return BaselineTrace(actions=actions, cumulative=cumulative)


def bootstrap_oracle() -> BaselineOracle:
    """Baseline before any model is gated: greedy along the same order."""
    return BaselineOracle(GreedyPolicy())


def fast_forward(g: Graph, trace: BaselineTrace, start_t: int, cfg: Config) -> ColoringState:
    """Reconstruct the frozen policy's state after ``start_t`` moves."""
    if not 0 <= start_t <= g.n:
        raise ParameterError(f"start_t {start_t} outside [0, {g.n}]")
    state = ColoringState(g, compute_order(g, cfg.order_kind))
    for a in trace.actions[:start_t]:
        state.apply_inplace(int(a))
    return state


# -- window play --------------------------------------------------------


def abort_outcome(colors_now: int, t_now: int, t_end: int, baseline_end: int) -> Outcome | None:
    """Call a window early when its outcome is already certain.

    Colors are monotone non-decreasing and grow by at most one per move,
    so the final count lies in [colors_now, colors_now + moves left].
    Returns None while both win and non-win are still reachable.
    """
    if colors_now > baseline_end:
        return Outcome.LOSE
    if colors_now + (t_end - t_now) < baseline_end:
        return Outcome.WIN
    return None


@dataclass
class MoveRecord:
    """One training tuple; records of a segment share one action trace.

    ``trace[:t]`` replayed along the config order reconstructs the state
    the distribution ``pi`` was recorded at.
    """

    graph: Graph
    t: int
    pi: np.ndarray
    z: Outcome
    trace: np.ndarray


def reconstruct_state(rec: MoveRecord, cfg: Config) -> ColoringState:
    state = ColoringState(rec.graph, compute_order(rec.graph, cfg.order_kind))
    for a in rec.trace[: rec.t]:
        state.apply_inplace(int(a))
    return state


@dataclass(frozen=True)
class SegmentResult:
    """Episode-log entry for one played window."""

    graph_key: str
    start_t: int
    moves: int
    z: Outcome
    agent_colors: int
    baseline_colors: int
    aborted_at: int | None

    def to_json(self) -> str:
        return json.dumps(
            {
                "graph": self.graph_key,
                "start_t": self.start_t,
                "moves": self.moves,
                "z": self.z.name.lower(),
                "agent_colors": self.agent_colors,
                "baseline_colors": self.baseline_colors,
                "aborted_at": self.aborted_at,
            }
        )


def play_segment(
    g: Graph,
    start_t: int,
    cfg: Config,
    evaluator,
    baseline: BaselineOracle,
    seed: int,
    early_abort: bool | None = None,
) -> tuple[list[MoveRecord], SegmentResult]:
    """Play one limited run-ahead window starting at ``start_t``.

    Runs min(mcts_segment, window) search-guided moves with the tree
    reused across them, completes the rest of the window with the frozen
    fast policy, and scores the result against the baseline's color
    count at the same absolute move index. Every record of the segment
    carries that one outcome. Moves before ``sample_first_k`` (absolute
    episode index) are sampled from the visit distribution, later ones
    take its argmax.
    """
    if early_abort is None:
        early_abort = cfg.early_abort
    segment = _segment(g, start_t, cfg, evaluator, baseline, seed, early_abort)
    return _lockstep([(segment, evaluator)])[0]


def _segment(g: Graph, start_t: int, cfg: Config, evaluator, baseline: BaselineOracle,
             seed: int, early_abort: bool):
    """``play_segment`` as a generator: yields each leaf state the search
    needs scored, takes its evaluation (actions, priors, value) back, and
    returns (records, result)."""
    if not 0 <= start_t < g.n:
        raise ParameterError(f"start_t {start_t} outside [0, {g.n})")
    if cfg.simulations < 1:
        raise ParameterError("simulations must be >= 1")
    rng = make_rng(seed)
    btrace = baseline.trace(g, cfg)
    t_end = min(start_t + cfg.run_ahead, g.n)
    baseline_end = int(btrace.cumulative[t_end])

    state = fast_forward(g, btrace, start_t, cfg)
    tree = SearchTree(
        state,
        evaluator,
        t_end,
        btrace.cumulative,
        c=cfg.ucb_c,
        root_noise=cfg.root_noise,
        dirichlet_alpha=cfg.dirichlet_alpha,
        dirichlet_frac=cfg.dirichlet_frac,
        rng=rng,
    )

    taken: list[tuple[int, np.ndarray]] = []
    actions: list[int] = []
    verdict: Outcome | None = None
    aborted_at: int | None = None
    search_end = min(start_t + cfg.mcts_segment, t_end)

    while state.t < t_end:
        # Fast-forward replays the baseline itself, so at the first move the
        # window cannot be decided yet; checks start from the second.
        if early_abort and state.t > start_t:
            verdict = abort_outcome(state.colors_used, state.t, t_end, baseline_end)
            if verdict is not None:
                aborted_at = state.t
                break
        if state.t >= search_end:
            tree = None  # free the search tree while the fast policy completes the window
            state.apply_inplace(baseline.policy.choose(state))
            continue
        for _ in range(cfg.simulations):
            leaf = tree.descend()
            tree.expand(None if leaf is None else (yield leaf))
        pi = tree.root_pi(1.0)
        if state.t < cfg.sample_first_k:
            choice = int(rng.choice(pi.size, p=pi))
        else:
            choice = int(np.argmax(pi))
        action = tree.root.actions[choice]
        taken.append((state.t, pi))
        actions.append(action)
        tree.advance_root(action)
    if verdict is None:
        verdict = outcome_vs_baseline(state.colors_used, baseline_end)

    trace_arr = np.empty(start_t + len(actions), dtype=np.int64)
    trace_arr[:start_t] = btrace.actions[:start_t]
    trace_arr[start_t:] = actions
    records = [MoveRecord(graph=g, t=t, pi=pi, z=verdict, trace=trace_arr) for t, pi in taken]
    result = SegmentResult(
        graph_key=g.key(),
        start_t=start_t,
        moves=len(records),
        z=verdict,
        agent_colors=state.colors_used,
        baseline_colors=baseline_end,
        aborted_at=aborted_at,
    )
    return records, result


def _lockstep(segments: list[tuple[Generator, object]]) -> list:
    """Run segment generators, each paired with its evaluator, together.

    Every round collects the pending leaf of each live segment and scores
    them all at once (``evaluate_batch``), so leaves that share a frozen
    snapshot go through one batched forward. A segment's own moves and
    random draws do not depend on the others. Returns what the segments
    return, in their order.
    """
    results: list = [None] * len(segments)
    pending: dict[int, ColoringState] = {}

    def resume(j: int, evaluation) -> None:
        try:
            pending[j] = segments[j][0].send(evaluation)
        except StopIteration as done:
            pending.pop(j, None)
            results[j] = done.value

    for j in range(len(segments)):
        resume(j, None)
    while pending:
        live = list(pending)
        scored = evaluate_batch([segments[j][1] for j in live], [pending[j] for j in live])
        for j, evaluation in zip(live, scored):
            resume(j, evaluation)
    return results


def sample_positions(graphs: Sequence[Graph], cfg: Config, seed: int) -> list[tuple[int, int]]:
    """Draw window starts uniformly over the union of all move indices.

    Returns (graph index, start move) pairs, without replacement,
    floor(rate * total moves) of them, sorted so work on one graph is
    contiguous.
    """
    if not graphs:
        raise ParameterError("empty training set")
    sizes = np.array([g.n for g in graphs], dtype=np.int64)
    total = int(sizes.sum())
    count = int(np.floor(cfg.move_sample_rate * total))
    if count == 0:
        return []
    rng = make_rng(seed)
    flat = rng.choice(total, size=count, replace=False)
    bounds = np.cumsum(sizes)
    starts = bounds - sizes
    out: list[tuple[int, int]] = []
    for f in sorted(flat.tolist()):
        gi = int(np.searchsorted(bounds, f, side="right"))
        out.append((gi, int(f - starts[gi])))
    return out


# -- replay buffer ------------------------------------------------------


class ReplayBuffer:
    """Bounded FIFO of records: appending beyond ``capacity`` drops the
    oldest."""

    def __init__(self, capacity: int = 2**20) -> None:
        if capacity < 1:
            raise ParameterError("capacity must be >= 1")
        self.capacity = capacity
        self.embeddings = EmbeddingCache()
        self._records: deque[MoveRecord] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._records)

    def append(self, records: Iterable[MoveRecord]) -> None:
        """Add records oldest-first."""
        self._records.extend(records)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[MoveRecord]:
        """Uniform with replacement."""
        if batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if not self._records:
            raise StateError("cannot sample from an empty buffer")
        idx = rng.integers(0, len(self._records), size=batch_size)
        return [self._records[int(i)] for i in idx]

    def table_for(self, rec: MoveRecord, store, cfg: Config, version: int) -> EmbeddingTable:
        """Embedding table for a sampled record, materialized lazily."""
        return self.embeddings.table(rec.graph, store, cfg, version)


# -- driver -------------------------------------------------------------


def run_selfplay(
    graphs: Sequence[Graph],
    cfg: Config,
    make_evaluator: Callable[[Graph], object],
    baseline: BaselineOracle,
    buffer: ReplayBuffer,
    seed: int,
    log_path: str | None = None,
) -> list[SegmentResult]:
    """One pass: sample window starts, play them, fill the buffer.

    Up to ``LOCKSTEP_SEGMENTS`` segments are played in lockstep, their
    leaves scored together. Per-segment seeds are derived from (seed,
    position index), so the pass plays exactly what ``play_segment`` would
    play position by position; records, results and log lines come out
    in position order.
    """
    positions = sample_positions(graphs, cfg, seed)
    results: list[SegmentResult] = []
    tables: dict[int, tuple[EmbeddingTable, int]] = {}
    fh = open(log_path, "a", encoding="utf-8") if log_path else None
    try:
        for lo in range(0, len(positions), LOCKSTEP_SEGMENTS):
            segments = []
            for j in range(lo, min(lo + LOCKSTEP_SEGMENTS, len(positions))):
                gi, start_t = positions[j]
                g = graphs[gi]
                evaluator = make_evaluator(g)
                table = getattr(evaluator, "table", None)
                if table is not None:
                    tables.setdefault(id(table), (table, table.capped_moves))
                segment = _segment(g, start_t, cfg, evaluator, baseline,
                                   int(mix64(seed, j)), cfg.early_abort)
                segments.append((segment, evaluator))
            for records, info in _lockstep(segments):
                buffer.append(records)
                results.append(info)
                if fh is not None:
                    fh.write(info.to_json() + "\n")
    finally:
        if fh is not None:
            fh.close()
    capped = sum(table.capped_moves - before for table, before in tables.values())
    if capped:
        logger.warning("candidate cap %d hit on %d moves during this pass",
                       cfg.candidate_cap, capped)
    return results
