"""Policy iteration, candidate gating, and the evaluation harness.

One iteration is: self-play against the frozen best baseline, a fixed
number of gradient steps from the replay buffer, then a gate that
promotes the candidate when its greedy-decoded average color count on
the eval set does not exceed the incumbent's. The gated metric is
monotone non-increasing by construction.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .checkpoint import Checkpoint, save_checkpoint
from .coloring import (
    ColoringState,
    HEURISTIC_KINDS,
    Outcome,
    check_proper,
    compute_order,
    greedy_color,
    outcome_vs_baseline,
)
from .config import Config, expand_sources
from .errors import ParameterError, StateError
from .fastcolornet import (
    InferenceNet,
    TrainMove,
    build_contexts,
    fcn_train_step,
    freeze,
    init_fastcolornet,
)
from .graph import Graph, GraphSource
from .mcts import NetEvaluator, SearchTree, search
from .nn import AdamState, ParamStore
from .rng import make_rng, mix64
from .selfplay import (
    BaselineOracle,
    EmbeddingCache,
    GreedyPolicy,
    NetPolicy,
    ReplayBuffer,
    bootstrap_oracle,
    reconstruct_state,
    run_selfplay,
)

METRICS_HEADER = "iteration,loss,eval_avg_colors,win_rate,wall_clock"


def load_sources(spec: str) -> list[Graph]:
    """Materialize a ';'-separated generator spec into graphs."""
    graphs: list[Graph] = []
    for item in expand_sources(spec):
        src = GraphSource.parse(item)
        graphs.append(src.build())
    if not graphs:
        raise ParameterError(f"source spec {spec!r} yields no graphs")
    return graphs


# -- models and decoding ------------------------------------------------


@dataclass
class Model:
    """Parameter snapshot plus the embedding tables and the frozen
    inference snapshot computed under it.

    ``version`` keys both caches; it must change whenever ``store``'s
    parameters do, or stale tables and snapshots would be served. Models
    of one training run share ``cache``, so equal versions share tables.
    """

    store: ParamStore
    version: int = 0
    cache: EmbeddingCache = field(default_factory=EmbeddingCache)
    _net: tuple[int, InferenceNet] | None = field(default=None, init=False, repr=False,
                                                  compare=False)

    def net(self, cfg: Config) -> InferenceNet:
        """The inference snapshot of the current version, built once."""
        if self._net is None or self._net[0] != self.version:
            self._net = (self.version, freeze(self.store, cfg))
        return self._net[1]

    def policy(self, cfg: Config) -> NetPolicy:
        return NetPolicy(self.store, cfg, self.cache, self.version, self.net(cfg))

    def evaluator(self, g: Graph, cfg: Config) -> NetEvaluator:
        table = self.cache.table(g, self.store, cfg, self.version)
        return NetEvaluator(self.store, cfg, table, self.net(cfg))


def policy_colors(g: Graph, policy, cfg: Config) -> int:
    """Greedy-decode a full episode and verify the coloring."""
    state = ColoringState(g, compute_order(g, cfg.order_kind))
    while not state.is_terminal:
        state.apply_inplace(policy.choose(state))
    check_proper(g, state.color_of)
    return state.colors_used


def mcts_color(g: Graph, cfg: Config, model: Model, simulations: int | None = None) -> int:
    """Color one graph with search at every move, scored against the
    model's own greedy trace, max decoding throughout."""
    sims = cfg.simulations if simulations is None else simulations
    trace = BaselineOracle(model.policy(cfg)).trace(g, cfg)
    state = ColoringState(g, compute_order(g, cfg.order_kind))
    tree = SearchTree(state, model.evaluator(g, cfg), g.n, trace.cumulative, c=cfg.ucb_c)
    while state.t < g.n:
        pi = search(tree, sims, tau=0.0)
        tree.advance_root(tree.root.actions[int(np.argmax(pi))])
    check_proper(g, state.color_of)
    return state.colors_used


# -- gating -------------------------------------------------------------


@dataclass(frozen=True)
class GateResult:
    accepted: bool
    candidate_avg: float
    incumbent_avg: float


def gate_model(candidate_policy, incumbent_avg: float, graphs: Sequence[Graph],
               cfg: Config) -> GateResult:
    """Greedy-decode the candidate on the shared eval set and compare its
    average with the incumbent's (decoding is deterministic, so the
    incumbent's average is computed once, when it is promoted); ties
    promote the candidate."""
    if not graphs:
        raise ParameterError("gate needs a non-empty eval set")
    cand = float(np.mean([policy_colors(g, candidate_policy, cfg) for g in graphs]))
    return GateResult(accepted=cand <= incumbent_avg, candidate_avg=cand,
                      incumbent_avg=incumbent_avg)


# -- evaluation harness -------------------------------------------------


@dataclass
class EvalReport:
    """Colors per graph and method, with properness already verified."""

    methods: list[str]
    graph_keys: list[str]
    sizes: list[int]
    colors: dict[str, list[int]]
    averages: dict[str, float]
    tallies: dict[str, tuple[int, int, int]]
    wall_clock: dict[str, float]

    def to_csv(self) -> str:
        """Timing-free, so identical seeds give identical bytes."""
        lines = ["graph,n," + ",".join(self.methods)]
        for i, key in enumerate(self.graph_keys):
            cells = [key, str(self.sizes[i])]
            cells += [str(self.colors[m][i]) for m in self.methods]
            lines.append(",".join(cells))
        if self.graph_keys:
            cells = ["average", ""]
            cells += [f"{self.averages[m]:.6f}" for m in self.methods]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def evaluate(graphs: Sequence[Graph], cfg: Config, model: Model | None = None,
             mode: str = "greedy", heuristics: Sequence[str] = HEURISTIC_KINDS,
             simulations: int | None = None) -> EvalReport:
    """Color every graph with every method; tally against the best
    heuristic count per graph. ``mode`` selects how the model decodes."""
    if mode not in ("greedy", "mcts"):
        raise ParameterError(f"unknown eval mode {mode!r}")
    methods = list(heuristics) + (["model"] if model is not None else [])
    colors: dict[str, list[int]] = {m: [] for m in methods}
    wall = {m: 0.0 for m in methods}
    for g in graphs:
        for kind in heuristics:
            t0 = time.perf_counter()
            col = greedy_color(g, kind)
            wall[kind] += time.perf_counter() - t0
            check_proper(g, col.assignment)
            colors[kind].append(col.colors_used)
        if model is not None:
            t0 = time.perf_counter()
            if mode == "greedy":
                got = policy_colors(g, model.policy(cfg), cfg)
            else:
                got = mcts_color(g, cfg, model, simulations)
            wall["model"] += time.perf_counter() - t0
            colors["model"].append(got)
    averages = {m: float(np.mean(colors[m])) if graphs else 0.0 for m in methods}
    tallies: dict[str, tuple[int, int, int]] = {}
    for m in methods:
        won = tied = lost = 0
        for i in range(len(graphs)):
            best = min(colors[h][i] for h in heuristics) if heuristics else colors[m][i]
            z = outcome_vs_baseline(colors[m][i], best)
            won += z is Outcome.WIN
            tied += z is Outcome.TIE
            lost += z is Outcome.LOSE
        tallies[m] = (won, tied, lost)
    return EvalReport(methods=methods, graph_keys=[g.key() for g in graphs],
                      sizes=[g.n for g in graphs], colors=colors,
                      averages=averages, tallies=tallies, wall_clock=wall)


# -- policy iteration ---------------------------------------------------


@dataclass(frozen=True)
class IterationMetrics:
    iteration: int
    loss: float
    eval_avg_colors: float
    win_rate: float
    wall_clock: float

    def csv_row(self) -> str:
        return (f"{self.iteration},{self.loss:.6f},{self.eval_avg_colors:.6f},"
                f"{self.win_rate:.6f},{self.wall_clock:.3f}")


@dataclass
class TrainResult:
    metrics: list[IterationMetrics]
    best: Model | None
    incumbent_avg: float
    gate_history: list[tuple[int, bool, float, float]]
    checkpoint_path: str | None


def write_metrics_csv(path: str, rows: Sequence[IterationMetrics]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(METRICS_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")


def _history_array(history) -> np.ndarray:
    rows = [(it, float(acc), ca, ia) for it, acc, ca, ia in history]
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), 4)


def _non_finite(loss: float, store: ParamStore) -> str | None:
    """What a training step left non-finite: the loss, else the first
    bad parameter; None when all is finite."""
    if not np.isfinite(loss):
        return f"non-finite loss {loss!r}"
    return next((f"non-finite parameter {name!r}" for name, a in store.items()
                 if not np.isfinite(a).all()), None)


def policy_iteration(cfg: Config, out_dir: str | None = None) -> TrainResult:
    """Run self-play / train / gate loops and write run artifacts.

    Artifacts under the output directory: metrics.csv, episodes.jsonl,
    best.ckpt (latest gated model, absent until one gates), last.ckpt.
    A non-finite loss or parameter after a training step aborts with the
    offending state dumped. A rerun into the same directory replaces an
    earlier run's artifacts: the episode log starts empty, and a stale
    best.ckpt or nan_dump.ckpt is removed.
    """
    out = out_dir if out_dir is not None else cfg.out_dir
    train_graphs = load_sources(cfg.train_sources)
    eval_graphs = load_sources(cfg.eval_sources) if cfg.eval_sources else train_graphs
    os.makedirs(out, exist_ok=True)
    episode_log = os.path.join(out, "episodes.jsonl")
    open(episode_log, "w").close()
    for stale in ("best.ckpt", "nan_dump.ckpt"):
        path = os.path.join(out, stale)
        if os.path.exists(path):
            os.remove(path)

    buffer = ReplayBuffer(cfg.buffer_capacity)
    candidate = Model(init_fastcolornet(cfg), version=0, cache=buffer.embeddings)
    adam = AdamState.for_store(candidate.store, lr=cfg.lr)
    baseline = bootstrap_oracle()
    incumbent = Model(candidate.store.copy(), version=0, cache=buffer.embeddings)
    incumbent_avg = float(np.mean(
        [policy_colors(g, GreedyPolicy(), cfg) for g in eval_graphs]))

    metrics = [IterationMetrics(0, 0.0, incumbent_avg, 0.0, 0.0)]
    gate_history: list[tuple[int, bool, float, float]] = []
    ckpt_path = os.path.join(out, "best.ckpt")
    saved_best = False
    train_rng = make_rng(int(mix64(cfg.seed, 1)))

    for it in range(1, cfg.train_iterations + 1):
        t0 = time.perf_counter()

        results = run_selfplay(train_graphs, cfg, lambda g: candidate.evaluator(g, cfg), baseline,
                               buffer, seed=int(mix64(cfg.seed, 2, it)),
                               log_path=episode_log)
        win_rate = (float(np.mean([r.z is Outcome.WIN for r in results]))
                    if results else 0.0)

        losses = []
        for _ in range(cfg.steps_per_iteration):
            if not len(buffer):
                break
            recs = buffer.sample(cfg.batch_size, train_rng)
            batch = [
                TrainMove(
                    move=build_contexts(
                        reconstruct_state(r, cfg),
                        buffer.table_for(r, incumbent.store, cfg, incumbent.version),
                        cfg,
                    ),
                    pi=r.pi,
                    z=r.z,
                )
                for r in recs
            ]
            loss, _ = fcn_train_step(batch, candidate.store, cfg, adam, train_rng)
            bad = _non_finite(loss, candidate.store)
            if bad:
                dump = os.path.join(out, "nan_dump.ckpt")
                save_checkpoint(dump, Checkpoint(
                    params=candidate.store, adam=adam, config_hash=cfg.hash(),
                    iteration=it, gate_history=_history_array(gate_history)))
                raise StateError(f"{bad} at iteration {it}; state dumped to {dump}")
            losses.append(loss)
        mean_loss = float(np.mean(losses)) if losses else 0.0

        if candidate.version != incumbent.version:
            buffer.embeddings.drop(candidate.version)
        candidate.version += 1
        gate = gate_model(candidate.policy(cfg), incumbent_avg, eval_graphs, cfg)
        gate_history.append((it, gate.accepted, gate.candidate_avg, gate.incumbent_avg))
        if gate.accepted:
            incumbent = Model(candidate.store.copy(), version=candidate.version,
                              cache=buffer.embeddings)
            baseline = BaselineOracle(incumbent.policy(cfg))
            incumbent_avg = gate.candidate_avg
            buffer.embeddings.drop_below(incumbent.version)
            save_checkpoint(ckpt_path, Checkpoint(
                params=incumbent.store, adam=adam, config_hash=cfg.hash(),
                iteration=it, gate_history=_history_array(gate_history)))
            saved_best = True

        metrics.append(IterationMetrics(it, mean_loss, incumbent_avg, win_rate,
                                        time.perf_counter() - t0))
        if cfg.target_avg_colors > 0 and incumbent_avg <= cfg.target_avg_colors:
            break

    write_metrics_csv(os.path.join(out, "metrics.csv"), metrics)
    save_checkpoint(os.path.join(out, "last.ckpt"), Checkpoint(
        params=candidate.store, adam=adam, config_hash=cfg.hash(),
        iteration=len(metrics) - 1, gate_history=_history_array(gate_history)))
    return TrainResult(metrics=metrics, best=incumbent if saved_best else None,
                       incumbent_avg=incumbent_avg,
                       gate_history=gate_history,
                       checkpoint_path=ckpt_path if saved_best else None)
