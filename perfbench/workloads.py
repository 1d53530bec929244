"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup``,
which may run again between operations and starts the inputs afresh.
``op`` runs one operation, returns the seconds of the work it times and
records any failed correctness check in ``failures``. ``report`` gives
the workload's own user-facing figures, by name, over all operations.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import time

import numpy as np

from fastcolor.checkpoint import load_checkpoint
from fastcolor.coloring import Outcome, check_proper, greedy_color
from fastcolor.config import Config
from fastcolor.fastcolornet import TrainMove, build_contexts, fcn_train_step, init_fastcolornet
from fastcolor.nn import AdamState
from fastcolor.pipeline import Model, load_sources, policy_colors, policy_iteration
from fastcolor.rng import make_rng, mix64
from fastcolor.selfplay import (
    MoveRecord,
    ReplayBuffer,
    bootstrap_oracle,
    fast_forward,
    reconstruct_state,
)


def quickstart_config(**overrides) -> Config:
    """The README quick-start recipe."""
    base = dict(
        train_sources="er:32,0.5:seed=0..9", order_kind="dynamic",
        feature_bins=16, embed_dim=16, embed_hidden=16, embed_iterations=3,
        lstm_steps=2, window=8, color_set_size=4, v_width=64, v_layers=2,
        p_width=64, p_layers=2, seq_channels=16, seq_layers=2, seq_filter=3,
        sample_first_k=0, move_sample_rate=0.05, run_ahead=12, mcts_segment=6,
        simulations=256, steps_per_iteration=8, batch_size=16, lr=2e-4,
        walk_rate=0.0, walk_budget=32, train_iterations=30, seed=1,
    )
    base.update(overrides)
    return Config(**base)


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.failures: list[str] = []
        self.cfg = Config()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> float:
        raise NotImplementedError

    def report(self) -> list[tuple[str, float, str]]:
        raise NotImplementedError


class IterateQuickstart(Workload):
    """One policy_iteration call on the quick-start recipe, fresh model.

    The seed picks the ten er:32,0.5 graphs (seeds 10*seed .. 10*seed+9;
    seed 0 is the README's own set). The recipe's own ``seed = 1`` stays:
    it drives self-play sampling and training, and is configuration, not
    input.
    """

    name = "iterate-quickstart"

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        self.times: list[float] = []
        self.moves = 0
        self.candidate_avg = math.nan

    def setup(self) -> None:
        lo = 10 * self.seed
        self.cfg = quickstart_config(train_sources=f"er:32,0.5:seed={lo}..{lo + 9}",
                                     train_iterations=1)
        graphs = load_sources(self.cfg.train_sources)
        counts = []
        for g in graphs:
            col = greedy_color(g, self.cfg.order_kind)
            check_proper(g, col.assignment)
            counts.append(col.colors_used)
        self.greedy_avg = float(np.mean(counts))

    def op(self) -> float:
        run_dir = os.path.join(self.out_dir, f"{self.name}-{os.getpid()}-{len(self.times)}")
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            t0 = time.perf_counter()
            result = policy_iteration(self.cfg, out_dir=run_dir)
            dt = time.perf_counter() - t0
            self._check_run(result, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        self.times.append(dt)
        return dt

    def _check_run(self, result, run_dir: str) -> None:
        for artifact in ("metrics.csv", "episodes.jsonl", "last.ckpt"):
            self.check(os.path.isfile(os.path.join(run_dir, artifact)),
                       f"{artifact} missing after policy_iteration")
        self.check(result.metrics[0].eval_avg_colors == self.greedy_avg,
                   f"initial incumbent {result.metrics[0].eval_avg_colors} != greedy "
                   f"average {self.greedy_avg}")
        self.check(result.incumbent_avg <= self.greedy_avg,
                   f"gated average {result.incumbent_avg} exceeds initial incumbent "
                   f"{self.greedy_avg}")
        self.check(len(result.gate_history) == 1, "expected exactly one gate verdict")
        _, accepted, cand, inc = result.gate_history[0]
        self.check(accepted == (cand <= inc), "gate verdict contradicts its averages")
        self.check(accepted == os.path.isfile(os.path.join(run_dir, "best.ckpt")),
                   "best.ckpt presence does not match the gate verdict")
        self.check(load_checkpoint(os.path.join(run_dir, "last.ckpt")).iteration == 1,
                   "last.ckpt does not record iteration 1")
        episodes = os.path.join(run_dir, "episodes.jsonl")
        if os.path.isfile(episodes):
            with open(episodes, encoding="utf-8") as fh:
                self.moves = sum(json.loads(line)["moves"] for line in fh)
            self.check(self.moves > 0, "self-play recorded no MCTS moves")
        self.candidate_avg = cand

    def report(self):
        return [
            ("iteration_s", statistics.median(self.times), "s"),
            ("candidate_avg_colors", self.candidate_avg, "colors"),
            ("initial_incumbent_avg_colors", self.greedy_avg, "colors"),
            ("mcts_moves", float(self.moves), "count"),
        ]


class _TimedPolicy:
    """Wraps a policy and records the latency of every ``choose``."""

    def __init__(self, policy, sink: list[float]) -> None:
        self.policy = policy
        self.sink = sink

    def choose(self, state) -> int:
        t0 = time.perf_counter()
        action = self.policy.choose(state)
        self.sink.append(time.perf_counter() - t0)
        return action


class DecodeDefaults(Workload):
    """Color ws:2048,4,0.5 with a fresh default-width model, then with
    the greedy heuristic under the same order_kind.

    One operation is what ``fastcolor color --model`` does: compute the
    graph's embeddings (empty cache) and greedy-decode with the policy.
    The heuristic is then repeated for at least ``HEURISTIC_SECONDS``.
    """

    name = "decode-defaults"
    HEURISTIC_SECONDS = 0.5

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        self.embed: list[float] = []
        self.decode: list[float] = []
        self.heuristic: list[float] = []
        self.moves: list[float] = []
        self.colors = 0

    def setup(self) -> None:
        self.cfg = Config()
        self.graph = load_sources(f"ws:2048,4,0.5:seed={self.seed}")[0]
        self.store = init_fastcolornet(self.cfg)

    def op(self) -> float:
        g, cfg = self.graph, self.cfg
        model = Model(self.store, version=0)
        t0 = time.perf_counter()
        model.cache.table(g, self.store, cfg, model.version)
        t1 = time.perf_counter()
        colors = policy_colors(g, _TimedPolicy(model.policy(cfg), self.moves), cfg)
        t2 = time.perf_counter()
        self.embed.append(t1 - t0)
        self.decode.append(t2 - t1)

        start = time.perf_counter()
        while True:
            h0 = time.perf_counter()
            col = greedy_color(g, cfg.order_kind)
            h1 = time.perf_counter()
            self.heuristic.append(h1 - h0)
            if h1 - start >= self.HEURISTIC_SECONDS:
                break
        check_proper(g, col.assignment)
        self.check(colors == col.colors_used,
                   f"fresh model used {colors} colors, greedy {cfg.order_kind} "
                   f"used {col.colors_used}")
        self.colors = colors
        return t2 - t0

    def report(self):
        n = self.graph.n
        decode = statistics.median(self.decode)
        heuristic = statistics.median(self.heuristic)
        moves_ms = [m * 1e3 for m in self.moves]
        return [
            ("decode_vps", n / decode, "vertices/s"),
            ("decode_move_ms.p50", _percentile(moves_ms, 50), "ms"),
            ("decode_move_ms.p99", _percentile(moves_ms, 99), "ms"),
            ("decode_move_samples", float(len(moves_ms)), "count"),
            ("heuristic_vps", n / heuristic, "vertices/s"),
            ("heuristic_samples", float(len(self.heuristic)), "count"),
            ("decode_gap", decode / heuristic, "ratio"),
            ("embed_vps", n / statistics.median(self.embed), "vertices/s"),
            ("colors", float(self.colors), "colors"),
        ]


class TrainDefaults(Workload):
    """Training steps at ``Config()`` widths, as policy_iteration takes
    them: sample a batch from the replay buffer, rebuild each record's
    state and contexts, then one ``fcn_train_step``.

    The buffer holds ``RECORDS_PER_GRAPH`` records from the greedy trace
    of each of four er:40,0.3 and four ws:64,4,0.3 graphs, at random
    move indices, with random ``pi`` over the valid actions and random
    ``z``. Embedding tables come from the initial parameters, as the
    pipeline takes them from the frozen incumbent.
    """

    name = "train-defaults"
    RECORDS_PER_GRAPH = 8

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        self.steps: list[float] = []
        self.losses: list[float] = []
        self.walks = 0
        # batch sampling and walks draw from one stream for the whole run,
        # so repeated set-ups do not replay the same batches
        self.rng = make_rng(int(mix64(seed, 1)))

    def setup(self) -> None:
        cfg = self.cfg = Config()
        lo = 4 * self.seed
        graphs = load_sources(f"er:40,0.3:seed={lo}..{lo + 3};"
                              f"ws:64,4,0.3:seed={lo}..{lo + 3}")
        rng = make_rng(int(mix64(self.seed, 3)))
        oracle = bootstrap_oracle()
        records = []
        for g in graphs:
            trace = oracle.trace(g, cfg)
            final = fast_forward(g, trace, g.n, cfg)
            check_proper(g, final.color_of)
            for t in sorted(rng.choice(g.n, size=self.RECORDS_PER_GRAPH, replace=False)):
                k = fast_forward(g, trace, int(t), cfg).valid_actions().size
                records.append(MoveRecord(graph=g, t=int(t), pi=rng.dirichlet(np.ones(k)),
                                          z=Outcome(int(rng.integers(-1, 2))),
                                          trace=trace.actions))
        self.buffer = ReplayBuffer()
        self.buffer.append(records)
        self.store = init_fastcolornet(cfg)
        self.frozen = self.store.copy()
        for rec in records:
            self.buffer.table_for(rec, self.frozen, cfg, 0)
        self.adam = AdamState.for_store(self.store, lr=cfg.lr)

    def op(self) -> float:
        cfg, buffer = self.cfg, self.buffer
        t0 = time.perf_counter()
        recs = buffer.sample(cfg.batch_size, self.rng)
        batch = [TrainMove(move=build_contexts(reconstruct_state(r, cfg),
                                               buffer.table_for(r, self.frozen, cfg, 0), cfg),
                           pi=r.pi, z=r.z)
                 for r in recs]
        loss, stats = fcn_train_step(batch, self.store, cfg, self.adam, self.rng)
        dt = time.perf_counter() - t0
        self.check(bool(np.isfinite(loss)), f"non-finite loss {loss!r} at step {len(self.steps)}")
        self.steps.append(dt)
        self.losses.append(float(loss))
        self.walks += stats["walks"]
        return dt

    def report(self):
        return [
            ("train_steps_per_s", 1.0 / statistics.median(self.steps), "steps/s"),
            ("train_steps", float(len(self.steps)), "count"),
            ("walks_per_step", self.walks / max(len(self.steps), 1), "count"),
            ("last_loss", self.losses[-1] if self.losses else math.nan, "nats"),
        ]


WORKLOADS = {w.name: w for w in (IterateQuickstart, DecodeDefaults, TrainDefaults)}
