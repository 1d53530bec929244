"""Command-line surface: generate, color, estimate, train, eval, plot.

Every subcommand exits 0 on success and 1 with an ``error:`` line on
stderr for domain failures (bad files, bad parameters, broken
invariants). Unknown flags exit 2 with usage, per argparse convention.
The FASTCOLOR_OUT_DIR environment variable overrides any output
directory argument.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

from .checkpoint import load_checkpoint
from .coloring import HEURISTIC_KINDS, estimate_mdp_size, greedy_color
from .config import Config
from .errors import FastcolorError
from .fastcolornet import init_fastcolornet
from .graph import load_graph, save_edge_list
from .pipeline import (
    Model,
    evaluate,
    load_sources,
    mcts_color,
    policy_colors,
    policy_iteration,
)
from .selfplay import BaselineOracle, ReplayBuffer, bootstrap_oracle, run_selfplay

ENV_OUT_DIR = "FASTCOLOR_OUT_DIR"
# The thread-count variables OpenBLAS reads when it loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _one_blas_thread() -> None:
    """Run NumPy's bundled OpenBLAS on one thread, unless the environment
    names a count. Decode and search make many small matrix products, on
    which BLAS threads spend their time waiting on each other. NumPy is
    imported before ``main`` runs, so the count is set through the library;
    a NumPy without the scipy-openblas symbol is left as it is."""
    if any(os.environ.get(var) for var in BLAS_THREAD_VARS):
        return
    try:
        from numpy._core import _multiarray_umath  # linked against the BLAS

        set_threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    set_threads(1)


def _resolve_out(flag_value: str | None, default: str) -> str:
    env = os.environ.get(ENV_OUT_DIR)
    if env:
        return env
    if flag_value is not None:
        return flag_value
    return default


def _load_model(ckpt_path: str, cfg: Config) -> Model:
    ck = load_checkpoint(ckpt_path)
    if ck.config_hash != cfg.hash():
        raise FastcolorError(
            f"checkpoint was trained under config hash {ck.config_hash}, "
            f"this config hashes to {cfg.hash()}")
    want = {name: arr.shape for name, arr in init_fastcolornet(cfg).items()}
    got = {name: arr.shape for name, arr in ck.params.items()}
    bad = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
    if bad:
        raise FastcolorError(f"checkpoint parameters do not fit this config's network: {bad[:3]}")
    return Model(ck.params, version=ck.iteration)


def _source_filename(spec: str) -> str:
    return spec.replace(":", "_").replace(",", "-").replace("=", "") + ".el"


def cmd_gen(args) -> int:
    from .config import expand_sources
    from .graph import GraphSource

    out = _resolve_out(args.out, ".")
    os.makedirs(out, exist_ok=True)
    for spec in expand_sources(args.sources):
        g = GraphSource.parse(spec).build()
        path = os.path.join(out, _source_filename(spec))
        save_edge_list(g, path)
        print(path)
    return 0


def cmd_color(args) -> int:
    g = load_graph(args.graph)
    if args.model:
        cfg = Config.load(args.config)
        model = _load_model(args.model, cfg)
        if args.mode == "mcts":
            colors = mcts_color(g, cfg, model, args.simulations)
        else:
            colors = policy_colors(g, model.policy(cfg), cfg)
    else:
        coloring = greedy_color(g, args.heuristic)
        colors = coloring.colors_used
    print(f"colors: {colors}")
    return 0


def cmd_estimate_mdp(args) -> int:
    g = load_graph(args.graph)
    value = estimate_mdp_size(g, args.order)
    print(f"log10 mdp size: {value:.3f}")
    return 0


def cmd_selfplay(args) -> int:
    cfg = Config.load(args.config)
    out = _resolve_out(args.out, cfg.out_dir)
    os.makedirs(out, exist_ok=True)
    graphs = load_sources(cfg.train_sources)
    if args.model:
        model = _load_model(args.model, cfg)
        baseline = BaselineOracle(model.policy(cfg))
        candidate = model
    else:
        baseline = bootstrap_oracle()
        candidate = Model(init_fastcolornet(cfg))

    buffer = ReplayBuffer(cfg.buffer_capacity)
    log_path = os.path.join(out, "episodes.jsonl")
    results = run_selfplay(graphs, cfg, lambda g: candidate.evaluator(g, cfg), baseline,
                           buffer, seed=cfg.seed, log_path=log_path)
    print(f"segments: {len(results)}")
    print(f"records: {len(buffer)}")
    print(log_path)
    return 0


def cmd_train(args) -> int:
    cfg = Config.load(args.config)
    out = _resolve_out(args.out, cfg.out_dir)
    result = policy_iteration(cfg, out_dir=out)
    last = result.metrics[-1]
    print(f"iterations: {last.iteration}")
    print(f"eval avg colors: {last.eval_avg_colors:.6f}")
    print(f"gated checkpoints: {sum(1 for _, acc, _, _ in result.gate_history if acc)}")
    print(os.path.join(out, "metrics.csv"))
    return 0


def cmd_eval(args) -> int:
    cfg = Config.load(args.config)
    spec = args.sources or cfg.eval_sources or cfg.train_sources
    graphs = load_sources(spec)
    model = _load_model(args.model, cfg) if args.model else None
    report = evaluate(graphs, cfg, model=model, mode=args.mode,
                      simulations=args.simulations)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    for method in report.methods:
        avg = report.averages[method]
        won, tied, lost = report.tallies[method]
        wall = report.wall_clock[method]
        print(f"{method}: avg {avg:.4f} w/t/l {won}/{tied}/{lost} wall {wall:.3f}s")
    return 0


def cmd_plot(args) -> int:
    from .plotting import plot_csv

    ys = [y for y in args.y.split(",") if y]
    plot_csv(args.csv, args.x, ys, args.out, title=args.title)
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastcolor",
        description="graph coloring with learned and greedy policies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write graphs from a generator spec")
    p.add_argument("--sources", required=True,
                   help="e.g. 'er:32,0.5:seed=0..9;ws:128,4,0.5:seed=0'")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("color", help="color one graph and print the count")
    p.add_argument("--graph", required=True)
    p.add_argument("--heuristic", choices=HEURISTIC_KINDS, default="unordered")
    p.add_argument("--model", default=None, help="checkpoint path")
    p.add_argument("--config", default=None, help="config file (with --model)")
    p.add_argument("--mode", choices=("greedy", "mcts"), default="greedy")
    p.add_argument("--simulations", type=int, default=None)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("estimate-mdp", help="log10 size of the decision space")
    p.add_argument("--graph", required=True)
    p.add_argument("--order", choices=HEURISTIC_KINDS, default="unordered")
    p.set_defaults(func=cmd_estimate_mdp)

    p = sub.add_parser("selfplay", help="one self-play pass into a buffer")
    p.add_argument("--config", required=True)
    p.add_argument("--model", default=None, help="checkpoint path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_selfplay)

    p = sub.add_parser("train", help="run policy iteration")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="compare heuristics and a model")
    p.add_argument("--config", required=True)
    p.add_argument("--sources", default=None, help="override eval sources")
    p.add_argument("--model", default=None)
    p.add_argument("--mode", choices=("greedy", "mcts"), default="greedy")
    p.add_argument("--simulations", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="CSV columns to an SVG line chart")
    p.add_argument("--csv", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True, help="comma-separated column names")
    p.add_argument("--out", required=True)
    p.add_argument("--title", default="")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "model", None) and getattr(args, "config", "") is None:
        parser.error("--model requires --config")
    simulations = getattr(args, "simulations", None)
    if (getattr(args, "mode", None) == "mcts" or simulations is not None) and not args.model:
        parser.error("--mode mcts and --simulations require --model")
    if simulations is not None and simulations < 1:
        parser.error("--simulations must be >= 1")
    _one_blas_thread()
    try:
        return args.func(args)
    except (FastcolorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
