"""Flat key-value run configuration.

One dataclass carries every knob in the system: dataset recipes, network
architecture, search, self-play, and trainer settings. The on-disk form
is versioned ``key = value`` text that round-trips losslessly. The hash
of the fields that fix what the parameters mean is stamped into
checkpoints, so a model loads under any configuration that reads its
parameters the same way.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

from .coloring import HEURISTIC_KINDS
from .errors import ParameterError
from .rng import GENERATOR_NAME

CONFIG_VERSION = 1

__all__ = ["Config", "CONFIG_VERSION", "HASHED_FIELDS", "expand_sources"]

# What init_fastcolornet, compute_embeddings (with the embed_seed it is
# handed) and build_contexts read, and the generator: the fields that fix
# what a checkpoint's parameters mean.
HASHED_FIELDS = (
    "generator", "dtype", "init_seed", "feature_bins", "embed_dim", "embed_hidden",
    "embed_iterations", "lstm_steps", "embed_seed", "window", "color_set_size",
    "v_width", "v_layers", "p_width", "p_layers", "seq_channels", "seq_layers",
    "seq_filter", "candidate_cap",
)


@dataclass
class Config:
    # version / provenance
    config_version: int = CONFIG_VERSION
    generator: str = GENERATOR_NAME

    # datasets: semicolon-separated graph sources, e.g.
    # "er:32,0.5:seed=0..9" (seed ranges expand inclusively).
    train_sources: str = "er:32,0.5:seed=0..9"
    eval_sources: str = ""  # empty = same as train_sources
    order_kind: str = "unordered"  # visitation order the agent colors in

    # embeddings
    feature_bins: int = 32
    embed_dim: int = 128
    embed_hidden: int = 128
    embed_iterations: int = 3  # message-passing updates (T)
    lstm_steps: int = 2  # inner LSTM applications per update (L)
    embed_seed: int = 17
    walk_rate: float = 0.25  # chance a context row attaches a gradient walk
    walk_length: int = 3  # chain length for walk gradients
    walk_budget: int = 64  # max walks per training step

    # network
    window: int = 8  # problem-context half-width (w)
    color_set_size: int = 4  # embeddings shown per candidate color (m)
    v_width: int = 512
    v_layers: int = 3
    p_width: int = 512
    p_layers: int = 5
    seq_channels: int = 128
    seq_layers: int = 3
    seq_filter: int = 7
    candidate_cap: int = 256
    dtype: str = "float32"
    init_seed: int = 7

    # search
    ucb_c: float = 1.5
    simulations: int = 128
    root_noise: bool = False
    dirichlet_alpha: float = 0.3
    dirichlet_frac: float = 0.25

    # self-play episodes
    run_ahead: int = 256  # window W
    mcts_segment: int = 8  # consecutive MCTS moves per sampled position (M)
    move_sample_rate: float = 0.25
    sample_first_k: int = 30
    early_abort: bool = True
    buffer_capacity: int = 2**20

    # trainer
    lr: float = 0.001
    batch_size: int = 4
    steps_per_iteration: int = 128
    train_iterations: int = 100
    target_avg_colors: float = 0.0  # stop early once gated avg <= this (0 = off)
    seed: int = 0
    out_dir: str = "runs/default"

    def __post_init__(self):
        if self.config_version != CONFIG_VERSION:
            raise ParameterError(f"config version {self.config_version} != {CONFIG_VERSION}")
        if self.generator != GENERATOR_NAME:
            raise ParameterError(f"unsupported generator {self.generator!r}")
        if self.run_ahead < 1 or self.mcts_segment < 1:
            raise ParameterError("run_ahead and mcts_segment must be >= 1")
        if not 0.0 <= self.move_sample_rate <= 1.0:
            raise ParameterError("move_sample_rate must be in [0, 1]")
        if not 0.0 <= self.walk_rate <= 1.0:
            raise ParameterError("walk_rate must be in [0, 1]")
        if self.walk_length < 0 or self.walk_budget < 0:
            raise ParameterError("walk_length and walk_budget must be >= 0")
        if self.dtype not in ("float32", "float64"):
            raise ParameterError("dtype must be float32 or float64")
        if self.candidate_cap < 2:  # one slot is the new color: room for an existing one
            raise ParameterError("candidate_cap must be >= 2")
        if min(self.window, self.feature_bins, self.color_set_size) < 1:
            raise ParameterError("window, feature_bins and color_set_size must be >= 1")
        if min(self.v_layers, self.p_layers, self.seq_layers) < 1:
            raise ParameterError("v_layers, p_layers and seq_layers must be >= 1")
        if min(self.embed_dim, self.embed_hidden, self.v_width, self.p_width,
               self.seq_channels) < 1:
            raise ParameterError(
                "embed_dim, embed_hidden, v_width, p_width and seq_channels must be >= 1")
        if not 0.0 < self.dirichlet_alpha < float("inf") or not 0.0 <= self.dirichlet_frac <= 1.0:
            raise ParameterError(
                "dirichlet_alpha must be finite and > 0, and dirichlet_frac in [0, 1]")
        if min(self.simulations, self.batch_size, self.buffer_capacity) < 1:
            raise ParameterError("simulations, batch_size and buffer_capacity must be >= 1")
        if min(self.steps_per_iteration, self.train_iterations, self.embed_iterations,
               self.lstm_steps) < 0:
            raise ParameterError("steps_per_iteration, train_iterations, embed_iterations "
                                 "and lstm_steps must be >= 0")
        if not 0.0 < self.lr < float("inf") or not 0.0 <= self.ucb_c < float("inf"):
            raise ParameterError("lr must be finite and > 0, and ucb_c finite and >= 0")
        if self.seq_filter < 1 or self.seq_filter % 2 == 0:
            raise ParameterError("seq_filter must be odd and >= 1")
        if self.order_kind not in HEURISTIC_KINDS:
            raise ParameterError(f"unknown order kind {self.order_kind!r}")

    # -- file form ----------------------------------------------------

    def to_text(self) -> str:
        lines = ["# fastcolor run configuration"]
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @staticmethod
    def from_text(text: str) -> "Config":
        fields = {f.name: f for f in dataclasses.fields(Config)}
        seen: dict[str, object] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"config line {lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in fields:
                raise ParameterError(f"config line {lineno}: unknown key {key!r}")
            ftype = fields[key].type
            try:
                if ftype == "bool":
                    if val not in ("true", "false"):
                        raise ValueError
                    seen[key] = val == "true"
                elif ftype == "int":
                    seen[key] = int(val)
                elif ftype == "float":
                    seen[key] = float(val)
                else:
                    seen[key] = val
            except ValueError:
                raise ParameterError(f"config line {lineno}: bad {ftype} value {val!r}") from None
        return Config(**seen)

    @staticmethod
    def load(path: str) -> "Config":
        with open(path, "r", encoding="utf-8") as fh:
            return Config.from_text(fh.read())

    def hash(self) -> str:
        text = "".join(f"{name} = {getattr(self, name)}\n" for name in HASHED_FIELDS)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def replace(self, **kwargs) -> "Config":
        return dataclasses.replace(self, **kwargs)


def expand_sources(spec: str) -> list[str]:
    """Expand 'kind:params:seed=A..B' ranges into individual source specs.

    Plain 'seed=N' entries pass through; entries are ';'-separated.
    """
    out: list[str] = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        head, _, seed_part = part.rpartition(":")
        if not seed_part.startswith("seed="):
            raise ParameterError(f"source {part!r} missing seed")
        rng_txt = seed_part[len("seed="):]
        if ".." in rng_txt:
            lo_txt, hi_txt = rng_txt.split("..", 1)
            try:
                lo, hi = int(lo_txt), int(hi_txt)
            except ValueError:
                raise ParameterError(f"bad seed range in {part!r}") from None
            if hi < lo:
                raise ParameterError(f"empty seed range in {part!r}")
            out.extend(f"{head}:seed={s}" for s in range(lo, hi + 1))
        else:
            out.append(part)
    return out
