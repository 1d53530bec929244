"""The benchmark's tracer wraps fastcolor functions by name; every name it
lists must still resolve to a callable of the package, and the layer
calls of a training step, of a decode and of a training run must go
through the wrappers."""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from fastcolor import fastcolornet, pipeline
from fastcolor.coloring import ColoringState, Outcome
from fastcolor.config import Config
from fastcolor.embedding import compute_embeddings
from fastcolor.graph import gen_er
from fastcolor.nn import AdamState
from fastcolor.pipeline import policy_colors
from fastcolor.rng import make_rng
from fastcolor.selfplay import EmbeddingCache, NetPolicy

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracing().TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=[t[2] for t in TARGETS])
def test_target_resolves(target):
    mod_name, path, _, hook = target
    owner = importlib.import_module(f"fastcolor.{mod_name}")
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    # class attributes are read from the class's own dict, as install does
    found = owner.__dict__.get(attr) if owners else getattr(owner, attr, None)
    assert callable(found), f"fastcolor.{mod_name}.{path} does not resolve"
    assert hook is None or callable(hook)


TRAINING_LAYERS = ["nn.dense_forward", "nn.dense_backward", "nn.conv1d_forward",
                   "nn.conv1d_backward", "nn.batchnorm_forward", "nn.batchnorm_backward"]


def tiny_cfg() -> Config:
    return Config(feature_bins=8, embed_dim=6, embed_hidden=10, embed_iterations=2,
                  lstm_steps=1, window=2, color_set_size=2, v_width=16, v_layers=2,
                  p_width=16, p_layers=2, seq_channels=8, seq_layers=2, seq_filter=3,
                  walk_length=2, dtype="float64")


def test_tracer_sees_training_layer_calls():
    # a layer op bound at import time (a default argument, a module-level
    # tuple) would escape the wrappers and read 0 calls here
    cfg = tiny_cfg()
    g = gen_er(10, 0.35, seed=1)
    store = fastcolornet.init_fastcolornet(cfg, seed=2)
    table = compute_embeddings(g, store, cfg, seed=0)
    state = ColoringState(g)
    batch = []
    for _ in range(3):
        move = fastcolornet.build_contexts(state, table, cfg)
        k = len(move.actions)
        batch.append(fastcolornet.TrainMove(move=move, pi=np.full(k, 1.0 / k), z=Outcome.TIE))
        state.apply_inplace(move.actions[-1])
    tracing = load_tracing()
    tracer = tracing.Tracer(float32=False)
    patched = tracing.install(tracer)
    try:
        fastcolornet.fcn_train_step(batch, store, cfg, AdamState.for_store(store), make_rng(0))
    finally:
        tracing.uninstall(patched)
    calls = {name: tracer.agg.stats[name][0] for name in TRAINING_LAYERS}
    assert all(calls.values()), calls


def test_tracer_sees_decode_calls():
    # as for training: decode's layer ops must be looked up at call time
    cfg = tiny_cfg()
    g = gen_er(12, 0.4, seed=1)
    store = fastcolornet.init_fastcolornet(cfg, seed=2)
    rng = make_rng(3)
    for name in store.names():  # non-zero heads, so the network decides
        if ".head." in name:
            store[name] = rng.normal(size=store[name].shape)
    policy = NetPolicy(store, cfg, EmbeddingCache(), version=0)
    tracing = load_tracing()
    tracer = tracing.Tracer(float32=False)
    patched = tracing.install(tracer)
    try:
        policy_colors(g, policy, cfg)
    finally:
        tracing.uninstall(patched)
    calls = {name: tracer.agg.stats[name][0]
             for name in ("nn.dense_forward", "selfplay.net_policy_choose")}
    assert all(calls.values()) and policy.forwards > 0, calls


def test_tracer_sees_policy_iteration_calls(tmp_path):
    # a renamed EmbeddingCache or Model method, or a hook that no longer
    # fits its target's arguments, fails a traced training run
    cfg = tiny_cfg().replace(train_sources="er:12,0.5:seed=0..1", run_ahead=5,
                             mcts_segment=2, simulations=6, move_sample_rate=0.3,
                             steps_per_iteration=4, batch_size=2, train_iterations=2)
    tracing = load_tracing()
    tracer = tracing.Tracer(float32=False)
    patched = tracing.install(tracer)
    try:
        pipeline.policy_iteration(cfg, out_dir=str(tmp_path))
    finally:
        tracing.uninstall(patched)
    calls = {name: tracer.agg.stats[name][0]
             for name in ("pipeline.run_selfplay", "pipeline.gate_model",
                          "selfplay.cache_table")}
    assert all(calls.values()), calls
