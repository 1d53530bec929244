"""Run-configuration file IO and hashing."""

import dataclasses

import pytest

from fastcolor.config import Config, expand_sources
from fastcolor.errors import ParameterError


def test_text_round_trip_default():
    cfg = Config()
    assert Config.from_text(cfg.to_text()) == cfg


def test_text_round_trip_modified(tmp_path):
    cfg = Config(embed_dim=16, lr=0.0005, order_kind="dynamic", early_abort=False,
                 train_sources="ws:64,4,0.3:seed=1..4", out_dir="runs/x")
    path = tmp_path / "run.cfg"
    cfg.save(str(path))
    assert Config.load(str(path)) == cfg


def test_every_field_survives_round_trip():
    cfg = Config()
    back = Config.from_text(cfg.to_text())
    for f in dataclasses.fields(Config):
        assert getattr(back, f.name) == getattr(cfg, f.name), f.name


def test_comments_and_blanks_ignored():
    text = "# comment\n\nembed_dim = 16  # trailing\n"
    assert Config.from_text(text).embed_dim == 16


def test_unknown_key_rejected():
    # removed architecture knobs are unknown keys like any other
    for text in ("no_such_knob = 3\n", "pool = mean\n"):
        with pytest.raises(ParameterError, match="unknown key"):
            Config.from_text(text)


def test_bad_value_rejected():
    with pytest.raises(ParameterError, match="line 1"):
        Config.from_text("embed_dim = banana\n")


def test_repeated_key_rejected():
    with pytest.raises(ParameterError, match="line 3: key 'seed' repeats line 1"):
        Config.from_text("seed = 1\n# again\nseed = 2\n")


@pytest.mark.parametrize("out_dir", ["a#b", "a\nseed = 2", "a\r", "a\u2028b"])
def test_unsavable_string_rejected(out_dir):
    # from_text would cut each of these at the '#' or the line break
    with pytest.raises(ParameterError, match="'out_dir'"):
        Config(out_dir=out_dir).to_text()


def test_bad_version_rejected():
    with pytest.raises(ParameterError, match="version"):
        Config.from_text("config_version = 999\n")


def test_hash_tracks_content():
    assert Config().hash() == Config().hash()
    # training knobs leave the hash alone; architecture fields change it
    assert Config().hash() == Config(lr=0.1).hash()
    assert Config().hash() != Config(p_width=256).hash()
    assert len(Config().hash()) == 16


def test_validation():
    with pytest.raises(ParameterError):
        Config(move_sample_rate=1.5)
    with pytest.raises(ParameterError):
        Config(seq_filter=4)
    with pytest.raises(ParameterError):
        Config(order_kind="reverse")
    for bad in (dict(walk_rate=1.7), dict(walk_rate=-0.1), dict(walk_length=-2),
                dict(walk_budget=-3)):
        with pytest.raises(ParameterError):
            Config(**bad)
    for bad in (dict(embed_dim=0), dict(v_width=0), dict(seq_channels=0),
                dict(root_noise=True, dirichlet_alpha=0.0),
                dict(root_noise=True, dirichlet_frac=1.5)):
        with pytest.raises(ParameterError):
            Config(**bad)
    for edge in (dict(walk_rate=0.0), dict(walk_rate=1.0), dict(walk_length=0),
                 dict(walk_budget=0),
                 dict(candidate_cap=2, window=1, feature_bins=1, color_set_size=1),
                 dict(embed_dim=1, embed_hidden=1, v_width=1, p_width=1, seq_channels=1),
                 dict(root_noise=True, dirichlet_alpha=1e-3, dirichlet_frac=0.0),
                 dict(root_noise=True, dirichlet_frac=1.0),
                 dict(steps_per_iteration=0, train_iterations=0, embed_iterations=0,
                      lstm_steps=0, ucb_c=0.0),
                 dict(simulations=1, batch_size=1, buffer_capacity=1, lr=1e-12)):
        Config(**edge)


@pytest.mark.parametrize("bad", [
    dict(candidate_cap=1), dict(candidate_cap=0), dict(candidate_cap=-3), dict(window=0),
    dict(feature_bins=0), dict(color_set_size=0), dict(window=-1), dict(v_layers=0),
    dict(p_layers=0), dict(seq_layers=0), dict(seq_layers=-2), dict(seq_filter=-1),
    dict(seq_filter=0), dict(embed_dim=0), dict(embed_hidden=0), dict(v_width=0),
    dict(p_width=0), dict(seq_channels=0), dict(v_width=-4), dict(dirichlet_alpha=0.0),
    dict(dirichlet_alpha=-1.0), dict(dirichlet_alpha=float("nan")),
    dict(dirichlet_alpha=float("inf")), dict(dirichlet_frac=1.5), dict(dirichlet_frac=-0.1),
    dict(dirichlet_frac=float("nan")), dict(simulations=0), dict(simulations=-1),
    dict(batch_size=0), dict(buffer_capacity=0), dict(steps_per_iteration=-1),
    dict(train_iterations=-1), dict(embed_iterations=-1), dict(lstm_steps=-1), dict(lr=0.0),
    dict(lr=-1.0), dict(lr=float("inf")), dict(lr=float("nan")), dict(ucb_c=-0.5),
    dict(ucb_c=float("inf")), dict(ucb_c=float("nan")),
])
def test_unsound_sizes_rejected(bad):
    with pytest.raises(ParameterError, match=next(iter(bad))):
        Config(**bad)


def test_expand_sources_range():
    got = expand_sources("er:32,0.5:seed=0..2")
    assert got == ["er:32,0.5:seed=0", "er:32,0.5:seed=1", "er:32,0.5:seed=2"]


def test_expand_sources_mixed():
    got = expand_sources("er:8,0.25:seed=5; ws:64,4,0.3:seed=1..2")
    assert got == ["er:8,0.25:seed=5", "ws:64,4,0.3:seed=1", "ws:64,4,0.3:seed=2"]


def test_expand_sources_errors():
    with pytest.raises(ParameterError):
        expand_sources("er:8,0.25")
    with pytest.raises(ParameterError):
        expand_sources("er:8,0.25:seed=3..1")
