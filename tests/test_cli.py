"""Command-line behavior and the SVG chart writer."""

import ctypes
import json
import os
import re
import xml.dom.minidom

import numpy as np
import pytest

from fastcolor.checkpoint import Checkpoint, save_checkpoint
from fastcolor.cli import BLAS_THREAD_VARS, main
from fastcolor.config import Config
from fastcolor.errors import ParameterError, ParseError
from fastcolor.fastcolornet import init_fastcolornet
from fastcolor.graph import Graph, gen_er, load_graph, save_edge_list
from fastcolor.nn import AdamState, ParamStore
from fastcolor.plotting import line_chart, numeric_column, read_csv_columns

from conftest import complete_graph


def tiny_cfg(**kw) -> Config:
    base = dict(
        train_sources="er:10,0.5:seed=0..1",
        feature_bins=8,
        embed_dim=6,
        embed_hidden=10,
        embed_iterations=2,
        lstm_steps=1,
        window=2,
        color_set_size=2,
        v_width=16,
        v_layers=2,
        p_width=16,
        p_layers=2,
        seq_channels=8,
        seq_layers=2,
        seq_filter=3,
        dtype="float64",
        run_ahead=4,
        mcts_segment=2,
        simulations=4,
        move_sample_rate=0.3,
        steps_per_iteration=2,
        batch_size=2,
        train_iterations=1,
        seed=0,
    )
    base.update(kw)
    return Config(**base)


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    tiny_cfg().save(str(path))
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.el"
    save_edge_list(complete_graph(4), str(path))
    return str(path)


def checkpoint_for(cfg: Config, path: str, edit=None) -> None:
    """A fresh model's checkpoint; ``edit(params)`` may change its parameter
    dict first."""
    store = init_fastcolornet(cfg)
    if edit is not None:
        params = dict(store.items())
        edit(params)
        store = ParamStore(store.dtype)
        for name, arr in params.items():
            store.add(name, arr)
    save_checkpoint(path, Checkpoint(
        params=store, adam=AdamState.for_store(store, lr=cfg.lr),
        config_hash=cfg.hash(), iteration=0,
        gate_history=np.zeros((0, 4), dtype=np.float64)))


class TestGen:
    def test_writes_loadable_graphs(self, tmp_path, capsys):
        out = tmp_path / "graphs"
        assert main(["gen", "--sources", "er:8,0.4:seed=0..1", "--out", str(out)]) == 0
        paths = capsys.readouterr().out.splitlines()
        assert len(paths) == 2
        for p in paths:
            assert os.path.exists(p)
            assert load_graph(p).n == 8

    def test_env_var_overrides_out(self, tmp_path, capsys, monkeypatch):
        forced = tmp_path / "forced"
        monkeypatch.setenv("FASTCOLOR_OUT_DIR", str(forced))
        assert main(["gen", "--sources", "er:8,0.4:seed=0", "--out", str(tmp_path / "ignored")]) == 0
        paths = capsys.readouterr().out.splitlines()
        assert all(p.startswith(str(forced)) for p in paths)
        assert not (tmp_path / "ignored").exists()


    def test_non_numeric_param_fails_cleanly(self, tmp_path, capsys):
        assert main(["gen", "--sources", "er:abc,0.5:seed=1", "--out", str(tmp_path / "g")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "abc" in err

    @pytest.mark.parametrize("source", ["er:inf,0.5:seed=1", "er:nan,0.5:seed=1",
                                        "ws:10,4.5,0.5:seed=1", "er:-0.5,0.5:seed=1"])
    def test_size_not_a_whole_number_fails_cleanly(self, tmp_path, capsys, source):
        out = tmp_path / "g"
        assert main(["gen", "--sources", source, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "whole numbers" in err
        assert not out.exists() or not os.listdir(out)


    @pytest.mark.parametrize("cmd", ["gen", "train"])
    def test_negative_seed_fails_cleanly(self, tmp_path, capsys, cmd):
        source = "er:4,0.5:seed=-1"
        out = tmp_path / "out"
        if cmd == "gen":
            argv = ["gen", "--sources", source, "--out", str(out)]
        else:
            path = tmp_path / "neg.cfg"
            path.write_text(tiny_cfg(train_sources=source).to_text())
            argv = ["train", "--config", str(path), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "seed" in err
        assert not out.exists() or not os.listdir(out)


class TestColor:
    def test_heuristic_prints_count(self, k4_file, capsys):
        assert main(["color", "--graph", k4_file, "--heuristic", "ordered"]) == 0
        assert capsys.readouterr().out == "colors: 4\n"

    def test_model_greedy_decode(self, tmp_path, capsys):
        cfg = tiny_cfg()
        cfg_path = tmp_path / "run.cfg"
        cfg.save(str(cfg_path))
        ck_path = tmp_path / "model.ckpt"
        checkpoint_for(cfg, str(ck_path))
        g_path = tmp_path / "g.el"
        save_edge_list(gen_er(12, 0.5, seed=1), str(g_path))
        assert main(["color", "--graph", str(g_path), "--model", str(ck_path),
                     "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        expected = main(["color", "--graph", str(g_path), "--heuristic", "unordered"])
        assert expected == 0
        assert out == capsys.readouterr().out  # zero head decodes greedily

    def test_corrupted_checkpoint_fails(self, tmp_path, k4_file, capsys, cfg_file):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        assert main(["color", "--graph", k4_file, "--model", str(bad),
                     "--config", cfg_file]) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_hash_mismatch_fails(self, tmp_path, k4_file, capsys):
        cfg = tiny_cfg()
        ck_path = tmp_path / "model.ckpt"
        checkpoint_for(cfg, str(ck_path))
        other = tmp_path / "other.cfg"
        tiny_cfg(p_width=24).save(str(other))
        assert main(["color", "--graph", k4_file, "--model", str(ck_path),
                     "--config", str(other)]) == 1
        assert "config hash" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda params: params.pop("p.head.w"), "network: ['p.head.w']"),
        (lambda params: params.update({"p.fc.0.w": params["p.fc.0.w"][:-1]}),
         "network: ['p.fc.0.w']"),
    ])
    def test_architecture_mismatch_fails(self, tmp_path, k4_file, cfg_file, capsys, edit,
                                         message):
        # the config hash matches; the parameters do not
        ck_path = tmp_path / "model.ckpt"
        checkpoint_for(tiny_cfg(), str(ck_path), edit)
        assert main(["color", "--graph", k4_file, "--model", str(ck_path),
                     "--config", cfg_file]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and message in err

    def test_corrupted_graph_fails_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.el"
        bad.write_text("0 1\nnot numbers\n")
        assert main(["color", "--graph", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "2" in err  # line number of the bad row

    def test_unknown_flag_exits_2(self, k4_file):
        with pytest.raises(SystemExit) as exc:
            main(["color", "--graph", k4_file, "--bogus"])
        assert exc.value.code == 2


@pytest.mark.parametrize("command", ["color", "eval"])
@pytest.mark.parametrize("flags, message", [
    (["--mode", "mcts"], "require --model"),
    (["--mode", "mcts", "--simulations", "0"], "require --model"),
    (["--simulations", "8"], "require --model"),
    (["--model", "MODEL", "--simulations", "0"], "must be >= 1"),
    (["--model", "MODEL", "--mode", "mcts", "--simulations", "-3"], "must be >= 1"),
])
def test_search_flags_checked(tmp_path, k4_file, cfg_file, capsys, command, flags, message):
    # search flags without a model used to be ignored (a greedy count, exit 0)
    ck_path = tmp_path / "model.ckpt"
    checkpoint_for(tiny_cfg(), str(ck_path))
    flags = [str(ck_path) if f == "MODEL" else f for f in flags]
    target = ["--graph", k4_file] if command == "color" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *target, "--config", cfg_file, *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


class TestBlasThreads:
    """``main`` runs NumPy's bundled OpenBLAS on one thread unless the
    environment names a count."""

    @pytest.fixture
    def blas_threads(self, monkeypatch):
        try:
            from numpy._core import _multiarray_umath

            lib = ctypes.CDLL(_multiarray_umath.__file__)
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (ImportError, OSError, AttributeError):
            pytest.skip("NumPy's BLAS exports no scipy-openblas thread setter")
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        old = get()
        put(2)
        yield get
        put(old)

    def test_one_thread(self, blas_threads, k4_file):
        assert main(["estimate-mdp", "--graph", k4_file]) == 0
        assert blas_threads() == 1

    def test_explicit_count_kept(self, blas_threads, k4_file, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert main(["estimate-mdp", "--graph", k4_file]) == 0
        assert blas_threads() == 2


class TestEstimateMdp:
    def test_empty3_value(self, tmp_path, capsys):
        # self-loop rows pin the vertex count; loops themselves drop
        path = tmp_path / "empty3.el"
        path.write_text("0 0\n1 1\n2 2\n")
        assert main(["estimate-mdp", "--graph", str(path)]) == 0
        assert capsys.readouterr().out == "log10 mdp size: 0.602\n"

    def test_order_flag(self, k4_file, capsys):
        assert main(["estimate-mdp", "--graph", k4_file, "--order", "dynamic"]) == 0
        assert capsys.readouterr().out == "log10 mdp size: 0.000\n"


class TestSelfplay:
    def test_writes_episode_log(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "sp"
        assert main(["selfplay", "--config", cfg_file, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "segments: " in stdout and "records: " in stdout
        rows = [json.loads(line) for line in (out / "episodes.jsonl").read_text().splitlines()]
        assert rows
        assert all(r["z"] in {"win", "tie", "lose"} for r in rows)


class TestTrain:
    def test_writes_metrics(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", cfg_file, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "iterations: 1" in stdout
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "iteration,loss,eval_avg_colors,win_rate,wall_clock"
        assert len(lines) == 3

    @pytest.mark.parametrize("line", ["candidate_cap = 1", "window = 0", "feature_bins = 0",
                                      "color_set_size = 0", "v_layers = 0", "p_layers = 0",
                                      "seq_layers = 0", "seq_filter = -1", "embed_dim = 0",
                                      "embed_hidden = 0", "v_width = 0", "p_width = 0",
                                      "seq_channels = 0", "dirichlet_alpha = -1",
                                      "dirichlet_alpha = 0", "dirichlet_frac = 1.5",
                                      "simulations = 0", "batch_size = 0",
                                      "buffer_capacity = 0", "steps_per_iteration = -1",
                                      "train_iterations = -1", "embed_iterations = -1",
                                      "lstm_steps = -1", "lr = -1", "lr = nan",
                                      "ucb_c = inf", "init_seed = -1", "embed_seed = -1"])
    def test_unsound_config_fails_cleanly(self, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        path = tmp_path / "bad.cfg"
        path.write_text(re.sub(rf"^{key} = .*$", line, tiny_cfg().to_text(), flags=re.M))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and key in err
        assert not (tmp_path / "run").exists()


class TestEval:
    def test_writes_csv_and_summary(self, tmp_path, cfg_file, capsys):
        csv_path = tmp_path / "report.csv"
        assert main(["eval", "--config", cfg_file, "--sources", "er:10,0.4:seed=0..4",
                     "--out", str(csv_path)]) == 0
        stdout = capsys.readouterr().out
        assert "unordered: avg" in stdout
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "graph,n,unordered,ordered,dynamic"
        assert len(lines) == 7

    def test_csv_byte_identical_across_runs(self, tmp_path, cfg_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["eval", "--config", cfg_file, "--sources",
                         "er:10,0.4:seed=0..4", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_source_fails(self, cfg_file, capsys):
        assert main(["eval", "--config", cfg_file, "--sources", "er:10:seed=0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestPlot:
    def test_chart_from_metrics(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", cfg_file, "--out", str(out)]) == 0
        capsys.readouterr()
        svg_path = tmp_path / "curve.svg"
        assert main(["plot", "--csv", str(out / "metrics.csv"), "--x", "iteration",
                     "--y", "loss,eval_avg_colors", "--out", str(svg_path)]) == 0
        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "eval_avg_colors" in svg

    def test_markup_in_names_is_escaped(self, tmp_path):
        csv_path = tmp_path / "r&d.csv"
        csv_path.write_text("x,a<b\n1,2\n2,3\n")
        svg_path = tmp_path / "x.svg"
        assert main(["plot", "--csv", str(csv_path), "--x", "x", "--y", "a<b",
                     "--out", str(svg_path)]) == 0
        doc = xml.dom.minidom.parse(str(svg_path))
        texts = {t.firstChild.data for t in doc.getElementsByTagName("text")}
        assert {str(csv_path), "x", "a<b"} <= texts

    def test_non_finite_cell_fails(self, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("x,y\n1,2\n2,inf\n")
        assert main(["plot", "--csv", str(csv_path), "--x", "x", "--y", "y",
                     "--out", str(tmp_path / "x.svg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "column 'y' row 3" in err
        assert not (tmp_path / "x.svg").exists()

    def test_missing_column_fails(self, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("a,b\n1,2\n")
        assert main(["plot", "--csv", str(csv_path), "--x", "a", "--y", "nope",
                     "--out", str(tmp_path / "x.svg")]) == 1
        assert "no column" in capsys.readouterr().err


class TestPlottingUnits:
    def test_read_and_parse_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1,2.5\n2,\n3,7\n")
        cols = read_csv_columns(str(path))
        assert numeric_column(cols, "x") == [1.0, 2.0, 3.0]
        ys = numeric_column(cols, "y")
        assert ys[0] == 2.5 and np.isnan(ys[1]) and ys[2] == 7.0

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x\n1\nbad\n")
        with pytest.raises(ParseError, match="row 3"):
            numeric_column(read_csv_columns(str(path)), "x")

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_csv_columns(str(path))

    def test_line_chart_needs_points(self):
        with pytest.raises(ParameterError):
            line_chart([])
        with pytest.raises(ParameterError):
            line_chart([("s", [], [])])

    def test_line_chart_scales_constant_series(self):
        svg = line_chart([("flat", [0.0, 1.0, 2.0], [5.0, 5.0, 5.0])])
        assert "<polyline" in svg
        assert svg.rstrip().endswith("</svg>")
