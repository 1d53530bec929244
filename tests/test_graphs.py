"""Graph construction, generators, and loaders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastcolor.errors import ParameterError, ParseError
from fastcolor.graph import Graph, GraphSource, gen_er, gen_ws, load_graph, load_graph_with_report, save_edge_list

from conftest import complete_graph, path_graph


class TestGraphStructure:
    def test_from_edges_dedupes_and_symmetrizes(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert g.edge_count == 2
        assert g.neighbors_of(1).tolist() == [0, 2]
        g.validate()

    def test_rows_sorted_and_views(self):
        g = Graph.from_edges(4, [(2, 0), (3, 0), (1, 0)])
        assert g.neighbors_of(0).tolist() == [1, 2, 3]
        assert g.degree(0) == 3 and g.max_degree == 3

    def test_has_edge_binary_search(self):
        g = complete_graph(5)
        assert g.has_edge(0, 4) and g.has_edge(4, 0)
        assert not g.has_edge(0, 0)

    def test_self_loop_rejected(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(2, [(0, 2)])

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        assert g.n == 0 and g.edge_count == 0 and g.max_degree == 0
        g.validate()

    def test_key_is_content_hash(self):
        a = Graph.from_edges(3, [(0, 1), (1, 2)])
        b = Graph.from_edges(3, [(1, 2), (0, 1)])
        c = Graph.from_edges(3, [(0, 1)])
        assert a.key() == b.key() != c.key()

    @given(st.integers(2, 30), st.floats(0.0, 1.0), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_er_invariants(self, n, p, seed):
        g = gen_er(n, p, seed)
        g.validate()
        assert g.n == n
        assert g.adjacency() == [g.neighbors_of(v).tolist() for v in range(n)]
        assert g.adjacency() is g.adjacency()


class TestGenerators:
    def test_er_full_density_is_complete(self):
        g = gen_er(4, 1.0, seed=3)
        assert g.edge_count == 6
        assert all(g.has_edge(i, j) for i in range(4) for j in range(i + 1, 4))

    def test_er_zero_density_is_empty(self):
        assert gen_er(50, 0.0, seed=3).edge_count == 0

    def test_er_edge_count_in_binomial_range(self):
        # n=100, p=0.5: mean 2475, sd ~35. 6 sd is a one-in-a-billion event.
        g = gen_er(100, 0.5, seed=11)
        assert abs(g.edge_count - 2475) < 6 * 36

    def test_er_deterministic_per_seed(self):
        assert gen_er(40, 0.3, seed=7).key() == gen_er(40, 0.3, seed=7).key()
        assert gen_er(40, 0.3, seed=7).key() != gen_er(40, 0.3, seed=8).key()

    def test_ws_exact_edge_count(self):
        g = gen_ws(1000, 4, 0.5, seed=0)
        assert g.edge_count == 2000
        g2 = gen_ws(128, 4, 0.5, seed=5)
        assert g2.edge_count == 256

    def test_ws_full_rewire_stays_simple(self):
        g = gen_ws(6, 2, 1.0, seed=9)
        assert g.edge_count == 6
        g.validate()

    def test_ws_zero_beta_is_ring_lattice(self):
        g = gen_ws(8, 2, 0.0, seed=1)
        assert all(g.has_edge(i, (i + 1) % 8) for i in range(8))
        assert g.edge_count == 8

    def test_ws_rejects_odd_k(self):
        with pytest.raises(ParameterError):
            gen_ws(10, 3, 0.5, seed=0)

    def test_er_rejects_bad_p(self):
        with pytest.raises(ParameterError):
            gen_er(5, 1.5, seed=0)


class TestLoaders:
    def test_edge_list_basic(self, tmp_path):
        p = tmp_path / "path.el"
        p.write_text("# a comment\n0 1\n1 2\n")
        g = load_graph(str(p))
        assert g.n == 3 and g.edge_count == 2
        assert g.has_edge(0, 1) and g.has_edge(2, 1)

    def test_edge_list_self_loop_dropped_and_counted(self, tmp_path):
        p = tmp_path / "loop.el"
        p.write_text("0 1\n2 2\n")
        g, report = load_graph_with_report(str(p))
        assert report.self_loops_dropped == 1
        assert g.n == 3 and g.edge_count == 1

    def test_edge_list_parse_error_names_line(self, tmp_path):
        p = tmp_path / "bad.el"
        p.write_text("0 1\nnot numbers\n")
        with pytest.raises(ParseError, match=":2:"):
            load_graph(str(p))

    def test_matrix_market_symmetric_pattern(self, tmp_path):
        p = tmp_path / "path4.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "% path on four vertices\n"
            "4 4 3\n2 1\n3 2\n4 3\n"
        )
        g = load_graph(str(p))
        assert g.n == 4 and g.edge_count == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 2) and g.has_edge(2, 3)

    def test_matrix_market_real_values_discarded(self, tmp_path):
        p = tmp_path / "w.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 0.5\n2 3 -7.0\n")
        g = load_graph(str(p))
        assert g.edge_count == 2

    def test_matrix_market_entry_count_mismatch(self, tmp_path):
        p = tmp_path / "short.mtx"
        p.write_text("%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n2 3\n")
        with pytest.raises(ParseError, match="promises 5"):
            load_graph(str(p))

    def test_matrix_market_rejects_rectangular(self, tmp_path):
        p = tmp_path / "rect.mtx"
        p.write_text("%%MatrixMarket matrix coordinate pattern general\n3 4 1\n1 2\n")
        with pytest.raises(ParseError, match="square"):
            load_graph(str(p))

    def test_save_load_round_trip(self, tmp_path):
        g = gen_er(30, 0.3, seed=2)
        p = tmp_path / "g.el"
        save_edge_list(g, str(p))
        assert load_graph(str(p)).key() == g.key()


class TestGraphSource:
    def test_build_er(self):
        src = GraphSource("er", (16, 0.5), seed=4)
        assert src.build().key() == gen_er(16, 0.5, 4).key()

    def test_parse_round_trip(self):
        src = GraphSource.parse("ws:128,4,0.5:seed=9")
        assert src.kind == "ws" and src.seed == 9
        assert src == GraphSource("ws", (128, 4, 0.5), seed=9)

    def test_bad_kind_rejected(self):
        with pytest.raises(ParameterError):
            GraphSource("triangular", (3,), seed=0)

    @pytest.mark.parametrize("text", ["er:inf,0.5:seed=1", "er:nan,0.5:seed=1",
                                      "er:-0.5,0.5:seed=1", "er:-1,0.5:seed=1",
                                      "er:10.5,0.5:seed=1", "ws:10,4.5,0.5:seed=1",
                                      "ws:10,inf,0.5:seed=1", "ws:nan,4,0.5:seed=1"])
    def test_sizes_must_be_whole_numbers(self, text):
        with pytest.raises(ParameterError, match="whole numbers"):
            GraphSource.parse(text)

    def test_whole_float_sizes_accepted(self):
        assert GraphSource.parse("ws:10.0,4,0.5:seed=1").build().n == 10
        assert GraphSource.parse("er:0,0.5:seed=1").build().n == 0
