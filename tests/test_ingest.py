"""Edge-list parsing, node derivation, densification and summary tests."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from bimix import ingest
from bimix.cli import main
from bimix.ingest import EdgeList, EdgeListError, load_edge_list, summarize, to_dense


def write(tmp_path, text, name="edges.tsv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadEdgeList:
    def test_three_column_tsv(self, tmp_path):
        el = load_edge_list(write(tmp_path, "a\tb\t2.5\n"))
        assert el.edges == (("a", "b", 2.5),)
        assert el.nodes == ("a", "b")

    def test_two_columns_take_default_weight(self, tmp_path):
        el = load_edge_list(write(tmp_path, "1 2\n"))
        assert el.edges == ((1, 2, 1.0),)

    def test_csv_format(self, tmp_path):
        el = load_edge_list(write(tmp_path, "x, y, -3\ny, x, 4\n"), format="csv")
        assert el.edges == (("x", "y", -3.0), ("y", "x", 4.0))

    @pytest.mark.parametrize("line", ["a,,1", ",b,1", "a, ,1", "a,"])
    def test_csv_empty_node_rejected_naming_the_line(self, tmp_path, line):
        # "a,,1" once made a node named ''
        with pytest.raises(EdgeListError, match="^line 2: empty node id$"):
            load_edge_list(write(tmp_path, f"x,y,1\n{line}\n"), format="csv")

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        text = "% header\n# another comment\n\n1\t2\t1\n"
        el = load_edge_list(write(tmp_path, text))
        assert len(el.edges) == 1

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(EdgeListError, match="line 2"):
            load_edge_list(write(tmp_path, "1\t2\t1\n1\t2\t3\t4\t5\n"))

    def test_non_finite_weight_rejected(self, tmp_path):
        with pytest.raises(EdgeListError, match="non-finite"):
            load_edge_list(write(tmp_path, "1\t2\tinf\n"))

    def test_unparsable_weight_rejected(self, tmp_path):
        with pytest.raises(EdgeListError, match="weight"):
            load_edge_list(write(tmp_path, "1\t2\tabc\n"))

    def test_duplicate_default_errors(self, tmp_path):
        with pytest.raises(EdgeListError, match="duplicate"):
            load_edge_list(write(tmp_path, "1\t2\t1\n1\t2\t3\n"))

    def test_duplicate_sum_policy(self, tmp_path):
        el = load_edge_list(write(tmp_path, "1\t2\t1\n1\t2\t3\n"), duplicates="sum")
        assert el.edges == ((1, 2, 4.0),)

    def test_first_appearance_interning(self, tmp_path):
        el = load_edge_list(write(tmp_path, "5\t3\t1\n2\t5\t1\n"))
        assert el.nodes == (5, 3, 2)

    def test_tokens_spelling_one_int_stay_distinct(self, tmp_path):
        # only a canonical integer token becomes an int: 07 is not 7, 1_0 is not 10
        el = load_edge_list(write(tmp_path, "7 1 1\n07 2 1\n1_0 10 3\n-4 +4 1\n"))
        assert el.nodes == (7, 1, "07", 2, "1_0", 10, -4, "+4")
        assert el.edges == ((7, 1, 1.0), ("07", 2, 1.0), ("1_0", 10, 3.0), (-4, "+4", 1.0))
        assert to_dense(el).shape == (8, 8)


class TestEdgeList:
    def test_manual_duplicates_rejected_when_built(self):
        with pytest.raises(EdgeListError, match="duplicate edge 1 -> 2"):
            EdgeList(edges=((1, 2, 1.0), (3, 1, 2.0), (1, 2, 5.0)))

    def test_reversed_pair_and_self_loop_are_distinct(self):
        el = EdgeList(edges=((1, 2, 1.0), (2, 1, 2.0), (1, 1, 3.0)))
        np.testing.assert_array_equal(to_dense(el), [[3.0, 1.0], [2.0, 0.0]])

    def test_first_repeat_named(self):
        with pytest.raises(EdgeListError, match="^duplicate edge 3 -> 1$"):
            EdgeList(edges=((1, 2, 1.0), (3, 1, 1.0), (3, 1, 2.0), (1, 2, 3.0)))


class TestDropIsolated:
    """The nodes are the edges' endpoints, so no list holds an isolated node."""

    @pytest.mark.parametrize(
        "text, duplicates",
        [
            pytest.param("1\t2\t0\n3\t4\t0.0\n2\t3\t1\n", "error", id="zero-weights"),
            pytest.param("1\t1\t2\n2\t2\t1\n1\t3\t1\n", "error", id="self-loops"),
            pytest.param("a b\nb c\nd a 2.5\n", "error", id="two-column-lines"),
            pytest.param("1\t2\t1\n1\t2\t-1\n3\t1\t2\n3\t1\t1\n", "sum", id="summed-duplicates"),
        ],
    )
    def test_loaded_lists_have_no_isolated_nodes(self, tmp_path, text, duplicates):
        # the derived nodes are the file's node tokens in first-appearance order
        path = write(tmp_path, text)
        el = load_edge_list(path, duplicates=duplicates)
        tokens = [token for line in path.read_text().splitlines() for token in line.split()[:2]]
        assert el.nodes == tuple(ingest._parse_token(t) for t in dict.fromkeys(tokens))


class TestToDense:
    def test_small_square(self):
        el = EdgeList(edges=(("a", "b", 2.0), ("c", "a", -1.0)))
        A = to_dense(el)
        assert A.shape == (3, 3)
        assert np.count_nonzero(A) == 2
        assert A[0, 1] == 2.0 and A[2, 0] == -1.0

    def test_self_loops_kept(self):
        el = EdgeList(edges=((1, 1, 3.0),))
        A = to_dense(el)
        assert A[0, 0] == 3.0

    def test_nonzero_count_matches_edges(self):
        rng = np.random.default_rng(0)
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, 8, size=(30, 2))}
        edges = tuple((a, b, 1.0) for a, b in pairs)
        el = EdgeList(edges=edges)
        assert np.count_nonzero(to_dense(el)) == len(edges)

    def test_empty_lists(self):
        assert to_dense(EdgeList()).shape == (0, 0)
        assert EdgeList().nodes == ()

    def test_nodes_computed_once_and_left_out_of_equality(self):
        edges = (("a", "b", 1.0), ("b", "c", 2.0))
        el, twin = EdgeList(edges), EdgeList(edges)
        assert el.nodes is el.nodes == ("a", "b", "c")
        assert el == twin and hash(el) == hash(twin)  # twin has not computed its nodes
        assert twin.nodes == el.nodes and el == twin


class TestSummarize:
    def test_statistics(self, tmp_path):
        text = "1\t2\t1\n2\t1\t-1\n1\t3\t2\n"
        el = load_edge_list(write(tmp_path, text))
        stats = summarize(el)
        assert stats["n"] == 3
        assert stats["edges"] == 3
        # range over the dense matrix, zeros included
        assert stats["min_weight"] == -1.0 and stats["max_weight"] == 2.0
        assert stats["pct_positive_edges"] == pytest.approx(100.0 * 2 / 3)

    def test_roundtrip_through_file(self, tmp_path):
        rng = np.random.default_rng(1)
        A = np.round(rng.normal(size=(5, 5)) * (rng.random((5, 5)) < 0.4), 3)
        A[4, 4] = 1.5  # keep the last node referenced
        lines = [
            f"{i}\t{j}\t{A[i, j]}" for i in range(5) for j in range(5) if A[i, j] != 0
        ]
        el = load_edge_list(write(tmp_path, "\n".join(lines) + "\n"))
        B = to_dense(el)
        # same multiset of weights lands in the dense matrix
        assert sorted(B[B != 0]) == sorted(A[A != 0])

    def test_range_without_empty_cell(self):
        # every cell holds an edge, so 0 is not in the range
        el = EdgeList(edges=((1, 1, 3.0), (1, 2, 1.5), (2, 1, 2.0), (2, 2, 4.0)))
        stats = summarize(el)
        assert stats["min_weight"] == 1.5 and stats["max_weight"] == 4.0
        el = EdgeList(edges=((1, 1, -3.0), (1, 2, -1.5), (2, 1, -2.0), (2, 2, -4.0)))
        assert summarize(el)["max_weight"] == -1.5

    def test_rectangular(self):
        # sources and targets of a bipartite list share one node numbering
        el = EdgeList(edges=(("u1", "v1", 1.0), ("u2", "v1", 2.0), ("u2", "v2", -1.0)))
        assert summarize(el) == {
            "n": 4, "n_rows": 4, "n_cols": 4, "edges": 3, "min_weight": -1.0,
            "max_weight": 2.0, "pct_positive_edges": pytest.approx(100.0 * 2 / 3),
        }
        el = EdgeList(edges=(("u1", "v1", 1.0), ("u2", "v1", 2.0)))
        stats = summarize(el)
        assert (stats["n_rows"], stats["n_cols"], stats["min_weight"]) == (3, 3, 0.0)
        assert to_dense(el).shape == (3, 3)

    def test_empty_lists(self):
        stats = summarize(EdgeList())
        assert (stats["n"], stats["min_weight"], stats["max_weight"]) == (0, 0.0, 0.0)
        assert stats["pct_positive_edges"] == 0.0

    @pytest.mark.parametrize(
        "edges",
        [
            pytest.param(((1, 2, -0.0), (2, 1, 2.0)), id="empty-cells"),
            pytest.param(((1, 1, 1.0), (1, 2, 1.0), (2, 1, -0.0), (2, 2, 2.0)), id="min-at-1-0"),
            pytest.param(((1, 1, 1.0), (1, 2, -0.0), (2, 1, 1.0), (2, 2, 2.0)), id="min-at-0-1"),
        ],
    )
    def test_zero_extreme_reads_positive_zero(self, edges):
        stats = summarize(EdgeList(edges=edges))
        assert stats["min_weight"] == 0.0 and math.copysign(1.0, stats["min_weight"]) == 1.0
        negative = tuple((s, t, -w) for s, t, w in edges)
        stats = summarize(EdgeList(edges=negative))
        assert stats["max_weight"] == 0.0 and math.copysign(1.0, stats["max_weight"]) == 1.0

    @pytest.mark.parametrize("first", [0, 1])
    def test_nan_weight_gives_nan_range(self, first):
        # load_edge_list rejects non-finite weights; a hand-built list keeps them
        edges = [(1, 2, float("nan")), (2, 1, 1.0)]
        stats = summarize(EdgeList(edges=edges[first:] + edges[:first]))
        assert math.isnan(stats["min_weight"]) and math.isnan(stats["max_weight"])

    def test_matrix_not_built(self, monkeypatch):
        # a 2000 x 2000 matrix would take 32 MB; the summary reads only the edges
        def no_dense(*args, **kwargs):
            raise AssertionError("summarize built the dense matrix")

        monkeypatch.setattr(ingest, "to_dense", no_dense)
        # a chain through 2000 nodes, plus a self-loop
        el = EdgeList(edges=tuple((i, i + 1, 2.0) for i in range(1999)) + ((5, 5, -1.0),))
        tracemalloc.start()
        try:
            stats = summarize(el)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (stats["n_rows"], stats["min_weight"], stats["max_weight"]) == (2000, -1.0, 2.0)
        assert peak < 4_000_000


# Recorded from `bimix ingest --sum-duplicates` before the duplicate rule moved
# into EdgeList: negative and zero weights, a -0.0, self-loops, 2-column lines,
# a 17-digit weight and two summed duplicates (a -> b and the self-loop c -> c).
GOLDEN_EDGES = """\
% golden fixture
a\tb\t-1.5
b\tc\t0
c\tc\t2.25
b\ta
a\tb\t0.5
d\td\t-3
c\ta\t0.1234567890123456789
d\tc\t-0.0
d\tb
c\tc\t0.125
"""
GOLDEN_DENSE = """\
0,-1,0,0
1,0,0,0
0.12345678901234568,0,2.375,0
0,1,-0,-3
"""
GOLDEN_SUMMARY = """\
{
  "n": 4,
  "n_rows": 4,
  "n_cols": 4,
  "edges": 8,
  "min_weight": -3.0,
  "max_weight": 2.375,
  "pct_positive_edges": 50.0
}
"""


def test_ingest_golden_bytes(tmp_path):
    edges, dense, summary = write(tmp_path, GOLDEN_EDGES), tmp_path / "A.csv", tmp_path / "s.json"
    argv = ["ingest", str(edges), "--dense", str(dense), "--summary", str(summary)]
    assert main(argv + ["--sum-duplicates"]) == 0
    assert dense.read_text() == GOLDEN_DENSE
    assert summary.read_text() == GOLDEN_SUMMARY
    assert main(argv) == 1  # a -> b repeats


def test_ingest_signed_zero_summary(tmp_path):
    # the only deliberate byte change: a zero extreme is written as 0.0, never -0.0
    edges = write(tmp_path, "1 1 1\n1 2 1\n2 1 -0.0\n2 2 2\n")
    dense, summary = tmp_path / "A.csv", tmp_path / "s.json"
    assert main(["ingest", str(edges), "--dense", str(dense), "--summary", str(summary)]) == 0
    assert dense.read_text() == "1,1\n-0,2\n"
    assert '"min_weight": 0.0,' in summary.read_text()
    assert json.loads(summary.read_text())["max_weight"] == 2.0
