"""Edge-list parsing, matrix building and summary tests."""

import json
import math
import re

import numpy as np
import pytest

from bimix.cli import main
from bimix.ingest import EdgeListError, load_edge_list, summarize


def write(tmp_path, text, name="edges.tsv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def edge_text(edges):
    """One ``source target weight`` line per edge, the weight written with ``repr``."""
    return "".join(f"{src} {tgt} {weight!r}\n" for src, tgt, weight in edges)


class TestLoadEdgeList:
    def test_three_column_tsv(self, tmp_path):
        A, edges = load_edge_list(write(tmp_path, "a\tb\t2.5\n"))
        np.testing.assert_array_equal(A, [[0.0, 2.5], [0.0, 0.0]])
        assert edges == 1

    def test_two_columns_take_default_weight(self, tmp_path):
        A, edges = load_edge_list(write(tmp_path, "1 2\n"))
        np.testing.assert_array_equal(A, [[0.0, 1.0], [0.0, 0.0]])

    def test_csv_format(self, tmp_path):
        A, edges = load_edge_list(write(tmp_path, "x, y, -3\ny, x, 4\n"), format="csv")
        np.testing.assert_array_equal(A, [[0.0, -3.0], [4.0, 0.0]])
        assert edges == 2

    @pytest.mark.parametrize("line", ["a,,1", ",b,1", "a, ,1", "a,"])
    def test_csv_empty_node_rejected_naming_the_line(self, tmp_path, line):
        # "a,,1" once made a node named ''
        with pytest.raises(EdgeListError, match="^line 2: empty node id$"):
            load_edge_list(write(tmp_path, f"x,y,1\n{line}\n"), format="csv")

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        text = "% header\n# another comment\n\n1\t2\t1\n"
        A, edges = load_edge_list(write(tmp_path, text))
        assert (A.shape, edges) == ((2, 2), 1)

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(EdgeListError, match="line 2"):
            load_edge_list(write(tmp_path, "1\t2\t1\n1\t2\t3\t4\t5\n"))

    def test_non_finite_weight_rejected(self, tmp_path):
        with pytest.raises(EdgeListError, match="non-finite"):
            load_edge_list(write(tmp_path, "1\t2\tinf\n"))

    @pytest.mark.parametrize("weight", ["abc", "1_0"])
    def test_unparsable_weight_rejected(self, tmp_path, weight):
        # float() reads 1_0 as 10; the dense CSV reader and this one reject it
        with pytest.raises(EdgeListError, match=f"^line 1: unparsable weight '{weight}'$"):
            load_edge_list(write(tmp_path, f"1\t2\t{weight}\n"))

    def test_duplicate_default_errors(self, tmp_path):
        # the repeat is named by its tokens as written
        with pytest.raises(EdgeListError, match=r"^line 3: duplicate edge 07 -> \+4$"):
            load_edge_list(write(tmp_path, "07\t+4\t1\n7\t4\t1\n07\t+4\t3\n"))

    def test_duplicate_sum_policy(self, tmp_path):
        A, edges = load_edge_list(write(tmp_path, "1\t2\t1\n1\t2\t3\n"), duplicates="sum")
        np.testing.assert_array_equal(A, [[0.0, 4.0], [0.0, 0.0]])
        assert edges == 1

    def test_first_appearance_interning(self, tmp_path):
        # nodes 5, 3, 2 take rows and columns 0, 1, 2
        A, _ = load_edge_list(write(tmp_path, "5\t3\t1\n2\t5\t2\n"))
        np.testing.assert_array_equal(A, [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])

    def test_tokens_spelling_one_int_stay_distinct(self, tmp_path):
        # each distinct token is its own node: 07 is not 7, 1_0 is not 10, +4 is not 4
        A, edges = load_edge_list(write(tmp_path, "7 1 1\n07 2 1\n1_0 10 3\n-4 +4 1\n"))
        expected = np.zeros((8, 8))
        expected[[0, 2, 4, 6], [1, 3, 5, 7]] = [1.0, 1.0, 3.0, 1.0]
        np.testing.assert_array_equal(A, expected)
        assert edges == 4


class TestEdgeList:
    def test_reversed_pair_and_self_loop_are_distinct(self, tmp_path):
        A, edges = load_edge_list(write(tmp_path, "1 2 1\n2 1 2\n1 1 3\n"))
        np.testing.assert_array_equal(A, [[3.0, 1.0], [2.0, 0.0]])
        assert edges == 3


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
        # rows and columns are the file's node tokens in first-appearance order
        path = write(tmp_path, text)
        A, edges = load_edge_list(path, duplicates=duplicates)
        lines = [line.split() for line in path.read_text().splitlines()]
        tokens = dict.fromkeys(token for line in lines for token in line[:2])
        index = {token: i for i, token in enumerate(tokens)}
        expected = np.zeros((len(index), len(index)))
        for src, tgt, *weight in lines:
            expected[index[src], index[tgt]] += float(weight[0]) if weight else 1.0
        np.testing.assert_array_equal(A, expected)
        assert edges == len({(src, tgt) for src, tgt, *_ in lines})


class TestToDense:
    """The matrix ``load_edge_list`` builds: one cell per (source, target) pair."""

    def test_small_square(self, tmp_path):
        A, _ = load_edge_list(write(tmp_path, "a b 2\nc a -1\n"))
        assert A.shape == (3, 3)
        assert np.count_nonzero(A) == 2
        assert A[0, 1] == 2.0 and A[2, 0] == -1.0

    def test_self_loops_kept(self, tmp_path):
        A, _ = load_edge_list(write(tmp_path, "1 1 3\n"))
        np.testing.assert_array_equal(A, [[3.0]])

    def test_nonzero_count_matches_edges(self, tmp_path):
        rng = np.random.default_rng(0)
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, 8, size=(30, 2))}
        A, edges = load_edge_list(write(tmp_path, edge_text((a, b, 1.0) for a, b in pairs)))
        assert np.count_nonzero(A) == edges == len(pairs)

    def test_empty_lists(self, tmp_path):
        # a file with no edge lines would give an empty matrix that fit cannot read
        for text in ("", "% only\n# comments\n\n"):
            path = write(tmp_path, text)
            with pytest.raises(EdgeListError, match=f"^{re.escape(str(path))} holds no edges$"):
                load_edge_list(path)


class TestSummarize:
    def test_statistics(self, tmp_path):
        text = "1\t2\t1\n2\t1\t-1\n1\t3\t2\n"
        stats = summarize(*load_edge_list(write(tmp_path, text)))
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
        B, edges = load_edge_list(write(tmp_path, "\n".join(lines) + "\n"))
        # same multiset of weights lands in the dense matrix
        assert sorted(B[B != 0]) == sorted(A[A != 0])
        assert edges == len(lines)

    def test_range_without_empty_cell(self, tmp_path):
        # every cell holds an edge, so 0 is not in the range
        edges = [(1, 1, 3.0), (1, 2, 1.5), (2, 1, 2.0), (2, 2, 4.0)]
        stats = summarize(*load_edge_list(write(tmp_path, edge_text(edges))))
        assert stats["min_weight"] == 1.5 and stats["max_weight"] == 4.0
        negative = [(src, tgt, -weight) for src, tgt, weight in edges]
        stats = summarize(*load_edge_list(write(tmp_path, edge_text(negative))))
        assert stats["max_weight"] == -1.5

    def test_rectangular(self, tmp_path):
        # sources and targets of a bipartite list share one node numbering
        path = write(tmp_path, "u1 v1 1\nu2 v1 2\nu2 v2 -1\n")
        assert summarize(*load_edge_list(path)) == {
            "n": 4, "n_rows": 4, "n_cols": 4, "edges": 3, "min_weight": -1.0,
            "max_weight": 2.0, "pct_positive_edges": pytest.approx(100.0 * 2 / 3),
        }
        A, edges = load_edge_list(write(tmp_path, "u1 v1 1\nu2 v1 2\n"))
        stats = summarize(A, edges)
        assert (stats["n_rows"], stats["n_cols"], stats["min_weight"]) == (3, 3, 0.0)
        assert A.shape == (3, 3)

    def test_empty_lists(self, tmp_path, capsys):
        # bimix ingest writes nothing for a file with no edge lines
        for text in ("", "% only\n# comments\n\n"):
            edges, dense, summary = write(tmp_path, text), tmp_path / "A.csv", tmp_path / "s.json"
            assert main(["ingest", str(edges), "--dense", str(dense), "--summary", str(summary)]) == 1
            assert capsys.readouterr().err == f"error: {edges} holds no edges\n"
            assert not dense.exists() and not summary.exists()

    @pytest.mark.parametrize(
        "edges",
        [
            pytest.param(((1, 2, -0.0), (2, 1, 2.0)), id="empty-cells"),
            pytest.param(((1, 1, 1.0), (1, 2, 1.0), (2, 1, -0.0), (2, 2, 2.0)), id="min-at-1-0"),
            pytest.param(((1, 1, 1.0), (1, 2, -0.0), (2, 1, 1.0), (2, 2, 2.0)), id="min-at-0-1"),
        ],
    )
    def test_zero_extreme_reads_positive_zero(self, tmp_path, edges):
        stats = summarize(*load_edge_list(write(tmp_path, edge_text(edges))))
        assert stats["min_weight"] == 0.0 and math.copysign(1.0, stats["min_weight"]) == 1.0
        negative = [(src, tgt, -weight) for src, tgt, weight in edges]
        stats = summarize(*load_edge_list(write(tmp_path, edge_text(negative))))
        assert stats["max_weight"] == 0.0 and math.copysign(1.0, stats["max_weight"]) == 1.0

    @pytest.mark.parametrize("first", [0, 1])
    def test_nan_weight_gives_nan_range(self, first):
        # load_edge_list rejects non-finite weights; a matrix built by hand keeps them
        A = np.zeros((2, 2))
        A[[first, 1 - first], [1 - first, first]] = [float("nan"), 1.0]
        stats = summarize(A, 2)
        assert math.isnan(stats["min_weight"]) and math.isnan(stats["max_weight"])


# Recorded from an earlier `bimix ingest --sum-duplicates`: negative and zero
# weights, a -0.0, self-loops, 2-column lines, a 17-digit weight and two
# summed duplicates (a -> b and the self-loop c -> c).
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
