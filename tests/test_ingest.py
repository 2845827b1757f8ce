"""Edge-list parsing, isolated-node removal and densification tests."""

import numpy as np
import pytest

from bimix.ingest import (
    EdgeList,
    EdgeListError,
    drop_isolated,
    load_edge_list,
    summarize,
    to_dense,
)


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
        el = load_edge_list(write(tmp_path, "1 2\n"), weight_default=1.0)
        assert el.edges == ((1, 2, 1.0),)

    def test_csv_format(self, tmp_path):
        el = load_edge_list(write(tmp_path, "x, y, -3\ny, x, 4\n"), format="csv")
        assert el.edges == (("x", "y", -3.0), ("y", "x", 4.0))

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


class TestDropIsolated:
    def test_unreferenced_declared_node_removed(self):
        el = EdgeList(edges=((1, 2, 1.0),), nodes=(1, 2, 3))
        assert drop_isolated(el).nodes == (1, 2)

    def test_idempotent(self):
        el = EdgeList(edges=((1, 2, 1.0), (2, 1, 2.0)), nodes=(1, 2, 9, 10))
        once = drop_isolated(el)
        assert drop_isolated(once) == once

    def test_dense_list_unchanged(self):
        el = EdgeList(edges=((1, 2, 1.0), (2, 3, 1.0)), nodes=(1, 2, 3))
        assert drop_isolated(el) == el

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
        # the reader adds a node only as an edge endpoint
        el = load_edge_list(write(tmp_path, text), duplicates=duplicates)
        assert drop_isolated(el) == el


class TestToDense:
    def test_small_square(self):
        el = EdgeList(edges=(("a", "b", 2.0), ("c", "a", -1.0)), nodes=("a", "b", "c"))
        A = to_dense(el, square=True)
        assert A.shape == (3, 3)
        assert np.count_nonzero(A) == 2
        assert A[0, 1] == 2.0 and A[2, 0] == -1.0

    def test_self_loops_kept(self):
        el = EdgeList(edges=((1, 1, 3.0),), nodes=(1,))
        A = to_dense(el)
        assert A[0, 0] == 3.0

    def test_bipartite_separate_spaces(self):
        el = EdgeList(edges=(("u1", "v1", 1.0), ("u2", "v1", 2.0)), nodes=("u1", "v1", "u2"))
        A = to_dense(el, square=False)
        assert A.shape == (2, 1)
        np.testing.assert_array_equal(A, [[1.0], [2.0]])

    def test_nonzero_count_matches_edges(self):
        rng = np.random.default_rng(0)
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, 8, size=(30, 2))}
        edges = tuple((a, b, 1.0) for a, b in pairs)
        el = EdgeList(edges=edges, nodes=tuple(range(8)))
        assert np.count_nonzero(to_dense(el)) == len(edges)

    def test_manual_duplicates_error_at_densify(self):
        el = EdgeList(edges=((1, 2, 1.0), (1, 2, 5.0)), nodes=(1, 2))
        with pytest.raises(EdgeListError, match="duplicate"):
            to_dense(el)

    def test_manual_duplicates_summed_when_declared(self):
        el = EdgeList(edges=((1, 2, 1.0), (1, 2, 5.0)), nodes=(1, 2), duplicate_policy="sum")
        assert to_dense(el)[0, 1] == 6.0


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
        el = drop_isolated(el)
        B = to_dense(el)
        # same multiset of weights lands in the dense matrix
        assert sorted(B[B != 0]) == sorted(A[A != 0])
