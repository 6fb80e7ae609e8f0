"""Unit tests for FIMI and expression-matrix IO."""

import io
import re

import numpy as np
import pytest

from repro.data.database import TransactionDatabase
from repro.data.io import (
    format_fimi,
    parse_fimi,
    read_expression_matrix,
    read_fimi,
    write_expression_matrix,
    write_fimi,
)


class TestFimiParsing:
    def test_numeric_tokens_become_ints(self):
        db = parse_fimi("1 2 3\n2 3\n")
        assert db.as_sets() == [(1, 2, 3), (2, 3)]

    def test_non_numeric_tokens_stay_strings(self):
        db = parse_fimi("bread milk\nmilk\n")
        assert db.as_sets() == [("bread", "milk"), ("milk",)]

    def test_blank_lines_are_empty_transactions(self):
        db = parse_fimi("a b\n\nb\n")
        assert db.n_transactions == 3
        assert db.as_sets()[1] == ()

    def test_duplicate_items_in_line_collapse(self):
        db = parse_fimi("a a b\n")
        assert db.as_sets() == [("a", "b")]

    def test_empty_input(self):
        db = parse_fimi("")
        assert db.n_transactions == 0
        assert db.n_items == 0

    def test_item_codes_sorted(self):
        db = parse_fimi("5 3\n9\n")
        assert db.item_labels == [3, 5, 9]


class TestFimiRoundtrip:
    def test_roundtrip_through_string(self):
        db = TransactionDatabase.from_iterable(
            [["a", "b"], [], ["c"]], item_order=["a", "b", "c"]
        )
        again = parse_fimi(format_fimi(db))
        assert again.as_sets() == db.as_sets()

    def test_roundtrip_through_file(self, tmp_path):
        db = parse_fimi("1 2\n3\n")
        path = tmp_path / "data.fimi"
        write_fimi(db, path)
        assert read_fimi(path).as_sets() == db.as_sets()

    def test_write_to_stream(self):
        db = parse_fimi("1 2\n")
        buffer = io.StringIO()
        write_fimi(db, buffer)
        assert buffer.getvalue() == "1 2\n"

    def test_format_empty_database(self):
        db = TransactionDatabase([], 0)
        assert format_fimi(db) == ""

    @pytest.mark.parametrize(
        "bad", [("g48", "+"), "", "two words", "tab\there", "\u00a0"]
    )
    def test_label_that_is_not_one_token_raises(self, bad):
        db = TransactionDatabase.from_iterable(
            [["ok", bad], ["ok"]], item_order=["ok", bad]
        )
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            format_fimi(db)

    def test_error_names_the_first_bad_label(self):
        labels = ["a", "b c", ("d", "e")]
        db = TransactionDatabase.from_iterable([labels], item_order=labels)
        with pytest.raises(ValueError, match="'b c'"):
            write_fimi(db, io.StringIO())


class TestExpressionMatrixIO:
    def test_roundtrip(self, tmp_path):
        values = np.array([[0.1, -0.3], [0.5, 0.0]])
        path = tmp_path / "expr.tsv"
        write_expression_matrix(values, ["g1", "g2"], ["c1", "c2"], path)
        read_values, genes, conditions = read_expression_matrix(path)
        assert genes == ["g1", "g2"]
        assert conditions == ["c1", "c2"]
        np.testing.assert_allclose(read_values, values)

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="does not match"):
            write_expression_matrix(
                np.zeros((2, 2)), ["g1"], ["c1", "c2"], tmp_path / "x.tsv"
            )

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="expected 3 fields"):
            read_expression_matrix(io.StringIO("gene\tc1\tc2\ng1\t0.5\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            read_expression_matrix(io.StringIO(""))
