"""Tests for ARFF import/export."""

import io

import pytest

from repro.data.arff import format_arff, parse_arff, read_arff, write_arff
from repro.data.database import TransactionDatabase

DENSE = """\
% a comment
@relation toy

@attribute bread {0, 1}
@attribute milk {0, 1}
@attribute eggs {0, 1}

@data
1,1,0
0,1,1
0,0,0
"""

SPARSE = """\
@relation toy
@attribute bread {0, 1}
@attribute milk {0, 1}
@attribute eggs {0, 1}
@data
{0 1, 1 1}
{1 1, 2 1}
{}
"""


class TestParsing:
    def test_dense_rows(self):
        db = parse_arff(DENSE)
        assert db.as_sets() == [("bread", "milk"), ("milk", "eggs"), ()]

    def test_sparse_rows(self):
        db = parse_arff(SPARSE)
        assert db.as_sets() == [("bread", "milk"), ("milk", "eggs"), ()]

    def test_dense_and_sparse_agree(self):
        assert parse_arff(DENSE).transactions == parse_arff(SPARSE).transactions

    def test_true_false_nominals(self):
        text = (
            "@relation r\n@attribute x {true, false}\n@data\ntrue\nfalse\n"
        )
        db = parse_arff(text)
        assert db.as_sets() == [("x",), ()]

    def test_quoted_attribute_names(self):
        text = "@relation r\n@attribute 'item a' {0,1}\n@data\n1\n"
        db = parse_arff(text)
        assert db.item_labels == ["item a"]

    def test_missing_data_section_rejected(self):
        with pytest.raises(ValueError, match="no @data"):
            parse_arff("@relation r\n@attribute x {0,1}\n")

    def test_non_binary_nominal_rejected(self):
        with pytest.raises(ValueError, match="not binary"):
            parse_arff("@relation r\n@attribute x {a, b, c}\n@data\na\n")

    def test_non_binary_value_rejected(self):
        with pytest.raises(ValueError, match="non-binary value"):
            parse_arff("@relation r\n@attribute x numeric\n@data\n3.7\n")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="expected 2 values"):
            parse_arff(
                "@relation r\n@attribute x {0,1}\n@attribute y {0,1}\n@data\n1\n"
            )

    def test_sparse_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_arff("@relation r\n@attribute x {0,1}\n@data\n{3 1}\n")


class TestRoundtrip:
    @pytest.fixture
    def db(self):
        return TransactionDatabase.from_iterable(
            [["a", "b"], ["b"], []], item_order=["a", "b", "c"]
        )

    def test_sparse_roundtrip(self, db):
        assert parse_arff(format_arff(db, sparse=True)).transactions == db.transactions

    def test_dense_roundtrip(self, db):
        assert parse_arff(format_arff(db, sparse=False)).transactions == db.transactions

    def test_file_roundtrip(self, db, tmp_path):
        path = tmp_path / "x.arff"
        write_arff(db, path)
        assert read_arff(path).transactions == db.transactions

    def test_stream_roundtrip(self, db):
        buffer = io.StringIO()
        write_arff(db, buffer)
        buffer.seek(0)
        assert read_arff(buffer).transactions == db.transactions

    @pytest.mark.parametrize("sparse", [True, False])
    def test_labels_needing_quotes_roundtrip(self, sparse):
        labels = ["it's", "a\\b", "x y", "c,d", "{e}", '"q"']
        db = TransactionDatabase.from_iterable(
            [labels[:2], labels[2:], [labels[-1]], []], item_order=labels
        )
        back = parse_arff(format_arff(db, sparse=sparse))
        assert back.item_labels == labels
        assert back.transactions == db.transactions

    def test_relation_name_written(self, db):
        assert "@relation basket" in format_arff(db, relation="basket")
