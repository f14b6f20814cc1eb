"""Unit tests for table rendering and result writers."""

import csv
import json
import math
import os

import pytest

from repro.io import fmt, format_table, write_csv, write_json


class TestFmt:
    def test_none(self):
        assert fmt(None) == "-"

    def test_bool(self):
        assert fmt(True) == "yes"
        assert fmt(False) == "no"

    def test_int(self):
        assert fmt(42) == "42"

    def test_float_fixed(self):
        assert fmt(0.12345, precision=3) == "0.123"

    def test_float_scientific_for_tiny(self):
        assert "e" in fmt(1.5e-9)

    def test_float_scientific_for_huge(self):
        assert fmt(1.23e7, precision=3) == "1.23e+07"

    def test_special_values(self):
        assert fmt(float("nan")) == "nan"
        assert fmt(float("inf")) == "inf"
        assert fmt(float("-inf")) == "-inf"

    def test_zero(self):
        assert fmt(0.0) == "0.0000"

    def test_string_passthrough(self):
        assert fmt("PDMV") == "PDMV"


class TestFormatTable:
    ROWS = [
        {"pattern": "PD", "H": 0.0714, "n": 1},
        {"pattern": "PDMV", "H": 0.0395, "n": 6},
    ]

    def test_contains_headers_and_values(self):
        out = format_table(self.ROWS)
        assert "pattern" in out and "H" in out
        assert "PDMV" in out and "0.0714" in out

    def test_title(self):
        out = format_table(self.ROWS, title="My title")
        assert out.splitlines()[0] == "My title"

    def test_column_selection_and_order(self):
        out = format_table(self.ROWS, columns=["n", "pattern"])
        header = out.splitlines()[0]
        assert header.index("n") < header.index("pattern")
        assert "H" not in header.split()

    def test_missing_keys_dash(self):
        out = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "-" in out

    def test_empty(self):
        assert "(no rows)" in format_table([])
        assert format_table([], title="T").startswith("T")

    def test_alignment_consistent_width(self):
        out = format_table(self.ROWS)
        lines = out.splitlines()
        assert len({len(line) for line in lines if line}) <= 2


class TestWriters:
    def test_csv_roundtrip(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        path = tmp_path / "out" / "rows.csv"
        write_csv(rows, str(path))
        with open(path) as fh:
            back = list(csv.DictReader(fh))
        assert back == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]

    def test_csv_column_subset(self, tmp_path):
        rows = [{"a": 1, "b": 2}]
        path = tmp_path / "rows.csv"
        write_csv(rows, str(path), columns=["b"])
        with open(path) as fh:
            assert fh.readline().strip() == "b"

    def test_csv_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], str(tmp_path / "x.csv"))

    def test_json_roundtrip(self, tmp_path):
        data = {"rows": [{"a": 1.5}], "meta": "ok"}
        path = tmp_path / "nested" / "out.json"
        write_json(data, str(path))
        with open(path) as fh:
            assert json.load(fh) == data

    def test_json_numpy_coercion(self, tmp_path):
        import numpy as np

        path = tmp_path / "np.json"
        write_json({"x": np.float64(1.5), "v": np.arange(3)}, str(path))
        with open(path) as fh:
            back = json.load(fh)
        assert back == {"x": 1.5, "v": [0, 1, 2]}


class TestJsonl:
    def test_write_read_round_trip(self, tmp_path):
        from repro.io import read_jsonl, write_jsonl

        path = str(tmp_path / "out" / "j.jsonl")
        n = write_jsonl([{"a": 1}, {"b": 2.5}], path)
        assert n == 2
        assert read_jsonl(path) == [{"a": 1}, {"b": 2.5}]

    def test_append_mode_is_default(self, tmp_path):
        from repro.io import read_jsonl, write_jsonl

        path = str(tmp_path / "j.jsonl")
        write_jsonl([{"a": 1}], path)
        write_jsonl([{"a": 2}], path)
        assert read_jsonl(path) == [{"a": 1}, {"a": 2}]

    def test_overwrite_mode(self, tmp_path):
        from repro.io import read_jsonl, write_jsonl

        path = str(tmp_path / "j.jsonl")
        write_jsonl([{"a": 1}], path)
        write_jsonl([{"a": 2}], path, append=False)
        assert read_jsonl(path) == [{"a": 2}]

    def test_truncated_final_line_skipped(self, tmp_path):
        from repro.io import read_jsonl, write_jsonl

        path = str(tmp_path / "j.jsonl")
        write_jsonl([{"a": 1}, {"a": 2}], path)
        with open(path, "a") as fh:
            fh.write('{"a": 3, "trunc')  # killed mid-write
        assert read_jsonl(path) == [{"a": 1}, {"a": 2}]

    def test_blank_lines_skipped(self, tmp_path):
        from repro.io import read_jsonl

        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as fh:
            fh.write('{"a": 1}\n\n{"a": 2}\n')
        assert read_jsonl(path) == [{"a": 1}, {"a": 2}]

    def test_numpy_coercion(self, tmp_path):
        import numpy as np

        from repro.io import read_jsonl, write_jsonl

        path = str(tmp_path / "j.jsonl")
        write_jsonl([{"x": np.float64(0.5)}], path)
        assert read_jsonl(path) == [{"x": 0.5}]


class TestEmptyCsvWithColumns:
    def test_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        write_csv([], path, columns=["a", "b"])
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines == ["a,b"]

    def test_empty_without_columns_still_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="explicit columns"):
            write_csv([], str(tmp_path / "x.csv"))
