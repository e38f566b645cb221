import csv
import json
from dataclasses import dataclass

import numpy as np
import pytest

from magwell._files import load_json_object, write_csv, write_json


@dataclass(frozen=True)
class Inner:
    values: np.ndarray
    label: str


@dataclass(frozen=True)
class Outer:
    count: int
    inner: Inner
    pairs: tuple[tuple[float, float], ...]


class TestWriteCSV:
    def test_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c", "d", "e"],
                  [[np.float64(0.1), np.float32(0.5), 7, None, "x,y"],
                   [np.float64(1 / 3), np.float32(0.1), np.int64(-2), "", "z"]])
        assert path.read_bytes().decode() == (
            "a,b,c,d,e\r\n"
            "0.1,0.5,7,,\"x,y\"\r\n"
            f"{1 / 3!r},{float(np.float32(0.1))!r},-2,,z\r\n")

    def test_float_cells_read_back_exactly(self, tmp_path):
        path = tmp_path / "t.csv"
        values = np.random.default_rng(3).standard_normal(20)
        write_csv(path, ["v"], [[v] for v in values])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [float(r[0]) for r in rows[1:]] == values.tolist()
        assert not any("np." in r[0] for r in rows)

    def test_ndarray_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x", "y"], np.array([[1.0, 2.5], [0.25, -4.0]]))
        assert path.read_bytes().decode() == "x,y\r\n1.0,2.5\r\n0.25,-4.0\r\n"


class TestWriteJSON:
    def test_ndarray_and_numpy_scalars(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"m": np.arange(4.0).reshape(2, 2),
                          "i": np.int64(5), "b": np.bool_(True),
                          "f": np.float32(0.5)})
        assert json.loads(path.read_text()) == {
            "m": [[0.0, 1.0], [2.0, 3.0]], "i": 5, "b": True, "f": 0.5}

    def test_nested_dataclass(self, tmp_path):
        path = tmp_path / "t.json"
        obj = Outer(count=2, inner=Inner(np.array([1.5, 2.5]), "in"),
                    pairs=((0.1, 0.2), (0.3, 0.4)))
        write_json(path, {"row": obj})
        assert json.loads(path.read_text()) == {"row": {
            "count": 2, "inner": {"values": [1.5, 2.5], "label": "in"},
            "pairs": [[0.1, 0.2], [0.3, 0.4]]}}

    def test_layout_is_indented_and_sorted(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": 1, "a": [np.float64(0.1)]})
        assert path.read_text() == '{\n  "a": [\n    0.1\n  ],\n  "b": 1\n}'

    @pytest.mark.parametrize("obj", [object(), {1, 2}, np.complex128(1j), Inner])
    def test_unsupported_object_raises(self, tmp_path, obj):
        with pytest.raises(TypeError):
            write_json(tmp_path / "t.json", {"x": obj})


class TestLoadJSONObject:
    @pytest.mark.parametrize("doc,token", [
        ({"a": float("nan")}, "NaN"),
        ({"a": [1.0, [2.0, float("inf")]]}, "Infinity"),
        ({"a": {"b": (0.0, np.float32("-inf"))}}, "-Infinity"),
        ({"a": np.array([[1.0], [np.nan]])}, "NaN"),
    ])
    def test_mapping_rejects_nested_non_finite(self, doc, token):
        with pytest.raises(ValueError, match=f"^doc holds the non-finite number {token}$"):
            load_json_object(doc, "doc")

    @pytest.mark.parametrize("text,token", [('{"a": [1.0, NaN]}', "NaN"),
                                            ('{"a": {"b": -Infinity}}', "-Infinity")])
    def test_file_gives_the_same_message(self, tmp_path, text, token):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^doc holds the non-finite number {token}$"):
            load_json_object(path, "doc")

    def test_finite_mapping_passes_through(self):
        doc = {"n": 2, "x": [1.0, [2.5, -3.0]], "s": "nan", "b": True, "z": None}
        assert load_json_object(doc, "doc") == doc
