import csv
import json
from dataclasses import dataclass

import numpy as np
import pytest

from magwell._files import load_json_object, read_fields, write_csv, write_json


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


KINDS = {"i": "integer", "x": "number", "v": "numbers", "m": "array", "p": "integer?"}


# how read_fields shows a value of each non-finite JSON token
SHOWN = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}


class TestLoadJSONObject:
    """`load_json_object` only parses; `read_fields` refuses a non-finite
    number by its field, whether the document is a mapping or a file."""

    @pytest.mark.parametrize("doc,token", [
        ({"x": float("nan")}, "NaN"),
        ({"m": [[1.0, 2.0], [3.0, float("inf")]]}, "Infinity"),
        ({"m": ((0.0,), (np.float32("-inf"),))}, "-Infinity"),
        ({"m": np.array([[1.0], [np.nan]])}, "NaN"),
    ])
    def test_mapping_rejects_nested_non_finite(self, doc, token):
        name, = doc
        with pytest.raises(ValueError, match=f"^{name} must be ") as info:
            read_fields(doc, "doc", KINDS)
        assert SHOWN[token] in str(info.value)

    @pytest.mark.parametrize("text,token", [('{"a": [1.0, NaN]}', "NaN"),
                                            ('{"a": {"b": -Infinity}}', "-Infinity")])
    def test_file_gives_the_same_message(self, tmp_path, text, token):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="^a must be a list of ") as from_file:
            read_fields(path, "doc", {"a": "numbers"})
        with pytest.raises(ValueError) as from_mapping:
            read_fields(json.loads(text), "doc", {"a": "numbers"})
        assert str(from_file.value) == str(from_mapping.value)
        assert SHOWN[token] in str(from_file.value)

    def test_finite_mapping_passes_through(self):
        doc = {"n": 2, "x": [1.0, [2.5, -3.0]], "s": "nan", "b": True, "z": None}
        assert load_json_object(doc, "doc") == doc


class TestReadFields:
    def test_values_are_read_as_their_kind(self):
        got = read_fields({"i": 3.0, "x": 2, "v": (1, 2.5), "m": np.eye(2), "p": None},
                          "doc", KINDS)
        assert got == {"i": 3, "x": 2.0, "v": [1.0, 2.5],
                       "m": [[1.0, 0.0], [0.0, 1.0]], "p": None}
        assert type(got["i"]) is int and type(got["x"]) is float

    def test_numpy_scalars_are_numbers(self):
        # a mapping built in Python may hold them
        got = read_fields({"i": np.int64(2), "x": np.float32(0.8)}, "doc", KINDS)
        assert got == {"i": 2, "x": float(np.float32(0.8))}
        assert type(got["i"]) is int and type(got["x"]) is float

    @pytest.mark.parametrize("doc,message", [
        ({"i": 1, "q": 1}, "unknown doc fields: ['q']"),
        ({"x": 1.0}, "missing doc fields: ['i']"),
        ({"i": None}, "i must be an integer, got None"),
        ({"i": 2.5}, "i must be an integer, got 2.5"),
        ({"i": 1, "x": 10**400}, "x must be a finite number, got 1000"),
        ({"i": 1, "v": [[1.0]]}, "v must be a list of numbers, got [[1.0]]"),
        ({"i": 1, "v": [1.0, 10**400]}, "v must be a list of finite numbers, got [1.0, 1000"),
        ({"i": 1, "m": [[1.0, 2.0], [3.0]]}, "m must be a rectangular array of numbers"),
        ({"i": 1, "m": [[1.0], 2.0]}, "m must be a rectangular array of numbers"),
        ({"i": 1, "m": 1.0}, "m must be a rectangular array of numbers, got 1.0"),
        ({"i": 1, "m": [[False]]}, "m must be a rectangular array of numbers, got [[False]]"),
        # a numpy fraction is not truncated, and numpy's bool is no number
        ({"i": np.float32(1.7)}, "i must be an integer, got "),
        ({"i": np.bool_(True)}, "i must be an integer, got "),
        ({"i": True}, "i must be an integer, got True"),
        ({"i": 1, "x": np.bool_(True)}, "x must be a number, got "),
        ({"i": 1, "x": True}, "x must be a number, got True"),
    ], ids=["unknown", "missing", "null", "fraction", "int-overflow", "nested-list",
            "list-int-overflow", "ragged", "mixed-depth", "scalar-array", "bool-leaf",
            "float32-fraction", "numpy-bool-integer", "bool-integer", "numpy-bool-number",
            "bool-number"])
    def test_rejections_name_the_field(self, doc, message):
        with pytest.raises(ValueError) as info:
            read_fields(doc, "doc", KINDS, required=("i",))
        assert str(info.value).startswith(message)
