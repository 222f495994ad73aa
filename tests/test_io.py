import json
from fractions import Fraction

import numpy as np
import pytest

from skewflow import (
    CriticalType,
    StructureTensor,
    criticality,
    dim4_family,
    fraction_str,
    mu_he,
    random_tensor,
    report_to_dict,
    tensor_from_json,
    tensor_read,
    tensor_to_json,
    tensor_write,
    trace_csv,
    trace_write,
    type_to_dict,
)
from skewflow.flow import FlowTrace
from skewflow.tensorio import json_text


class TestTensorRoundTrip:
    def test_bit_exact_random(self):
        for seed in range(4):
            t = random_tensor(3 + seed, seed=seed)
            back = tensor_from_json(tensor_to_json(t))
            assert np.array_equal(back.coeff, t.coeff)  # exact, not approx

    def test_bit_exact_catalog(self):
        for name in ("g2", "r3l+C", "n4"):
            t = dim4_family(name, {"g2": (2.0, 1.0), "r3l+C": (0.5,)}.get(name, ())).tensor
            assert tensor_from_json(tensor_to_json(t)) == t

    def test_zero_tensor(self):
        t = StructureTensor.zero(5)
        text = tensor_to_json(t)
        parsed = json.loads(text)
        assert parsed["dim"] == 5 and parsed["entries"] == []
        assert tensor_from_json(text).is_zero()

    def test_file_round_trip(self, tmp_path):
        t = random_tensor(4, seed=9)
        p = tmp_path / "t.json"
        tensor_write(p, t)
        assert tensor_read(p) == t

    def test_only_upper_triple_stored(self):
        text = tensor_to_json(mu_he(3).tensor)
        parsed = json.loads(text)
        assert parsed["entries"] == [{"i": 1, "j": 2, "k": 3, "re": 1.0, "im": 0.0}]

    def test_entries_sorted(self):
        t = random_tensor(4, seed=2)
        entries = json.loads(tensor_to_json(t))["entries"]
        keys = [(e["i"], e["j"], e["k"]) for e in entries]
        assert keys == sorted(keys)
        assert all(e["i"] < e["j"] for e in entries)


class TestStrictParsing:
    def parse(self, obj):
        return tensor_from_json(json.dumps(obj))

    def test_not_an_object(self):
        with pytest.raises(ValueError):
            tensor_from_json("[]")

    def test_unknown_top_key(self):
        with pytest.raises(ValueError):
            self.parse({"dim": 2, "entries": [], "extra": 1})

    def test_missing_keys(self):
        with pytest.raises(ValueError):
            self.parse({"dim": 2})
        with pytest.raises(ValueError):
            self.parse({"entries": []})

    def test_bad_dim(self):
        for dim in (0, -1, 2.0, True, "2"):
            with pytest.raises(ValueError):
                self.parse({"dim": dim, "entries": []})

    def test_entries_not_list(self):
        with pytest.raises(ValueError):
            self.parse({"dim": 2, "entries": {}})

    def test_entry_key_set(self):
        with pytest.raises(ValueError):
            self.parse({"dim": 2, "entries": [{"i": 1, "j": 2, "k": 1, "re": 1.0}]})
        with pytest.raises(ValueError):
            self.parse(
                {"dim": 2, "entries": [
                    {"i": 1, "j": 2, "k": 1, "re": 1.0, "im": 0.0, "x": 0}
                ]}
            )

    def test_index_range(self):
        for i, j, k in ((0, 2, 1), (1, 3, 1), (1, 2, 5)):
            with pytest.raises(ValueError):
                self.parse(
                    {"dim": 2, "entries": [
                        {"i": i, "j": j, "k": k, "re": 1.0, "im": 0.0}
                    ]}
                )

    def test_lower_triangle_rejected(self):
        with pytest.raises(ValueError):
            self.parse(
                {"dim": 2, "entries": [{"i": 2, "j": 1, "k": 1, "re": 1.0, "im": 0.0}]}
            )
        with pytest.raises(ValueError):  # diagonal
            self.parse(
                {"dim": 2, "entries": [{"i": 1, "j": 1, "k": 1, "re": 1.0, "im": 0.0}]}
            )

    def test_duplicates_rejected(self):
        e = {"i": 1, "j": 2, "k": 1, "re": 1.0, "im": 0.0}
        with pytest.raises(ValueError):
            self.parse({"dim": 2, "entries": [e, dict(e, re=2.0)]})

    def test_bool_indices_rejected(self):
        with pytest.raises(ValueError):
            self.parse(
                {"dim": 2, "entries": [
                    {"i": True, "j": 2, "k": 1, "re": 1.0, "im": 0.0}
                ]}
            )

    def test_nonfinite_rejected(self):
        text = '{"dim": 2, "entries": [{"i": 1, "j": 2, "k": 1, "re": NaN, "im": 0.0}]}'
        with pytest.raises(ValueError):
            tensor_from_json(text)
        text = '{"dim": 2, "entries": [{"i": 1, "j": 2, "k": 1, "re": Infinity, "im": 0.0}]}'
        with pytest.raises(ValueError):
            tensor_from_json(text)

    def test_invalid_json(self):
        with pytest.raises(ValueError):
            tensor_from_json("{not json")


def test_float_fidelity_17_digits():
    # values that need all 17 significant digits survive the round trip
    c = np.zeros((2, 2, 2), dtype=complex)
    v = 0.1 + 0.2  # 0.30000000000000004
    c[0, 1, 0] = v + 1j * np.pi
    c[1, 0, 0] = -c[0, 1, 0]
    t = StructureTensor(c)
    back = tensor_from_json(tensor_to_json(t))
    assert back.coeff[0, 1, 0] == t.coeff[0, 1, 0]


class TestTraceCsv:
    def trace(self):
        return FlowTrace(samples=[(0, 12.0, 0.5), (3, 6.0 + 1e-16, 1e-12)])

    def test_header_and_rows(self):
        lines = trace_csv(self.trace()).strip().split("\n")
        assert lines[0] == "step,F,grad_norm"
        assert len(lines) == 3
        step, f, g = lines[1].split(",")
        assert step == "0" and float(f) == 12.0 and float(g) == 0.5

    def test_floats_survive(self):
        lines = trace_csv(self.trace()).strip().split("\n")
        _, f, g = lines[2].split(",")
        assert float(f) == 6.0 + 1e-16
        assert float(g) == 1e-12

    def test_write(self, tmp_path):
        p = tmp_path / "trace.csv"
        trace_write(p, self.trace())
        assert p.read_text().startswith("step,F,grad_norm\n")


def test_type_dict_round_trip():
    t = CriticalType((2, 3, 4), (2, 1, 1))
    d = type_to_dict(t)
    assert d == {"ks": [2, 3, 4], "ds": [2, 1, 1]}


def test_report_to_dict_keys():
    rep = criticality(mu_he(3).tensor)
    d = report_to_dict(rep)
    assert set(d) == {"c_mu", "D_eigenvalues", "residual", "F", "is_critical"}
    assert d["is_critical"] is True
    assert d["F"] == pytest.approx(12.0)
    assert len(d["D_eigenvalues"]) == 3


class TestJsonText:
    def test_parseable_and_exact(self):
        obj = {
            "a": 0.1 + 0.2,
            "b": [1, 2, 3],
            "c": {"nested": True, "n": None},
            "d": "text with \"quotes\"",
        }
        text = json_text(obj)
        back = json.loads(text)
        assert back["a"] == 0.1 + 0.2
        assert back["b"] == [1, 2, 3]
        assert back["c"] == {"nested": True, "n": None}
        assert back["d"] == obj["d"]

    def test_list_items_sit_one_level_deeper(self):
        obj = {"rows": [{"a": 1, "b": [2, 3]}, {"c": None}], "n": 0}
        assert json_text(obj) == (
            '{\n'
            '  "rows": [\n'
            '    {\n'
            '      "a": 1,\n'
            '      "b": [2, 3]\n'
            '    },\n'
            '    {\n'
            '      "c": null\n'
            '    }\n'
            '  ],\n'
            '  "n": 0\n'
            '}'
        )
        assert json_text([{"a": [[1.5]]}]) == '[\n  {\n    "a": [\n      [1.5]\n    ]\n  }\n]'

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            json_text({"x": float("nan")})

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            json_text({"x": object()})


def test_fraction_str():
    assert fraction_str(Fraction(4, 3)) == "4/3"
    assert fraction_str(Fraction(12)) == "12"
    assert fraction_str(Fraction(3, 1)) == "3"
