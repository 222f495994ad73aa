"""Serialization for tensors, flow traces, and criticality reports.

Tensor files are JSON of the form

    { "dim": n, "entries": [ { "i": 1, "j": 2, "k": 3, "re": 1.0, "im": 0.0 }, ... ] }

with 1-based indices.  Only entries with i < j are stored — the (j, i, k)
coefficient is implied by antisymmetry — and unlisted triples are zero.
Writers emit entries sorted lexicographically by (i, j, k) with floats at 17
significant digits, so parse(emit(x)) reproduces x bit-exactly.  The parser
is strict: unknown keys, out-of-range or non-increasing index pairs,
duplicate triples, and non-finite values are all rejected with ValueError.

Flow traces are CSV with columns step,F,grad_norm, one row per accepted
descent step (plus the starting point).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .algebra import StructureTensor
from .classify import CriticalType
from .moment import CriticalReport

__all__ = [
    "json_text",
    "tensor_to_json",
    "tensor_from_json",
    "tensor_write",
    "tensor_read",
    "trace_csv",
    "trace_write",
    "type_to_dict",
    "report_to_dict",
    "fraction_str",
]


def _float17(x: float) -> str:
    """A JSON number token with 17 significant digits (round-trip exact)."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(float(x), ".17g")


def json_text(obj, indent: int = 0) -> str:
    """JSON text for nested dict/list/scalar data, floats at 17 digits.

    The stock json module offers no hook for float formatting, so this
    small emitter keeps every numeric output of the package at the same
    fidelity as the tensor files.
    """
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(key))}: {json_text(val, indent + 2)}'
            for key, val in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        parts = [json_text(val, indent + 2) for val in obj]
        if all(not isinstance(val, (dict, list, tuple)) for val in obj):
            return "[" + ", ".join(parts) + "]"
        inner = ",\n".join(pad + "  " + part for part in parts)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float17(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def tensor_to_json(tensor: StructureTensor) -> str:
    n = tensor.dim
    c = tensor.coeff
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                v = c[i, j, k]
                if v != 0:
                    rows.append(
                        f'    {{ "i": {i + 1}, "j": {j + 1}, "k": {k + 1}, '
                        f'"re": {_float17(v.real)}, "im": {_float17(v.imag)} }}'
                    )
    if not rows:
        return f'{{ "dim": {n}, "entries": [] }}\n'
    body = ",\n".join(rows)
    return f'{{\n  "dim": {n},\n  "entries": [\n{body}\n  ]\n}}\n'


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name!r} is not allowed")


def _index(entry: dict, key: str, n: int) -> int:
    v = entry[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f'entry field "{key}" must be an integer, got {v!r}')
    if not 1 <= v <= n:
        raise ValueError(f'entry index "{key}" = {v} outside 1..{n}')
    return v


def _value(entry: dict, key: str) -> float:
    v = entry[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f'entry field "{key}" must be a number, got {v!r}')
    if not math.isfinite(v):
        raise ValueError(f'entry field "{key}" must be finite, got {v!r}')
    return float(v)


def tensor_from_json(text: str) -> StructureTensor:
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("tensor file must be a JSON object")
    extra = set(data) - {"dim", "entries"}
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in tensor file")
    if "dim" not in data or "entries" not in data:
        raise ValueError('tensor file must have "dim" and "entries" keys')
    n = data["dim"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f'"dim" must be a positive integer, got {n!r}')
    entries = data["entries"]
    if not isinstance(entries, list):
        raise ValueError('"entries" must be a list')

    c = np.zeros((n, n, n), dtype=complex)
    seen = set()
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "k", "re", "im"}:
            raise ValueError(
                f"entry {pos} must be an object with exactly the keys i, j, k, re, im"
            )
        i, j, k = (_index(entry, key, n) for key in ("i", "j", "k"))
        if i >= j:
            raise ValueError(
                f"entry {pos} has i = {i} >= j = {j}; only i < j may be stored"
            )
        if (i, j, k) in seen:
            raise ValueError(f"duplicate entry for (i, j, k) = ({i}, {j}, {k})")
        seen.add((i, j, k))
        v = complex(_value(entry, "re"), _value(entry, "im"))
        c[i - 1, j - 1, k - 1] = v
        c[j - 1, i - 1, k - 1] = -v
    return StructureTensor(c)


def tensor_write(path, tensor: StructureTensor) -> None:
    with open(path, "w") as fh:
        fh.write(tensor_to_json(tensor))


def tensor_read(path) -> StructureTensor:
    with open(path) as fh:
        return tensor_from_json(fh.read())


def trace_csv(trace) -> str:
    lines = ["step,F,grad_norm"]
    for step, f, gnorm in trace.samples:
        lines.append(f"{step},{_float17(f)},{_float17(gnorm)}")
    return "\n".join(lines) + "\n"


def trace_write(path, trace) -> None:
    with open(path, "w") as fh:
        fh.write(trace_csv(trace))


def type_to_dict(ctype: CriticalType) -> dict:
    return {"ks": list(ctype.ks), "ds": list(ctype.ds)}


def report_to_dict(report: CriticalReport) -> dict:
    return {
        "c_mu": float(report.c_mu),
        "D_eigenvalues": [float(x) for x in report.d_eigenvalues()],
        "residual": float(report.residual),
        "F": float(report.F_value),
        "is_critical": bool(report.is_critical),
    }


def fraction_str(value: Fraction) -> str:
    """Exact "p/q" text for a rational value (plain "p" when q = 1)."""
    return str(Fraction(value))
