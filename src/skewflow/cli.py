"""Command-line front end: tensor I/O, single computations, flow runs,
classification, catalog access, and the verification suite.

Exit codes: 0 success, 1 input error, 2 non-convergence, 3 verification
failure.  Tensor files use the shared JSON format (see tensorio); flow
writes a trace CSV and the limit tensor next to the current directory,
named after the input.  All floats are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .algebra import StructureTensor, derivation_algebra, jacobi_residual, structure_invariants
from .catalog import listing, resolve
from .classify import CriticalType, TypeExtractionError, critical_value, extract_type
from .flow import flow, flow_batch
from .moment import criticality, moment_map, scalar_F
from .tensorio import (
    fraction_str,
    json_text,
    report_to_dict,
    tensor_from_json,
    tensor_read,
    tensor_to_json,
    tensor_write,
    trace_write,
    type_to_dict,
)
from .verify import run_suite

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract reserves 2 for
    non-convergence, so usage problems are downgraded to input errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="skewflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p, file=True):
        if file:
            p.add_argument("--file", metavar="PATH", help="tensor JSON file")
        p.add_argument("--catalog", metavar="NAME", help="catalog entry name")
        p.add_argument(
            "--params",
            metavar="a,b,...",
            help="comma-separated parameters for parametric catalog entries",
        )
        p.add_argument("--dim", type=int, metavar="N", help="dimension for sized families")
        p.add_argument("--seed", type=int, metavar="N", help="seed for random entries")

    def add_format_flag(p, default="text"):
        p.add_argument(
            "--format", choices=("json", "csv", "text"), default=default,
            help=f"output format (default {default})",
        )

    p_info = sub.add_parser("info", help="dimension, norm, Jacobi residual, structure flags")
    add_input_flags(p_info)
    add_format_flag(p_info)

    p_moment = sub.add_parser("moment", help="moment-map matrix and energy of the input")
    add_input_flags(p_moment)
    add_format_flag(p_moment)

    p_flow = sub.add_parser("flow", help="run the negative gradient flow to a critical point")
    add_input_flags(p_flow)
    add_format_flag(p_flow)
    p_flow.add_argument(
        "--batch", action="store_true",
        help="treat --file as a JSON array of tensors and flow each one",
    )

    p_classify = sub.add_parser("classify", help="criticality certificate and type of the input")
    add_input_flags(p_classify)
    add_format_flag(p_classify)

    p_catalog = sub.add_parser("catalog", help="list catalog entries or export one as JSON")
    p_catalog.add_argument("action", choices=("list", "export"))
    add_input_flags(p_catalog, file=False)
    add_format_flag(p_catalog, default="json")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--only", metavar="SUITE", help="run a single named suite")
    p_verify.add_argument("--seed", type=int, default=0, metavar="N", help="seed for sampled checks")
    return parser


def _parse_params(text):
    """Comma-separated parameter list; accepts floats, complex, and p/q."""
    if text is None:
        return None
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty parameter in --params")
        try:
            values.append(complex(token))
            continue
        except ValueError:
            pass
        try:
            values.append(complex(float(Fraction(token))))
        except ValueError:
            raise ValueError(f"cannot parse parameter {token!r}") from None
    return tuple(values)


def _sanitize(token: str) -> str:
    return re.sub(r"[^A-Za-z0-9._+-]+", "-", token)


def _reject_catalog_flags(args, taker="--file") -> None:
    """A --file input, or catalog list (taker), takes none of the flags that
    select a catalog entry."""
    given = [f"--{k}" for k in ("catalog", "params", "dim", "seed") if getattr(args, k) is not None]
    if given:
        raise ValueError(f"{taker} takes no {', '.join(given)}")


def _load_tensor(args):
    """Resolve --file/--catalog to (tensor, output base name)."""
    if (args.file is None) == (args.catalog is None):
        raise ValueError("exactly one of --file or --catalog is required")
    if args.file is not None:
        _reject_catalog_flags(args)
        return tensor_read(args.file), _sanitize(Path(args.file).stem)
    params = _parse_params(args.params)
    entry = resolve(args.catalog, params, dim=args.dim, seed=args.seed)
    base = _sanitize(args.catalog)
    if args.params:
        base += "_" + "_".join(_sanitize(t.strip()) for t in args.params.split(","))
    if args.dim is not None:
        base += f"_d{args.dim}"
    if args.seed is not None:
        base += f"_s{args.seed}"
    return entry.tensor, base


def _value_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_value_text(x) for x in v) + "]"
    return str(v)


def _jsonable(data):
    """Replace CriticalType values by their {"ks", "ds"} objects, recursively."""
    if isinstance(data, dict):
        return {k: _jsonable(v) for k, v in data.items()}
    if isinstance(data, (list, tuple)):
        return [_jsonable(v) for v in data]
    if isinstance(data, CriticalType):
        return type_to_dict(data)
    return data


def _csv_cell(v) -> str:
    if isinstance(v, (str, list, tuple)) or v is None:
        return '"' + _value_text(v).replace('"', '""') + '"'
    return _value_text(v)


def _emit(data, fmt: str) -> str:
    """Render an ordered {key: value} report, or a list of them, in the
    requested format.

    CriticalType values become {"ks", "ds"} objects in JSON and the
    (k1<...;d1,...) display form in text and CSV.  A list becomes one CSV
    table, headed by the union of its records' keys in first-seen order, or
    text blocks separated by a blank line.
    """
    if fmt == "json":
        return json_text(_jsonable(data))
    records = [
        {k: str(v) if isinstance(v, CriticalType) else v for k, v in r.items()}
        for r in (data if isinstance(data, list) else [data])
    ]
    if fmt == "csv":
        keys = list(dict.fromkeys(k for r in records for k in r))
        rows = [",".join(_csv_cell(r[k]) if k in r else "" for k in keys) for r in records]
        return "\n".join([",".join(keys), *rows])
    blocks = []
    for r in records:
        width = max(len(k) for k in r)
        blocks.append("\n".join(f"{k:<{width}}  {_value_text(v)}" for k, v in r.items()))
    return "\n\n".join(blocks)


def _cmd_info(args) -> int:
    tensor, _ = _load_tensor(args)
    inv = structure_invariants(tensor)
    data = {
        "dim": tensor.dim,
        "norm_sq": float(tensor.norm() ** 2),
        "jacobi_residual": jacobi_residual(tensor),
        "is_lie": inv.is_lie,
        "dim_derivations": derivation_algebra(tensor).dim_complex,
        "dim_image": inv.dim_image,
        "dim_center": inv.dim_center,
        "is_nilpotent": inv.is_nilpotent,
        "is_solvable": inv.is_solvable,
        "is_semisimple": inv.is_semisimple,
    }
    print(_emit(data, args.format))
    return 0


def _cmd_moment(args) -> int:
    tensor, _ = _load_tensor(args)
    r = moment_map(tensor)
    data = {
        "dim": tensor.dim,
        "norm_sq": float(tensor.norm() ** 2),
        "trace_R": float(np.trace(r).real),
        "scalar_F": None if tensor.is_zero() else scalar_F(tensor),
        "R_re": [[float(x) for x in row] for row in r.real],
        "R_im": [[float(x) for x in row] for row in r.imag],
    }
    print(_emit(data, args.format))
    return 0


def _classification(tensor):
    rep = criticality(tensor)
    stratum = None
    note = None
    if rep.is_critical:
        try:
            stratum = extract_type(rep.D_mu)
        except TypeExtractionError as exc:
            note = str(exc)
    return rep, stratum, note


def _report_data(rep, stratum):
    data = report_to_dict(rep)
    if stratum is not None:
        data["type"] = stratum
        value = critical_value(stratum)
        data["critical_value"] = fraction_str(value)
        data["critical_value_float"] = float(value)
    return data


def _cmd_classify(args) -> int:
    tensor, _ = _load_tensor(args)
    if tensor.is_zero():
        raise ValueError("the zero tensor has no classification")
    rep, stratum, note = _classification(tensor)
    data = _report_data(rep, stratum)
    if note:
        data["note"] = note
    print(_emit(data, args.format))
    return 0


def _flow_summary(trace, base):
    data = {
        "F": float(trace.limit_report.F_value),
        "type": trace.stratum,
        "converged": bool(trace.converged),
        "steps": int(trace.samples[-1][0]),
        "residual": float(trace.limit_report.residual),
        "trace_file": f"{base}_trace.csv",
        "limit_file": f"{base}_limit.json",
    }
    if trace.stratum is not None:
        value = critical_value(trace.stratum)
        data["critical_value"] = fraction_str(value)
    if trace.error:
        data["error"] = trace.error
    return data


def _write_flow_outputs(trace, base) -> None:
    trace_write(f"{base}_trace.csv", trace)
    tensor_write(f"{base}_limit.json", trace.limit)


def _cmd_flow(args) -> int:
    if args.batch:
        if args.file is None:
            raise ValueError("--batch requires --file with a JSON array of tensors")
        _reject_catalog_flags(args)
        with open(args.file) as fh:
            raw = json.load(fh)
        if not isinstance(raw, list):
            raise ValueError("--batch file must contain a JSON array")
        tensors = [tensor_from_json(json.dumps(item)) for item in raw]
        base = _sanitize(Path(args.file).stem)
        traces = flow_batch(tensors)
        summaries = []
        all_ok = True
        for idx, trace in enumerate(traces):
            item_base = f"{base}_{idx:02d}"
            if trace.error and trace.limit_report is None:
                summaries.append({"error": trace.error, "converged": False})
                all_ok = False
                continue
            _write_flow_outputs(trace, item_base)
            summaries.append(_flow_summary(trace, item_base))
            all_ok &= trace.converged
        print(_emit(summaries, args.format))
        return 0 if all_ok else 2

    tensor, base = _load_tensor(args)
    trace = flow(tensor)
    _write_flow_outputs(trace, base)
    print(_emit(_flow_summary(trace, base), args.format))
    return 0 if trace.converged else 2


def _cmd_catalog(args) -> int:
    if args.action == "list":
        _reject_catalog_flags(args, "catalog list")
        rows = listing()
        if args.format == "json":
            print(json_text(rows))
        elif args.format == "csv":
            print("name,param_arity,dim,flags")
            for r in rows:
                print(f"{r['name']},{r['param_arity']},{r['dim']},{';'.join(r['flags'])}")
        else:
            for r in rows:
                flags = " ".join(r["flags"]) or "-"
                print(f"{r['name']:<12} arity={r['param_arity']:<3} dim={r['dim']:<3} {flags}")
        return 0
    # export
    if args.catalog is None:
        raise ValueError("catalog export requires --catalog NAME")
    entry = resolve(args.catalog, _parse_params(args.params), dim=args.dim, seed=args.seed)
    sys.stdout.write(tensor_to_json(entry.tensor))
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(only=args.only, seed=args.seed)
    for result in results:
        print(result.line)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 3 if failed else 0


_COMMANDS = {
    "info": _cmd_info,
    "moment": _cmd_moment,
    "flow": _cmd_flow,
    "classify": _cmd_classify,
    "catalog": _cmd_catalog,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"skewflow {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
