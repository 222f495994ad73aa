"""Seeded inputs, their expected limits, and the checks on each result.

flow-orbit and flow-scale are lists of flow operations; verify is one
seeded run_suite() whose operations are its twelve checks.  Inputs are
built here with numpy from the seed; the program only receives tensors.
"""

from __future__ import annotations

import importlib
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("flow-orbit", "flow-scale", "verify")
F_TOL = 1e-6  # |F - expected| above this fails an operation

# flow-orbit: the six stratum representatives and the three boundary starts
# of skewflow.verify, with the type and value their canonical-basis flows
# reach.  g5 and g2(1/27, 1/3) land in the F = 4 stratum of r3l+C.
ORBIT_STARTS = (
    ("sl2+C", (), "(0<1;3,1)", Fraction(4, 3)),
    ("r2+r2", (), "(0<1;2,2)", Fraction(2)),
    ("g6", (), "(0<1<2;1,2,1)", Fraction(3)),
    ("r3l+C", (0.5,), "(0<1;1,3)", Fraction(4)),
    ("n4", (), "(1<2<3<4;1,1,1,1)", Fraction(6)),
    ("n3+C", (), "(2<3<4;2,1,1)", Fraction(12)),
    ("g8", (0.25,), "(0<1<2;1,2,1)", Fraction(3)),
    ("g5", (), "(0<1;1,3)", Fraction(4)),
    ("g2", (1 / 27, 1 / 3), "(0<1;1,3)", Fraction(4)),
)
ORBIT_IMAGES = (2, 2)  # unitary and GL(4) images per start
# One nilpotent normal form per n, with blocks summing to n - 1.  It is the
# same for every seed, so every seed runs the same mix of work: whether a
# GL image is already critical, or has to flow, depends on the partition.
SCALE_PARTITIONS = {5: (2, 0), 6: (2, 1), 7: (3, 1), 8: (3, 2)}
SCALE_RANDOM = 2  # random tensors per n
# Unitary images of a critical point are critical at once, so one is enough;
# two GL images keep the median operation inside the n = 6 group.
SCALE_IMAGES = (1, 2)


@dataclass(frozen=True)
class Op:
    label: str
    tensor: object  # skewflow.StructureTensor
    expected_type: str
    expected_F: Fraction
    image: bool  # a basis change of a catalog bracket


@dataclass(frozen=True)
class Outcome:
    """What the program returned for one operation, compared across runs."""

    converged: bool = False
    type: str | None = None
    F: float | None = None
    error: str | None = None


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_gl(rng, n):
    return np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _image(g, coeff):
    """Coefficients of g.mu, (g.mu)(X, Y) = g mu(g^-1 X, g^-1 Y)."""
    h = np.linalg.inv(g)
    return np.einsum("pi,qj,kr,pqr->ijk", h, h, g, coeff, optimize=True)


def _images(rng, label, base, expected, algebra, counts):
    """Seeded unitary and GL images of base; counts = (unitary, GL)."""
    ops = []
    for (kind, draw), count in zip((("U", random_unitary), ("GL", random_gl)), counts):
        for copy in range(count):
            g = draw(rng, base.dim)
            ops.append(Op(
                f"{label} {kind}#{copy + 1}",
                algebra.StructureTensor(_image(g, base.coeff)),
                *expected, image=True,
            ))
    return ops


def build(workload, seed):
    """The workload's operations for this seed (None for verify)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if workload == "verify":
        return None
    # through the modules, so that a traced build sees the catalog calls
    algebra = importlib.import_module("skewflow.algebra")
    catalog = importlib.import_module("skewflow.catalog")
    classify = importlib.import_module("skewflow.classify")
    rng = np.random.default_rng(seed)
    ops = []
    if workload == "flow-orbit":
        for name, params, type_str, value in ORBIT_STARTS:
            base = catalog.dim4_family(name, params).tensor
            label = name + (f"({','.join(f'{p:.4g}' for p in params)})" if params else "")
            ops += _images(rng, label, base, (type_str, value), algebra, ORBIT_IMAGES)
        return ops
    for n, p in SCALE_PARTITIONS.items():
        for copy in range(SCALE_RANDOM):
            ops.append(Op(
                f"random n={n} #{copy + 1}",
                catalog.random_tensor(n, seed=int(rng.integers(2**31))),
                f"(0;{n})", Fraction(4, n), image=False,
            ))
        typ = classify.nilpotent_partition_type(p)
        base = catalog.mu_A(catalog.nilpotent_normal_form(p)).tensor
        expected = (str(typ), classify.critical_value(typ))
        ops += _images(rng, f"nf{p} n={n}", base, expected, algebra, SCALE_IMAGES)
    return ops


def run_op(flow_module, op):
    """Flow one input; returns (seconds, Outcome, trace or None)."""
    start = time.perf_counter()
    try:
        trace = flow_module.flow(op.tensor)
    except Exception:
        elapsed = time.perf_counter() - start
        return elapsed, Outcome(error=traceback.format_exc(limit=1).strip().splitlines()[-1]), None
    elapsed = time.perf_counter() - start
    report = trace.limit_report
    return elapsed, Outcome(
        converged=trace.converged,
        type=None if trace.stratum is None else str(trace.stratum),
        F=None if report is None else float(report.F_value),
        error=trace.error,
    ), trace


def failure(op, out):
    """Why the outcome fails its expectation, or None when it passes."""
    if out.error and not out.converged:
        return f"raised: {out.error}"
    if not out.converged:
        return "did not converge"
    if out.type is None:
        return f"no type: {out.error}"
    if out.type != op.expected_type:
        return "wrong type"
    if abs(out.F - float(op.expected_F)) > F_TOL:
        return "F off"
    return None


def orbit_escape(op, out):
    """The known basis-invariance defect: a basis-changed input flows to a
    certified critical point below its own stratum's value.  Within the
    orbit F cannot go below that value, so such a limit has left the orbit."""
    if not (op.image and out.converged and out.type is not None):
        return False
    classify = importlib.import_module("skewflow.classify")
    own_value = classify.critical_value(classify.CriticalType.parse(out.type))
    return abs(out.F - float(own_value)) <= F_TOL and out.F < float(op.expected_F) - F_TOL
