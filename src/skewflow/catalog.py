"""Named example brackets with known flow-limit metadata.

Covers the sixteen four-dimensional families (C4, n3+C, r2+C2, r3+C,
r3l+C, r2+r2, sl2+C, n4, g1..g8), the Heisenberg-type bracket mu_he and the
diagonal-action bracket mu_hy in any dimension, rank-one extensions mu_A of
a matrix acting on an abelian ideal, block normal forms of nilpotent
matrices indexed by partitions, the compact cyclic form of sl2, and seeded
random antisymmetric tensors.  Entries carry the expected limit type and
limit value of the gradient flow where these are known.  One table holds
each four-dimensional family's brackets, representative parameters and
flow limit; the verification suite reads its expected limits from here.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .algebra import StructureTensor, commutator, structure_invariants
from .classify import CriticalType, critical_value, nilpotent_partition_type

__all__ = [
    "CatalogEntry",
    "ExcludedOrbit",
    "DIM4_FAMILY_NAMES",
    "DIM4_FAMILY_ARITY",
    "DEFAULT_PARAMS",
    "EXCLUDED_ORBITS",
    "dim4_family",
    "mu_he",
    "mu_hy",
    "mu_A",
    "nilpotent_normal_form",
    "sl2_compact",
    "random_tensor",
    "resolve",
    "all_entries",
    "listing",
    "g2_curve_params",
]


@dataclass(frozen=True)
class CatalogEntry:
    """A named bracket plus the metadata the verification suite checks."""

    name: str
    params: tuple
    tensor: StructureTensor
    expected_type: CriticalType | None = None
    expected_F: Fraction | None = None
    notes: str = ""

    @property
    def dim(self) -> int:
        return self.tensor.dim


def _entry(name, params, tensor, expected_type=None, expected_F=None, notes=""):
    return CatalogEntry(
        name=name,
        params=tuple(complex(p) for p in params),
        tensor=tensor,
        expected_type=expected_type,
        expected_F=expected_F,
        notes=notes,
    )


class _Family(NamedTuple):
    """A four-dimensional family: the type and value of its flow limit, its
    i<j brackets as a function of the parameters p, and its representative
    parameters, whose count is the family's arity."""

    limit: tuple
    brackets: Callable[[tuple], dict]
    default: tuple = ()


# the six flow limits on L_4, by value
_LIMIT_4_3 = (CriticalType((0, 1), (3, 1)), Fraction(4, 3))
_LIMIT_2 = (CriticalType((0, 1), (2, 2)), Fraction(2))
_LIMIT_3 = (CriticalType((0, 1, 2), (1, 2, 1)), Fraction(3))
_LIMIT_4 = (CriticalType((0, 1), (1, 3)), Fraction(4))
_LIMIT_6 = (CriticalType((1, 2, 3, 4), (1, 1, 1, 1)), Fraction(6))
_LIMIT_12 = (CriticalType((2, 3, 4), (2, 1, 1)), Fraction(12))
_THIRD = 1.0 / 3.0

# C4 is the zero bracket, where the flow is undefined
_DIM4 = {
    "C4": _Family((None, None), lambda p: {}),
    "n3+C": _Family(_LIMIT_12, lambda p: {(0, 1): {2: 1}}),
    "r2+C2": _Family(_LIMIT_4, lambda p: {(0, 1): {0: 1}}),
    "r3+C": _Family(_LIMIT_4, lambda p: {(0, 1): {1: 1}, (0, 2): {1: 1, 2: 1}}),
    "r3l+C": _Family(_LIMIT_4, lambda p: {(0, 1): {1: 1}, (0, 2): {2: p[0]}}, (0.5,)),
    "r2+r2": _Family(_LIMIT_2, lambda p: {(0, 1): {0: 1}, (2, 3): {2: 1}}),
    "sl2+C": _Family(_LIMIT_4_3, lambda p: {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}}),
    "n4": _Family(_LIMIT_6, lambda p: {(0, 1): {2: 1}, (0, 2): {3: 1}}),
    "g1": _Family(_LIMIT_4, lambda p: {(0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: p[0]}}, (2.0,)),
    "g2": _Family(
        _LIMIT_4, lambda p: {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {1: p[0], 2: -p[1], 3: 1}},
        (2.0, 1.0),
    ),
    "g3": _Family(
        _LIMIT_4, lambda p: {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {1: p[0], 2: p[0]}}, (2.0,)
    ),
    "g4": _Family(_LIMIT_4, lambda p: {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {1: 1}}),
    "g5": _Family(
        _LIMIT_4, lambda p: {(0, 1): {1: _THIRD, 2: 1}, (0, 2): {2: _THIRD}, (0, 3): {3: _THIRD}}
    ),
    "g6": _Family(
        _LIMIT_3, lambda p: {(0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 2}, (1, 2): {3: 1}}
    ),
    "g7": _Family(_LIMIT_3, lambda p: {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {3: 1}}),
    "g8": _Family(
        _LIMIT_3,
        lambda p: {(0, 1): {2: 1}, (0, 2): {1: -p[0], 2: 1}, (0, 3): {3: 1}, (1, 2): {3: 1}},
        (2.0,),
    ),
}

DIM4_FAMILY_NAMES = tuple(_DIM4)
DIM4_FAMILY_ARITY = {name: len(family.default) for name, family in _DIM4.items()}
# representative parameters used by the verification suite and `catalog list`
DEFAULT_PARAMS = {name: family.default for name, family in _DIM4.items() if family.default}


def _check_domain(name, p):
    if name == "r3l+C":
        lam = abs(p[0])
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"r3l+C needs 0 < |lambda| <= 1, got {p[0]}")
    elif name in ("g1", "g3"):
        if p[0] == 0:
            raise ValueError(f"{name} needs a nonzero parameter")
    elif name == "g2":
        if p[0] == 0 and p[1] != 0:
            raise ValueError("g2 needs alpha nonzero, or alpha = beta = 0")


def dim4_family(name: str, params=None) -> CatalogEntry:
    """One of the sixteen four-dimensional families, at the given parameters.

    Parameter domains are enforced as stated for each family: 0 < |lambda|
    <= 1 for r3l+C, nonzero alpha for g1 and g3, and for g2 either nonzero
    alpha or both parameters zero.
    """
    family = _DIM4.get(name)
    if family is None:
        raise ValueError(f"unknown four-dimensional family {name!r}")
    p = tuple(complex(x) for x in (params if params is not None else ()))
    if len(p) != len(family.default):
        raise ValueError(f"{name} takes {len(family.default)} parameter(s), got {len(p)}")
    _check_domain(name, p)
    tensor = StructureTensor.from_brackets(4, family.brackets(p))
    return _entry(name, p, tensor, *family.limit)


def mu_he(n: int) -> CatalogEntry:
    """Heisenberg-type bracket [x1, x2] = x3 on C^n, zero otherwise (n >= 3)."""
    if n < 3:
        raise ValueError("mu_he needs n >= 3")
    tensor = StructureTensor.from_brackets(n, {(0, 1): {2: 1}})
    if n == 3:
        t = CriticalType((1, 2), (2, 1))
    else:
        t = CriticalType((2, 3, 4), (2, n - 3, 1))
    return _entry("mu_he", (), tensor, expected_type=t, expected_F=Fraction(12))


def mu_hy(n: int) -> CatalogEntry:
    """Diagonal-action bracket [x1, xi] = xi for i = 2..n on C^n (n >= 2)."""
    if n < 2:
        raise ValueError("mu_hy needs n >= 2")
    tensor = StructureTensor.from_brackets(
        n, {(0, i): {i: 1} for i in range(1, n)}
    )
    t = CriticalType((0, 1), (1, n - 1))
    return _entry("mu_hy", (), tensor, expected_type=t, expected_F=Fraction(4))


def mu_A(a) -> CatalogEntry:
    """Rank-one extension on C^(n+1): x0 acts by the matrix a on an abelian ideal.

    [x0, xj] = sum_k a[k-1, j-1] xk for j = 1..n; all other brackets vanish.
    The squared norm is 2 tr(a a*).  When a is normal and nonzero the bracket
    is already a critical point of type (0<1; 1, n).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError("need a square matrix of size >= 1")
    n = a.shape[0]
    brackets = {}
    for j in range(1, n + 1):
        vec = np.zeros(n + 1, dtype=complex)
        vec[1:] = a[:, j - 1]
        brackets[(0, j)] = vec
    tensor = StructureTensor.from_brackets(n + 1, brackets)
    scale = np.linalg.norm(a)
    notes = ""
    expected_type = expected_F = None
    if scale == 0.0:
        notes = "zero matrix: the bracket vanishes identically"
    else:
        normal = np.linalg.norm(commutator(a, a.conj().T)) <= 1e-12 * scale**2
        if normal:
            expected_type = CriticalType((0, 1), (1, n))
            expected_F = Fraction(4)
    return _entry(
        "mu_A", tuple(a.ravel()), tensor,
        expected_type=expected_type, expected_F=expected_F, notes=notes,
    )


def nilpotent_normal_form(partition) -> np.ndarray:
    """Block nilpotent matrix attached to a nonincreasing integer partition.

    Block i has size n_i + 1 with subdiagonal entries sqrt(j*n_i - j(j-1))
    for j = 1..n_i; a zero part contributes a 1x1 zero block.  These scaled
    Jordan blocks make the commutator [A, A*] diagonal with integer entries.
    """
    parts = [int(x) for x in partition]
    if not parts:
        raise ValueError("partition must be nonempty")
    if any(x < 0 for x in parts):
        raise ValueError("partition entries must be nonnegative")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("partition must be nonincreasing")
    size = sum(x + 1 for x in parts)
    a = np.zeros((size, size), dtype=complex)
    offset = 0
    for m in parts:
        for j in range(1, m + 1):
            a[offset + j, offset + j - 1] = np.sqrt(j * m - j * (j - 1))
        offset += m + 1
    return a


def sl2_compact() -> CatalogEntry:
    """The cyclic bracket [x1,x2]=x3, [x2,x3]=x1, [x3,x1]=x2 on C^3.

    A critical representative of sl2: the moment map is -4I, the functional
    value 4/3, the type (0;3).
    """
    tensor = StructureTensor.from_brackets(
        3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}
    )
    return _entry(
        "sl2_compact", (), tensor,
        expected_type=CriticalType((0,), (3,)), expected_F=Fraction(4, 3),
    )


def random_tensor(n: int, seed: int) -> StructureTensor:
    """Seeded antisymmetric tensor with standard-normal real/imaginary parts."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(seed)
    coeff = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            coeff[i, j] = row
            coeff[j, i] = -row
    return StructureTensor(coeff)


@dataclass(frozen=True)
class ExcludedOrbit:
    """Family parameters whose orbit is not in the Kirwan-Ness quotient.

    The flow started at these parameters leaves the family: the limit lies
    in the orbit named by target_name/target_params, with the stated limit
    type and value.
    """

    name: str
    params: tuple
    target_name: str
    target_params: tuple
    limit_type: CriticalType
    limit_F: Fraction

    @property
    def label(self) -> str:
        """The start as name(p, ...), parameters as fractions: g8(1/4)."""
        ps = ", ".join(str(Fraction(p).limit_denominator(1000)) for p in self.params)
        return f"{self.name}({ps})" if ps else self.name


EXCLUDED_ORBITS = (
    ExcludedOrbit("g8", (0.25,), "g6", (), *_LIMIT_3),
    ExcludedOrbit("g3", (6.75,), "g1", (-2.0,), *_LIMIT_4),
    ExcludedOrbit("g5", (), "g1", (1.0,), *_LIMIT_4),
    ExcludedOrbit("g2", (1.0 / 27.0, 1.0 / 3.0), "g1", (1.0,), *_LIMIT_4),
)


def g2_curve_params(gamma: complex) -> tuple:
    """The g2 parameter curve whose flow limit lands in the g1(gamma) orbit."""
    gamma = complex(gamma)
    if gamma == -2:
        raise ValueError("gamma = -2 is outside the curve's domain")
    return (gamma / (gamma + 2) ** 3, (2 * gamma + 1) / (gamma + 2) ** 2)


# the resolve() arguments of the entries that are not dim-4 families (those take params)
_ARGUMENTS = {
    "mu_he": ("dim",), "mu_hy": ("dim",), "sl2_compact": (), "nilpotent": ("params",),
    "random": ("dim", "seed"),
}


def resolve(name: str, params=None, dim=None, seed=None) -> CatalogEntry:
    """Look up a catalog entry by command-line style name.

    Four-dimensional families take --params (defaults exist for the
    parametric ones); mu_he/mu_hy take --dim (default 4); "nilpotent" reads
    a partition from params and wraps the normal form's rank-one extension;
    "random" takes --dim (default 4) and --seed (default 0) and wraps a
    seeded random tensor (no expectations attached, and in general not a
    Lie bracket).  An argument the named entry does not take is a
    ValueError.
    """
    takes = ("params",) if name in _DIM4 else _ARGUMENTS.get(name)
    if takes is None:
        raise ValueError(f"unknown catalog name {name!r}")
    given = {"params": params, "dim": dim, "seed": seed}
    extra = [key for key, value in given.items() if value is not None and key not in takes]
    if extra:
        raise ValueError(f"catalog entry {name!r} does not take {' or '.join(extra)}")
    dim = 4 if dim is None else int(dim)
    if name in _DIM4:
        return dim4_family(name, _DIM4[name].default if params is None else params)
    if name == "mu_he":
        return mu_he(dim)
    if name == "mu_hy":
        return mu_hy(dim)
    if name == "sl2_compact":
        return sl2_compact()
    if name == "nilpotent":
        if not params:
            raise ValueError("catalog entry 'nilpotent' needs a partition in --params")
        values = tuple(map(complex, params))
        bad = [v for v in values if v.imag != 0 or not v.real.is_integer() or v.real < 0]
        if bad:
            part = bad[0].real if bad[0].imag == 0 else bad[0]
            raise ValueError(f"partition parts must be nonnegative integers, got {part}")
        partition = tuple(int(v.real) for v in values)
        t = nilpotent_partition_type(partition)
        return replace(
            mu_A(nilpotent_normal_form(partition)),
            name="nilpotent", params=tuple(map(complex, partition)),
            expected_type=t, expected_F=critical_value(t),
        )
    tensor = random_tensor(dim, 0 if seed is None else int(seed))
    return CatalogEntry(
        name="random", params=(), tensor=tensor,
        notes="seeded random tensor; in general not a Lie bracket",
    )


def all_entries() -> list:
    """The canonical verified entries: all families at representative
    parameters, plus mu_he(4), mu_hy(4), and the compact sl2."""
    out = [dim4_family(name, DEFAULT_PARAMS.get(name, ())) for name in DIM4_FAMILY_NAMES]
    out.extend([mu_he(4), mu_hy(4), sl2_compact()])
    return out


def _flags(e: CatalogEntry) -> list:
    inv = structure_invariants(e.tensor)
    return [name for name in ("nilpotent", "solvable", "semisimple")
            if getattr(inv, f"is_{name}")]


def listing() -> list:
    """Machine-readable catalog listing: name, param_arity, dim, flags.

    Variadic entries report arity -1 and a representative dim: nilpotent
    that of its smallest instance, the partition (1), and random its
    default, 4.
    """
    rows = [
        {"name": e.name, "param_arity": DIM4_FAMILY_ARITY.get(e.name, 0), "dim": e.dim,
         "flags": _flags(e)}
        for e in all_entries()
    ]
    rows.append({"name": "nilpotent", "param_arity": -1, "dim": 3,
                 "flags": ["nilpotent", "solvable"]})
    rows.append({"name": "random", "param_arity": -1, "dim": 4, "flags": []})
    return rows
