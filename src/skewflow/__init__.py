"""Moment-map criticality and gradient flows for skew-symmetric algebras.

The package represents an n-dimensional complex algebra with antisymmetric
multiplication as its structure-constant tensor, computes the moment map
and the associated energy, integrates the negative gradient flow on the
unit sphere, certifies critical points, and labels them by their rational
type.  A catalog of named examples and a verification suite reproduce the
known four-dimensional stratification.
"""

from .algebra import (
    DerivationBasis,
    StructureInvariants,
    StructureTensor,
    act,
    commutator,
    delta,
    derivation_algebra,
    direct_sum,
    hermitian_part,
    inner_product,
    jacobi_residual,
    semidirect_extension,
    structure_invariants,
)
from .catalog import (
    DEFAULT_PARAMS,
    EXCLUDED_ORBITS,
    DIM4_FAMILY_NAMES,
    CatalogEntry,
    ExcludedOrbit,
    all_entries,
    g2_curve_params,
    listing,
    mu_A,
    mu_he,
    mu_hy,
    nilpotent_normal_form,
    random_tensor,
    resolve,
    sl2_compact,
    dim4_family,
)
from .classify import (
    CriticalType,
    TypeExtractionError,
    abelian_sum_type,
    critical_value,
    extract_type,
    nilpotent_partition_type,
    predicted_partition_ks,
)
from .flow import (
    FlowTrace,
    flow,
    flow_batch,
)
from .moment import (
    CriticalReport,
    criticality,
    gradient,
    moment_map,
    scalar_F,
)
from .tensorio import (
    fraction_str,
    report_to_dict,
    tensor_from_json,
    tensor_read,
    tensor_to_json,
    tensor_write,
    trace_csv,
    trace_write,
    type_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "StructureTensor",
    "jacobi_residual",
    "act",
    "inner_product",
    "delta",
    "hermitian_part",
    "commutator",
    "DerivationBasis",
    "derivation_algebra",
    "StructureInvariants",
    "structure_invariants",
    "direct_sum",
    "semidirect_extension",
    "moment_map",
    "scalar_F",
    "gradient",
    "CriticalReport",
    "criticality",
    "FlowTrace",
    "flow",
    "flow_batch",
    "CriticalType",
    "TypeExtractionError",
    "extract_type",
    "critical_value",
    "abelian_sum_type",
    "predicted_partition_ks",
    "nilpotent_partition_type",
    "CatalogEntry",
    "ExcludedOrbit",
    "DEFAULT_PARAMS",
    "EXCLUDED_ORBITS",
    "DIM4_FAMILY_NAMES",
    "dim4_family",
    "mu_he",
    "mu_hy",
    "mu_A",
    "nilpotent_normal_form",
    "sl2_compact",
    "random_tensor",
    "g2_curve_params",
    "resolve",
    "all_entries",
    "listing",
    "tensor_to_json",
    "tensor_from_json",
    "tensor_read",
    "tensor_write",
    "trace_csv",
    "trace_write",
    "report_to_dict",
    "type_to_dict",
    "fraction_str",
    "__version__",
]
