"""Structure-constant tensors for complex skew-symmetric algebras.

An n-dimensional bilinear skew-symmetric product mu is stored as a dense
(n, n, n) complex array c with

    mu(e_i, e_j) = sum_k c[i, j, k] e_k,

antisymmetric in the first two indices.  The basis e_1..e_n is orthonormal
for the standard hermitian inner product on C^n, which induces the inner
product used throughout:

    <mu, lam> = sum_{ijk} c_mu[i,j,k] * conj(c_lam[i,j,k])

over *ordered* index pairs, so each unordered pair (i, j) contributes twice.
Two array kernels carry the infinitesimal GL(n) action: _delta_coeff for
the coboundary delta_c(A) and _delta_star_coeff for its adjoint.  Every
matrix of delta (_delta_matrix, and L = _hermitian_delta_matrix in the real
coordinates of _to_coords), the moment map and the flow's Hessian are
built from them.  _act_coeff carries the group action itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "StructureTensor",
    "DerivationBasis",
    "StructureInvariants",
    "jacobi_residual",
    "act",
    "inner_product",
    "delta",
    "derivation_algebra",
    "structure_invariants",
    "direct_sum",
    "semidirect_extension",
    "hermitian_part",
    "commutator",
]

NULLSPACE_TOL = 1e-9  # relative singular-value cut of the rank decisions in the package
_RESIDUAL_TOL = 1e-8  # relative cut of the residual tests in the package
_COND_MAX = 1e12  # act refuses matrices worse conditioned than this


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Exactly hermitian symmetrization (A + A*)/2, of each matrix in a stack."""
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


@dataclass(frozen=True)
class StructureTensor:
    """Immutable antisymmetric coefficient tensor of a bilinear product.

    The stored array is the antisymmetric part (in the first two slots) of
    the input, so mu(X, X) = 0 holds exactly.  Use :meth:`from_brackets` to
    build from an i < j bracket table.
    """

    coeff: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeff, dtype=complex)
        if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[0] != c.shape[2]:
            raise ValueError(f"expected an (n, n, n) array, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("structure constants must be finite")
        c = 0.5 * (c - c.transpose(1, 0, 2))
        c.flags.writeable = False
        object.__setattr__(self, "coeff", c)

    @classmethod
    def zero(cls, n: int) -> "StructureTensor":
        return cls(np.zeros((n, n, n), dtype=complex))

    @classmethod
    def from_brackets(cls, n: int, brackets: dict) -> "StructureTensor":
        """Build from {(i, j): vector or {k: coeff}} with 0-based i < j."""
        c = np.zeros((n, n, n), dtype=complex)
        for (i, j), val in brackets.items():
            if not 0 <= i < j < n:
                raise ValueError(f"bracket key ({i}, {j}) needs 0 <= i < j < n")
            if isinstance(val, dict):
                vec = np.zeros(n, dtype=complex)
                for k, x in val.items():
                    vec[k] = x
            else:
                vec = np.asarray(val, dtype=complex)
            c[i, j] = vec
            c[j, i] = -vec
        return cls(c)

    @property
    def dim(self) -> int:
        return self.coeff.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeff))

    def normalized(self) -> "StructureTensor":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero tensor")
        return StructureTensor(self.coeff / nrm)

    def is_zero(self) -> bool:
        return not np.any(self.coeff)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructureTensor):
            return NotImplemented
        return self.coeff.shape == other.coeff.shape and np.array_equal(
            self.coeff, other.coeff
        )

    def __hash__(self):
        return hash((self.coeff.shape, self.coeff.tobytes()))

    def __repr__(self) -> str:
        nz = int(np.count_nonzero(self.coeff))
        return f"StructureTensor(dim={self.dim}, nonzeros={nz}, norm={self.norm():.6g})"


def jacobi_residual(mu: StructureTensor) -> float:
    """Frobenius norm of the cyclic Jacobi sum over all basis triples.

    Zero (to rounding) exactly when mu is a Lie bracket.
    """
    c = mu.coeff
    # t[i,j,k,l] = coefficient of e_l in mu(mu(e_i, e_j), e_k)
    t = np.einsum("ijm,mkl->ijkl", c, c)
    jac = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    return float(np.linalg.norm(jac))


def act(g: np.ndarray, mu: StructureTensor) -> StructureTensor:
    """Basis-change action (g.mu)(X, Y) = g mu(g^-1 X, g^-1 Y)."""
    g = np.asarray(g, dtype=complex)
    n = mu.dim
    if g.shape != (n, n):
        raise ValueError("matrix dimension must match tensor dimension")
    if np.linalg.cond(g) > _COND_MAX:
        raise np.linalg.LinAlgError("matrix is singular or too ill-conditioned to act")
    return StructureTensor(_act_coeff(g, np.linalg.inv(g), mu.coeff))


def _act_coeff(g: np.ndarray, g_inv: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Array kernel of act: g.c for g_inv = h = g^-1, that is

        (g.c)[i, j, k] = sum h[p, i] h[q, j] g[k, r] c[p, q, r].

    One matmul per slot: h^T on the rows of c.reshape(n, n^2), h^T on the
    rows of each (n, n) slice [i] of that, and g on the columns of the
    (n^2, n) reshape.
    """
    n = c.shape[0]
    ht = g_inv.T
    x = (ht @ c.reshape(n, n * n)).reshape(n, n, n)
    x = ht @ x
    return (x.reshape(n * n, n) @ g.T).reshape(n, n, n)


def inner_product(mu: StructureTensor, lam: StructureTensor) -> complex:
    """Hermitian inner product, summed over ordered index triples."""
    if mu.dim != lam.dim:
        raise ValueError("dimension mismatch")
    return complex(np.vdot(lam.coeff, mu.coeff))  # vdot conjugates its first arg


def delta(mu: StructureTensor, a: np.ndarray) -> StructureTensor:
    """Coboundary delta_mu(A) = mu(A., .) + mu(., A.) - A mu(., .).

    Derivations of mu are exactly the kernel; delta_mu(I) = mu.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (mu.dim, mu.dim):
        raise ValueError("matrix dimension must match tensor dimension")
    return StructureTensor(_delta_coeff(mu.coeff, a))


def _delta_coeff(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Array kernel of delta on a coefficient array c antisymmetric in (i, j).

    With C1 = c.reshape(n, n^2) and C3 = c.reshape(n^2, n), the first term
    of delta is T1 = (A^T C1)[i, (jk)] and the last is T3 = (C3 A^T)[(ij), k].
    As c is antisymmetric, the middle term is -T1 with i and j swapped and
    T3 is antisymmetric, so delta = X - (X with i and j swapped) for
    X = T1 - T3 / 2, which is exactly antisymmetric.  A and c may carry
    leading batch axes, which broadcast.  T3 is halved and subtracted in
    place and its buffer takes the result, so a batch of n^2 matrices never
    holds more than two arrays of the result's size.
    """
    n = c.shape[-1]
    batch = c.shape[:-3]
    at = a.swapaxes(-1, -2)
    x = at @ c.reshape(*batch, n, n * n)
    t3 = c.reshape(*batch, n * n, n) @ at
    shape = (*x.shape[:-2], n, n, n)  # both products have the broadcast batch
    x = x.reshape(shape)
    t3 = t3.reshape(shape)
    t3 *= 0.5
    x -= t3
    return np.subtract(x, x.swapaxes(-3, -2), out=t3)


def _delta_star_coeff(c: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Array kernel of the adjoint of A -> delta_c(A), at lam.

    <lam, delta_c(A)> = tr(D A*) for D = delta*_c(lam).  Of the three terms
    of delta, the first two contribute equally as c and lam are
    antisymmetric, so with C1, L1 the (n, n^2) and C3, L3 the (n^2, n)
    reshapes of c and lam, D = 2 conj(C1) L1^T - L3^T conj(C3).
    """
    n = c.shape[0]
    cc = np.conj(c)
    return 2.0 * (cc.reshape(n, n * n) @ lam.reshape(n, n * n).T) - (
        lam.reshape(n * n, n).T @ cc.reshape(n * n, n)
    )


@lru_cache(maxsize=32)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the i < j entries of an n x n matrix.

    The same arrays as np.triu_indices(n, k=1), built once per n and
    read-only, because every caller shares them.
    """
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _delta_matrix(c: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Matrix of A -> delta_c(A) on the rows (i < j, k), one column per basis matrix.

    delta(A) is antisymmetric in (i, j), so its i > j rows are the negatives
    of the i < j ones and its i = j rows vanish; dropping them scales every
    singular value by 1/sqrt(2) and leaves the kernel unchanged.
    """
    iu, ju = _upper_pairs(c.shape[0])
    return _delta_coeff(c, basis)[:, iu, ju].reshape(len(basis), -1).T


def _hermitian_coords(a: np.ndarray) -> np.ndarray:
    """Isometric real coordinates (Frobenius norm) of hermitian matrices.

    Works along the last two axes: the diagonal, then sqrt(2) times the real
    and the imaginary parts of the entries above it.
    """
    n = a.shape[-1]
    iu, ju = _upper_pairs(n)
    upper = a[..., iu, ju]
    return np.concatenate(
        [
            np.real(np.diagonal(a, axis1=-2, axis2=-1)),
            np.sqrt(2.0) * upper.real,
            np.sqrt(2.0) * upper.imag,
        ],
        axis=-1,
    )


def _hermitian_from_coords(x: np.ndarray, n: int) -> np.ndarray:
    """The exactly hermitian n x n matrices with _hermitian_coords x.

    Works along the last axis of x, which has n^2 entries.
    """
    iu, ju = _upper_pairs(n)
    p = len(iu)
    upper = np.sqrt(0.5) * (x[..., n : n + p] + 1j * x[..., n + p :])
    a = np.zeros((*x.shape[:-1], n, n), dtype=complex)
    a[..., np.arange(n), np.arange(n)] = x[..., :n]
    a[..., iu, ju] = upper
    a[..., ju, iu] = np.conj(upper)
    return a


@lru_cache(maxsize=32)
def _hermitian_units(n: int) -> np.ndarray:
    """The orthonormal hermitian basis with _hermitian_coords the unit vectors.

    E_ii, then (E_ij + E_ji) / sqrt(2) and i (E_ij - E_ji) / sqrt(2) for
    i < j: shape (n^2, n, n), built once per n and read-only.
    """
    units = _hermitian_from_coords(np.eye(n * n), n)
    units.flags.writeable = False
    return units


def _to_coords(x: np.ndarray) -> np.ndarray:
    """Real coordinates of antisymmetric (n, n, n) tensors x.

    sqrt(2) times the real parts, then the imaginary parts, of x[i, j, k]
    for i < j (in triu order) and k: n^2 (n-1) reals, an isometry for
    Re<., .> on the antisymmetric tensors.  x may carry leading batch axes.
    """
    iu, ju = _upper_pairs(x.shape[-1])
    half = x[..., iu, ju, :].reshape(*x.shape[:-3], -1)
    out = np.concatenate([half.real, half.imag], axis=-1)
    out *= np.sqrt(2.0)
    return out


def _hermitian_delta_matrix(c: np.ndarray) -> np.ndarray:
    """Real matrix L of x -> _to_coords(delta_c(_hermitian_from_coords(x, n))).

    Its columns are the coordinates of the delta images of _hermitian_units,
    so L maps isometric coordinates to isometric coordinates.  The one L of
    the package: DerivationBasis takes its kernel and the flow's Hessian
    its products.
    """
    return _to_coords(_delta_coeff(c, _hermitian_units(c.shape[0]))).T


def _rank(s: np.ndarray, floor: float = 0.0) -> int:
    """Number of singular values s above NULLSPACE_TOL * max(max s, floor).

    The one rank rule of the package.  floor is the scale of the tensor the
    matrix is computed from: a matrix that vanishes for that tensor is only
    rounding noise in another basis, and a cut at its own largest singular
    value would count the noise as full rank.
    """
    return int(np.count_nonzero(s > NULLSPACE_TOL * np.amax(s, initial=floor)))


def _negligible(residual, norm_a: float, norm_b: float):
    """Whether a bilinear residual is zero: at most _RESIDUAL_TOL times the
    product of its two inputs' norms.  Elementwise on arrays.

    The one scale rule of the package, beside _rank's rank rule: F is
    scale-invariant, so no decision may depend on the size of the inputs.
    """
    return residual <= _RESIDUAL_TOL * norm_a * norm_b


def _null_rows(m: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the kernel of a matrix m, by _rank.

    Zero rows add nothing to m* m and are dropped.  A tall m gets the
    economy SVD; a wide one (n <= 2, or sparse) needs the full right factor,
    whose extra rows are kernel vectors too.  The SVD runs on numpy's
    LAPACK, the one the rest of the package uses, because a second BLAS
    library brings a second thread pool that contends with numpy's on small
    machines.

    LAPACK's gesdd itself first reduces m to the triangular factor of its QR
    decomposition once m has at least 11/6 (real) or 17/9 (complex) times
    as many rows as columns, and then builds the left factor that nobody
    reads from Q.  Past that crossover the QR runs here, with mode "r", so
    the SVD is that of the square factor: the same s and vh, bit for bit,
    without the left factor.  That equality pins LAPACK behaviour, and
    test_null_rows_qr_reduction_is_bitwise checks it.  Below the crossover
    gesdd works on m directly, and so does this function.
    """
    m = m[np.any(m != 0, axis=1)]
    rows, cols = m.shape
    if rows >= (17 * cols // 9 if np.iscomplexobj(m) else 11 * cols // 6):
        m = np.linalg.qr(m, mode="r")
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    return vh[_rank(s):].conj()


def _row_span(m: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Orthonormal rows spanning the row space of a matrix m, by _rank.

    These are rows of the SVD's right factor itself: m = U S Vh, so each row
    of m is a combination of the rows of Vh, and only the kernel takes
    their conjugates.
    """
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    return vh[: _rank(s, floor)]


class DerivationBasis:
    """Orthonormal bases of the derivation algebra of a tensor.

    complex_basis spans Der(mu) over C and hermitian_basis spans the real
    subspace of hermitian derivations, both orthonormal for the Frobenius
    product.  complex_basis is the kernel of _delta_matrix on the matrix
    units, and hermitian_basis that of _hermitian_delta_matrix in the
    isometric coordinates of _hermitian_coords, so it is exactly hermitian.
    Shapes: (dim, n, n).  Each basis builds its system and solves it on
    first access, then is cached.
    """

    def __init__(self, mu: StructureTensor):
        self._c = mu.coeff

    @cached_property
    def complex_basis(self) -> np.ndarray:
        n = self._c.shape[0]
        units = np.eye(n * n).reshape(n * n, n, n)
        rows = _null_rows(_delta_matrix(self._c, units))
        return rows.reshape(-1, n, n)

    @cached_property
    def hermitian_basis(self) -> np.ndarray:
        # hermiticity is only R-linear: solve over R on n^2 real coordinates
        return _hermitian_from_coords(
            _null_rows(_hermitian_delta_matrix(self._c)), self._c.shape[0]
        )

    @property
    def dim_complex(self) -> int:
        return self.complex_basis.shape[0]

    @property
    def dim_hermitian(self) -> int:
        return self.hermitian_basis.shape[0]


def derivation_algebra(mu: StructureTensor) -> DerivationBasis:
    """Nullspace of A -> delta_mu(A), by singular-value thresholding.

    Gives Frobenius-orthonormal bases of the complex derivation algebra and,
    over R, of its hermitian part; each is computed when first read.
    """
    return DerivationBasis(mu)


@dataclass(frozen=True)
class StructureInvariants:
    is_lie: bool
    dim_image: int
    dim_center: int | None
    is_nilpotent: bool | None
    is_solvable: bool | None
    is_semisimple: bool | None


def structure_invariants(mu: StructureTensor) -> StructureInvariants:
    """Image/center dimensions and structure flags, without dim Der.

    For non-Lie input only dim mu(C^n, C^n) is computed; the series-based
    flags stay None.  dim Der is derivation_algebra(mu).dim_complex.  Every
    rank is _rank's; the series and the Killing form are cut at the scale of
    mu, ||mu|| and ||mu||^2, as a term that vanishes for the algebra is only
    rounding noise in a non-canonical basis.  The Jacobi test is
    _negligible's, against ||mu||^2, so every flag is scale-invariant.
    """
    n = mu.dim
    c = mu.coeff
    nrm = mu.norm()
    dim_image = _rank(np.linalg.svd(c.reshape(n * n, n), compute_uv=False))

    if not _negligible(jacobi_residual(mu), nrm, nrm):
        return StructureInvariants(False, dim_image, None, None, None, None)

    # center: kernel of X -> mu(X, .)
    mker = c.transpose(1, 2, 0).reshape(n * n, n)
    dim_center = n - _rank(np.linalg.svd(mker, compute_uv=False))

    def vanishes(step) -> bool:
        """Whether the series a_0 = C^n, a_{m+1} = span step(a_m) reaches 0."""
        basis = np.eye(n, dtype=complex)  # orthonormal rows
        while basis.shape[0]:
            new = _row_span(step(basis).reshape(-1, n), nrm)
            if new.shape[0] >= basis.shape[0]:
                return False
            basis = new
        return True

    # lower central series a_{m+1} = mu(C^n, a_m), derived h_{m+1} = mu(h_m, h_m)
    is_nilpotent = vanishes(lambda b: np.einsum("ipk,jp->ijk", c, b))
    is_solvable = vanishes(lambda b: np.einsum("ijk,ai,bj->abk", c, b, b))

    # semisimple: the Killing form is nondegenerate
    killing = np.einsum("iqp,jpq->ij", c, c)
    is_semisimple = _rank(np.linalg.svd(killing, compute_uv=False), nrm**2) == n

    return StructureInvariants(
        True, dim_image, dim_center, is_nilpotent, is_solvable, is_semisimple
    )


def direct_sum(mu: StructureTensor, lam: StructureTensor) -> StructureTensor:
    """Block tensor on C^{n+m}: mu on the first block, lam on the second."""
    n, m = mu.dim, lam.dim
    out = np.zeros((n + m, n + m, n + m), dtype=complex)
    out[:n, :n, :n] = mu.coeff
    out[n:, n:, n:] = lam.coeff
    return StructureTensor(out)


def semidirect_extension(
    lam: StructureTensor, gens: list, c_lambda: float
) -> StructureTensor:
    """Extend a bracket lam on C^m by a reductive algebra r of derivations.

    Builds the bracket of r acting on lam, on C^{d+m}: matrix commutators on
    r, [A, X] = AX for X in C^m, and lam on the ideal.  The generator span is
    orthonormalized for the inner product

        <A, B> = -(4 / c_lambda) * (tr(ad A (ad B)^H)/2 + tr(A B^H)),

    adjoints taken in the trace inner product on r, via the hermitian square
    root of the Gram matrix.  Another list spanning the same r (reordered,
    say) can give another trace-orthonormal basis, so the result is the same
    only up to a unitary change of basis of r.
    When lam is a nilpotent critical point with constant c_lambda < 0 this
    produces a critical point again.

    Both input tests follow the one scale rule, _negligible: delta_lam(A) of
    each generator and adjoint A against ||A|| ||lam||, and the part of each
    commutator of r's trace-orthonormal basis outside r against 1 * 1.
    """
    m = lam.dim
    if lam.is_zero():
        raise ValueError("the ideal bracket must be nonzero")
    if c_lambda >= 0:
        raise ValueError("c_lambda must be negative")
    if not gens:
        return lam

    if any(np.shape(g) != (m, m) for g in gens):
        raise ValueError("generator dimension mismatch")
    gens = np.array(gens, dtype=complex)
    both = np.concatenate([gens, gens.conj().swapaxes(-1, -2)])
    defects = np.linalg.norm(_delta_coeff(lam.coeff, both).reshape(len(both), -1), axis=1)
    if not np.all(_negligible(defects, np.linalg.norm(both, axis=(-2, -1)), lam.norm())):
        raise ValueError("generators and their adjoints must be derivations")

    # Trace-orthonormal basis O of r = span(gens), the commutators
    # [O_a, O_b], their coordinates f[a, b, :] in O, and their part outside r.
    onb = _row_span(gens.reshape(len(gens), -1)).reshape(-1, m, m)
    d = len(onb)
    brackets = commutator(onb[:, None], onb[None])
    f = np.einsum("xpq,abpq->abx", onb.conj(), brackets)
    outside = brackets - np.einsum("abx,xpq->abpq", f, onb)
    if not np.all(_negligible(np.linalg.norm(outside, axis=(-2, -1)), 1.0, 1.0)):
        raise ValueError("generators do not span a subalgebra")

    # Gram matrix of the extension inner product in the trace-orthonormal
    # basis: ad O_a has matrix M_a[c, b] = f[a, b, c]; tr(O_a O_b^H) = d_ab.
    gram = -4.0 / c_lambda * (0.5 * np.einsum("auc,buc->ab", f, np.conj(f)) + np.eye(d))
    gram = hermitian_part(gram)
    evals, evecs = np.linalg.eigh(gram)
    if np.any(evals <= 0):
        raise ValueError("extension inner product is not positive definite")
    s_inv_half = (evecs * evals**-0.5) @ evecs.conj().T  # gram^(-1/2)
    s_half = (evecs * evals**0.5) @ evecs.conj().T
    new_basis = np.einsum("aj,apq->jpq", s_inv_half, onb)

    out = np.zeros((d + m, d + m, d + m), dtype=complex)
    # r x r: [B_i, B_j] in O-coordinates from f, re-expanded in B by s_half
    out[:d, :d, :d] = np.einsum("ai,bj,abx,yx->ijy", s_inv_half, s_inv_half, f, s_half)
    # r acting on the ideal: [B_i, e_p] = sum_k B_i[k, p] e_k
    out[:d, d:, d:] = new_basis.swapaxes(-1, -2)
    out[d:, :d, d:] = -out[:d, d:, d:].swapaxes(0, 1)
    # ideal x ideal: lam itself
    out[d:, d:, d:] = lam.coeff
    return StructureTensor(out)
