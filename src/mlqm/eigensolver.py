"""Numerical spectral oracles.

Two independent discretizations cross-check the closed forms: a spectral
Schrodinger solver on the finite q-box (the precision oracle) and a
non-Hermitian momentum-space solver that sees the operator as it really is,
assembled from the ODE coefficients into banded CSC, whose few low modes
come from one ARPACK shift-invert call; its grid is a truncated box, so the
solve is refused when a requested mode reaches the box edge.  The q-box
solver takes the wall behaviour phi ~ d^B, B read from the potential, out of
the eigenfunction, so it follows the spectrum on both sides of the reality
threshold.  SciPy is imported in the functions that call it, at the first
solve: its ~0.3 s import would otherwise slow every CLI process.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import _D1_CENTRAL, _D2_CENTRAL, MomentumGrid
from .errors import InvalidGridError, NumericError, ResolutionError
from .pct import CoefficientSet, TransformedProblem

REAL = "real"
CONJUGATE_PAIR = "member-of-conjugate-pair"
UNCLASSIFIED = "unclassified"

#: Measure-weighted amplitude at the two outermost p-grid points on either
#: side, relative to the mode's peak, above which a mode reaches the box edge
#: and the solve is refused.  Bound states with slow polynomial decay (the
#: Swanson family) sit around 1e-5 on desk-scale boxes, while Dirichlet
#: artifacts of a box that is too small sit at O(1).
_SPURIOUS_EDGE_RATIO = 1e-4

#: Most q-box levels one solve returns: the dense collocation matrix has 32 + 4 n_levels rows,
#: so the largest solve is 2032 x 2032 and takes 10-20 s.
_MAX_Q_LEVELS = 500


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues sorted by real part with per-eigenvalue reality tags."""

    eigenvalues: tuple
    classification: tuple
    source: str
    resolution: int

    def __post_init__(self):
        if len(self.eigenvalues) != len(self.classification):
            raise ValueError("one classification tag per eigenvalue required")

    @property
    def real_parts(self) -> np.ndarray:
        return np.array([e.real for e in self.eigenvalues])

    @property
    def imag_parts(self) -> np.ndarray:
        return np.array([e.imag for e in self.eigenvalues])

    @property
    def all_real(self) -> bool:
        return all(tag == REAL for tag in self.classification)

    @property
    def has_conjugate_pair(self) -> bool:
        return CONJUGATE_PAIR in self.classification


def classify_spectrum(eigs: Sequence[complex], tol: float):
    """Tag each eigenvalue real / member-of-conjugate-pair / unclassified.

    Real means |Im| <= tol * max(1, |Re|); the rest are greedily matched
    with a conjugate partner within tol.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    eigs = [complex(e) for e in eigs]
    tags = [None] * len(eigs)
    for i, e in enumerate(eigs):
        if abs(e.imag) <= tol * max(1.0, abs(e.real)):
            tags[i] = REAL
    for i, e in enumerate(eigs):
        if tags[i] is not None:
            continue
        for j in range(i + 1, len(eigs)):
            if tags[j] is None and abs(eigs[j] - e.conjugate()) <= tol * max(1.0, abs(e)):
                tags[i] = tags[j] = CONJUGATE_PAIR
                break
        else:
            tags[i] = UNCLASSIFIED
    return tuple(tags)


def _indicial_root(problem: TransformedProblem) -> complex:
    """Wall exponent B of phi ~ d^B (the indicial root), read from the potential alone.

    The box spans pi/sqrt(beta), and near a wall V = nu sec^2(sqrt(beta) q)
    + const, so V sin^2(sqrt(beta) d) at two wall distances d gives nu and
    the constant; B is the root of B(B-1) = nu/beta with Re B >= 1/2
    (complex past the reality threshold).
    """
    span = problem.q_max - problem.q_min
    sqb = np.pi / span
    # At d = 1e-4 span, a smooth part of V leaves a fit error that falls as d^3 or faster,
    # while the rounding of q_min + d, relative to d, grows as 1/d: both sit near 1e-12
    # of nu there.  At 1e-2 span a potential that is not pure sec^2 misfits nu by up to
    # 5e-7, and the leftover nu z^2/(1-z^2) term stalls the collocation.  The second
    # distance 2d makes the fit about (4 u(d) - u(2d))/3, which amplifies rounding by < 2.
    d = np.array([1e-4, 2e-4]) * span
    s2 = np.sin(sqb * d) ** 2
    u = np.asarray(problem.potential(problem.q_min + d), dtype=float) * s2
    nu = (u[0] * s2[1] - u[1] * s2[0]) / (s2[1] - s2[0])
    return complex(0.5 * (1.0 + np.sqrt(complex(1.0 + 4.0 * nu / sqb**2))))


def solve_q_space(problem: TransformedProblem, n_levels: int) -> SpectrumResult:
    """The n_levels lowest q-box levels from one Chebyshev collocation solve with the wall factor taken out.

    With beta = (pi/span)^2, z = sin(sqrt(beta) (q - q_mid)), phi = (1 - z^2)^(B/2) u,
    B from ``_indicial_root`` and nu = beta B (B - 1), the Schrodinger problem becomes

        -beta (1-z^2) u'' + beta (2B+1) z u' + [V(q(z)) - nu z^2/(1-z^2) + B beta] u = eps u,

    with coefficients smooth on [-1, 1].  It is collocated at the N = 32 + 4 n_levels
    interior Chebyshev-Gauss points with no boundary rows, since the factor already
    selects the regular solution at each wall, and SciPy's dense ``eigvals`` solves it.
    A complex B (past the reality threshold) gives a complex matrix, whose eigenvalues
    are merged with their conjugates so that pairs appear as pairs.  The upper part of
    a collocation spectrum is spurious; only the lowest n_levels are returned.
    """
    from scipy.linalg import LinAlgError, eigvals
    if not (np.isfinite(problem.q_min) and np.isfinite(problem.q_max)):
        raise InvalidGridError("solve_q_space needs a finite q-box")
    if not 1 <= n_levels <= _MAX_Q_LEVELS:
        raise ResolutionError(f"cannot resolve {n_levels} q-box levels; need 1 <= levels <= {_MAX_Q_LEVELS}")
    n = 32 + 4 * n_levels
    t = (2 * np.arange(n) + 1) * np.pi / (2 * n)
    z, one_minus_z2 = np.cos(t), np.sin(t) ** 2  # z = cos t, so 1 - z^2 keeps its digits at the walls
    # D1 from the barycentric weights of the Chebyshev-Gauss points, D2 from D1 (Welfert's
    # recursion); each diagonal is minus its off-diagonal row sum
    w = (-1.0) ** np.arange(n) * np.sin(t)
    dz = z[:, None] - z[None, :]
    np.fill_diagonal(dz, 1.0)
    d1 = (w[None, :] / w[:, None]) / dz
    np.fill_diagonal(d1, 0.0)
    np.fill_diagonal(d1, -d1.sum(axis=1))
    d2 = 2.0 * d1 * (np.diag(d1)[:, None] - 1.0 / dz)
    np.fill_diagonal(d2, 0.0)
    np.fill_diagonal(d2, -d2.sum(axis=1))
    span = problem.q_max - problem.q_min
    beta = (np.pi / span) ** 2
    wall_b = _indicial_root(problem)
    if wall_b.imag == 0:
        wall_b = wall_b.real
    nu = beta * wall_b * (wall_b - 1.0)
    q = problem.q_min + span * (1.0 - t / np.pi)  # z = sin(sqrt(beta) (q - q_mid)) = cos t
    diag = np.asarray(problem.potential(q), dtype=float) - nu * z**2 / one_minus_z2 + wall_b * beta
    matrix = -beta * one_minus_z2[:, None] * d2 + (beta * (2.0 * wall_b + 1.0) * z)[:, None] * d1
    matrix[np.diag_indices(n)] += diag
    try:
        eigs = eigvals(matrix)
    except (LinAlgError, ValueError) as exc:  # ValueError: check_finite found a NaN or inf entry
        raise NumericError(f"q-box eigensolve failed: {exc}")
    if np.isrealobj(matrix):
        # a real wall exponent makes the operator self-adjoint in the weight (1-z^2)^(B-1/2)
        eps = np.sort(eigs.real)[:n_levels]
    else:
        eigs = np.concatenate([eigs, np.conj(eigs)])
        eps = eigs[np.lexsort((eigs.imag, eigs.real))][:n_levels]
    return SpectrumResult(
        eigenvalues=tuple(complex(e) for e in eps),
        classification=classify_spectrum(eps, 1e-6),
        source="q-space-numeric",
        resolution=n,
    )


#: Alias of ``solve_q_space``, the name under which callers follow the complex branch.
solve_q_space_branch = solve_q_space


def p_space_operator(coeffs: CoefficientSet, grid: MomentumGrid) -> "csc_array":
    """CSC -f d^2/dp^2 + g d/dp + h with 4th-order stencils, assembled from its five bands;
    explicit zeros are dropped, so it stores exactly the entries of ``csc_array(dense)``."""
    from scipy.sparse import diags_array
    if not grid.is_symmetric:
        raise InvalidGridError("p-space assembly requires a symmetric grid")
    p, n, step = grid.points, grid.n_points, grid.spacing
    f = np.asarray(coeffs.f(p), dtype=float)
    g = np.asarray(coeffs.g(p), dtype=float)
    h = np.asarray(coeffs.h(p), dtype=float)
    rows = [slice(max(0, -k), n - max(0, k)) for k in range(-2, 3)]  # band k: row i holds column i + k
    bands = [-f[i] * (c2 / step**2) + g[i] * (c1 / step) for i, c1, c2 in zip(rows, _D1_CENTRAL, _D2_CENTRAL)]
    bands[2] += h
    op = diags_array(bands, offsets=range(-2, 3), shape=(n, n), format="csc")
    op.eliminate_zeros()
    return op


def build_p_space_matrix(coeffs: CoefficientSet, grid: MomentumGrid) -> np.ndarray:
    """Dense view of ``p_space_operator``: the digits of the stencil-matrix products."""
    return p_space_operator(coeffs, grid).toarray()


def _low_modes(matrix, n_modes: int, sigma: float = 0.0):
    """The n_modes eigenpairs of smallest real part, from one shift-invert call at sigma.

    ARPACK shift-invert at ``sigma`` on ``matrix`` (CSC as given, any other
    form converted) returns the k = min(n_modes + 8, N - 2) eigenpairs
    nearest sigma, of which the n_modes of smallest real part are returned.
    k below n_modes raises ResolutionError; a singular shift or an
    unconverged Arnoldi run raises NumericError.
    """
    from scipy.sparse import csc_array, linalg as sparse_linalg
    n = matrix.shape[0]
    k = min(n_modes + 8, n - 2)
    if k < n_modes:
        raise ResolutionError(f"cannot resolve {n_modes} modes of a {n}x{n} matrix")
    # a fixed start vector makes every run give the same digits; a generic
    # (not constant) one keeps both parity sectors in the Krylov space
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        vals, vecs = sparse_linalg.eigs(csc_array(matrix), k=k, sigma=sigma, v0=v0)
    except RuntimeError as exc:  # includes ArpackNoConvergence and a singular LU factor
        raise NumericError(f"shift-invert eigensolve failed on a {n}x{n} matrix: {exc}")
    order = np.argsort(vals.real)[:n_modes]
    return vals[order], vecs[:, order]


def _edge_guarded_modes(matrix, n_modes: int, weight: np.ndarray | None = None):
    """``_low_modes`` of a p-space matrix, refused when one of them reaches the box edge.

    A mode reaches the edge when its amplitude at the two outermost grid
    points on either side exceeds _SPURIOUS_EDGE_RATIO of its peak, both in
    the norm of the measure ``weight`` at the nodes, if given (Swanson bound
    states decay only polynomially in p).  Such a mode is a truncation
    artifact, or a bound state the box cuts off, so ResolutionError asks for
    a larger grid instead of returning it.
    """
    vals, vecs = _low_modes(matrix, n_modes)
    sqw = 1.0 if weight is None else np.sqrt(np.asarray(weight, dtype=float))[:, None]
    amp = sqw * np.abs(vecs)
    inside = np.max(amp[[0, 1, -2, -1]], axis=0) <= _SPURIOUS_EDGE_RATIO * np.max(amp, axis=0)
    if not inside.all():  # a NaN amplitude compares False, so it is refused too
        at_edge = n_modes - int(np.count_nonzero(inside))
        raise ResolutionError(f"the box edge holds {at_edge} of the {n_modes} lowest p-space modes; enlarge the grid")
    return vals, vecs


def solve_p_space(matrix, n_levels: int, weight: np.ndarray | None = None) -> SpectrumResult:
    """The n_levels lowest levels of a p-space matrix, classified.

    The modes of ``matrix`` (the CSC ``p_space_operator``, or any square
    matrix) come from ``_edge_guarded_modes``: shift-invert around zero, and
    ResolutionError when one of them reaches the box edge in the norm of the
    measure ``weight``, if given.
    """
    shape = np.shape(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InvalidGridError(f"expected a square matrix, got shape {shape}")
    eigs, _ = _edge_guarded_modes(matrix, n_levels, weight)
    tol = 1e-7 * max(1.0, float(np.max(np.abs(eigs.real))))
    return SpectrumResult(
        eigenvalues=tuple(complex(e) for e in eigs),
        classification=classify_spectrum(eigs, tol),
        source="p-space-numeric",
        resolution=shape[0],
    )
