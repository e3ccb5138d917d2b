"""Numerical spectral oracles.

Two independent discretizations cross-check the closed forms: a
tridiagonal Schrodinger solver on the finite q-box (the precision oracle)
and a non-Hermitian momentum-space solver that sees the operator as it
really is, assembled from the ODE coefficients.  (The operator composed
literally from the position/momentum matrices is kept as a dense test
oracle.)  The momentum-space matrix is banded and assembled straight into
CSC, so its few low modes come from one ARPACK shift-invert call around
sigma = 0 rather than from a full dense eigensolve.  Its grid is a
truncated box, so the solve is refused when one of the requested modes
reaches the box edge.  The q-box solver closes each wall with the analytic
wall behaviour phi ~ d^B, its exponent B read from the potential, so one
solver follows the spectrum on both sides of the reality threshold, where
a Dirichlet wall would pin every eigenvalue on the real axis.  Its matrix
is real symmetric below the threshold (solved by eigh_tridiagonal) and
complex symmetric past it (ARPACK shift-invert left of the Bendixson
bound).  No solver here forms a dense eigenproblem.  SciPy is imported in
the functions that call it, at the first solve: its ~0.3 s import would
otherwise slow every CLI process, even those that solve nothing.
"""

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .algebra import _D1_CENTRAL, _D2_CENTRAL, MomentumGrid, position_kernel
from .errors import InvalidGridError, NumericError, ResolutionError
from .models import DisplacedOscillatorParams, SwansonParams
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

#: Distance from each wall to the outermost q-grid point, as a fraction of the box.
_WALL_GAP = 0.01


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
    + const, so V sin^2(sqrt(beta) d) at wall distances d = gap and 2 gap
    gives nu and the constant; B is the root of B(B-1) = nu/beta with
    Re B >= 1/2 (complex past the reality threshold).
    """
    span = problem.q_max - problem.q_min
    sqb = np.pi / span
    d = np.array([1.0, 2.0]) * _WALL_GAP * span
    s2 = np.sin(sqb * d) ** 2
    u = np.asarray(problem.potential(problem.q_min + d), dtype=float) * s2
    nu = (u[0] * s2[1] - u[1] * s2[0]) / (s2[1] - s2[0])
    return complex(0.5 * (1.0 + np.sqrt(complex(1.0 + 4.0 * nu / sqb**2))))


def _q_box_levels(problem: TransformedProblem, wall_b: complex, n_grid: int, n_levels: int) -> np.ndarray:
    """The n_levels lowest levels on the n_grid-point wall-closure grid."""
    from scipy.linalg import eigh_tridiagonal
    from scipy.sparse import diags_array
    span = problem.q_max - problem.q_min
    d0 = _WALL_GAP * span
    q = np.linspace(problem.q_min + d0, problem.q_max - d0, n_grid)
    h = q[1] - q[0]
    diag = (2.0 / h**2 + np.asarray(problem.potential(q), dtype=float)).astype(complex)
    diag[[0, -1]] -= ((d0 - h) / d0) ** wall_b / h**2
    off = np.full(n_grid - 1, -1.0 / h**2)
    try:
        levels = eigh_tridiagonal(
            diag.real, off, select="i", select_range=(0, n_levels - 1), eigvals_only=True
        )
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"q-box eigensolve failed: {exc}")
    if wall_b.imag == 0:
        return levels
    # Bendixson: every Re(eigenvalue) lies at or above the lowest level of the Hermitian part
    matrix = diags_array([off, diag, off], offsets=[-1, 0, 1], format="csc")
    eigs, _ = _low_modes(matrix, n_levels, levels[0] - 1.0)
    # conj(M) has exactly the conjugate spectrum: merge the two branches
    eigs = np.concatenate([eigs, np.conj(eigs)])
    return eigs[np.lexsort((eigs.imag, eigs.real))][:n_levels]


def solve_q_space(problem: TransformedProblem, n_grid: int, n_levels: int) -> SpectrumResult:
    """Second-order q-box solve with a wall closure, Richardson-combined over n_grid and 2*n_grid points.

    The regular solution behaves like d^B at distance d from a wall, with B
    read from the potential (``_indicial_root``).  The grid stops
    d0 = _WALL_GAP * span short of each wall, and its ghost point is folded
    back with the ratio ((d0-h)/d0)^B, complex when B is: this continues the
    bound states past the reality threshold, where a Dirichlet wall would pin
    them on the real axis.  Only the three bands are assembled, and
    eigh_tridiagonal solves the Hermitian part, the whole matrix for a real
    B.  For a complex B, ARPACK shift-invert runs at the lowest level of the
    Hermitian part minus 1, strictly left of every eigenvalue (Bendixson's
    theorem), and the modes are merged with their conjugates, the spectrum
    of the conjugate closure, so that pairs appear as pairs.
    """
    if not (np.isfinite(problem.q_min) and np.isfinite(problem.q_max)):
        raise InvalidGridError("solve_q_space needs a finite q-box")
    if n_grid < 64:
        raise InvalidGridError(f"need n_grid >= 64, got {n_grid}")
    if n_levels < 1 or n_levels > n_grid // 4:
        raise ResolutionError(f"cannot resolve {n_levels} levels on a {n_grid}-point grid")
    min_grid = round(1.0 / _WALL_GAP)  # the spacing (1 - 2 gap) span/(n_grid - 1) must stay below the gap
    if n_grid < min_grid:
        raise ResolutionError(f"q-grid of {n_grid} points is not finer than the wall gap; need n_grid >= {min_grid}")
    wall_b = _indicial_root(problem)
    coarse = _q_box_levels(problem, wall_b, n_grid, n_levels)
    fine = _q_box_levels(problem, wall_b, 2 * n_grid, n_levels)
    r2 = ((2 * n_grid - 1) / (n_grid - 1)) ** 2  # (h_coarse / h_fine)^2
    eps = (r2 * fine - coarse) / (r2 - 1.0)
    return SpectrumResult(
        eigenvalues=tuple(complex(e) for e in eps),
        classification=classify_spectrum(eps, 1e-6),
        source="q-space-numeric",
        resolution=2 * n_grid,
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


def build_operator_hamiltonian(
    model: Union[DisplacedOscillatorParams, SwansonParams], grid: MomentumGrid
) -> np.ndarray:
    """Compose H literally from the position/momentum matrices.

    With x = i*Y and Y real, both model Hamiltonians assemble to real
    matrices: the displaced oscillator because i*lam*x = -lam*Y, the Swanson
    model because a and its adjoint become (P + omega*Y)/c and
    (P - omega*Y)/c.
    """
    if not grid.is_symmetric:
        raise InvalidGridError("operator assembly requires a symmetric grid")
    p = grid.points
    y = position_kernel(model.deformation, grid)
    if isinstance(model, DisplacedOscillatorParams):
        return (
            np.diag(p**2 / (2.0 * model.mu))
            - 0.5 * model.mu * model.omega**2 * (y @ y)
            - model.lam * y
        )
    if isinstance(model, SwansonParams):
        c = np.sqrt(2.0 * model.m * model.deformation.hbar * model.omega)
        a = (np.diag(p) + model.omega * y) / c
        ad = (np.diag(p) - model.omega * y) / c
        n = grid.n_points
        return model.omega * (ad @ a) + model.lam * (a @ a) + model.delta * (ad @ ad) + (
            model.omega / 2.0
        ) * np.eye(n)
    raise TypeError(f"unsupported model type {type(model).__name__}")


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
