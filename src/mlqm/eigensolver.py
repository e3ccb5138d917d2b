"""Numerical spectral oracles.

Two independent discretizations cross-check the closed forms: a symmetric
tridiagonal Schrodinger solver on the finite q-box (the precision oracle)
and a non-Hermitian momentum-space solver that sees the operator as it
really is — either assembled from the ODE coefficients or composed
literally from the position/momentum matrices.  The momentum-space matrix
is banded and assembled straight into CSC, so its few low modes come from
ARPACK shift-invert around sigma = 0 rather than from a full dense
eigensolve.  A third, complex-boundary variant of the q-solver follows
the analytic continuation of the spectrum past the reality threshold,
where a Dirichlet wall would pin every eigenvalue on the real axis.  Its
matrix is tridiagonal too: real symmetric below the threshold (solved like
the Dirichlet box), complex symmetric past it (ARPACK shift-invert below a
Gershgorin bound).  No solver here forms a dense eigenproblem.
"""

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import csc_array, diags_array, linalg as sparse_linalg

from .algebra import _D1_CENTRAL, _D2_CENTRAL, MomentumGrid, position_kernel
from .errors import InvalidGridError, NumericError, ResolutionError
from .models import DisplacedOscillatorParams, SwansonParams
from .pct import CoefficientSet, TransformedProblem

REAL = "real"
CONJUGATE_PAIR = "member-of-conjugate-pair"
UNCLASSIFIED = "unclassified"

#: Eigenvector edge amplitude (relative to its max) above which a p-space
#: mode is discarded as a boundary artifact.  In the measure-weighted norm,
#: bound states with slow polynomial decay (the Swanson family) sit around
#: 1e-5 on desk-scale boxes, while Dirichlet artifacts sit at O(1).
_SPURIOUS_EDGE_RATIO = 1e-4

#: Largest number of shift-invert modes requested while widening past
#: spurious ones; a filter that starves here raises ResolutionError.
_MAX_LOW_MODES = 128


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


def _q_grid_eigs(problem: TransformedProblem, n_grid: int, n_levels: int) -> np.ndarray:
    span = problem.q_max - problem.q_min
    h = span / (n_grid + 1)
    q = problem.q_min + h * np.arange(1, n_grid + 1)
    v = np.asarray(problem.potential(q), dtype=float)
    diag = 2.0 / h**2 + v
    off = np.full(n_grid - 1, -1.0 / h**2)
    return eigh_tridiagonal(
        diag, off, select="i", select_range=(0, n_levels - 1), eigvals_only=True
    )


def solve_q_space(problem: TransformedProblem, n_grid: int, n_levels: int) -> SpectrumResult:
    """Dirichlet second-order solve on (q_min, q_max), Richardson-extrapolated.

    Solves at n_grid and 2*n_grid interior points and combines the two as
    (4*eps_2N - eps_N)/3 to cancel the leading O(h^2) error.
    """
    if not (np.isfinite(problem.q_min) and np.isfinite(problem.q_max)):
        raise InvalidGridError("solve_q_space needs a finite q-box")
    if n_grid < 64:
        raise InvalidGridError(f"need n_grid >= 64, got {n_grid}")
    if n_levels < 1 or n_levels > n_grid // 4:
        raise ResolutionError(f"cannot resolve {n_levels} levels on a {n_grid}-point grid")
    coarse = _q_grid_eigs(problem, n_grid, n_levels)
    fine = _q_grid_eigs(problem, 2 * n_grid, n_levels)
    eps = (4.0 * fine - coarse) / 3.0
    return SpectrumResult(
        eigenvalues=tuple(complex(e) for e in eps),
        classification=tuple(REAL for _ in eps),
        source="q-space-numeric",
        resolution=2 * n_grid,
    )


def p_space_operator(coeffs: CoefficientSet, grid: MomentumGrid) -> csc_array:
    """CSC -f d^2/dp^2 + g d/dp + h with 4th-order stencils, assembled from its five bands;
    explicit zeros are dropped, so it stores exactly the entries of ``csc_array(dense)``."""
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


def _low_modes(
    matrix,
    n_modes: int,
    keep: Callable[[np.ndarray], np.ndarray],
    what: str,
    sigma: float = 0.0,
):
    """The n_modes kept eigenpairs of smallest real part, from shift-invert at sigma.

    ARPACK shift-invert at ``sigma`` on ``matrix`` (CSC as given, any other
    form converted) returns the k = n_modes + 8 eigenpairs nearest sigma;
    ``keep`` maps their eigenvector columns to a mask of the physical ones.
    While fewer than n_modes survive, k doubles up to _MAX_LOW_MODES (or
    n_modes + 8 if that is larger, and never past N - 2); a filter still
    starved there raises ResolutionError, which counts the survivors as
    ``what``.  A singular shift or an unconverged Arnoldi run raises
    NumericError.
    """
    n = matrix.shape[0]
    k_max = min(max(_MAX_LOW_MODES, n_modes + 8), n - 2)
    k = min(n_modes + 8, k_max)
    sparse = csc_array(matrix)
    # a fixed start vector makes every run give the same digits; a generic
    # (not constant) one keeps both parity sectors in the Krylov space
    v0 = np.random.default_rng(0).standard_normal(n)
    while True:
        try:
            vals, vecs = sparse_linalg.eigs(sparse, k=k, sigma=sigma, v0=v0)
        except RuntimeError as exc:  # includes ArpackNoConvergence and a singular LU factor
            raise NumericError(f"shift-invert eigensolve failed on a {n}x{n} matrix: {exc}")
        order = np.argsort(vals.real)
        vals, vecs = vals[order], vecs[:, order]
        mask = keep(vecs)
        found = int(np.count_nonzero(mask))
        if found >= n_modes:
            return vals[mask][:n_modes], vecs[:, mask][:, :n_modes]
        if k >= k_max:
            raise ResolutionError(f"only {found} {what} found, {n_modes} requested; enlarge the grid")
        k = min(2 * k, k_max)


def solve_p_space(
    matrix,
    n_levels: int,
    tol: float | None = None,
    weight: np.ndarray | None = None,
    edge_ratio: float = _SPURIOUS_EDGE_RATIO,
) -> SpectrumResult:
    """Low-mode non-Hermitian eigensolve with a boundary-artifact filter.

    The modes of ``matrix`` (the CSC ``p_space_operator``, or any square
    matrix) come from ``_low_modes`` (shift-invert around zero).
    Eigenvectors whose amplitude at the outermost grid points exceeds
    ``edge_ratio`` of their maximum are discarded (Dirichlet
    truncation artifacts); the n_levels survivors of smallest real part are
    classified and returned.  ``weight`` (the measure weights at the nodes,
    if given) converts amplitudes to the physical norm before filtering —
    needed for states that decay only polynomially in p.

    Operator-composed matrices (squared first-derivative stencils) also
    admit grid-scale checkerboard parasites that live in the interior;
    these are rejected by a roughness test — for a checkerboard mode the
    nearest-neighbor difference dwarfs the nearest-neighbor sum, for a
    resolved bound state it is the other way around by orders of magnitude.
    """
    shape = np.shape(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InvalidGridError(f"expected a square matrix, got shape {shape}")
    sqw = 1.0 if weight is None else np.sqrt(np.asarray(weight, dtype=float))[:, None]

    def physical(vecs):
        amp = sqw * np.abs(vecs)
        peak = np.max(amp, axis=0)
        edge = np.max(amp[[0, 1, -2, -1], :], axis=0)
        rough = np.linalg.norm(np.diff(vecs, axis=0), axis=0)
        smooth = np.linalg.norm(vecs[1:] + vecs[:-1], axis=0)
        return (edge <= edge_ratio * peak) & (rough <= smooth)

    eigs, _ = _low_modes(matrix, n_levels, physical, "non-spurious modes")
    if tol is None:
        tol = 1e-7 * max(1.0, float(np.max(np.abs(eigs.real))))
    return SpectrumResult(
        eigenvalues=tuple(complex(e) for e in eigs),
        classification=classify_spectrum(eigs, tol),
        source="p-space-numeric",
        resolution=shape[0],
    )


def solve_q_space_branch(
    problem: TransformedProblem,
    wall_exponent: complex,
    n_grid: int = 900,
    n_levels: int = 6,
    wall_fraction: float = 0.02,
    tol: float = 1e-6,
) -> SpectrumResult:
    """q-space solve with the analytic wall behavior phi ~ (distance)^B folded in.

    Near a wall of the box the regular solution behaves like d^B with
    B = A/sqrt(beta) (the wall exponent); Dirichlet conditions select the
    real branch only and therefore cannot reproduce conjugate-pair
    eigenvalues.  Here the grid stops a distance d0 = wall_fraction * span/2
    short of each wall and the ghost point is folded back with the ratio
    ((d0-h)/d0)^B, which is complex when B is — the boundary condition that
    continues the bound-state branch past the reality threshold.

    Only the three bands of the matrix are assembled: 2/h^2 + v on the
    diagonal, with the ghost-point ratio folded into its first and last
    entries, and -1/h^2 off it.  A real ratio leaves the matrix real
    symmetric, and eigh_tridiagonal returns its n_levels lowest levels.  A
    complex ratio makes it complex symmetric; its n_levels modes of smallest
    real part come from ARPACK shift-invert at sigma = (Gershgorin lower
    bound on the real part) - 1.  That sigma lies strictly left of every
    eigenvalue, so M - sigma is never singular and the modes nearest sigma
    are those of lowest real part.

    A complex wall exponent is solved together with its conjugate (the
    conjugate boundary condition yields the exactly conjugate spectrum) and
    the two branches are merged, so conjugate pairs appear as actual pairs.
    """
    if not (np.isfinite(problem.q_min) and np.isfinite(problem.q_max)):
        raise InvalidGridError("solve_q_space_branch needs a finite q-box")
    if n_grid < 64:
        raise InvalidGridError(f"need n_grid >= 64, got {n_grid}")
    if not 0 < wall_fraction < 0.5:
        raise InvalidGridError(f"wall_fraction must lie in (0, 0.5), got {wall_fraction}")
    if n_levels < 1 or n_levels > n_grid // 4:
        raise ResolutionError(f"cannot resolve {n_levels} levels on a {n_grid}-point grid")
    span = problem.q_max - problem.q_min
    d0 = wall_fraction * span / 2.0
    q = np.linspace(problem.q_min + d0, problem.q_max - d0, n_grid)
    h = q[1] - q[0]
    v = np.asarray(problem.potential(q), dtype=float)
    ratio = ((d0 - h) / d0) ** complex(wall_exponent) if d0 > h else 0j
    diag = (2.0 / h**2 + v).astype(complex)
    diag[[0, -1]] -= ratio / h**2
    off = np.full(n_grid - 1, -1.0 / h**2)
    if ratio.imag == 0:
        try:
            eigs = eigh_tridiagonal(
                diag.real, off, select="i", select_range=(0, n_levels - 1), eigvals_only=True
            )
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"branch-boundary eigensolve failed: {exc}")
    else:
        # row i's Gershgorin disc reaches down to Re d_i - sum_j |M_ij| (1/h^2 per neighbour)
        radius = np.full(n_grid, 2.0 / h**2)
        radius[[0, -1]] = 1.0 / h**2
        sigma = float(np.min(diag.real - radius)) - 1.0
        matrix = diags_array([off, diag, off], offsets=[-1, 0, 1], format="csc")
        eigs, _ = _low_modes(
            matrix, n_levels, lambda vecs: np.ones(vecs.shape[1], dtype=bool), "branch modes", sigma
        )
        # second branch: conj(M) has exactly the conjugate spectrum
        eigs = np.concatenate([eigs, np.conj(eigs)])
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order][:n_levels]
    return SpectrumResult(
        eigenvalues=tuple(complex(e) for e in eigs),
        classification=classify_spectrum(eigs, tol),
        source="q-space-branch",
        resolution=n_grid,
    )
