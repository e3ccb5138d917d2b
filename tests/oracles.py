"""Independent references that only the tests use: adaptive quadrature of the PCT
integrals, the Hamiltonians composed literally from dense x and p matrices, the
finite-difference p-space operator as a band array, finite-difference q-box and
p-space solves, the finite-difference form of the pseudo-Hermiticity check, and
the published (printed) metric and eigenfunction."""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import csc_array, diags_array
from scipy.sparse.linalg import eigs

from mlqm.algebra import _D1_CENTRAL, _D2_CENTRAL, DeformationParams, MomentumGrid, first_derivative_matrix
from mlqm.models import DisplacedOscillatorParams, SwansonParams, Wavefunction

_QUAD_ABS_TOL = 1e-12
#: Offsets of the five bands of the p-space operator, in the row order of its band array.
BAND_OFFSETS = range(-2, 3)


def _integral(fn, lo, hi):
    return quad(fn, lo, hi, epsabs=_QUAD_ABS_TOL, limit=200)[0]


def quadrature_q_map(coeffs):
    """q(p) = int_0^p dt/sqrt(f(t)) by adaptive quadrature, and the endpoints q(-inf), q(+inf)."""
    integrand = lambda t: 1.0 / np.sqrt(coeffs.f(t))
    q_of_p = np.vectorize(lambda p: _integral(integrand, 0.0, p), otypes=[float])
    return q_of_p, _integral(integrand, 0.0, -np.inf), _integral(integrand, 0.0, np.inf)


def quadrature_log_rho(coeffs, p):
    """log rho(p) = int_0^p chi by adaptive quadrature, chi = (f' + 2g)/(4f)."""
    return np.vectorize(lambda x: _integral(lambda t: float(coeffs.chi(t)), 0.0, x), otypes=[float])(p)


def quadrature_metric(family, p):
    """eta = (1 + beta p^2)^(-gamma/beta) rho^-2 with log rho from ``quadrature_log_rho``."""
    d = family.deformation
    return (1.0 + d.beta * p**2) ** (-d.gamma / d.beta) * np.exp(-2.0 * quadrature_log_rho(family.coefficients(), p))


def printed_metric(family):
    """The published metric (1 + beta p^2)^(sigma/beta) exp(2 ell q(p)), q the q-map."""
    d = family.deformation
    return lambda p: (1.0 + d.beta * p**2) ** (family.sigma / d.beta) * np.exp(2.0 * family.ell * d.q_of_p(p))


def position_kernel(params: DeformationParams, grid: MomentumGrid) -> np.ndarray:
    """Real matrix Y with x = i*Y, i.e. Y = hbar*[(1+beta*p^2) D1 + gamma*p]."""
    p = grid.points
    d1 = first_derivative_matrix(grid.n_points, grid.spacing)
    return params.hbar * ((1.0 + params.beta * p**2)[:, None] * d1 + np.diag(params.gamma * p))


def operator_hamiltonian(model, grid: MomentumGrid) -> np.ndarray:
    """Compose H literally from the position/momentum matrices on a symmetric grid.

    With x = i*Y and Y real, both model Hamiltonians assemble to real
    matrices: the displaced oscillator because i*lam*x = -lam*Y, the Swanson
    model because a and its adjoint become (P + omega*Y)/c and
    (P - omega*Y)/c.
    """
    assert grid.is_symmetric, "operator assembly requires a symmetric grid"
    p = grid.points
    y = position_kernel(model.deformation, grid)
    if isinstance(model, DisplacedOscillatorParams):
        return np.diag(p**2 / (2.0 * model.mu)) - 0.5 * model.mu * model.omega**2 * (y @ y) - model.lam * y
    assert isinstance(model, SwansonParams), f"unsupported model type {type(model).__name__}"
    c = np.sqrt(2.0 * model.m * model.deformation.hbar * model.omega)
    a = (np.diag(p) + model.omega * y) / c
    ad = (np.diag(p) - model.omega * y) / c
    return (
        model.omega * (ad @ a) + model.lam * (a @ a) + model.delta * (ad @ ad)
        + (model.omega / 2.0) * np.eye(grid.n_points)
    )


def p_space_operator(coeffs, grid: MomentumGrid) -> np.ndarray:
    """-f d^2/dp^2 + g d/dp + h with 4th-order stencils on a symmetric grid, as a (5, N) band array.

    Row k holds the band at offset ``BAND_OFFSETS[k]``: entry [k, i] is the
    matrix element (i, i + k - 2), and the entries whose column falls off the
    grid are zero.
    """
    assert grid.is_symmetric, "p-space assembly requires a symmetric grid"
    p, n, step = grid.points, grid.n_points, grid.spacing
    f = np.asarray(coeffs.f(p), dtype=float)
    g = np.asarray(coeffs.g(p), dtype=float)
    h = np.asarray(coeffs.h(p), dtype=float)
    bands = np.zeros((len(BAND_OFFSETS), n))
    for row, k, c1, c2 in zip(bands, BAND_OFFSETS, _D1_CENTRAL, _D2_CENTRAL):
        i = slice(max(0, -k), n - max(0, k))
        row[i] = -f[i] * (c2 / step**2) + g[i] * (c1 / step)
    bands[2] += h
    return bands


def _dense(bands: np.ndarray) -> np.ndarray:
    """The N x N matrix of a (5, N) band array."""
    n = bands.shape[1]
    dense = np.zeros((n, n), dtype=bands.dtype)
    for row, k in zip(bands, BAND_OFFSETS):
        i = np.arange(max(0, -k), n - max(0, k))
        dense[i, i + k] = row[i]
    return dense


def _fd_q_box_levels(problem, wall_b, n_grid, n_levels):
    """The n_levels lowest levels of the second-order FD q-box on n_grid points, with a ghost-point wall closure.

    The grid stops d0 = 0.01 span short of each wall, and its ghost point is
    folded back with ((d0 - h)/d0)^B, the ratio of the wall behaviour phi ~ d^B.
    """
    span = problem.q_max - problem.q_min
    d0 = 0.01 * span
    q = np.linspace(problem.q_min + d0, problem.q_max - d0, n_grid)
    h = q[1] - q[0]
    diag = 2.0 / h**2 + np.asarray(problem.potential(q), dtype=float)
    diag[[0, -1]] -= ((d0 - h) / d0) ** wall_b / h**2
    off = np.full(n_grid - 1, -1.0 / h**2)
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, n_levels - 1), eigvals_only=True), h


def fd_q_box_levels(problem, wall_b: float, n_levels: int):
    """Finite-difference q-box levels for a real wall exponent B, Richardson-combined over 2000 and 4000 points."""
    coarse, h_coarse = _fd_q_box_levels(problem, wall_b, 2000, n_levels)
    fine, h_fine = _fd_q_box_levels(problem, wall_b, 4000, n_levels)
    r2 = (h_coarse / h_fine) ** 2
    return (r2 * fine - coarse) / (r2 - 1.0)


def low_modes(matrix, n_modes: int):
    """The n_modes eigenpairs of smallest real part of a square matrix, from one ARPACK shift-invert call at 0.

    The call returns the n_modes + 8 eigenpairs nearest 0; a fixed generic start vector
    gives the same digits on every run and keeps both parity sectors in the Krylov space.
    """
    n = matrix.shape[0]
    v0 = np.random.default_rng(0).standard_normal(n)
    vals, vecs = eigs(csc_array(matrix), k=n_modes + 8, sigma=0.0, v0=v0)
    order = np.argsort(vals.real)[:n_modes]
    return vals[order], vecs[:, order]


def band_csc(bands):
    """The CSC matrix of a (5, N) band array of ``p_space_operator``, explicit zeros dropped."""
    n = bands.shape[1]
    matrix = diags_array([row[max(0, -k): n - max(0, k)] for row, k in zip(bands, BAND_OFFSETS)],
                         offsets=BAND_OFFSETS, format="csc")
    matrix.eliminate_zeros()
    return matrix


def _fd_p_space_levels(coeffs, p_max, n_points, n_levels):
    return low_modes(band_csc(p_space_operator(coeffs, MomentumGrid.symmetric(p_max, n_points))), n_levels)[0]


def fd_p_space_levels(coeffs, p_max: float, n_points: int, n_levels: int):
    """Finite-difference p-space levels on |p| <= p_max, Richardson-combined over n_points and 2 n_points - 1 points.

    The 4th-order stencils of ``p_space_operator`` with a Dirichlet box; the
    box must hold the modes, which for the Swanson family decay only as a power of p.
    """
    coarse = _fd_p_space_levels(coeffs, p_max, n_points, n_levels)
    fine = _fd_p_space_levels(coeffs, p_max, 2 * n_points - 1, n_levels)
    return (16.0 * fine - coarse) / 15.0


def _shifted(x: np.ndarray, k: int) -> np.ndarray:
    """x[i + k] at each index i, zero where i + k falls off the grid."""
    out = np.zeros_like(x)
    n = len(x)
    if k >= 0:
        out[: n - k] = x[k:]
    else:
        out[-k:] = x[: n + k]
    return out


def adjoint_under_weight(bands: np.ndarray, params: DeformationParams, grid: MomentumGrid) -> np.ndarray:
    """Adjoint W^-1 (conj H)^T W of a (5, N) band array H, W the diagonal of measure weights, as a band array.

    The uniform trapezoid spacing factor cancels between W and its inverse.
    Element (i, i + k) of the adjoint is (1/w[i]) conj H[i + k, i] w[i + k].
    """
    w = params.measure_weight(grid.points)
    return np.stack([(1.0 / w) * _shifted(bands[2 - k].conj(), k) * _shifted(w, k) for k in BAND_OFFSETS])


def similar(bands: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The band array of E H E^-1, E = diag(e)."""
    return np.stack([row * e * _shifted(1.0 / e, k) for row, k in zip(bands, BAND_OFFSETS)])


def fd_pseudo_hermiticity_residual(coeffs, eta, params: DeformationParams, grid: MomentumGrid) -> float:
    """||E H E^-1 - H_adj||_F / ||H||_F for the finite-difference operator on ``grid``, E = diag(eta).

    The discrete form of eta H = H^+ eta: its stencil error falls with the
    grid spacing towards the pointwise identity of ``verify.metric_identity_residual``.
    """
    bands = p_space_operator(coeffs, grid)
    e = np.asarray(eta(grid.points), dtype=float)
    defect = similar(bands, e) - adjoint_under_weight(bands, params, grid)
    return float(np.linalg.norm(defect) / np.linalg.norm(bands))


@dataclass(frozen=True)
class PrintedWavefunction(Wavefunction):
    """The published eigenfunction: Jacobi argument z = sqrt(beta) p/(1+beta*p^2)."""

    def _z(self, p, w):
        sqb = np.sqrt(self.beta)
        return sqb * p / w, sqb * (1.0 - self.beta * p**2) / w**2, 2.0 * sqb * self.beta * p * (
            self.beta * p**2 - 3.0
        ) / w**3


def printed_wavefunction(family, n) -> PrintedWavefunction:
    """The published form of ``family.wavefunction(n)``: the power of 1+beta*p^2 carries the full -B."""
    wave = family.wavefunction(n)
    big_b = wave.alpha + 0.5
    return PrintedWavefunction(**{**vars(wave), "a2": wave.a2 - big_b / 2.0})
