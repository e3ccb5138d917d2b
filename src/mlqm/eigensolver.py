"""Numerical spectral oracles.

Two independent solves cross-check the closed forms.  Both are dense
Chebyshev collocations with the behaviour at the ends of a finite interval
taken out of the eigenfunction.  The q-box solve (the precision oracle)
works on the Schrodinger form of the problem and follows the spectrum on
both sides of the reality threshold.  The p-space solve sees the
non-Hermitian operator -f d^2/dp^2 + g d/dp + h itself, with no PCT and no
metric, mapped from the whole p-axis onto theta = arctan(sqrt(beta) p).
``build_p_space_matrix`` assembles the finite-difference p-space operator from
the stencil matrices of ``algebra``; no command uses it.  Only the q-box solve
uses SciPy, imported at its first call: its ~0.3 s import would otherwise slow
every CLI process.
"""

import contextlib
from dataclasses import dataclass

import numpy as np

from .algebra import DeformationParams, MomentumGrid, first_derivative_matrix, second_derivative_matrix
from .errors import ConfigurationError, NumericError
from .pct import CoefficientSet, TransformedProblem, _larger_root

#: Most levels one collocation solve returns: the dense matrix has 16 + 2 n_levels rows, so the largest
#: solve is 1016 x 1016; a q-box solve, with its left and right vectors, then takes 0.9-2.6 s, the upper
#: end past beta_c, where the matrix is complex (2-core Xeon, 1 BLAS thread).
_MAX_LEVELS = 500
#: A wall or decay exponent's discriminant within this share of its scale is zero, a double root: at the
#: reality threshold each solve misreads its discriminant by up to 7e-15 of its scale (8000 Swanson draws).
_EXPONENT_SNAP = 1e-13

@dataclass(frozen=True)
class SpectrumResult:
    """The lowest levels in (Re, Im) order, a real one with imaginary part exactly 0, and the collocation size N."""

    eigenvalues: tuple
    resolution: int

    @property
    def real_parts(self) -> np.ndarray:
        return np.array([e.real for e in self.eigenvalues])

    @property
    def has_conjugate_pair(self) -> bool:
        return any(e.imag != 0 for e in self.eigenvalues)


def _lowest(eigs: np.ndarray, n_levels: int, merge: bool = False) -> tuple:
    """The n_levels eigenvalues of smallest (Re, Im), each merged with its conjugate first if ``merge``."""
    if merge:
        eigs = np.concatenate([eigs, np.conj(eigs)])
    return tuple(complex(e) for e in eigs[np.lexsort((eigs.imag, eigs.real))][:n_levels])


def _collocation_size(n_levels: int, what: str) -> int:
    """N = 16 + 2 n_levels collocation points for the n_levels lowest levels.

    With the wall factor out, level n's u is about a degree-n polynomial and a collocation resolves
    about 2N/pi eigenvalues (Weideman & Trefethen 1988); a larger N adds N^3 flops and N^2 rounding.
    """
    if not 1 <= n_levels <= _MAX_LEVELS:
        raise NumericError(f"cannot resolve {n_levels} {what} levels; need 1 <= levels <= {_MAX_LEVELS}")
    return 16 + 2 * n_levels


def _chebyshev_gauss(n: int):
    """Angles t_j = (2j+1) pi/2n of the interior Chebyshev-Gauss points z_j = cos t_j, and D1, D2 at them.

    D1 comes from the barycentric weights (-1)^j sin t_j, D2 from D1 (Welfert's
    recursion); each diagonal is minus its off-diagonal row sum.
    """
    t = (2 * np.arange(n) + 1) * np.pi / (2 * n)
    z = np.cos(t)
    w = _barycentric_weights(t)
    dz = z[:, None] - z[None, :]
    np.fill_diagonal(dz, 1.0)
    d1 = (w[None, :] / w[:, None]) / dz
    np.fill_diagonal(d1, 0.0)
    np.fill_diagonal(d1, -d1.sum(axis=1))
    d2 = 2.0 * d1 * (np.diag(d1)[:, None] - 1.0 / dz)
    np.fill_diagonal(d2, 0.0)
    np.fill_diagonal(d2, -d2.sum(axis=1))
    return t, d1, d2


def _barycentric_weights(t: np.ndarray) -> np.ndarray:
    return (-1.0) ** np.arange(len(t)) * np.sin(t)


def _indicial_root(problem: TransformedProblem) -> float | complex:
    """Wall exponent B of phi ~ d^B (the indicial root), read from the potential alone.

    The box spans pi/sqrt(beta), and near a wall V = nu sec^2(sqrt(beta) q)
    + const, so V sin^2(sqrt(beta) d) at two wall distances d gives nu and
    the constant; B is the root of B(B-1) = nu/beta with Re B >= 1/2
    (complex past the reality threshold).
    """
    span = problem.q_max - problem.q_min
    sqb = np.pi / span
    # Each point's wall distance d is fl(q_min + d) - q_min, exact, the distance at which
    # ``DeformationParams.p_of_q`` puts V's pole at the box edge, so only the rounding of V's
    # own terms, which cancel to nu sec^2, is left to limit the fit: it misreads the
    # discriminant 1 + 4 nu/beta by up to 7e-15 of its scale (8000 Swanson draws at beta_c).
    # At d = 1e-4 span a smooth part of V leaves a fit error that falls as d^3 or faster; at
    # 1e-2 span a potential that is not pure sec^2 misfits nu by up to 5e-7, and the leftover
    # nu z^2/(1-z^2) term stalls the collocation.  The second distance 2d makes the fit about
    # (4 u(d) - u(2d))/3, which amplifies rounding by < 2.
    q = problem.q_min + np.array([1e-4, 2e-4]) * span
    s2 = np.sin(sqb * (q - problem.q_min)) ** 2
    u = np.asarray(problem.potential(q), dtype=float) * s2
    nu = (u[0] * s2[1] - u[1] * s2[0]) / (s2[1] - s2[0])
    # At the reality threshold B is a double root and moves as the square root of the
    # misreading, which would turn the real ladder at beta_c into conjugate pairs; within the
    # snap of zero the root is taken as double.
    return _larger_root(1.0, -1.0, -nu / sqb**2, _EXPONENT_SNAP)


def _two_sided_quotients(matrix: np.ndarray, eigs: np.ndarray, right: np.ndarray, left: np.ndarray, low) -> None:
    """Read each eigs[k], k in ``low``, as y^T A x / y^T x of column k of ``right`` and ``left`` (y^T A = eigs[k] y^T):
    stationary in both, it recovers digits LAPACK loses (Parlett 1974); kept where strictly nearest eigs[k]."""
    x, y = right[:, low], left[:, low]
    with np.errstate(all="ignore"):  # y^T x = 0 (an unresolved vector) must not warn: main turns warnings into exit 2
        quotient = np.sum(y * (matrix @ x), axis=0) / np.sum(y * x, axis=0)
        dist = np.abs(quotient[:, None] - eigs)  # an inf or rounded huge quotient ties with all, a nan one is near none
        own = np.sum(dist <= np.take_along_axis(dist, low[:, None], axis=1), axis=1) == 1
    eigs[low] = np.where(own, quotient, eigs[low])


def solve_q_space(problem: TransformedProblem, n_levels: int) -> SpectrumResult:
    """The n_levels lowest q-box levels from one Chebyshev collocation solve with the wall factor taken out.

    With beta = (pi/span)^2, z = sin(sqrt(beta) (q - q_mid)), phi = (1 - z^2)^(B/2) u,
    B from ``_indicial_root`` and nu = beta B (B - 1), the Schrodinger problem becomes

        -beta (1-z^2) u'' + beta (2B+1) z u' + [V(q(z)) - nu z^2/(1-z^2) + B beta] u = eps u,

    with coefficients smooth on [-1, 1].  It is collocated at the N = 16 + 2 n_levels
    interior Chebyshev-Gauss points with no boundary rows, since the factor already
    selects the regular solution at each wall, and SciPy's dense ``eig`` solves it with
    left and right vectors.  The matrix is far from normal, so each of the n_levels
    lowest eigenvalues is then read as the two-sided Rayleigh quotient y^H A x / y^H x of
    its own vectors (``_two_sided_quotients``).
    A complex B (past the reality threshold) gives a complex matrix, whose eigenvalues
    are merged with their conjugates so that pairs appear as pairs.  The upper part of
    a collocation spectrum is spurious; only the lowest n_levels are returned.
    """
    if not (np.isfinite(problem.q_min) and np.isfinite(problem.q_max)):
        raise ConfigurationError("solve_q_space needs a finite q-box")
    from scipy.linalg import LinAlgError, eig
    n = _collocation_size(n_levels, "q-box")
    t, d1, d2 = _chebyshev_gauss(n)
    z, one_minus_z2 = np.cos(t), np.sin(t) ** 2  # z = cos t, so 1 - z^2 keeps its digits at the walls
    span = problem.q_max - problem.q_min
    beta = (np.pi / span) ** 2
    wall_b = _indicial_root(problem)
    nu = beta * wall_b * (wall_b - 1.0)
    q = problem.q_min + span * (1.0 - t / np.pi)  # z = sin(sqrt(beta) (q - q_mid)) = cos t
    diag = np.asarray(problem.potential(q), dtype=float) - nu * z**2 / one_minus_z2 + wall_b * beta
    matrix = -beta * one_minus_z2[:, None] * d2 + (beta * (2.0 * wall_b + 1.0) * z)[:, None] * d1
    matrix[np.diag_indices(n)] += diag
    try:
        eigs, left, right = eig(matrix, left=True, right=True)
    except (LinAlgError, ValueError) as exc:  # ValueError: check_finite found a NaN or inf entry
        raise NumericError(f"q-box eigensolve failed: {exc}")
    _two_sided_quotients(matrix, eigs, right, np.conj(left), np.lexsort((eigs.imag, eigs.real))[:n_levels])
    # a real wall exponent makes the operator self-adjoint in the weight (1-z^2)^(B-1/2)
    real = np.isrealobj(matrix)
    return SpectrumResult(_lowest(eigs.real if real else eigs, n_levels, merge=not real), n)


#: Alias of ``solve_q_space``, the name under which callers follow the complex branch.
solve_q_space_branch = solve_q_space


def build_p_space_matrix(coeffs: CoefficientSet, grid: MomentumGrid) -> np.ndarray:
    """-f d^2/dp^2 + g d/dp + h as the dense products of the 4th-order stencil matrices (Dirichlet closure)."""
    if not grid.is_symmetric:
        raise ConfigurationError("p-space assembly requires a symmetric grid")
    p, n, step = grid.points, grid.n_points, grid.spacing
    f = np.asarray(coeffs.f(p), dtype=float)
    g = np.asarray(coeffs.g(p), dtype=float)
    h = np.asarray(coeffs.h(p), dtype=float)
    return -f[:, None] * second_derivative_matrix(n, step) + g[:, None] * first_derivative_matrix(n, step) + np.diag(h)


def _decay_exponent(coeffs: CoefficientSet, beta: float) -> float | complex:
    """Exponent s of psi ~ cos(theta)^s ~ |p|^-s at |p| -> inf, read from g and h alone.

    With f ~ beta^2 p^4, g ~ G3 p^3 and h ~ H2 p^2, s is the larger root of
    beta^2 s^2 + (beta^2 + G3) s - H2 = 0.  G3 and H2 are read from the odd
    part of g and the even part of h at sqrt(beta) |p| = 1e4 and 2e4; the
    second point removes the next order, 1/p^2, as in ``_indicial_root``.
    """
    p = np.array([1e4, 2e4]) / np.sqrt(beta)
    g_odd = (np.asarray(coeffs.g(p), dtype=float) - np.asarray(coeffs.g(-p), dtype=float)) / (2.0 * p**3)
    h_even = (np.asarray(coeffs.h(p), dtype=float) + np.asarray(coeffs.h(-p), dtype=float)) / (2.0 * p**2)
    g3, h2 = (4.0 * g_odd[1] - g_odd[0]) / 3.0, (4.0 * h_even[1] - h_even[0]) / 3.0
    # G3 and H2 misread the discriminant by up to 2e-15 of its scale; within the snap of
    # zero s is a double root (the reality threshold), as for the q-box's wall exponent
    return _larger_root(beta**2, beta**2 + g3, -h2, _EXPONENT_SNAP)


@dataclass(frozen=True)
class ThetaModes:
    """Eigenpairs of the theta-axis solve: psi_k = cos(theta)^s e^(m theta) u_k(sin theta).

    ``values`` holds u_k at the collocation points z_j = cos t_j, one column
    per mode; calling the modes at angles theta interpolates each u_k
    barycentrically in z = sin theta and multiplies it by the wall factor.
    """

    eigenvalues: np.ndarray
    t: np.ndarray
    values: np.ndarray
    s: complex
    m: float

    def __call__(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        dz = np.sin(theta)[:, None] - np.cos(self.t)[None, :]
        exact = dz == 0
        dz[exact] = 1.0
        c = _barycentric_weights(self.t) / dz
        u = (c @ self.values) / c.sum(axis=1)[:, None]
        rows, cols = np.nonzero(exact)
        u[rows] = self.values[cols]
        return (np.cos(theta) ** self.s * np.exp(self.m * theta))[:, None] * u


def theta_modes(coeffs: CoefficientSet, deformation: DeformationParams, n_modes: int) -> ThetaModes:
    """The n_modes lowest modes of -f psi'' + g psi' + h psi from one collocation solve on theta = arctan(sqrt(beta) p).

    With z = sin theta, c = cos theta and psi = F u, F = c^s e^(m theta), the
    wall factor takes out the decay c^s (s from ``_decay_exponent``) and the
    constant drift of theta, m = -ell/sqrt(beta) with
    ell = -(g(p) + g(-p))/(4(1 + beta p^2)) read from g at sqrt(beta) p = 1.
    For the GUP family this factor is the arctan part of the metric's rho,
    but it is read from g, not from rho.  With u_p = sqrt(beta) c^3 u_z,
    u_pp = beta c^6 u_zz - 3 beta z c^4 u_z, F_p/F = sqrt(beta) c^2 (m - s tan theta)
    and F_pp/F = (F_p/F)^2 + beta c^2 (2 s z^2 - s - 2 m z c), the operator on u is

        -f beta c^6 u_zz + (3 f beta z c^4 + (g - 2 f F_p/F) sqrt(beta) c^3) u_z + (h + g F_p/F - f F_pp/F) u,

    smooth on [-1, 1].  It is collocated at the N = 16 + 2 n_modes interior
    Chebyshev-Gauss points with no boundary rows; numpy's dense ``eig`` solves it, and the rows of V^-1 are
    the left vectors of ``_two_sided_quotients`` (LAPACK's eigenvalues where ``inv`` finds V singular).  The
    upper part of a collocation spectrum is spurious; the n_modes of smallest real part are returned.  A
    non-finite matrix or a failed solve raises NumericError.
    """
    beta = deformation.beta
    if not beta > 0:
        raise ConfigurationError("the theta-axis solve needs beta > 0")
    n = _collocation_size(n_modes, "p-space")
    t, d1, d2 = _chebyshev_gauss(n)
    z, c = np.cos(t), np.sin(t)  # sin and cos of theta = pi/2 - t; c keeps its digits at the walls
    sqb = np.sqrt(beta)
    p = z / (sqb * c)
    f = np.asarray(coeffs.f(p), dtype=float)
    g = np.asarray(coeffs.g(p), dtype=float)
    h = np.asarray(coeffs.h(p), dtype=float)
    s = _decay_exponent(coeffs, beta)
    p1 = 1.0 / sqb
    m = float((coeffs.g(p1) + coeffs.g(-p1)) / (4.0 * (1.0 + beta * p1**2))) / sqb
    fp = sqb * c * (m * c - s * z)
    fpp = fp**2 + beta * c**2 * (2.0 * s * z**2 - s - 2.0 * m * z * c)
    drift = 3.0 * f * beta * z * c**4 + (g - 2.0 * f * fp) * sqb * c**3
    matrix = (-f * beta * c**6)[:, None] * d2 + drift[:, None] * d1
    matrix[np.diag_indices(n)] += h + g * fp - f * fpp
    try:
        eigs, vecs = np.linalg.eig(matrix)
    except np.linalg.LinAlgError as exc:  # also a NaN or inf entry
        raise NumericError(f"p-space eigensolve failed: {exc}")
    order = np.lexsort((eigs.imag, eigs.real))[:n_modes]
    with contextlib.suppress(np.linalg.LinAlgError):  # V singular: LAPACK's eigenvalues stay
        _two_sided_quotients(matrix, eigs, vecs, np.linalg.inv(vecs).T, order)
    return ThetaModes(eigs[order], t, vecs[:, order], s, m)


def solve_p_space(coeffs: CoefficientSet, deformation: DeformationParams, n_levels: int) -> SpectrumResult:
    """The n_levels lowest p-space levels from ``theta_modes``.

    A complex decay exponent (past the reality threshold) gives a complex
    matrix, whose eigenvalues are merged with their conjugates so that pairs
    appear as pairs.
    """
    modes = theta_modes(coeffs, deformation, n_levels)
    return SpectrumResult(_lowest(modes.eigenvalues, n_levels, merge=isinstance(modes.s, complex)), len(modes.t))
