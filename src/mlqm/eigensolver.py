"""Numerical spectral oracles.

Two independent solves cross-check the closed forms.  Both are dense
Chebyshev collocations with the behaviour at the ends of a finite interval
taken out of the eigenfunction.  The q-box solve (the precision oracle)
works on the Schrodinger form of the problem and follows the spectrum on
both sides of the reality threshold.  The p-space solve sees the
non-Hermitian operator -f d^2/dp^2 + g d/dp + h itself, with no PCT and no
metric, mapped from the whole p-axis onto theta = arctan(sqrt(beta) p).  The
finite-difference p-space operator is assembled here too, as a numpy band
array; the tests use it as a reference.  Only the q-box solve uses SciPy, imported
at its first call: its ~0.3 s import would otherwise slow every CLI process.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import _D1_CENTRAL, _D2_CENTRAL, DeformationParams, MomentumGrid
from .errors import InvalidGridError, NumericError, ResolutionError
from .pct import CoefficientSet, TransformedProblem

REAL = "real"
CONJUGATE_PAIR = "member-of-conjugate-pair"
UNCLASSIFIED = "unclassified"

#: Most levels one collocation solve returns: the dense matrix has 32 + 4 n_levels rows,
#: so the largest solve is 2032 x 2032 and takes 10-20 s.
_MAX_LEVELS = 500

#: Offsets of the five bands of the p-space operator, in the row order of its band array.
BAND_OFFSETS = range(-2, 3)


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


def _collocation_size(n_levels: int, what: str) -> int:
    """N = 32 + 4 n_levels collocation points for the n_levels lowest levels."""
    if not 1 <= n_levels <= _MAX_LEVELS:
        raise ResolutionError(f"cannot resolve {n_levels} {what} levels; need 1 <= levels <= {_MAX_LEVELS}")
    return 32 + 4 * n_levels


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
    disc = 1.0 + 4.0 * nu / sqb**2
    # The fit misreads disc by up to 3e-12 of its scale (3000 random points of both models).
    # At the reality threshold B is a double root and moves as the square root of that
    # misreading, which would turn the real ladder at beta_c into conjugate pairs; within
    # the fit's rounding of zero the root is taken as double.
    if abs(disc) <= 1e-11 * (1.0 + 4.0 * abs(nu) / sqb**2):
        disc = 0.0
    return complex(0.5 * (1.0 + np.sqrt(complex(disc))))


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
    n = _collocation_size(n_levels, "q-box")
    t, d1, d2 = _chebyshev_gauss(n)
    z, one_minus_z2 = np.cos(t), np.sin(t) ** 2  # z = cos t, so 1 - z^2 keeps its digits at the walls
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


def p_space_operator(coeffs: CoefficientSet, grid: MomentumGrid) -> np.ndarray:
    """-f d^2/dp^2 + g d/dp + h with 4th-order stencils, as a (5, N) band array.

    Row k holds the band at offset ``BAND_OFFSETS[k]``: entry [k, i] is the
    matrix element (i, i + k - 2), and the entries whose column falls off the
    grid are zero.
    """
    if not grid.is_symmetric:
        raise InvalidGridError("p-space assembly requires a symmetric grid")
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


def build_p_space_matrix(coeffs: CoefficientSet, grid: MomentumGrid) -> np.ndarray:
    """Dense view of ``p_space_operator``: the digits of the stencil-matrix products."""
    return _dense(p_space_operator(coeffs, grid))


def _dense(bands: np.ndarray) -> np.ndarray:
    """The N x N matrix of a (5, N) band array."""
    n = bands.shape[1]
    dense = np.zeros((n, n), dtype=bands.dtype)
    for row, k in zip(bands, BAND_OFFSETS):
        i = np.arange(max(0, -k), n - max(0, k))
        dense[i, i + k] = row[i]
    return dense


def _decay_exponent(coeffs: CoefficientSet, beta: float) -> complex:
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
    b = beta**2 + g3
    disc = b * b + 4.0 * beta**2 * h2
    # G3 and H2 carry about 1e-15 of disc's scale; within that of zero s is a double
    # root (the reality threshold), as for the q-box's wall exponent
    if abs(disc) <= 1e-14 * (b * b + 4.0 * beta**2 * abs(h2)):
        disc = 0.0
    root = np.sqrt(complex(disc))
    # the root with the larger real part, in the form that does not cancel
    s = (root - b) / (2.0 * beta**2) if b <= 0 else 2.0 * h2 / (b + root)
    return s.real if s.imag == 0 else s


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


def theta_modes(coeffs: CoefficientSet, deformation: DeformationParams, n_modes: int,
                vectors: bool = True) -> ThetaModes:
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

    smooth on [-1, 1].  It is collocated at the N = 32 + 4 n_modes interior
    Chebyshev-Gauss points with no boundary rows, and numpy's dense ``eig``
    (``eigvals`` when ``vectors`` is False) solves it.  The upper part of a
    collocation spectrum is spurious; the n_modes of smallest real part are
    returned.  A non-finite matrix or a failed solve raises NumericError.
    """
    beta = deformation.beta
    if not beta > 0:
        raise InvalidGridError("the theta-axis solve needs beta > 0")
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
        if vectors:
            eigs, vecs = np.linalg.eig(matrix)
        else:
            eigs, vecs = np.linalg.eigvals(matrix), None
    except np.linalg.LinAlgError as exc:  # also a NaN or inf entry
        raise NumericError(f"p-space eigensolve failed: {exc}")
    order = np.lexsort((eigs.imag, eigs.real))[:n_modes]
    return ThetaModes(
        eigenvalues=eigs[order], t=t, values=None if vecs is None else vecs[:, order], s=s, m=m
    )


def solve_p_space(coeffs: CoefficientSet, deformation: DeformationParams, n_levels: int) -> SpectrumResult:
    """The n_levels lowest p-space levels from ``theta_modes``, classified.

    A complex decay exponent (past the reality threshold) gives a complex
    matrix, whose eigenvalues are merged with their conjugates so that pairs
    appear as pairs.
    """
    modes = theta_modes(coeffs, deformation, n_levels, vectors=False)
    eigs = modes.eigenvalues
    if isinstance(modes.s, complex):
        eigs = np.concatenate([eigs, np.conj(eigs)])
        eigs = eigs[np.lexsort((eigs.imag, eigs.real))][:n_levels]
    tol = 1e-7 * max(1.0, float(np.max(np.abs(eigs.real))))
    return SpectrumResult(
        eigenvalues=tuple(complex(e) for e in eigs),
        classification=classify_spectrum(eigs, tol),
        source="p-space-numeric",
        resolution=len(modes.t),
    )
