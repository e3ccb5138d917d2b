"""Deformed-measure and metric-weighted scalar products.

The measure of the deformed algebra is ``DeformationParams.measure_weight``
dp.  Under the q-map of ``DeformationParams``, dp = (1+beta*p^2) dq, it
becomes a weight on the finite box |q| < q_half, where the model
eigenfunctions are smooth cos-powers times polynomials and Gauss-Legendre
quadrature converges spectrally.  That q-scheme is the only one: it needs
beta > 0, as the closed-form metric and eigenfunctions do.

The Gauss-Legendre nodes are the eigenvalues of the tridiagonal Jacobi
matrix of the Legendre recurrence (Golub & Welsch, Math. Comp. 23, 221
(1969)): an O(n^2) solve, where numpy's dense one costs O(n^3).  Its
``scipy.linalg`` import runs at the first quadrature, not at import time,
so the CLI commands that solve nothing never load SciPy.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import DeformationParams
from .errors import DomainError, NonConvergenceError

#: Relative node-doubling change above which the integral is declared divergent.
_DIVERGENCE_THRESHOLD = 1e-3


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre node count on q; the node-doubling check also runs at twice it."""

    node_count: int = 512

    def __post_init__(self):
        if self.node_count < 16:
            raise DomainError(f"need node_count >= 16, got {self.node_count}")


@lru_cache(maxsize=32)
def _leggauss(n: int):
    """numpy's ``leggauss`` with Golub-Welsch nodes: the eigenvalues of the Jacobi
    matrix (zero diagonal, off-diagonal k/sqrt(4k^2 - 1)), then numpy's Newton
    step on P_n, weights 1/(P_{n-1} P_n') and symmetrisation."""
    from scipy.linalg import eigvalsh_tridiagonal
    leg = np.polynomial.legendre
    k = np.arange(1.0, n)
    x = eigvalsh_tridiagonal(np.zeros(n), k / np.sqrt(4.0 * k**2 - 1.0))
    c = np.zeros(n + 1)
    c[-1] = 1.0
    df = leg.legval(x, leg.legder(c))
    x -= leg.legval(x, c) / df
    fm = leg.legval(x, c[1:])
    w = 1.0 / ((fm / np.abs(fm).max()) * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2.0
    return (x - x[::-1]) / 2.0, w * (2.0 / w.sum())


def _quad_once(phi, psi, eta, params: DeformationParams, n_nodes: int) -> complex:
    """n-node Gauss-Legendre sum on the q-box: the measure weight times dp/dq = 1 + beta*p^2, at p(q)."""
    if params.beta <= 0:
        raise DomainError("Gauss-Legendre quadrature on q needs beta > 0")
    x, w = _leggauss(n_nodes)
    p = params.p_of_q(params.q_half * x)
    vals = np.conj(phi(p)) * psi(p) * params.measure_weight(p) * (1.0 + params.beta * p**2)
    if eta is not None:
        vals = vals * eta(p)
    return complex(np.sum(params.q_half * w * vals))


def eta_inner(phi, psi, eta, params: DeformationParams, spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """Metric scalar product  integral of eta * conj(phi) * psi  under the deformed measure.

    ``phi``/``psi`` are callables of p; ``eta`` is a positive weight
    callable or None for the plain product.  A node-doubling check guards
    against divergent integrands.
    """
    coarse = _quad_once(phi, psi, eta, params, spec.node_count)
    fine = _quad_once(phi, psi, eta, params, 2 * spec.node_count)
    # floor the scale at 1 so that exactly-orthogonal pairs (both estimates
    # at round-off level) are not misread as divergence
    scale = max(abs(fine), abs(coarse), 1.0)
    if not abs(fine - coarse) <= _DIVERGENCE_THRESHOLD * scale:  # also refuses NaN
        raise NonConvergenceError(
            f"inner product failed node doubling: |I(2N)-I(N)|/|I| = {abs(fine - coarse) / scale:.3e}"
        )
    return fine
