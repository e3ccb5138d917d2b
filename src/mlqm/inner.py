"""Deformed-measure and metric-weighted scalar products.

The measure of the deformed algebra is ``DeformationParams.measure_weight``
dp.  Under the q-map of ``DeformationParams``, dp = (1+beta*p^2) dq, it
becomes a weight on the finite box |q| < q_half, where the model
eigenfunctions are smooth cos-powers times polynomials and Gauss-Legendre
quadrature converges spectrally.  That q-scheme is the only one: it needs
beta > 0, as the closed-form metric and eigenfunctions do.

The Gauss-Legendre nodes start from Tricomi's asymptotic guesses and take
Newton steps on P_n, evaluated by the three-term recurrence (Hale & Townsend,
SIAM J. Sci. Comput. 35, A652 (2013)): O(n^2) with numpy alone, where numpy's
own ``leggauss`` solves a dense O(n^3) eigenproblem.
"""

from functools import lru_cache

import numpy as np

from .algebra import DeformationParams
from .errors import DomainError, NonConvergenceError

#: Gauss-Legendre node count on q; the node-doubling check also runs at twice it.
QUADRATURE_NODES = 512
#: Relative node-doubling change above which the integral is declared divergent.
_DIVERGENCE_THRESHOLD = 1e-3
#: Most Newton steps from Tricomi's guesses.
_NEWTON_STEPS = 10


@lru_cache(maxsize=32)
def _leggauss(n: int):
    """numpy's ``leggauss`` from Newton-refined Tricomi guesses: the n nodes in ascending order.

    Newton steps on P_n, evaluated by the recurrence, take Tricomi's guesses to
    rounding in two or three steps.  The weights are numpy's formula,
    1/(P_{n-1} P_n') scaled to sum to 2, with P_{n-1} and P_n' from one more
    recurrence pass at the nodes.  Only the non-negative half is
    computed; the other half is its mirror image.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(_NEWTON_STEPS):
        p_prev, p_n = _legendre_pair(n, x)
        dx = p_n * (x * x - 1.0) / (n * (x * p_n - p_prev))  # P_n/P_n', with (x^2 - 1) P_n' = n (x P_n - P_{n-1})
        x -= dx
        if np.max(np.abs(dx)) <= 1e-13:  # quadratic convergence: the step just taken left x exact to rounding
            break
    p_prev, p_n = _legendre_pair(n, x)
    w = (x * x - 1.0) / (n * p_prev * (x * p_n - p_prev))  # 1/(P_{n-1} P_n')
    if n % 2:
        x[-1] = 0.0  # the middle node, which has no mirror image
    x, w = np.concatenate([-x, x[: n // 2][::-1]]), np.concatenate([w, w[: n // 2][::-1]])
    return x, w * (2.0 / w.sum())


def _legendre_pair(n: int, x: np.ndarray):
    """P_{n-1}(x) and P_n(x) by the recurrence (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}."""
    p_prev, p = np.ones_like(x), x.copy()
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p_prev, p


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


def eta_inner(phi, psi, eta, params: DeformationParams) -> complex:
    """Metric scalar product  integral of eta * conj(phi) * psi  under the deformed measure.

    ``phi``/``psi`` are callables of p; ``eta`` is a positive weight
    callable or None for the plain product.  A node-doubling check,
    QUADRATURE_NODES against twice as many, guards against divergent integrands.
    """
    coarse = _quad_once(phi, psi, eta, params, QUADRATURE_NODES)
    fine = _quad_once(phi, psi, eta, params, 2 * QUADRATURE_NODES)
    # floor the scale at 1 so that exactly-orthogonal pairs (both estimates
    # at round-off level) are not misread as divergence
    scale = max(abs(fine), abs(coarse), 1.0)
    if not abs(fine - coarse) <= _DIVERGENCE_THRESHOLD * scale:  # also refuses NaN
        raise NonConvergenceError(
            f"inner product failed node doubling: |I(2N)-I(N)|/|I| = {abs(fine - coarse) / scale:.3e}"
        )
    return fine
