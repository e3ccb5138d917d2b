"""Deformed-measure and metric-weighted scalar products.

The measure of the deformed algebra is ``DeformationParams.measure_weight``
dp.  Under the q-map of ``DeformationParams``, dp = (1+beta*p^2) dq, it
becomes a weight on the finite box |q| < q_half, where the model
eigenfunctions are smooth cos-powers times polynomials.  That q-scheme is the
only one: it needs beta > 0, as the closed-form metric and eigenfunctions do.

The rule is Fejer's second: the open Chebyshev nodes cos(k pi/n), with weights
from one inverse FFT (Waldvogel, BIT 46, 195 (2006)).  It converges like
Gauss-Legendre, also on integrands singular at the box ends (Trefethen, SIAM
Rev. 50, 67 (2008)), and it nests: the n-rule's nodes are every other node of
the 2n-rule, so node doubling evaluates the integrand once.
"""

from functools import lru_cache

import numpy as np

from .algebra import DeformationParams
from .errors import ConfigurationError, NumericError

#: Fejer rule size on q; the integral is the 1023-node rule of twice it, checked against this 511-node one.
QUADRATURE_NODES = 512
#: Relative node-doubling change above which the integral is declared divergent.
_DIVERGENCE_THRESHOLD = 1e-3


@lru_cache(maxsize=8)
def _fejer(n: int):
    """Fejer's second rule on [-1, 1], n >= 2: the n - 1 nodes cos(k pi/n), k = 1..n-1, and their weights.

    The rule is interpolatory, so it integrates x^d exactly for d <= n - 2, and
    for d = n - 1 as well when n is even, by symmetry.
    """
    from numpy import fft  # at the first integral, not with this module

    odd = np.arange(1, n, 2)
    moments = np.zeros(n + 1)
    moments[: odd.size] = 2.0 / (odd * (odd - 2.0))
    moments[odd.size] = 1.0 / odd[-1]
    w = fft.ifft(-moments[:-1] - moments[:0:-1]).real  # w[0] is the weight of the node x = 1, which is 0
    return np.cos(np.pi * np.arange(1, n) / n), w[1:]


def eta_inner(phi, psi, eta, params: DeformationParams) -> complex:
    """Metric scalar product  integral of eta * conj(phi) * psi  under the deformed measure.

    ``phi``/``psi`` are callables of p; ``eta`` is a positive weight
    callable or None for the plain product.  A node-doubling check,
    QUADRATURE_NODES against twice as many, guards against divergent integrands.
    """
    if params.beta <= 0:
        raise ConfigurationError("quadrature on q needs beta > 0")
    x, w_fine = _fejer(2 * QUADRATURE_NODES)
    w_coarse = _fejer(QUADRATURE_NODES)[1]
    p = params.p_of_q(params.q_half * x)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads NaN, which node doubling refuses
        vals = np.conj(phi(p)) * psi(p) * params.measure_weight(p) * (1.0 + params.beta * p**2)
        if eta is not None:
            vals = vals * eta(p)
        vals = params.q_half * vals
        coarse = complex(np.sum(w_coarse * vals[1::2]))
        fine = complex(np.sum(w_fine * vals))
    # floor the scale at 1 so that exactly-orthogonal pairs (both estimates
    # at round-off level) are not misread as divergence
    scale = max(abs(fine), abs(coarse), 1.0)
    if not abs(fine - coarse) <= _DIVERGENCE_THRESHOLD * scale:  # also refuses NaN
        raise NumericError(
            f"inner product failed node doubling: |I(2N)-I(N)|/|I| = {abs(fine - coarse) / scale:.3e}"
        )
    return fine
