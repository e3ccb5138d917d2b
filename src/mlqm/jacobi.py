"""Gegenbauer-type Jacobi polynomials P_n^(a,a) by the ascending three-term recurrence.

Real (generically irrational) parameters a > -1 are supported, and the recurrence is
stable on [-1, 1]; it keeps two degrees, so memory grows with len(z), not with n len(z).
"""

import numpy as np

from .errors import ConfigurationError


def jacobi_eval(n: int, a: float, z):
    """P_n^(a,a)(z), carrying only the previous and the current degree up the recurrence."""
    if n < 0:
        raise ConfigurationError(f"degree must be non-negative, got {n}")
    if a <= -1:
        raise ConfigurationError(f"need a > -1, got a={a}")
    z = np.asarray(z, dtype=float)
    prev, cur = None, np.ones(z.shape)
    if n >= 1:
        prev, cur = cur, (a + 1.0) + (a + a + 2.0) * (z - 1.0) / 2.0
    for k in range(2, n + 1):
        c = 2.0 * k + a + a
        a_k = 2.0 * k * (k + a + a) * (c - 2.0)
        b_k = (c - 1.0) * c * (c - 2.0) * z
        c_k = 2.0 * (k + a - 1.0) * (k + a - 1.0) * c
        prev, cur = cur, (b_k * cur - c_k * prev) / a_k
    return cur
