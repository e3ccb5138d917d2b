"""Jacobi polynomials P_n^(a,b) by the ascending three-term recurrence.

Real (generically irrational) parameters a, b > -1 are supported, and the
recurrence is stable on [-1, 1].  ``wavefunction --n`` takes degrees below
500; at the defaults n = 306 is normalized (exit 0), while n = 307 and
n = 499 fail the metric quadrature's node doubling (exit 3).
"""

import numpy as np

from .errors import ConfigurationError


def jacobi_batch(n_max: int, a: float, b: float, z):
    """All of P_0 .. P_{n_max} at z in one recurrence sweep.

    Returns an array of shape (n_max + 1,) + shape(z).
    """
    if n_max < 0:
        raise ConfigurationError(f"degree must be non-negative, got {n_max}")
    if a <= -1 or b <= -1:
        raise ConfigurationError(f"need a > -1 and b > -1, got a={a}, b={b}")
    z = np.asarray(z, dtype=float)
    out = np.empty((n_max + 1,) + z.shape)
    out[0] = 1.0
    if n_max == 0:
        return out
    out[1] = (a + 1.0) + (a + b + 2.0) * (z - 1.0) / 2.0
    for n in range(2, n_max + 1):
        c = 2.0 * n + a + b
        a_n = 2.0 * n * (n + a + b) * (c - 2.0)
        b_n = (c - 1.0) * (c * (c - 2.0) * z + a * a - b * b)
        c_n = 2.0 * (n + a - 1.0) * (n + b - 1.0) * c
        out[n] = (b_n * out[n - 1] - c_n * out[n - 2]) / a_n
    return out


def jacobi_eval(n: int, a: float, b: float, z):
    """P_n^(a,b)(z); identical (bit-for-bit) to the last jacobi_batch entry."""
    return jacobi_batch(n, a, b, z)[n]
