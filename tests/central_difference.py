"""Gradient oracle shared by the tests: central differences of
``train.loss_flat``, one pair of forward passes per parameter."""

import numpy as np

from cartannet import train


def central_difference_gradient(config, flat, features, labels):
    """Scaled central differences, with step h = 1e-5 max(1, |x_i|) for
    parameter x_i."""
    x = np.asarray(flat.vector, dtype=float)
    g = np.empty_like(x)
    for i in range(len(x)):
        h = 1e-5 * max(1.0, abs(x[i]))
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (
            np.real(train.loss_flat(config, xp, features, labels))
            - np.real(train.loss_flat(config, xm, features, labels))
        ) / (2.0 * h)
    return g
