"""Broadcast formulas for the four 1-D test matrices, the reference the
in-place generators in :mod:`krylreg.problems` are tested against.

Each function writes its kernel as one numpy expression over an
``(n, 1)`` column and a ``(1, n)`` row of grid points, which holds several
n x n temporaries at once.  The shaw and baart generators must reproduce
every entry bit for bit; the matrix-free deriv2 and heat operators must
match these matrices product by product to roundoff.  Each returns
``(entries, x_true, b_true)`` with ``b_true = entries @ x_true``.
"""

import numpy as np


def shaw(n: int):
    h = np.pi / n
    t = -np.pi / 2 + (np.arange(1, n + 1) - 0.5) * h
    co = np.cos(t)
    psi = np.pi * np.sin(t)
    u = psi[:, None] + psi[None, :]
    entries = h * (co[:, None] + co[None, :]) ** 2 * np.sinc(u / np.pi) ** 2
    x_true = 2.0 * np.exp(-6.0 * (t - 0.8) ** 2) + np.exp(-2.0 * (t + 0.5) ** 2)
    return entries, x_true, entries @ x_true


def baart(n: int):
    hs = (np.pi / 2) / n
    ht = np.pi / n
    s = (np.arange(1, n + 1) - 0.5) * hs
    t = (np.arange(1, n + 1) - 0.5) * ht
    entries = ht * np.exp(s[:, None] * np.cos(t[None, :]))
    x_true = np.sin(t)
    return entries, x_true, entries @ x_true


def deriv2(n: int):
    h = 1.0 / n
    t = (np.arange(1, n + 1) - 0.5) * h
    s_col = t[:, None]
    t_row = t[None, :]
    entries = h * np.where(s_col < t_row, s_col * (t_row - 1.0), t_row * (s_col - 1.0))
    x_true = t.copy()
    return entries, x_true, entries @ x_true


def heat(n: int):
    h = 1.0 / n
    t = (np.arange(1, n + 1) - 0.5) * h
    kern = (h / (2.0 * np.sqrt(np.pi))) * t ** (-1.5) * np.exp(-0.25 / t)
    idx = np.arange(n)
    lag = idx[:, None] - idx[None, :]
    entries = np.where(lag >= 0, kern[np.abs(lag)], 0.0)
    x_true = np.zeros(n)
    ti = np.arange(1, n // 2 + 1) * (20.0 / n)
    half = np.where(
        ti < 2.0,
        0.75 * ti**2 / 4.0,
        np.where(ti < 3.0, 0.75 + (ti - 2.0) * (3.0 - ti), 0.75 * np.exp(-(ti - 3.0) * 2.0)),
    )
    x_true[: n // 2] = half
    return entries, x_true, entries @ x_true


REFERENCES = {"shaw": shaw, "baart": baart, "deriv2": deriv2, "heat": heat}
