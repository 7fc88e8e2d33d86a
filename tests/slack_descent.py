"""Projected gradient descent of the d = 4 erasure Welch slack over real frames.

At d = 4, m_4(p) is affine in T_2, T_3, T_4, S4 and Q (moment_polynomial's
recurrences), with weights 6p^2(1-p)^2, 4p^3(1-p), p^4, p^2(1-p)^2 and
2p^3(1-p).  Each term X has a closed gradient in G = F'F: dX = <Gamma, dG>
with Gamma = (d/n) G^(d-1) for T_d, Gamma_ij = (4/n) G_ij^3 for S4 and
Gamma_ij = (4/n) C_i G_ij for Q (off the diagonal, C_i = sum_j G_ij^2), so
dX/dF = F (Gamma + Gamma').  The descent steps along that gradient, projected
onto the tangent space of each unit column, renormalizes the columns, and
takes Barzilai-Borwein step lengths with Armijo backtracking.
"""

import numpy as np

from ewb import erasure_welch_bound


def slack_and_gradient(f: np.ndarray, p: float, bound: float):
    """m_4(p) - bound of the real unit-norm frame f, and its gradient
    tangent to the columns' unit spheres."""
    n = f.shape[1]
    g = f.T @ f
    g2 = g @ g
    sq = g * g
    np.fill_diagonal(sq, 0.0)
    c = sq.sum(axis=1)
    t2, t3, t4 = np.trace(g2) / n, np.sum(g2 * g) / n, np.sum(g2 * g2) / n
    s4, q = np.sum(sq * sq) / n, np.sum(c * c) / n
    w2, w3, w4 = 6 * p**2 * (1 - p) ** 2, 4 * p**3 * (1 - p), p**4
    ws4, wq = p**2 * (1 - p) ** 2, 2 * p**3 * (1 - p)
    moment = p + w2 * (t2 - 1) + w3 * (t3 - 1) + w4 * (t4 - 1) + ws4 * s4 + wq * q
    cg = c[:, None] * g
    np.fill_diagonal(cg, 0.0)
    gamma = (2 * w2 * g + 3 * w3 * g2 + 4 * w4 * (g2 @ g) + 4 * ws4 * (g * sq) + 4 * wq * cg) / n
    grad = f @ (gamma + gamma.T)
    grad -= f * np.sum(f * grad, axis=0)
    return moment - bound, grad


def descend(f: np.ndarray, p: float, steps: int = 400):
    """The frame and slack after at most steps descent steps from the real
    unit-norm frame f; stops early once no step lowers the slack."""
    m, n = f.shape
    bound = erasure_welch_bound(m, n, p, 4)
    slack, grad = slack_and_gradient(f, p, bound)
    eta = 1.0
    for _ in range(steps):
        while eta > 1e-20:
            trial = f - eta * grad
            trial /= np.linalg.norm(trial, axis=0)
            new_slack, new_grad = slack_and_gradient(trial, p, bound)
            if new_slack <= slack - 1e-4 * eta * np.sum(grad * grad):
                break
            eta /= 2
        else:
            break
        ds, dg = (trial - f).ravel(), (new_grad - grad).ravel()
        f, slack, grad = trial, new_slack, new_grad
        curvature = ds @ dg
        eta = ds @ ds / curvature if curvature > 0 else 2 * eta
    return f, slack
