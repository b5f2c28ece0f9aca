"""Benchmark inputs and exact posteriors, in plain numpy/scipy.

Nothing here imports ``lrvga``: the streams, the exact Bayesian linear
regression posterior and the KL divergence of a factored belief to it are
computed independently of the code under test, so a fault in the package
cannot hide itself by also corrupting the reference.

The model is y = x.theta + N(0, 1) with the prior theta ~ N(0, sigma0^2 I).
After n observations X (n x d), y the exact posterior has precision
Lam = I / sigma0^2 + X^T X and mean Lam^-1 X^T y. Two routes compute it:

* ``dense_posterior`` forms Lam as a d x d matrix (moderate d);
* ``woodbury_posterior`` never forms a d x d array and goes through the
  rank-n identity Lam^-1 = s2 I - s2^2 X^T (I_n + s2 X X^T)^-1 X with
  s2 = sigma0^2, at O(d n^2) cost (high d, short streams).

Both return an object with ``kl(mu, W, psi)``, the KL divergence
KL(q || exact) for q = N(mu, (W W^T + diag(psi))^-1), and ``mean``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular


@dataclass(frozen=True)
class Stream:
    """One labelled stream: rows of X are the inputs, y the labels."""

    X: np.ndarray
    y: np.ndarray
    sigma0: float


def spectral_stream(d: int, n: int, sigma0: float, seed) -> Stream:
    """Inputs x ~ N(0, C), C = Q^T diag(lam) Q with lam_i proportional to
    1/i and a random rotation Q, scaled so that E||x||^2 = d; truth
    theta ~ N(0, sigma0^2 I); unit-variance label noise."""
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    Q *= np.sign(np.diag(R))
    lam = 1.0 / np.arange(1.0, d + 1.0)
    lam *= d / lam.sum()
    X = (rng.standard_normal((n, d)) * np.sqrt(lam)) @ Q
    theta = sigma0 * rng.standard_normal(d)
    y = X @ theta + rng.standard_normal(n)
    return Stream(X, y, sigma0)


def isotropic_stream(d: int, n: int, sigma0: float, seed) -> Stream:
    """Inputs x ~ N(0, I / d), so E||x||^2 = 1; truth and noise as above."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X *= 1.0 / np.sqrt(d)
    theta = sigma0 * rng.standard_normal(d)
    y = X @ theta + rng.standard_normal(n)
    return Stream(X, y, sigma0)


def _factored_terms(W: np.ndarray, psi: np.ndarray):
    """Cholesky factor L of M = I_p + W^T Psi^-1 W and log det(W W^T + Psi)."""
    M = np.eye(W.shape[1]) + W.T @ (W / psi[:, None])
    L = np.linalg.cholesky((M + M.T) / 2.0)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L)))) + float(np.sum(np.log(psi)))
    return L, logdet


class DensePosterior:
    """Exact posterior with a dense d x d precision."""

    def __init__(self, s: Stream):
        d = s.X.shape[1]
        self.prec = np.eye(d) / s.sigma0**2 + s.X.T @ s.X
        self.chol = cho_factor(self.prec, lower=True)
        self.mean = cho_solve(self.chol, s.X.T @ s.y)
        self.logdet_prec = 2.0 * float(np.sum(np.log(np.diag(self.chol[0]))))

    def kl(self, mu: np.ndarray, W: np.ndarray, psi: np.ndarray) -> float:
        d = mu.shape[0]
        q_prec = W @ W.T + np.diag(psi)
        q_chol = cho_factor(q_prec, lower=True)
        trace = float(np.trace(cho_solve(q_chol, self.prec)))
        delta = mu - self.mean
        quad = float(delta @ self.prec @ delta)
        q_logdet = 2.0 * float(np.sum(np.log(np.diag(q_chol[0]))))
        return 0.5 * (trace + quad - d - self.logdet_prec + q_logdet)


class WoodburyPosterior:
    """Exact posterior held through the data: O(d n) storage, O(d n^2) set-up."""

    def __init__(self, s: Stream):
        X, y = s.X, s.y
        n, d = X.shape
        self.X = X
        self.s2 = s.sigma0**2
        # Lam^-1 X^T y = s2 X^T (I_n + s2 X X^T)^-1 y, the push-through form.
        K = np.eye(n) + self.s2 * (X @ X.T)
        chol = cho_factor(K, lower=True)
        self.mean = self.s2 * (X.T @ cho_solve(chol, y))
        self.logdet_prec = d * np.log(1.0 / self.s2) + 2.0 * float(
            np.sum(np.log(np.diag(chol[0])))
        )

    def kl(self, mu: np.ndarray, W: np.ndarray, psi: np.ndarray) -> float:
        d = mu.shape[0]
        X = self.X
        L, q_logdet = _factored_terms(W, psi)
        # q covariance: Psi^-1 - Psi^-1 W M^-1 W^T Psi^-1.
        pw = W / psi[:, None]
        B = solve_triangular(L, pw.T, lower=True)  # L^-1 W^T Psi^-1, p x d
        trace_cov = float(np.sum(1.0 / psi) - np.sum(B * B))
        C = solve_triangular(L, pw.T @ X.T, lower=True)  # p x n
        trace_data = float(np.sum((X * X) @ (1.0 / psi)) - np.sum(C * C))
        delta = mu - self.mean
        quad = float(delta @ delta) / self.s2 + float(np.sum((X @ delta) ** 2))
        trace = trace_cov / self.s2 + trace_data
        return 0.5 * (trace + quad - d - self.logdet_prec + q_logdet)
