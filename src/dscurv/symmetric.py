"""Elementary and normalized symmetric curvature functions.

The algebraic core of the curvature operator: elementary symmetric
polynomials S_k of the principal curvatures, the normalized k-th root
f = (S_k / C(n,k))^(1/k), its gradient, and membership tests for the
Garding cone Gamma_k = {S_1 > 0, ..., S_k > 0} on which f is elliptic
and concave.  root_of_sums() takes S_1..S_k directly, which the
induced geometry supplies in closed form, so the solve path never
forms eigenvalues.

The other functions accept a single eigenvalue tuple of length n or an
array of shape (..., n) and operate vectorized over the leading axes.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import AdmissibilityError


@dataclass
class ConeReport:
    """Result of a Gamma_k membership test.

    member is a bool for a single tuple, a boolean array for batched
    input.  sigma_values holds S_1..S_k along the last axis.
    """

    k: int
    member: object
    sigma_values: np.ndarray


def _as_batch(lam):
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0:
        raise ValueError("eigenvalue input must have at least one axis")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite")
    return lam


def elementary_symmetric_all(lam, kmax):
    """All S_0..S_kmax of lam, shape (..., kmax+1), via the one-pass
    recursion on characteristic-polynomial coefficients."""
    lam = _as_batch(lam)
    n = lam.shape[-1]
    if not 1 <= kmax <= n:
        raise ValueError(f"order k={kmax} out of range 1..{n}")
    out = np.zeros(lam.shape[:-1] + (kmax + 1,))
    out[..., 0] = 1.0
    for t in range(n):
        x = lam[..., t]
        for j in range(min(kmax, t + 1), 0, -1):
            out[..., j] += x * out[..., j - 1]
    return out


def elementary_symmetric(lam, k):
    """S_k(lam) = sum over k-element index subsets of eigenvalue products."""
    return elementary_symmetric_all(lam, k)[..., k]


def in_gamma_k(lam, k):
    """Test Gamma_k membership: S_j(lam) > 0 strictly for every j = 1..k.

    Total function: never raises for in-range k, boundary points with
    some S_j == 0 are classified as outside (open-cone semantics).
    """
    lam = _as_batch(lam)
    sig = elementary_symmetric_all(lam, k)[..., 1:]
    member = np.all(sig > 0.0, axis=-1)
    if lam.ndim == 1:
        return ConeReport(k=k, member=bool(member), sigma_values=sig)
    return ConeReport(k=k, member=member, sigma_values=sig)


def root_of_sums(sums, k, n):
    """Normalized root (S_k / C(n,k))^(1/k) from sums[..., j - 1] = S_j
    (j = 1..k at least) of n eigenvalues, with the Gamma_k test on the
    same sums.

    Raises AdmissibilityError with the flat node ids where some S_j,
    j <= k, is not positive.
    """
    sums = np.asarray(sums, dtype=float)
    member = np.all(sums[..., :k] > 0.0, axis=-1)
    if not member.all():
        raise AdmissibilityError(np.flatnonzero(~member.ravel()).tolist())
    return (sums[..., k - 1] / comb(n, k)) ** (1.0 / k)


def normalized_root(lam, k):
    """f(lam) = (S_k / C(n,k))^(1/k), positively homogeneous of degree one.

    Raises AdmissibilityError outside Gamma_k; recovery is the caller's
    decision (the Newton line search rejects such steps).
    """
    lam = _as_batch(lam)
    return root_of_sums(elementary_symmetric_all(lam, k)[..., 1:], k,
                        lam.shape[-1])


def normalized_root_gradient(lam, k):
    """Gradient (df/dlam_1, ..., df/dlam_n) of the normalized root.

    Uses dS_k/dlam_i = S_{k-1} of the tuple with lam_i deleted; entries
    are strictly positive on Gamma_k and satisfy the Euler identity
    sum_i lam_i df/dlam_i = f.
    """
    lam = _as_batch(lam)
    n = lam.shape[-1]
    f = normalized_root(lam, k)
    grad = np.empty_like(lam)
    for i in range(n):
        deleted = np.concatenate([lam[..., :i], lam[..., i + 1:]], axis=-1)
        if k == 1:
            ski = np.ones(lam.shape[:-1])
        else:
            ski = elementary_symmetric(deleted, k - 1)
        grad[..., i] = ski / (comb(n, k) * k * f ** (k - 1))
    return grad
