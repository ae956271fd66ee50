"""Symmetric-function kernel: oracles, identities, cone properties."""

import itertools
from math import comb

import numpy as np
import pytest

from dscurv import (AdmissibilityError, elementary_symmetric, in_gamma_k,
                    normalized_root, normalized_root_gradient)
from dscurv.symmetric import elementary_symmetric_all, root_of_sums


def esym_bruteforce(lam, k):
    """Subset-enumeration oracle for S_k."""
    return sum(np.prod(c) for c in itertools.combinations(lam, k))


def sample_gamma_k(rng, n, k, count):
    """Rejection-sample eigenvalue tuples from Gamma_k."""
    out = []
    while len(out) < count:
        cand = rng.uniform(-1.0, 3.0, size=(4 * count, n))
        mask = np.asarray(in_gamma_k(cand, k).member)
        out.extend(cand[mask])
    return np.array(out[:count])


def test_elementary_symmetric_examples():
    assert elementary_symmetric([1.0, 1.0, 1.0], 3) == 1.0
    # enumeration over all index pairs of (1,2,3): 1*2 + 1*3 + 2*3 = 11
    assert elementary_symmetric([1.0, 2.0, 3.0], 2) == 11.0
    assert esym_bruteforce([1.0, 2.0, 3.0], 2) == 11.0
    # single product 2 * (-1)
    assert elementary_symmetric([2.0, -1.0], 2) == -2.0


def test_elementary_symmetric_against_enumeration(rng):
    for n in (2, 3, 4, 5):
        for k in range(1, n + 1):
            lam = rng.normal(size=(30, n))
            expected = np.array([esym_bruteforce(row, k) for row in lam])
            got = elementary_symmetric(lam, k)
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_order_out_of_range():
    with pytest.raises(ValueError):
        elementary_symmetric([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        elementary_symmetric([1.0, 2.0], 0)


def test_normalized_root_examples():
    for n in (1, 2, 3):
        for k in range(1, n + 1):
            assert normalized_root(np.ones(n), k) == pytest.approx(1.0, abs=1e-15)
    # S_2 = 11 over C(3,2) = 3
    assert normalized_root([1.0, 2.0, 3.0], 2) == pytest.approx(
        np.sqrt(11.0 / 3.0), rel=1e-15)
    assert normalized_root([1.0, 2.0, 3.0], 2) == pytest.approx(1.914854, abs=1e-6)
    for t in (0.3, 1.7):
        assert normalized_root([t, t, t], 3) == pytest.approx(t, rel=1e-14)


def test_normalized_root_rejects_outside_cone():
    with pytest.raises(AdmissibilityError):
        normalized_root([2.0, -1.0], 2)
    with pytest.raises(AdmissibilityError):
        normalized_root_gradient([2.0, -1.0], 2)


def test_homogeneity(rng):
    for n, k in ((2, 1), (2, 2), (3, 2), (3, 3)):
        lam = sample_gamma_k(rng, n, k, 50)
        for t in (0.25, 3.5):
            assert np.allclose(normalized_root(t * lam, k),
                               t * normalized_root(lam, k), rtol=1e-12)


def test_gradient_examples():
    for n in (1, 2, 3):
        for k in range(1, n + 1):
            grad = normalized_root_gradient(np.ones(n), k)
            assert np.allclose(grad, 1.0 / n, rtol=1e-14)
    grad = normalized_root_gradient([0.7, 2.9], 1)
    assert np.allclose(grad, [0.5, 0.5], rtol=1e-15)


def test_gradient_positive_and_euler(rng):
    for n, k in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
        lam = sample_gamma_k(rng, n, k, 200)
        grad = normalized_root_gradient(lam, k)
        assert np.all(grad > 0.0)
        euler = np.einsum("si,si->s", grad, lam)
        f = normalized_root(lam, k)
        assert np.allclose(euler, f, rtol=1e-10)


def test_gradient_matches_finite_differences(rng):
    step = 1e-6
    for n, k in ((2, 2), (3, 2), (3, 3)):
        lam = sample_gamma_k(rng, n, k, 20)
        grad = normalized_root_gradient(lam, k)
        for i in range(n):
            shift = np.zeros(n)
            shift[i] = step
            fd = (normalized_root(lam + shift, k)
                  - normalized_root(lam - shift, k)) / (2 * step)
            assert np.allclose(grad[:, i], fd, rtol=1e-6)


def test_in_gamma_k_examples():
    assert in_gamma_k([1.0, 1.0, 1.0], 3).member is True
    rep = in_gamma_k([2.0, -1.0], 2)
    assert rep.member is False
    assert rep.sigma_values[-1] == -2.0
    rep = in_gamma_k([-0.1, 1.0, 1.0], 2)
    assert rep.member is True
    assert rep.sigma_values[0] == pytest.approx(1.9)
    assert rep.sigma_values[1] == pytest.approx(0.8)


def test_gamma_k_boundary_is_outside():
    # S_1 = 0 exactly: open-cone semantics classify it outside
    assert in_gamma_k([1.0, -1.0], 1).member is False


def test_concavity_on_segments(rng):
    for n, k in ((2, 2), (3, 2), (3, 3)):
        lam = sample_gamma_k(rng, n, k, 60)
        mu = sample_gamma_k(rng, n, k, 60)
        for s in (0.25, 0.5, 0.75):
            mix = s * lam + (1 - s) * mu
            lhs = normalized_root(mix, k)
            rhs = s * normalized_root(lam, k) + (1 - s) * normalized_root(mu, k)
            assert np.all(lhs >= rhs - 1e-12)


def test_maclaurin_chain(rng):
    # sum_i f_i lam_i^2 >= f * H_1 >= f^2 on the admissible cone
    for n, k in ((2, 1), (2, 2), (3, 2), (3, 3)):
        lam = sample_gamma_k(rng, n, k, 300)
        f = normalized_root(lam, k)
        grad = normalized_root_gradient(lam, k)
        lhs = np.einsum("si,si->s", grad, lam ** 2)
        h1 = lam.mean(axis=1)
        assert np.all(lhs >= f * h1 - 1e-10)
        assert np.all(f * h1 >= f ** 2 - 1e-10)


def test_cone_monotonicity(rng):
    for n in (2, 3):
        for k in range(2, n + 1):
            lam = sample_gamma_k(rng, n, k, 100)
            assert np.all(np.asarray(in_gamma_k(lam, k - 1).member))


def test_cone_segment_to_positive_orthant(rng):
    # the component characterization: the segment from any member point to
    # the all-ones vector stays inside {S_k > 0}
    for n, k in ((2, 2), (3, 2), (3, 3)):
        lam = sample_gamma_k(rng, n, k, 40)
        ones = np.ones(n)
        for s in np.linspace(0.0, 1.0, 21):
            seg = (1 - s) * lam + s * ones
            assert np.all(elementary_symmetric(seg, k) > 0.0)


def test_root_of_sums_matches_normalized_root(rng):
    # root_of_sums(S_1..S_k) is normalized_root without the eigenvalues
    for n in (1, 2, 3):
        for k in range(1, n + 1):
            lam = sample_gamma_k(rng, n, k, 50)
            sums = elementary_symmetric_all(lam, n)[..., 1:]
            assert np.allclose(root_of_sums(sums, k, n),
                               normalized_root(lam, k), rtol=1e-14, atol=0.0)
            # outside the cone both name the flat ids of the non-members
            lam = rng.uniform(-2.0, 1.0, size=(6, 7, n))
            outside = np.flatnonzero(~in_gamma_k(lam, k).member.ravel()).tolist()
            assert outside
            with pytest.raises(AdmissibilityError) as from_lam:
                normalized_root(lam, k)
            with pytest.raises(AdmissibilityError) as from_sums:
                root_of_sums(elementary_symmetric_all(lam, n)[..., 1:], k, n)
            assert from_sums.value.nodes == from_lam.value.nodes == outside
