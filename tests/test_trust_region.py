"""The 2x2 linear algebra of the trust-region fit, on numpy alone.

`analysis._trf` takes the eigenpairs of its 2x2 trust-region matrix B_h from
a closed form (`_eigh2`) and J^T f, J^T J from dot products of the
Jacobian's columns (`_normal_equations`).  `np.linalg.eigh` is the oracle
for the closed form; the fit itself must make no `np.linalg` call.
"""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqcsim import DriveSpec, NonHermitianSpec, default_grid, evolve_nonhermitian
from fqcsim.analysis import (_damped_cos2, _eigh2, _normal_equations, _solve_trust_region,
                             fit_effective_params)
from fqcsim.sweep import size_cell

EPS = math.ulp(1.0)

entry = st.builds(lambda sign, exponent: sign * 10.0**exponent, st.sampled_from([-1.0, 1.0]),
                  st.floats(-12.0, 12.0))


def _check_against_eigh(b_h, ulps=4):
    """Eigenvalues within `ulps` ulp of the norm of eigh's, descending, and
    orthonormal eigenvectors with residuals as small."""
    b00, b01, b11 = b_h
    b = np.array([[b00, b01], [b01, b11]])
    lam, vecs = _eigh2(b_h)
    want = np.linalg.eigh(b)[0][::-1]
    norm = np.abs(want).max()
    assert lam[0] >= lam[1]
    assert np.abs(np.array(lam) - want).max() <= ulps * EPS * norm
    v = np.array(vecs)
    assert np.abs(v.T @ v - np.eye(2)).max() <= ulps * EPS
    assert np.abs(b @ v - v * np.array(lam)).max() <= ulps * EPS * norm
    return lam, vecs


@settings(max_examples=400)
@given(entry, entry, entry)
def test_closed_form_matches_eigh_on_random_symmetric_matrices(b00, b01, b11):
    _check_against_eigh((b00, b01, b11))


@pytest.mark.parametrize("b00, b11", [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (1.0, 1e-30),
                                      (-1e12, 1e-12), (0.0, 0.0)])
def test_a_diagonal_matrix_keeps_its_entries_and_axes(b00, b11):
    lam, vecs = _eigh2((b00, 0.0, b11))
    assert lam == (max(b00, b11), min(b00, b11))
    assert vecs == (((1.0, 0.0), (0.0, 1.0)) if b00 >= b11 else ((0.0, 1.0), (1.0, 0.0)))
    _check_against_eigh((b00, 0.0, b11))


@pytest.mark.parametrize("u", [(1.0, 2.0), (3.0, -1e-6), (1e-6, 1e6), (1e-12, 1e12),
                               (-2.0, 2.0), (1.0, 0.0)])
def test_a_rank_deficient_matrix_has_an_eigenvalue_near_0(u):
    # u u^T has the eigenvalues |u|^2 and 0
    b_h = (u[0] * u[0], u[0] * u[1], u[1] * u[1])
    lam, vecs = _check_against_eigh(b_h)
    assert abs(lam[1]) <= 4 * EPS * lam[0]
    assert lam[0] == pytest.approx(u[0] ** 2 + u[1] ** 2, rel=4 * EPS)
    top = np.array([vecs[0][0], vecs[1][0]])
    assert abs(top @ np.array(u)) == pytest.approx(math.hypot(*u), rel=4 * EPS)


@pytest.mark.parametrize("b_h", [(1.0, 1e-20, 1e-30), (1e6, 1e-3, 1e-9), (-1.0, 1e-20, -1e-30),
                                 (1e-30, 1e-20, 1.0)])
def test_a_small_eigenvalue_keeps_its_relative_accuracy(b_h):
    # B_h of a parameter near its bound: a tiny diagonal entry, weakly
    # coupled.  The half sum - r loses the small eigenvalue to cancellation
    # (0, or 5% off at 1e6, 1e-3, 1e-9); det over the large one keeps it.
    # The oracle is the same formula in 80-digit decimals.
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        a, b, c = (decimal.Decimal(x) for x in b_h)
        r = ((a - c) ** 2 / 4 + b * b).sqrt()
        want = [float((a + c) / 2 + r), float((a + c) / 2 - r)]
    assert list(_eigh2(b_h)[0]) == pytest.approx(want, rel=4 * EPS, abs=0)


def test_nearly_collinear_jacobian_columns():
    # J^T J of two columns a hair apart: the eigenvalues of the Gram matrix
    # that dot products form, as close to eigh's as eigh's own rounding
    t = default_grid(16.0, 4001)
    for tilt in (1e-3, 1e-6, 1e-9):
        jac = np.stack([np.sin(t), np.sin(t) + tilt * np.cos(t)]).T
        _, gram = _normal_equations(jac, np.ones(t.size))
        _check_against_eigh(gram)


def test_normal_equations_are_the_matrix_products():
    t = default_grid(16.0, 4001)
    model, jac = _damped_cos2(t, 10.0, 0.5)
    assert jac.shape == (t.size, 2) and jac.T.flags.c_contiguous
    f = model - np.exp(-0.4 * t) * np.cos(10.1 * t) ** 2
    g, gram = _normal_equations(jac, f)
    np.testing.assert_allclose(g, jac.T @ f, rtol=1e-13)
    full = jac.T @ jac
    np.testing.assert_allclose(gram, [full[0, 0], full[0, 1], full[1, 1]], rtol=1e-13)


@pytest.mark.parametrize("b_h, g_h", [
    ((4.0, 1.0, 3.0), (0.5, -2.0)),
    ((1e6, 3e2, 1.0), (1e3, 1.0)),
    ((1.0, 2.0, 4.0), (1.0, 1.0)),      # rank deficient
    ((2.0, 0.0, 2.0), (-1.0, 0.5)),     # b = 0 and a = c
])
@pytest.mark.parametrize("delta", [1e-3, 0.3, 1e3])
def test_the_trust_region_step_does_not_depend_on_eigenvector_signs(b_h, g_h, delta):
    lam, vecs = _eigh2(b_h)

    def step(signs):
        v = tuple(tuple(row[k] * signs[k] for k in range(2)) for row in vecs)
        suf = tuple(v[0][k] * g_h[0] + v[1][k] * g_h[1] for k in range(2))
        return _solve_trust_region(lam, v, suf, delta, 0.0, 4001)

    want = step((1.0, 1.0))
    for signs in ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
        assert step(signs) == want


def test_a_scan_fit_makes_no_linalg_call(monkeypatch):
    times = default_grid(16.0, 4001)
    drive = DriveSpec(10.0, 0.0)
    ref = evolve_nonhermitian(NonHermitianSpec(1.0, drive), "e", times)
    series, report = size_cell(11, drive, 0.3, 1.0, None, times, ref, 16.0)[1:3]

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called during a fit")

    for name in ("eigh", "eig", "eigvalsh", "svd", "norm", "solve", "lstsq", "qr", "inv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    again = fit_effective_params(series, 16.0)
    assert (again.params, again.residual_norm, again.converged) == (
        report.params, report.residual_norm, report.converged)
