"""`evolve._phase_sum` against an independent oracle: the cosines and sines
of the long-double products E t, weighted and summed in long double.

The phase sum builds its phase tables as powers (cumulative products), so
its rounding grows with the grid.  It must stay within a small multiple of
the error of the direct formula sum_n w_n exp(-i E_n t) in double, whose
argument E t already carries a rounding of about eps |E t|, and within
1e-13 sum|w| on the grids of the CLI defaults.  Every case runs with
`real` both off and on.
"""

import math

import numpy as np
import pytest

from fqcsim.evolve import _phase_sum

LD = np.longdouble
pytestmark = pytest.mark.skipif(np.finfo(LD).eps >= np.finfo(float).eps,
                                reason="long double is no wider than double here")

T_F = {4001: 16.0, 8001: 24.0}  # 10 for every other size


def _oracle(values, weights, times):
    """Re and Im of sum_n weights[n, r] exp(-i values[n] t), in long double."""
    arg = np.multiply.outer(times.astype(LD), values.astype(LD))
    c, s = np.cos(arg), np.sin(arg)
    wr, wi = weights.real.astype(LD), weights.imag.astype(LD)
    return c @ wr + s @ wi, c @ wi - s @ wr


def _errors(values, weights, times):
    """The largest error of the direct formula and of `_phase_sum` with
    `real` off and on, against the oracle."""
    re, im = _oracle(values, weights, times)
    nt, r = times.size, weights.shape[1]
    direct = np.exp(-1j * (times[:, None] * values)) @ weights
    full = _phase_sum(values, weights, times)
    real = _phase_sum(values, weights, times, real=True)
    assert full.shape == real.shape == (nt, r)
    assert full.dtype == complex and real.dtype == float
    return (float(max(np.abs(direct.real - re).max(), np.abs(direct.imag - im).max())),
            float(max(np.abs(full.real - re).max(), np.abs(full.imag - im).max())),
            float(np.abs(real - re).max()))


def _case(seed, r):
    """24 energies |E| <= 100 and weights with sum|w| = 1 per column (real
    for r = 1, as in the cosine sum of a single level)."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-100.0, 100.0, 24)
    weights = rng.standard_normal((24, r))
    if r > 1:
        weights = weights + 1j * rng.standard_normal((24, r))
    return values, weights / np.abs(weights).sum(axis=0)


def _within_direct(direct, *got):
    for err in got:
        assert err <= 4.0 * direct + 1e-14, (err, direct)


@pytest.mark.parametrize("t0", [0.0, 1.7])
@pytest.mark.parametrize("r", ["1", "3", "B"])
@pytest.mark.parametrize("nt", [1, 2, 3, 1000, 2001, 4001, 8001])
def test_uniform_grids_match_the_oracle(nt, r, t0):
    # nt = 1000 has blocks of B = 32 that overrun it (32 * 32 > 1000);
    # r = B forms the phases themselves (`phases @ weights`)
    block = math.isqrt(nt - 1) + 1
    values, weights = _case(nt, block if r == "B" else int(r))
    times = np.linspace(t0, t0 + T_F.get(nt, 10.0), nt)
    _within_direct(*_errors(values, weights, times))


@pytest.mark.parametrize("r", [1, 3, 40])
@pytest.mark.parametrize("grid", ["geometric", "nudged"])
def test_non_uniform_grids_match_the_oracle(grid, r):
    # B = 1: the direct exponential at every time
    times = np.geomspace(0.01, 10.0, 500)
    if grid == "nudged":
        times = np.linspace(0.0, 10.0, 500)
        times[250] += 1e-9
    values, weights = _case(r, r)
    direct, full, real = _errors(values, weights, times)
    _within_direct(direct, full, real)
    assert full <= 2.0 * direct + 1e-15  # the same formula, up to the matmul


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("nt, t_f", [(2001, 8.0), (2001, 10.0), (2001, 16.0), (2001, 24.0),
                                     (4001, 16.0)])
def test_cli_grids_within_1e_13(nt, t_f, r):
    values, weights = _case(7 * nt + r, r)
    direct, full, real = _errors(values, weights, np.linspace(0.0, t_f, nt))
    _within_direct(direct, full, real)
    assert max(full, real) <= 1e-13
