"""Derived quantities: Zeno time, revivals, critical coupling, sidebands, fits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError
from .evolve import TimeSeries, _grid_block, _phase_tables, diagonalize, write_csv
from .hamiltonian import DriveSpec, FqcSpec, HamiltonianMatrix
from .metrics import _window
from .reference import NonHermitianSpec, _amplitudes, effective_hamiltonian

__all__ = [
    "FitReport",
    "SidebandSpectrum",
    "zeno_time",
    "revival_time",
    "revival_time_from_spectrum",
    "critical_coupling",
    "sideband_spectrum",
    "n_max",
    "fit_effective_params",
]

# A revival bump must exceed the exponential tail by this factor.
_PROMINENCE = 10.0


@dataclass
class FitReport:
    """Fitted parameters plus honesty metadata (never silently best-effort)."""

    params: dict[str, float] = field(default_factory=dict)
    residual_norm: float = 0.0
    grid_points: int = 0
    converged: bool = True
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "params": self.params,
            "residual_norm": self.residual_norm,
            "grid_points": self.grid_points,
            "converged": self.converged,
            "notes": self.notes,
        }


def zeno_time(series: TimeSeries) -> FitReport:
    """Quadratic-decay fit 1 - pi_e(t) = (t / T_Z)^2 at early times.

    The analytic Zeno time is 1/sqrt(<H^2> - <H>^2) in the initial state;
    the fit window is the first tenth of it, which keeps the quartic
    correction negligible.  The half-window refit quantifies sensitivity.
    On a single-level series from |e>, 1 - pi_e is formed from the
    spectrum without cancellation (`TimeSeries._depletion`), so rounding
    in c_e does not reach the fitted times; subtracting pi_e from 1 (within
    1e-4 of 1 in the window) let them move by up to 3e-10 relative.
    """
    if series.times[0] != 0.0 or abs(series.pi_e[0] - 1.0) > 1e-9:
        raise ConfigError("zeno_time needs a series starting at t=0 with pi_e(0)=1")
    if series.energy_variance0 <= 0:
        return FitReport(
            params={"t_zeno_analytic": math.inf},
            grid_points=0,
            converged=False,
            notes="zero energy variance: no initial decay to fit",
        )
    t_analytic = 1.0 / math.sqrt(series.energy_variance0)
    mask = series.times <= t_analytic / 10.0
    if mask.sum() < 10:
        raise ConfigError(
            f"zeno window under-resolved: {int(mask.sum())} samples below {t_analytic / 10:.3g}"
        )

    t2 = series.times[mask] ** 2
    y = series._depletion(mask)

    def fit(n):  # over the first n times of the window
        c = float(t2[:n] @ y[:n]) / float(t2[:n] @ t2[:n])
        return c, float(np.linalg.norm(y[:n] - c * t2[:n]))

    c, res = fit(t2.size)
    n_half = int(np.count_nonzero(series.times <= t_analytic / 20.0))
    c_half, _ = fit(n_half) if n_half >= 5 else (c, res)
    if c <= 0:
        return FitReport(
            params={"t_zeno_analytic": t_analytic},
            residual_norm=res,
            grid_points=int(mask.sum()),
            converged=False,
            notes="non-positive curvature: no quadratic decay",
        )
    return FitReport(
        params={
            "t_zeno": 1.0 / math.sqrt(c),
            "t_zeno_analytic": t_analytic,
            "t_zeno_half_window": 1.0 / math.sqrt(c_half) if c_half > 0 else math.nan,
        },
        residual_norm=res,
        grid_points=int(mask.sum()),
        converged=True,
        notes="least squares of 1 - pi_e against t^2, window t <= T_Z/10",
    )


def _refine_parabolic(times: np.ndarray, y: np.ndarray, i: int) -> float:
    """Vertex of the parabola through samples i-1, i, i+1 (any spacing)."""
    if i <= 0 or i >= y.size - 1:
        return float(times[i])
    h_left, h_right = times[i] - times[i - 1], times[i + 1] - times[i]
    s_left = (y[i] - y[i - 1]) / h_left
    s_right = (y[i + 1] - y[i]) / h_right
    if s_right == s_left:
        return float(times[i])
    shift = -(s_left * h_right + s_right * h_left) / (2.0 * (s_right - s_left))
    return float(times[i] + shift)


def revival_time(
    series: TimeSeries,
    search_start: float | None = None,
) -> FitReport:
    """Detect the first population revival of an initially excited state.

    A revival bump is the first local maximum of pi_e after `search_start`
    exceeding 10 times the exponential tail pi_e(0) exp(-gamma t); this
    filters residual Rabi-like ripples.  The reported t_revival is the
    onset of the bump, i.e. the sharp population minimum immediately
    preceding the peak where the growth turns abrupt (the peak itself lags
    the onset by a decay time and is reported as t_peak).  Absence of a
    revival is an explicit outcome, not a failure.
    """
    gamma = series.spec.gamma_target
    start = search_start if search_start is not None else 3.0 / gamma
    t = series.times
    pie = series.pi_e
    tail = pie[0] * np.exp(-gamma * t)

    peak_idx = None
    for i in range(1, t.size - 1):
        if t[i] < start:
            continue
        if pie[i] > pie[i - 1] and pie[i] >= pie[i + 1] and pie[i] > _PROMINENCE * tail[i]:
            peak_idx = i
            break
    if peak_idx is None:
        return FitReport(
            params={},
            grid_points=int(t.size),
            converged=True,
            notes="no revival within the series",
        )
    # walk back to the population minimum preceding the bump
    j = peak_idx
    while j > 1 and pie[j - 1] <= pie[j]:
        j -= 1
    onset = _refine_parabolic(t, pie, j)
    peak = _refine_parabolic(t, pie, peak_idx)
    return FitReport(
        params={
            "t_revival": onset,
            "t_peak": peak,
            "peak_height": float(pie[peak_idx]),
        },
        grid_points=int(t.size),
        converged=True,
        notes=f"onset of first bump above {_PROMINENCE}x exponential tail",
    )


def revival_time_from_spectrum(
    h: HamiltonianMatrix,
    band: tuple[float, float] = (0.75, 0.985),
) -> float:
    """Revival time from the exact spectrum: 2 pi / (asymptotic level spacing).

    Constructive interference requires every eigenphase E_n T to be a 2 pi
    multiple, which pins T to 2 pi over the spacing of the quasi-linear outer
    part of the spectrum.  The spacing is averaged over eigenvalue pairs whose
    midpoints fall in `band` (fractions of the spectral radius); the central
    doublet and the detached edge states are thereby excluded.
    """
    eig = diagonalize(h)
    e = eig.values
    mids = 0.5 * (e[1:] + e[:-1])
    spacings = np.diff(e)
    edge = np.abs(e).max()
    sel = (np.abs(mids) >= band[0] * edge) & (np.abs(mids) <= band[1] * edge)
    if not sel.any():
        raise ConfigError("no eigenvalue spacings inside the requested band")
    return float(2.0 * math.pi / spacings[sel].mean())


def critical_coupling(t_f: float, gamma: float = 1.0) -> dict[str, float]:
    """Largest gap and coupling with no revival inside the window [0, t_f]."""
    if t_f <= 0:
        raise ConfigError(f"t_f must be > 0, got {t_f}")
    return {
        "delta_c": 2.0 * math.pi / t_f,
        "v_c": math.sqrt(gamma / t_f),
    }


@dataclass
class SidebandSpectrum:
    """FQC level occupations under resonant driving, from a |g> start."""

    k: np.ndarray
    energies: np.ndarray
    occupations: np.ndarray
    occupations_quadrature: np.ndarray

    def to_csv(self, path, extra_header: tuple[str, ...] = ()) -> None:
        cols = {
            "k": np.asarray(self.k, dtype=int),
            "energy": self.energies,
            "occupation": self.occupations,
            "occupation_quadrature": self.occupations_quadrature,
        }
        write_csv(path, cols, extra_header)


def _occupations(spec: FqcSpec, drive: DriveSpec, ks: np.ndarray) -> np.ndarray:
    """|c_k(inf)|^2 from the resolvent of H_eff, c_k = -v [(H_eff - k delta)^-1]_eg;
    the one zero-detuning rule of the sideband functions."""
    if drive.detuning_delta != 0.0:
        raise ConfigError("sideband spectrum is defined at zero detuning")
    om0 = drive.rabi_omega0
    if om0 == 0.0:
        # vanishing numerator: nothing is emitted without a drive
        return np.zeros(ks.size)
    e = ks * spec.gap
    return (spec.coupling_v * om0) ** 2 / (
        (e**2 - om0**2) ** 2 + (0.5 * spec.gamma_target * e) ** 2
    )


def _quadrature_occupations(
    spec: FqcSpec,
    drive: DriveSpec,
    ks: np.ndarray,
    t_f: float,
) -> np.ndarray:
    omega_max = max(drive.rabi_omega0, abs(ks[-1]) * spec.gap, 1.0)
    nt = max(4001, int(40 * t_f * omega_max / (2 * math.pi)) + 1)
    t = np.linspace(0.0, t_f, nt)
    nh = NonHermitianSpec(spec.gamma_target, drive)
    psi = _amplitudes(nh, "g", t)
    phases = np.exp(1j * np.outer(ks, t) * spec.gap)
    ints = np.trapezoid(psi[:, 1] * phases, t, axis=1)
    # the trapezoid's end correction -dt^2/12 [f'] on f = c_e exp(i E t), with
    # c_e' = -i (H_eff psi)_e: fourth order in dt
    ends = psi[[0, -1]]
    df = (-1j * ends @ effective_hamiltonian(nh)[1]
          + 1j * (ks * spec.gap)[:, None] * ends[:, 1]) * phases[:, [0, -1]]
    ints -= (t[1] - t[0]) ** 2 / 12.0 * (df[:, 1] - df[:, 0])
    return np.abs(spec.coupling_v * ints) ** 2


def sideband_spectrum(
    spec: FqcSpec,
    drive: DriveSpec,
    t_f: float = 8.0,
) -> SidebandSpectrum:
    """Occupation |c_k|^2 of every FQC level after the drive has decayed.

    The atom starts in |g>.  In every regime (under-damped, critical and
    over-damped) the occupation is the resolvent of H_eff at the level energy
    E = k delta:

        |c_k(inf)|^2 = v^2 omega0^2 / ((E^2 - omega0^2)^2 + (gamma E / 2)^2),

    zero when omega0 = 0; on a strong drive two sidebands peak where
    |k| delta matches the Rabi frequency.  `occupations_quadrature`, an
    independent cross-check, is |c_k(t_f)|^2 with
    c_k(t_f) = -i v int_0^{t_f} c_e(t) exp(i k delta t) dt, c_e from the same
    |g> start; it tends to the occupation once the drive has decayed by t_f.
    Zero detuning only (ConfigError otherwise).
    """
    ks = spec.level_indices
    occ = _occupations(spec, drive, ks)
    return SidebandSpectrum(ks, ks * spec.gap, occ, _quadrature_occupations(spec, drive, ks, t_f))


def n_max(spec: FqcSpec, drive: DriveSpec) -> int:
    """Index of the most occupied level on the positive sideband branch.

    The occupations are `sideband_spectrum`'s resolvent ones, for an atom
    started in |g>, in every regime; like it, n_max needs zero detuning.  A
    ConfigError without a drive or without positive-k levels.
    """
    if drive.rabi_omega0 == 0.0:
        raise ConfigError("n_max is undefined without a drive")
    ks = spec.level_indices
    occ = _occupations(spec, drive, ks)
    pos = ks > 0
    if not pos.any():
        raise ConfigError("no positive-k levels in the spectrum")
    return int(ks[pos][np.argmax(occ[pos])])


def _damped_cos2(t: np.ndarray, omega: float, gamma: float, block: int | None = None):
    """The fit model exp(-gamma t / 2) cos^2(omega t) on t and its exact (nt, 2)
    Jacobian from z = exp(a t), a = -gamma / 2 + 2i omega: the model is
    (|z| + Re z) / 2, d/d omega = -t Im z and d/d gamma = -(t / 2) model.  z
    takes the phase tables of `_phase_sum` (block B from `_grid_block` if not
    given), not an exp, cos and sin per time: within 4e-13 (times t) of those."""
    a = np.array([complex(-0.5 * gamma, 2.0 * omega)])
    outer, inner = _phase_tables(t, a, block or _grid_block(t))
    z = (outer * inner[:, 0]).ravel()[:t.size]
    model = 0.5 * (np.abs(z) + z.real)
    jac = np.empty((t.size, 2))
    np.multiply(-t, z.imag, out=jac[:, 0])
    np.multiply(-0.5 * t, model, out=jac[:, 1])
    return model, jac


# ---------------------------------------------------------------- trust-region-reflective fit
#
# A port of scipy's bounded `trf` (scipy.optimize._lsq.trf.trf_bounds, with
# tr_solver="exact", x_scale=1 and the linear loss; Branch, Coleman & Li,
# SIAM J. Sci. Comput. 21, 1999) for two parameters bounded below by 0.  It
# takes the steps `least_squares(method="trf")` takes; only the linear
# algebra is smaller.  scipy solves each trust-region problem with the SVD of
# the augmented Jacobian [J d; diag(diag_h)^(1/2)] (m + 2 rows); its right
# singular vectors and squared singular values are the eigenpairs of the 2x2
# matrix B_h = d J^T J d + diag(diag_h), and U^T f_aug = V^T (d g) / s, so J
# enters only through g = J^T f and J^T J, formed once per accepted step.
# Every quadratic model scipy evaluates with J is a quadratic form in B_h.
# 2-vectors are pairs of floats and B_h is (B00, B01, B11).

_TOL = 1e-8  # scipy's default ftol, xtol and gtol
_EPS = math.ulp(1.0)


def _dot(u, w) -> float:
    return u[0] * w[0] + u[1] * w[1]


def _norm(u) -> float:
    return math.sqrt(_dot(u, u))


def _quad(b_h, u, w) -> float:
    """u^T B_h w."""
    return u[0] * (b_h[0] * w[0] + b_h[1] * w[1]) + u[1] * (b_h[1] * w[0] + b_h[2] * w[1])


def _to_bound(x, s) -> tuple[float, list[bool]]:
    """`step_size_to_bound` at bounds [0, inf): the step along s to the
    first bound it reaches, and which components reach it there."""
    steps = [-xi / si if si < 0 else math.inf for xi, si in zip(x, s)]
    lowest = min(steps)
    return lowest, [step == lowest and si != 0 for step, si in zip(steps, s)]


def _minimize_1d(a: float, b: float, lo: float, hi: float, c: float = 0.0):
    """`minimize_quadratic_1d`: the least of a t^2 + b t + c on [lo, hi], the
    first of lo, hi and the vertex on a tie."""
    ts = [lo, hi]
    if a != 0:
        vertex = -0.5 * b / a
        if lo < vertex < hi:
            ts.append(vertex)
    ys = [t * (a * t + b) + c for t in ts]
    best = ys.index(min(ys))
    return ts[best], ys[best]


def _solve_trust_region(lam, vecs, suf, delta: float, alpha: float, m: int):
    """`solve_lsq_trust_region` (Moré's iteration on the Levenberg-Marquardt
    parameter alpha, rtol 0.01, at most 10 steps) for m residuals, from the
    eigenpairs of B_h:
    lam = s^2 in descending order, vecs = V by rows and suf = s U^T f_aug =
    V^T g_h.  Returns the step in the scaled variables and alpha."""

    def solution(alpha):
        q = (suf[0] / (lam[0] + alpha), suf[1] / (lam[1] + alpha))
        return (-(vecs[0][0] * q[0] + vecs[0][1] * q[1]),
                -(vecs[1][0] * q[0] + vecs[1][1] * q[1]))

    def phi_and_derivative(alpha):
        q = (suf[0] / (lam[0] + alpha), suf[1] / (lam[1] + alpha))
        p_norm = _norm(q)
        slope = -(q[0] ** 2 / (lam[0] + alpha) + q[1] ** 2 / (lam[1] + alpha)) / p_norm
        return p_norm - delta, slope

    s_max, s_min = (math.sqrt(max(v, 0.0)) for v in lam)
    full_rank = s_min > _EPS * m * s_max
    if full_rank:
        p = solution(0.0)
        if _norm(p) <= delta:
            return p, 0.0
    alpha_upper = _norm(suf) / delta
    alpha_lower = 0.0
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + delta) * ratio / delta
        if abs(phi) < 0.01 * delta:
            break
    p = solution(alpha)
    scale = delta / _norm(p)
    return (p[0] * scale, p[1] * scale), alpha


def _select_step(x, d, g_h, b_h, p_h, delta: float, theta: float):
    """`select_step`: the trust-region step if it stays feasible, else the
    best of that step cut back at the bound, its reflection there and the
    cut-back gradient step.  Returns the step, its scaled form and the
    predicted reduction of the cost."""
    p = (d[0] * p_h[0], d[1] * p_h[1])
    if x[0] + p[0] >= 0 and x[1] + p[1] >= 0:
        return p, p_h, -(0.5 * _quad(b_h, p_h, p_h) + _dot(g_h, p_h))

    p_stride, hits = _to_bound(x, p)
    r_h = tuple(-ri if hit else ri for ri, hit in zip(p_h, hits))
    r = (d[0] * r_h[0], d[1] * r_h[1])
    p = (p[0] * p_stride, p[1] * p_stride)
    p_h = (p_h[0] * p_stride, p_h[1] * p_stride)
    x_on_bound = (x[0] + p[0], x[1] + p[1])

    # the positive root of |p_h + t r_h| = delta (`intersect_trust_region`)
    a, b, c = _dot(r_h, r_h), _dot(p_h, r_h), _dot(p_h, p_h) - delta**2
    q = -(b + math.copysign(math.sqrt(max(b * b - a * c, 0.0)), b))
    to_tr = max(q / a, c / q)
    to_bound, _ = _to_bound(x_on_bound, r)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l, r_stride_u = 0.0, -1.0
    r_value = math.inf
    if r_stride_l <= r_stride_u:
        a = 0.5 * _quad(b_h, r_h, r_h)
        b = _dot(g_h, r_h) + _quad(b_h, p_h, r_h)
        c = 0.5 * _quad(b_h, p_h, p_h) + _dot(g_h, p_h)
        r_stride, r_value = _minimize_1d(a, b, r_stride_l, r_stride_u, c)
        r_h = (p_h[0] + r_stride * r_h[0], p_h[1] + r_stride * r_h[1])
        r = (r_h[0] * d[0], r_h[1] * d[1])

    p = (p[0] * theta, p[1] * theta)
    p_h = (p_h[0] * theta, p_h[1] * theta)
    p_value = 0.5 * _quad(b_h, p_h, p_h) + _dot(g_h, p_h)

    ag_h = (-g_h[0], -g_h[1])
    ag = (d[0] * ag_h[0], d[1] * ag_h[1])
    to_tr = delta / _norm(ag_h)
    to_bound, _ = _to_bound(x, ag)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    ag_stride, ag_value = _minimize_1d(0.5 * _quad(b_h, ag_h, ag_h), _dot(g_h, ag_h), 0.0, ag_stride)
    ag_h = (ag_h[0] * ag_stride, ag_h[1] * ag_stride)
    ag = (ag[0] * ag_stride, ag[1] * ag_stride)

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _trf(fun, x0, max_nfev: int):
    """Minimise 0.5 |f(x)|^2 over two parameters x >= 0 as scipy's
    `least_squares(fun, x0, jac, bounds=(0, inf), method="trf",
    max_nfev=max_nfev)` does, where fun(x) returns f and its (m, 2)
    Jacobian together.

    Returns x, f(x), the status (0: max_nfev reached; 1, 2, 3, 4: gtol,
    ftol, xtol, ftol and xtol met) and the number of evaluations.  A start
    with non-finite residuals is a NumericalError; a trial point with
    non-finite residuals shrinks the trust region.
    """
    # strictly feasible start: rstep 1e-10 from the bound
    x = tuple(float(xi) if xi > 1e-10 else 1e-10 for xi in x0)
    f, jac = fun(x)
    if not np.isfinite(f).all():
        raise NumericalError("fit residuals are not finite at the start")
    nfev = 1
    cost = 0.5 * float(f @ f)
    g, gram = (jac.T @ f).tolist(), (jac.T @ jac).tolist()

    v = [xi if gi > 0 else 1.0 for xi, gi in zip(x, g)]  # Coleman-Li scaling
    delta = _norm([xi / vi**0.5 for xi, vi in zip(x, v)]) or 1.0
    alpha = 0.0
    status = None
    while True:
        v = [xi if gi > 0 else 1.0 for xi, gi in zip(x, g)]
        g_norm = max(abs(gi * vi) for gi, vi in zip(g, v))
        if g_norm < _TOL:
            status = 1
        if status is not None or nfev == max_nfev:
            break

        d = [vi**0.5 for vi in v]
        g_h = (d[0] * g[0], d[1] * g[1])
        b_h = (d[0] * d[0] * gram[0][0] + (g[0] if g[0] > 0 else 0.0),  # diag_h = g dv
               d[0] * d[1] * gram[0][1],
               d[1] * d[1] * gram[1][1] + (g[1] if g[1] > 0 else 0.0))
        lam, vecs = np.linalg.eigh(np.array([[b_h[0], b_h[1]], [b_h[1], b_h[2]]]))
        lam, vecs = lam[::-1].tolist(), vecs[:, ::-1].tolist()  # the SVD's order
        suf = (vecs[0][0] * g_h[0] + vecs[1][0] * g_h[1],
               vecs[0][1] * g_h[0] + vecs[1][1] * g_h[1])
        theta = max(0.995, 1 - g_norm)

        reduction = -1.0
        while reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_trust_region(lam, vecs, suf, delta, alpha, f.size)
            step, step_h, predicted = _select_step(x, d, g_h, b_h, p_h, delta, theta)
            # strictly feasible: a component on or past the bound moves to nextafter(0, 1)
            x_new = tuple(max(xi + si, 5e-324) for xi, si in zip(x, step))
            f_new, jac_new = fun(x_new)
            nfev += 1
            step_h_norm = _norm(step_h)
            if not np.isfinite(f_new).all():
                delta = 0.25 * step_h_norm
                continue

            cost_new = 0.5 * float(f_new @ f_new)
            reduction = cost - cost_new
            # `update_tr_radius`
            if predicted > 0:
                ratio = reduction / predicted
            else:
                ratio = 1.0 if predicted == reduction == 0 else 0.0
            delta_new = delta
            if ratio < 0.25:
                delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * delta:
                delta_new = 2.0 * delta
            # `check_termination`
            ftol_met = reduction < _TOL * cost and ratio > 0.25
            xtol_met = _norm(step) < _TOL * (_TOL + _norm(x))
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
                break
            alpha *= delta / delta_new
            delta = delta_new

        if reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            g, gram = (jac_new.T @ f).tolist(), (jac_new.T @ jac_new).tolist()
    return x, f, status or 0, nfev


def fit_effective_params(
    series: TimeSeries,
    t_f: float | None = None,
    max_nfev: int = 400,
) -> FitReport:
    """Effective Rabi frequency and damping rate of an emulated population.

    Nonlinear least squares of pi_e(t) against
    exp(-gamma_eff t / 2) cos^2(omega_eff t), seeded with the drive Rabi
    frequency and the target decay rate from the series provenance.  The
    window is t <= t_f (the whole series without t_f) under the rule of the
    metrics: t_f > 0 and a series at least t_f long.  It must hold two times
    other than 0, where the model is 1 whatever its parameters.  A window
    that breaks either rule is a ConfigError.

    The method is scipy's trust-region-reflective `trf` with bounds at 0,
    ported to two parameters (`_trf`): it takes the steps
    `least_squares(method="trf")` takes from the same start, on the exact
    Jacobian of the model from `_damped_cos2`, computed with each residual,
    and works on the 2x2 matrix J^T J instead of an SVD of the Jacobian.
    The fit stops on scipy's default tolerances (1e-8), in practice on
    `ftol` (status 2), so its parameters lie within about 1e-4 relative of
    the tight least-squares minimum, not within 1e-6: over the sizes 10..80
    of the default size scan, 1.6e-4 at worst for `gamma_eff` and 2.0e-6
    for `omega_eff` (against ftol/xtol/gtol = 1e-15, `trf` and `lm` alike).
    """
    if series.drive is None:
        raise ConfigError("fit_effective_params needs a driven series")
    n = _window(series.times, t_f) if t_f is not None else None
    t = series.times[:n]
    pie = series.pi_e[:n]
    nonzero = np.count_nonzero(t)
    if nonzero < 2:
        raise ConfigError(f"a two-parameter fit needs 2 grid times other than 0, got {nonzero}")
    block = _grid_block(t)

    def residuals(p):
        model, jac = _damped_cos2(t, *p, block)
        return model - pie, jac

    x0 = (max(series.drive.rabi_omega0, 1e-3), series.spec.gamma_target)
    x, f, status, _ = _trf(residuals, x0, max_nfev)
    return FitReport(
        params={"omega_eff": x[0], "gamma_eff": x[1]},
        residual_norm=float(np.linalg.norm(f)),
        grid_points=int(t.size),
        converged=status > 0,
        notes="damped-cosine-squared least squares",
    )
