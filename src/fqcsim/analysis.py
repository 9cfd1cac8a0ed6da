"""Derived quantities: Zeno time, revivals, critical coupling, sidebands, fits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .evolve import TimeSeries, diagonalize, write_csv
from .hamiltonian import DriveSpec, FqcSpec, HamiltonianMatrix
from .reference import underdamped_discriminant

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

    def fit(m):
        t2 = series.times[m] ** 2
        y = 1.0 - series.pi_e[m]
        c = float(t2 @ y) / float(t2 @ t2)
        res = float(np.linalg.norm(y - c * t2))
        return c, res

    c, res = fit(mask)
    half = series.times <= t_analytic / 20.0
    c_half, _ = fit(half) if half.sum() >= 5 else (c, res)
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
    gamma = series.spec.gamma_target if series.spec is not None else 1.0
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
    """Asymptotic FQC level occupations under resonant driving."""

    k: np.ndarray
    energies: np.ndarray
    occupations: np.ndarray
    occupations_quadrature: np.ndarray | None = None
    t_f_quadrature: float | None = None

    def to_csv(self, path, extra_header: tuple[str, ...] = ()) -> None:
        cols = {
            "k": np.asarray(self.k, dtype=int),
            "energy": self.energies,
            "occupation": self.occupations,
        }
        if self.occupations_quadrature is not None:
            cols["occupation_quadrature"] = self.occupations_quadrature
        write_csv(path, cols, extra_header)


def _closed_form_ck(spec: FqcSpec, drive: DriveSpec, ks: np.ndarray) -> np.ndarray:
    gamma, om0 = spec.gamma_target, drive.rabi_omega0
    if om0 == 0.0:
        # vanishing numerator: nothing is emitted without a drive
        return np.zeros(ks.size, dtype=complex)
    disc = underdamped_discriminant(gamma, om0)
    if disc <= 0:
        raise ConfigError("closed-form sidebands need the under-damped regime")
    sq = math.sqrt(disc)
    kd = 1j * ks * spec.gap
    return (spec.coupling_v * om0 / sq) * (
        -1.0 / (-gamma / 4.0 + 0.5j * sq + kd)
        + 1.0 / (-gamma / 4.0 - 0.5j * sq + kd)
    )


def _quadrature_occupations(
    spec: FqcSpec,
    drive: DriveSpec,
    ks: np.ndarray,
    t_f: float,
) -> np.ndarray:
    from .reference import NonHermitianSpec, damped_oscillator_ce

    omega_max = max(drive.rabi_omega0, abs(ks[-1]) * spec.gap, 1.0)
    nt = max(4001, int(40 * t_f * omega_max / (2 * math.pi)) + 1)
    t = np.linspace(0.0, t_f, nt)
    ce = damped_oscillator_ce(
        NonHermitianSpec(spec.gamma_target, drive), t, psi0=(0.0, 1.0)
    ).c_e
    phases = np.exp(1j * np.outer(ks, t) * spec.gap)
    ints = np.trapezoid(ce[None, :] * phases, t, axis=1)
    return np.abs(-1j * spec.coupling_v * ints) ** 2


def sideband_spectrum(
    spec: FqcSpec,
    drive: DriveSpec,
    include_quadrature: bool = False,
    t_f: float = 8.0,
) -> SidebandSpectrum:
    """Occupation |c_k|^2 of every FQC level after the drive has decayed.

    The closed form is the resonance response of the damped amplitude at each
    level energy; two sidebands peak where |k| delta matches the effective
    Rabi frequency.  The quadrature variant integrates
    c_k(t_f) = -i v int_0^{t_f} c_e(t) exp(i k delta t) dt with the
    closed-form damped amplitude and serves as an independent cross-check.
    """
    if drive.detuning_delta != 0.0:
        raise ConfigError("sideband spectrum is defined at zero detuning")
    ks = spec.level_indices
    ck = _closed_form_ck(spec, drive, ks)
    occ = np.abs(ck) ** 2
    occ_q = None
    if include_quadrature:
        occ_q = _quadrature_occupations(spec, drive, ks, t_f)
    return SidebandSpectrum(ks, ks * spec.gap, occ, occ_q, t_f if include_quadrature else None)


def n_max(spec: FqcSpec, drive: DriveSpec) -> int:
    """Index of the most occupied level on the positive sideband branch.

    Uses the closed form when under-damped; for weak drives below the
    critical damping point the occupations come from the quadrature with the
    over-damped amplitude, where the peak width is set by the decay rate.
    """
    if drive.rabi_omega0 == 0.0:
        raise ConfigError("n_max is undefined without a drive")
    ks = spec.level_indices
    if underdamped_discriminant(spec.gamma_target, drive.rabi_omega0) > 0:
        occ = np.abs(_closed_form_ck(spec, drive, ks)) ** 2
    else:
        occ = _quadrature_occupations(spec, drive, ks, t_f=8.0)
    pos = ks > 0
    if not pos.any():
        raise ConfigError("no positive-k levels in the spectrum")
    return int(ks[pos][np.argmax(occ[pos])])


def _damped_cos2(t: np.ndarray, omega: float, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The fit model exp(-gamma t / 2) cos^2(omega t) on t, and its exact
    (nt, 2) Jacobian: d/d omega = -t exp(-gamma t / 2) sin(2 omega t) and
    d/d gamma = -(t / 2) exp(-gamma t / 2) cos^2(omega t)."""
    decay = np.exp(-0.5 * gamma * t)
    model = decay * np.cos(omega * t) ** 2
    jac = np.empty((t.size, 2))
    np.multiply(-t * decay, np.sin(2.0 * omega * t), out=jac[:, 0])
    np.multiply(-0.5 * t, model, out=jac[:, 1])
    return model, jac


def fit_effective_params(
    series: TimeSeries,
    t_f: float | None = None,
    max_nfev: int = 400,
) -> FitReport:
    """Effective Rabi frequency and damping rate of an emulated population.

    Nonlinear least squares of pi_e(t) against
    exp(-gamma_eff t / 2) cos^2(omega_eff t), seeded with the drive Rabi
    frequency and the target decay rate from the series provenance.

    `least_squares` (`trf`, bounds at 0) gets the exact Jacobian of the
    model from `_damped_cos2`, computed with each residual and handed back
    when `trf` asks for it at the same point, instead of finite differences.
    The fit stops on the default tolerances, in practice on `ftol` (status
    2), so its parameters lie within about 1e-4 relative of the tight
    least-squares minimum, not within 1e-6: over the sizes 10..80 of the
    default size scan, 1.6e-4 at worst for `gamma_eff` and 2.0e-6 for
    `omega_eff` (against ftol/xtol/gtol = 1e-15, `trf` and `lm` alike).
    scipy is imported on the first call; this is the only function of the
    package that needs it.
    """
    from scipy.optimize import least_squares

    if series.drive is None or series.spec is None:
        raise ConfigError("fit_effective_params needs series with spec and drive")
    mask = (
        series.times <= t_f + 1e-9 if t_f is not None
        else np.ones(series.times.size, dtype=bool)
    )
    t = series.times[mask]
    pie = series.pi_e[mask]

    latest = [None, None]  # (p, Jacobian) of the last residual: `trf` asks for it next

    def resid(p):
        model, jac = _damped_cos2(t, *p)
        latest[:] = p.copy(), jac
        return model - pie

    def jac(p):
        return latest[1] if np.array_equal(p, latest[0]) else _damped_cos2(t, *p)[1]

    x0 = np.array([max(series.drive.rabi_omega0, 1e-3), series.spec.gamma_target])
    sol = least_squares(
        resid, x0, jac=jac, bounds=([0.0, 0.0], [np.inf, np.inf]), max_nfev=max_nfev
    )
    return FitReport(
        params={"omega_eff": float(sol.x[0]), "gamma_eff": float(sol.x[1])},
        residual_norm=float(np.linalg.norm(sol.fun)),
        grid_points=int(t.size),
        converged=bool(sol.success and sol.status > 0),
        notes="damped-cosine-squared least squares",
    )
