import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fqcsim import (
    ConfigError,
    DriveSpec,
    FqcSpec,
    HoleSpec,
    adaptive_spec_for_size,
    build_adaptive,
    build_single_level,
    build_two_level,
)

specs = st.builds(
    FqcSpec,
    n_half=st.integers(0, 25),
    coupling_v=st.floats(0.05, 1.0),
    gamma_target=st.floats(0.2, 4.0),
)


def test_single_level_n0_is_two_by_two():
    h = build_single_level(FqcSpec(0, 0.3))
    assert h.dim == 2
    np.testing.assert_allclose(h.entries, [[0.0, 0.3], [0.3, 0.0]])
    assert h.basis_labels == ("e", "f0")


def test_gap_follows_golden_rule():
    spec = FqcSpec(15, 0.3, 1.0)
    assert spec.gap == pytest.approx(2 * math.pi * 0.09, rel=1e-12)
    assert spec.gap == pytest.approx(0.5655, abs=5e-5)
    assert build_single_level(spec).dim == 32


def test_single_level_structure():
    spec = FqcSpec(3, 0.25)
    h = build_single_level(spec).entries
    assert h[0, 0] == 0.0
    np.testing.assert_allclose(h[0, 1:], 0.25)
    np.testing.assert_allclose(np.diag(h)[1:], np.arange(-3, 4) * spec.gap)


def test_spectrum_symmetric_under_negation():
    h = build_single_level(FqcSpec(2, 0.1))
    e = np.linalg.eigvalsh(h.entries)
    np.testing.assert_allclose(np.sort(e), np.sort(-e), atol=1e-12)


def test_two_level_undriven_n0():
    h = build_two_level(FqcSpec(0, 0.3), DriveSpec(0.0, 0.0))
    np.testing.assert_allclose(h.entries, [[0, 0, 0], [0, 0, 0.3], [0, 0.3, 0]])
    assert h.basis_labels == ("g", "e", "f0")


def test_two_level_dim_61_levels():
    h = build_two_level(FqcSpec(30, 0.3), DriveSpec(1.0, 0.0))
    assert h.dim == 63


def test_two_level_entries_elementwise():
    spec = FqcSpec(1, 0.1)
    h = build_two_level(spec, DriveSpec(0.5, 0.2)).entries
    d = spec.gap
    expected = np.array(
        [
            [0.0, 0.5, 0.0, 0.0, 0.0],
            [0.5, 0.2, 0.1, 0.1, 0.1],
            [0.0, 0.1, -d, 0.0, 0.0],
            [0.0, 0.1, 0.0, 0.0, 0.0],
            [0.0, 0.1, 0.0, 0.0, d],
        ]
    )
    np.testing.assert_allclose(h, expected)


def test_adaptive_34_levels_from_17_grid():
    # removing only the central level of a 2*17+1 grid leaves 34
    spec = FqcSpec(17, 0.3, hole=HoleSpec(0.5 * FqcSpec(17, 0.3).gap))
    h = build_adaptive(spec, DriveSpec(10.0, 0.0))
    assert spec.n_levels == 34
    assert h.dim == 36
    assert "f0" not in h.basis_labels


def test_adaptive_zero_hole_equals_flat():
    drive = DriveSpec(1.0, 0.0)
    flat = build_two_level(FqcSpec(5, 0.3), drive)
    holed = build_adaptive(FqcSpec(5, 0.3, hole=HoleSpec(0.0)), drive)
    np.testing.assert_array_equal(flat.entries, holed.entries)
    assert flat.basis_labels == holed.basis_labels


def test_adaptive_survivors_match_enumeration_oracle():
    spec = FqcSpec(20, 0.3, hole=HoleSpec(3.0))
    d = spec.gap
    oracle = [k * d for k in range(-20, 21) if abs(k * d) >= 3.0]
    energies = spec.level_indices * d
    np.testing.assert_allclose(energies, oracle)
    assert len(oracle) == 30
    assert all(abs(e) >= 3.0 for e in oracle)
    # symmetric survivor set
    np.testing.assert_allclose(energies, -energies[::-1])


def test_level_energies_trivial_grid():
    v = math.sqrt(0.5 / (2 * math.pi))  # makes the gap exactly 0.5
    spec = FqcSpec(1, v)
    np.testing.assert_allclose(spec.level_indices * spec.gap, [-0.5, 0.0, 0.5])


def test_level_energies_n15_extent():
    spec = FqcSpec(15, 0.3)
    e = spec.level_indices * spec.gap
    assert e.size == 31
    assert e.max() == pytest.approx(15 * 2 * math.pi * 0.09, rel=1e-12)
    assert e.max() == pytest.approx(8.482, abs=2e-3)


def test_level_energies_hole_removes_center():
    spec = FqcSpec(3, 0.3)
    holed = FqcSpec(3, 0.3, hole=HoleSpec(spec.gap / 2))
    assert 0.0 not in holed.level_indices * holed.gap
    assert holed.n_levels == 6


@given(specs)
def test_symmetry_exact(spec):
    h = build_single_level(spec).entries
    assert np.array_equal(h, h.T)


@given(specs, st.floats(0.0, 5.0), st.floats(-2.0, 2.0))
def test_two_level_symmetry_exact(spec, om0, det):
    h = build_two_level(spec, DriveSpec(om0, det)).entries
    assert np.array_equal(h, h.T)


@given(st.floats(0.05, 1.0), st.floats(0.2, 4.0))
def test_gamma_preserved_by_construction(v, gamma):
    # equal v^2/gap always maps back to the same decay rate
    spec = FqcSpec(5, v, gamma)
    assert 2 * math.pi * v**2 / spec.gap == pytest.approx(gamma, rel=1e-12)


@given(specs)
def test_spectrum_negation_invariance(spec):
    e = np.linalg.eigvalsh(build_single_level(spec).entries)
    scale = max(1.0, np.abs(e).max())
    np.testing.assert_allclose(np.sort(e), np.sort(-e), atol=1e-9 * scale)


@pytest.mark.parametrize("gap", [0.5, 1.0, 5.0])
def test_near_linear_spectrum(gap):
    v = math.sqrt(gap / (2 * math.pi))
    h = build_single_level(FqcSpec(15, v))
    e = np.sort(np.linalg.eigvalsh(h.entries))
    n = np.arange(e.size) - (e.size - 1) / 2.0
    assert np.max(np.abs(e - n * gap)) / gap < 1.0


def test_rejects_negative_coupling():
    with pytest.raises(ConfigError):
        FqcSpec(5, -0.1)


def test_rejects_hole_wider_than_band():
    spec = FqcSpec(3, 0.3, hole=HoleSpec(100.0))
    with pytest.raises(ConfigError):
        build_single_level(spec)


def test_rejects_empty_survivor_set():
    spec = FqcSpec(3, 0.3)
    wide = FqcSpec(3, 0.3, hole=HoleSpec(3 * spec.gap + 1e-9))
    with pytest.raises(ConfigError):
        build_adaptive(wide, DriveSpec(1.0, 0.0))


def test_adaptive_requires_hole():
    with pytest.raises(ConfigError):
        build_adaptive(FqcSpec(3, 0.3), DriveSpec(1.0, 0.0))


def test_adaptive_spec_for_size():
    spec = adaptive_spec_for_size(34, 0.3, 5.0)
    assert spec.n_levels == 34
    assert all(abs(e) >= 5.0 for e in spec.level_indices * spec.gap)
    with pytest.raises(ConfigError):
        adaptive_spec_for_size(35, 0.3, 5.0)


@pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
def test_adaptive_spec_for_size_rejects_a_zero_hole(width):
    # a zero-width hole removes no level, so no even count could survive
    with pytest.raises(ConfigError):
        adaptive_spec_for_size(10, 0.3, width)


@pytest.mark.parametrize("v, gamma", [(0.05, 1.0), (0.3, 1.0), (0.41, 0.7), (1.0, 3.0)])
@pytest.mark.parametrize("n_fqc", [2, 10, 34])
def test_adaptive_spec_for_size_counts_exactly(v, gamma, n_fqc):
    # widths on and next to a multiple of the gap, where the ceil of the
    # rounded quotient width / gap misses the first surviving level by one
    gap = FqcSpec(0, v, gamma).gap
    widths = [1e-9, 1.0, 0.5 * gap]
    for m in range(1, 40):
        w = m * gap
        widths += [w, np.nextafter(w, 0.0), np.nextafter(w, np.inf)]
    for width in widths:
        spec = adaptive_spec_for_size(n_fqc, v, float(width), gamma)
        assert spec.n_levels == n_fqc, width


def test_equal_ladders_share_one_label_tuple():
    # the labels are cached per ladder, so a map row formats them once
    one, other = build_single_level(FqcSpec(7, 0.2)), build_single_level(FqcSpec(7, 0.45))
    assert one.basis_labels is other.basis_labels
    assert one.basis_labels == ("e",) + tuple(f"f{k}" for k in range(-7, 8))
    drive = DriveSpec(1.0, 0.0)
    driven = build_two_level(FqcSpec(7, 0.2), drive)
    assert driven.basis_labels == ("g",) + one.basis_labels
    holed = build_adaptive(FqcSpec(7, 0.3, hole=HoleSpec(0.5)), drive)
    assert holed.basis_labels == ("g", "e") + tuple(
        f"f{k}" for k in holed.level_indices.tolist())
    assert "f0" not in holed.basis_labels and holed.dim == len(holed.basis_labels)
