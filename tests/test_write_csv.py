"""`write_csv` against the row writer it replaced (`oracles.write_csv_rows`),
byte for byte: random float64 bit patterns, the values where `%.16e` is
hardest to reproduce, text columns and the shapes of a table."""

import numpy as np
import pytest

from fqcsim import write_csv
from oracles import write_csv_rows


def _same_bytes(tmp_path, columns, header=()):
    write_csv(tmp_path / "new.csv", columns, header)
    write_csv_rows(tmp_path / "old.csv", columns, header)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_random_bit_patterns(tmp_path):
    # every exponent and sign, nan payloads, subnormals: 10^6 values
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, size=(250_000, 4), dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    _same_bytes(tmp_path, {f"x{j}": x[:, j] for j in range(4)})


def test_random_moderate_values(tmp_path):
    # the magnitudes the outputs hold, where nothing falls back but ties
    rng = np.random.default_rng(7)
    x = rng.standard_normal((100_000, 3)) * 10.0 ** rng.integers(-30, 30, (100_000, 3))
    _same_bytes(tmp_path, {"a": x[:, 0], "b": x[:, 1], "c": x[:, 2]})


def _edge_values() -> np.ndarray:
    rng = np.random.default_rng(3)
    fixed = [0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, 123456789012345678.0, 9.9999999999999999e22,
             1e-280, 1e280, 0.5, 1.0, 9.5, 0.1, 1.0 / 3.0]
    decades = np.array([float(f"1e{k}") for k in range(-300, 301)])
    below, above = np.nextafter(decades, 0.0), np.nextafter(decades, np.inf)
    powers = 2.0 ** np.arange(53, 64)
    integers = np.concatenate([powers, powers - 1, powers + 2**11, np.nextafter(powers, 0.0),
                               rng.integers(2**53, 2**63, 5000).astype(float)])
    # 16 digits and a quarter: exact 18-digit decimals ending in 5, ties at
    # 17 digits, half of them rounding up to an even and half down
    ties = rng.integers(2**50 + 1, 2**51 - 1, 2000) + np.array([0.25, 0.75]).repeat(1000)
    values = np.concatenate([fixed, decades, below, above, integers, ties])
    return np.concatenate([values, -values])


def test_edge_values(tmp_path):
    x = _edge_values()
    _same_bytes(tmp_path, {"x": x, "reversed": x[::-1]})
    # float32 columns are written as their float64 values
    with np.errstate(over="ignore"):
        _same_bytes(tmp_path, {"x": x.astype(np.float32)})


@pytest.mark.parametrize("rows", [0, 1, 5])
def test_text_columns_and_headers(tmp_path, rows):
    rng = np.random.default_rng(rows)
    columns = {
        "n": rng.integers(-10**12, 10**12, rows),
        "variant": np.array(["flat", "adaptive", "", "x,y", "é"] * rows)[:rows],
        "ok": rng.integers(0, 2, rows).astype(bool),
        "v": rng.standard_normal(rows),
        "small": list(range(rows)),
        "w": np.zeros(rows),
    }
    _same_bytes(tmp_path, columns, header=("fqcsim-version: 1", "", "note: a, b"))
    _same_bytes(tmp_path, {"v": columns["v"]})
    _same_bytes(tmp_path, {"n": columns["n"]}, header=("only text",))


def test_no_columns(tmp_path):
    _same_bytes(tmp_path, {}, header=("empty",))


def test_unequal_columns_rejected(tmp_path):
    # zip(*columns) used to truncate to the shortest column: one row here
    with pytest.raises(ValueError, match="a=3, b=1"):
        write_csv(tmp_path / "x.csv", {"a": [1.0, 2.0, 3.0], "b": [1.0]})


def test_nul_in_text_rejected(tmp_path):
    # NUL pads the writer's byte table, so a field cannot hold one
    with pytest.raises(ValueError, match="NUL"):
        write_csv(tmp_path / "x.csv", {"s": ["a\0b"], "v": [1.0]})
