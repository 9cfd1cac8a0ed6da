"""The byte formats of every output file: CSV (`write_csv`), JSON
(`write_json`) and the run configuration each file embeds (`config_header`,
`embedded_config`).

`write_csv` writes a float exactly as `'%.16e' % x` would without
formatting it in Python: the 17 digits come from a double-double product
with a power of ten and integer lookup tables, one numpy pass per block of
values, and only values it cannot round with certainty (non-finite,
subnormal or beyond 10^+-280, a possible tie) are formatted one at a time.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError

__all__ = ["write_csv", "write_json", "config_header", "embedded_config"]


def write_csv(path, columns: dict, header: tuple[str, ...] = ()) -> None:
    """Write equal-length columns as CSV, the one writer of every CSV output.

    Float columns are written as `'%.16e' % x` would write them, byte for
    byte (17 significant digits, correctly rounded); integer, bool and
    string columns are written with `str`.  Each header line becomes a
    leading `# ` comment.  Text is UTF-8.  Columns of different lengths, or
    a text field holding a NUL byte, raise `ValueError`.

    Each column becomes a fixed-width, NUL-padded byte slot per row that
    ends in its separator; the float slots of all float columns come from
    one vectorised pass (`_e16_slots`), and the NULs are dropped from the
    whole table at once.
    """
    arrays = [np.asarray(values) for values in columns.values()]
    lengths = [len(arr) for arr in arrays]
    if len(set(lengths)) > 1:
        raise ValueError("write_csv: columns differ in length: "
                         + ", ".join(f"{name}={n}" for name, n in zip(columns, lengths)))
    rows = lengths[0] if lengths else 0
    floats = [arr for arr in arrays if arr.dtype.kind == "f"]
    table = _e16_slots(np.stack(floats, axis=1)) if floats else np.zeros((rows, 0), np.uint8)
    if len(floats) < len(arrays):
        float_slots = (table[:, i:i + 25] for i in range(0, table.shape[1], 25))
        table = np.concatenate([next(float_slots) if arr.dtype.kind == "f" else _text_slots(arr)
                                for arr in arrays], axis=1)
    table[:, -1:] = ord("\n")
    head = "".join(f"# {line}\n" for line in header) + ",".join(columns) + "\n"
    with open(path, "wb") as fh:
        fh.write(head.encode())
        fh.write(table.tobytes().translate(None, b"\0"))


def _text_slots(arr: np.ndarray) -> np.ndarray:
    """`str` of every value as a (rows, width + 1) NUL-padded byte table
    whose last byte is a comma."""
    text = [str(v).encode() for v in arr.tolist()]
    if b"\0" in b"".join(text):
        raise ValueError("write_csv: a text field holds a NUL byte")
    width = max([1, *map(len, text)])
    slots = np.zeros((len(text), width + 1), np.uint8)
    slots[:, :width] = np.array(text, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    slots[:, width] = ord(",")
    return slots


# `%.16e` of x != 0 is D = round(|x| 10^(16-E)) written as d.dddddddddddddddd
# with exponent E, D in [1e16, 1e17).  |x| 10^(16-E) is formed as a
# double-double: 10^(16-E) = hi + lo to about 2^-106, and |x| hi split
# exactly into p + err (Dekker), so p is an integer and err + |x| lo the
# rest, accurate to about 2^-43, far inside the 2^-30 kept around a half.
# E comes from log10, so it may be one off next to a power of ten.  Values
# outside 10^+-280, a fraction within 2^-30 of one half (a possible tie)
# and a floor outside [1e16, 1e17 - 1) (E one off, or D rounding up to
# 1e17) go through `'%.16e' % v` one at a time.
_E16_RANGE = 1e-280, 1e280
_E16_E_MIN, _E16_E_MAX = -281, 280
_E16_TIE = 2.0 ** -30
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
# values per pass: a float temporary of a block is 64 KiB, under malloc's
# mmap threshold, so blocks reuse warm memory instead of faulting in pages
# (twice as fast as one pass over the 116k floats of the cli commands)
_E16_BLOCK = 8192


@functools.lru_cache(maxsize=None)
def _e16_tables():
    """Built once on first use: 10^(16-E) for E in [-281, 280] as the
    double-double hi + lo (exact integer arithmetic, then correctly rounded
    int division), with hi split into 26-bit halves; "0000".."9999" as
    uint32 words; and the exponent "+05\\0", "-300" of every E as a word."""
    his, los = [], []
    for e10 in range(_E16_E_MIN, _E16_E_MAX + 1):
        k = 16 - e10
        if k >= 0:
            hi = float(10**k)
            lo = float(10**k - int(hi))
        else:
            hi = 1 / 10**-k
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10**-k) / (den * 10**-k)
        his.append(hi)
        los.append(lo)
    hi, lo = np.array(his), np.array(los)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    quads = np.empty((10000, 4), np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        quads[:, j] = np.arange(10000, dtype=np.uint16) // place % 10 + ord("0")
    exps = np.array([b"%+03d" % e10 for e10 in range(_E16_E_MIN, _E16_E_MAX + 1)], dtype="S4")
    return hi, hi_hi, hi - hi_hi, lo, quads.view(np.uint32).ravel(), exps.view(np.uint32)


def _e16_slots(values: np.ndarray) -> np.ndarray:
    """`'%.16e' % v` of every v of a (rows, m) float array as a (rows, 25 m)
    NUL-padded byte table: per value a 25-byte slot of sign, digit, point,
    16 digits, e, exponent sign, two or three exponent digits and a comma."""
    x = np.ravel(values).astype(np.float64, copy=False)
    out = np.empty((x.size, 25), np.uint8)
    for start in range(0, x.size, _E16_BLOCK):
        _e16_fill(x[start:start + _E16_BLOCK], out[start:start + _E16_BLOCK])
    return out.reshape(values.shape[0], 25 * values.shape[1])


def _e16_fill(x: np.ndarray, out: np.ndarray) -> None:
    """Fill the (n, 25) slots of the n values x (one block)."""
    hi, hi_hi, hi_lo, lo, quads, exps = _e16_tables()
    n = x.size
    ax = np.abs(x)
    vector = (ax >= _E16_RANGE[0]) & (ax < _E16_RANGE[1])
    ax[~vector] = 1.0
    row = np.floor(np.log10(ax)).astype(np.intp)
    row -= _E16_E_MIN
    # in place where it can be, to keep few block temporaries alive; the
    # sum runs in the order of ((a_hi h_hi - p) + a_hi h_lo + a_lo h_hi) +
    # a_lo h_lo + |x| lo
    p = ax * np.take(hi, row)
    a_hi = _SPLIT * ax
    a_hi -= a_hi - ax
    a_lo = ax - a_hi
    h_hi, h_lo = np.take(hi_hi, row), np.take(hi_lo, row)
    rest = a_hi * h_hi - p
    rest += a_hi * h_lo
    rest += a_lo * h_hi
    rest += a_lo * h_lo
    rest += ax * np.take(lo, row)
    whole = np.floor(rest)
    frac = rest - whole
    # the floor, not the rounded D, decides the decade: 9.99...96e-281 read
    # with E = -280 rounds up to exactly 1e16
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    ok = vector & (np.abs(frac - 0.5) > _E16_TIE) & (d >= 10**16) & (d < 10**17 - 1)
    d += frac > 0.5
    d[~ok] = 0
    row[~ok] = -_E16_E_MIN
    top = (d // 10**8).astype(np.int32)
    lead = top // 10**8
    pair = np.empty((n, 2), np.int32)
    pair[:, 0] = top - lead * 10**8
    pair[:, 1] = d - top * np.int64(10**8)
    upper = pair // 10**4
    groups = np.empty((n, 4), np.int32)
    groups[:, 0::2] = upper
    groups[:, 1::2] = pair - upper * 10**4

    out[:, 0] = np.signbit(x) * ord("-")
    out[:, 1] = lead + ord("0")
    out[:, 2] = ord(".")
    out[:, 3:19] = np.take(quads, groups).view(np.uint8)
    out[:, 19] = ord("e")
    out[:, 20:24] = np.take(exps, row).view(np.uint8).reshape(n, 4)
    out[:, 24] = ord(",")
    slow = ~ok & (x != 0)
    if slow.any():
        text = [b"%.16e" % v for v in x[slow].tolist()]
        out[slow, :24] = np.array(text, dtype="S24").view(np.uint8).reshape(-1, 24)


def _rho_columns(rho: np.ndarray, labels) -> dict:
    """Real and imaginary part of every entry of a (nt, d, d) density series."""
    cols = {}
    for a, la in enumerate(labels):
        for b, lb in enumerate(labels):
            cols[f"rho_{la}{lb}_re"] = rho[:, a, b].real
            cols[f"rho_{la}{lb}_im"] = rho[:, a, b].imag
    return cols


def config_header(config) -> tuple[str, ...]:
    """The CSV header lines of a run: the package version and the resolved
    configuration (a dataclass) as canonical JSON."""
    blob = json.dumps(dataclasses.asdict(config), sort_keys=True, separators=(",", ":"))
    return f"fqcsim-version: {__version__}", f"fqcsim-config: {blob}"


def write_json(path, payload: dict, config=None) -> None:
    """Write a JSON object with sorted keys, an indent of 1 and a final newline;
    a run's resolved configuration (a dataclass) adds "config" and "version".
    The file is strict JSON: every non-finite float (NaN, an infinity) is
    written as null."""
    if config is not None:
        payload = {**payload, "config": dataclasses.asdict(config), "version": __version__}
    with open(path, "w") as fh:
        json.dump(_finite(payload), fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def _finite(value):
    """value with every non-finite float inside its dicts, lists and tuples
    replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def embedded_config(path) -> dict:
    """Recover the resolved config embedded in an output file."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return json.loads(text)["config"]
    for line in text.splitlines():
        if line.startswith("# fqcsim-config: "):
            return json.loads(line[len("# fqcsim-config: "):])
    raise ConfigError(f"no embedded config found in {path}")
