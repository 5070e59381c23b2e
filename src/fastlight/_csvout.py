"""The number format of every CSV file the package writes: each number as
``NUMBER_FORMAT % x`` prints it, byte for byte, and every line ended by
"\n" on every platform, so reruns are byte-identical.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

NUMBER_FORMAT = "%.12e"  # every number in every CSV file the package writes

# Numeric CSV cells are formatted a block of rows at a time (see _format_rows).
_BLOCK_ROWS = 4096  # bounds the working arrays, so peak memory does not grow with the table
_REGULAR = (1e-290, 1e290)  # |x| strictly inside scales to 13 digits without over- or underflow
_POWERS_FROM = -280  # the powers-of-ten table runs from 10^-280 to 10^305
_DOUBT = 2.3e-16  # bounds the relative error of a scaled cell (see _format_rows)
_EXPONENTS_FROM = -324  # the exponent table runs from e-324 to e+308
# One cell: byte 0 the separator ("\n" before a row's first cell, "," before
# the others), then the number's text from byte 1: the sign, the leading digit,
# ".", twelve digits and from byte 16 "e" and the exponent, or at most 20 bytes
# of `%` text.  The cells of a block share one bytearray, laid once per file;
# unused bytes are NUL, and one bytearray.translate deletes them from it.
_CELL = np.frombuffer(b",\x000.000000000000".ljust(24, b"\x00"), dtype=np.uint8)


@functools.cache
def _tables() -> tuple:
    """The powers of ten 10^k from k = _POWERS_FROM, each the double nearest
    10^k (Python parses "1e{k}" correctly rounded); the ASCII digits of 0000
    to 9999 as one uint32 word each; and the exponent fields "e-324" to
    "e+308" as one NUL-padded 8-byte word each.
    """
    powers = np.array([float(f"1e{k}") for k in range(_POWERS_FROM, 306)])
    d = np.arange(10, dtype=np.uint8) + ord("0")
    places = np.broadcast_arrays(d[:, None, None, None], d[:, None, None], d[:, None], d)
    words = np.stack(places, axis=-1).reshape(10000, 4).view(np.uint32).ravel()
    exponents = [f"e{k:+03d}".encode().ljust(8, b"\x00") for k in range(_EXPONENTS_FROM, 309)]
    return powers, words, np.array(exponents).view(np.uint64)


def _split(m: np.ndarray, unit: float) -> tuple:
    """floor(m / unit) and m - floor(m / unit) * unit, each exact for the
    integer-valued m below 1e13 and the units of _format_rows (see there)."""
    q = m / unit
    np.floor(q, out=q)
    rest = q * unit
    return q, np.subtract(m, rest, out=rest)


def _layout(rows: int, columns: int) -> tuple:
    """A bytearray of rows x columns cells, each laid from _CELL with its
    separator, and the (cells, 24) uint8 view of it that _format_rows fills."""
    buffer = bytearray(rows * columns * _CELL.size)
    cells = np.frombuffer(buffer, dtype=np.uint8).reshape(rows * columns, _CELL.size)
    cells[:] = _CELL
    cells[::columns, 0] = ord("\n")
    return buffer, cells


def _format_rows(table: np.ndarray, laid: tuple) -> bytearray:
    """Each row of a 2-d float64 array as one "\n"-led line of comma-separated
    cells, every cell the bytes that ``NUMBER_FORMAT % x`` prints.  ``laid``
    is a _layout of as many columns and at least as many rows; every byte
    after a cell's separator is rewritten.

    Each cell takes one of two routes.  (1) The table route: a zero prints
    with M = 0, E = 0; a finite nonzero x with a = |x| inside _REGULAR prints
    as M * 10^(E-12), with M the 13-digit integer nearest v = a * 10^(12-E),
    ties to even.  E starts as floor(log10 a) and is corrected once, so that
    p = RN(a * hi) lies in [1e12, 1e13], with hi = RN(10^(12-E)) from the
    table.  hi and p are each rounded once, so with u = 2^-53, |p - v| <=
    (2u + u^2)/(1 - u)^2 p < 2.3e-16 p = _DOUBT p.  Where |p - rint(p)| <=
    1/2 - _DOUBT p, v lies less than 1/2 from rint(p), which is then M.
    M's digits come from exact float splits (_split), with no integer
    division: upper = floor(M / 1e8) and lower = M - upper 1e8, then
    floor(upper / 1e4), floor(lower / 1e4) and the differences.  M is an
    integer below 1e13 < 2^53 and each divisor d a power of ten, so each
    quotient q < 1e5, rounded once, is within q 2^-53 < 2e-11 of its true
    value.  A true value that is an integer is exact in a double, so q is
    that integer; any other lies at least 1/d >= 1e-8 from every integer, so
    its rounding never reaches one.  Every floor is therefore exact, and each
    product and difference is an integer below 2^53, exact too.
    (2) Every other cell (nan, inf, a outside _REGULAR and the near-ties,
    about one in 700 of a propagated trace) is ``NUMBER_FORMAT % x``'s own
    text, written into the cell from byte 1.
    """
    powers, words, exponents = _tables()
    x = table.ravel()
    buffer, cells = laid
    cells = cells[: x.size]
    zero = x == 0.0
    a = np.abs(x)
    regular = (a > _REGULAR[0]) & (a < _REGULAR[1])
    a = np.where(regular, a, 1.0)  # log10 never sees 0, nan or inf; 1.0 gives M = 1e12, E = 0
    e = np.floor(np.log10(a)).astype(np.int64)
    k = (12 - _POWERS_FROM) - e  # the table index of 10^(12-E)
    p = a * powers[k]
    off = np.flatnonzero((p < 1e12) | (p >= 1e13))  # log10 rounded across a power of ten
    step = np.where(p[off] < 1e12, 1, -1)
    e[off] -= step
    k[off] += step
    p[off] = a[off] * powers[k[off]]
    m = np.rint(p)
    odd = np.flatnonzero(~(regular | zero) | (np.abs(p - m) > 0.5 - _DOUBT * p))
    carry = m == 1e13
    m[carry] = 1e12
    e += carry
    m[zero] = 0.0
    upper, lower = _split(m, 1e8)  # M's first five digits and its last eight
    lead, high = _split(upper, 1e4)
    mid, low = _split(lower, 1e4)

    np.multiply(np.signbit(x), np.uint8(ord("-")), out=cells[:, 1])
    np.add(lead, ord("0"), out=cells[:, 2], casting="unsafe")
    cells[:, 3] = ord(".")
    word = cells.view(np.uint32)
    word[:, 1] = words[high.astype(np.intp)]
    word[:, 2] = words[mid.astype(np.intp)]
    word[:, 3] = words[low.astype(np.intp)]
    cells.view(np.uint64)[:, 2] = exponents[e - _EXPONENTS_FROM]
    printed = [NUMBER_FORMAT % v for v in x[odd].tolist()]
    cells[odd, 1:] = np.array(printed, dtype="S23").view(np.uint8).reshape(-1, 23)
    return (buffer if cells.size == len(buffer) else buffer[: cells.size]).translate(None, b"\0")


def write_csv(path, columns: dict) -> None:
    """Write a numeric table: a header line of the column names, then one
    line per row.

    ``columns`` maps each name to a column of numbers, all of one length.
    Every cell is the value as float64 printed in NUMBER_FORMAT, byte for
    byte what Python's ``%`` prints.  Lines end in "\n" on every platform,
    so reruns are byte-identical.  The rows go out a block at a time,
    through one block array and one laid cell buffer per file.
    """
    arrays = [np.asarray(column, dtype=float) for column in columns.values()]
    n = len(arrays[0])
    block = np.empty((min(n, _BLOCK_ROWS), len(arrays)))
    laid = _layout(*block.shape)
    with open(path, "wb") as fh:
        fh.write(",".join(columns).encode())
        for start in range(0, n, _BLOCK_ROWS):
            rows = min(n - start, _BLOCK_ROWS)
            for j, array in enumerate(arrays):
                block[:rows, j] = array[start : start + rows]
            fh.write(_format_rows(block[:rows], laid))
        fh.write(b"\n")


def write_kv(path: Path, values: dict) -> None:
    """Write a summary: a "quantity,value" header, then one line per key;
    a string value is written as it is, a number in NUMBER_FORMAT."""
    lines = ["quantity,value"] + [
        "%s,%s" % (key, value if isinstance(value, str) else NUMBER_FORMAT % value)
        for key, value in values.items()
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
