"""Exact vectorized ``%.17g`` of float64 arrays.

``format_g17`` turns n finite doubles into an (n, 24) uint8 array whose
row i, read without its NUL bytes, is ``f"{v[i]:.17g}".encode()``.  NUL
is filler: it stands for the digits, the point and the exponent digit
that ``%g`` leaves out, so a row needs no justification, and a caller
that joins rows removes every NUL in one pass at the end
(``rows.tobytes().translate(None, b"\\0")``).

The 17 significant digits of x = |v| = m * 2**e are N = round(x * 10**k)
with k = 16 - E and E = floor(log10 x).  10**k comes from a table of
(hi + lo) * 2**s, exact to 2**-105 relative; m * hi is formed exactly by
Dekker's two-product (Numer. Math. 18, 224-242, 1971; no FMA needed),
m * lo is added, and the sum is renormalised to a double-double
(yh, yl).  The scaled value y = x * 10**k then carries a relative error
below 2**-103, so |y - (yh + yl)| < 1e-14 for every y < 1e17, and
N = yh + round(yl) is the correctly rounded integer unless y lies within
that distance of a half-integer.  Rows whose yl lies within
``_TIE_WINDOW`` of a half-integer, which include every exact tie
(1 + 2**-17 is one), are formatted by CPython instead, as are rows whose
y is still outside [1e16, 1e17) after one correction of E.  No value on
the bundled preset curves takes that path.  The fixed-precision
conversion from a table of powers of ten follows Adams, "Ryu revisited:
printf floating point conversion" (OOPSLA 2019).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Bytes per formatted value: "-1.2345678901234567e-308" is the longest.
WIDTH = 24

#: Powers of ten in the table: 10**k for k in [_K_MIN, _K_MAX].
_K_MIN, _K_MAX = -310, 345

#: Dekker's splitter for doubles: 2**27 + 1.
_SPLIT = 134217729.0

#: y closer than this to a half-integer is left to CPython.
_TIE_WINDOW = 1e-6

#: Decimal exponents of finite doubles: 5e-324 to 1.8e308.
_X_MIN, _X_MAX = -324, 308


@lru_cache(maxsize=1)
def pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """Rows hi, lo, hi_head, hi_tail and exponents s with
    10**k = (hi + lo) * 2**s, hi in [1, 2], for k = _K_MIN.._K_MAX.

    Built once from exact integers: hi is 10**k / 2**s rounded to
    nearest, lo is the rounded remainder, and hi_head + hi_tail is
    Dekker's split of hi.
    """
    rows, shifts = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        s = num.bit_length() - den.bit_length()
        if s >= 0:
            den <<= s
        else:
            num <<= -s
        if num < den:
            num <<= 1
            s -= 1
        hi = num / den                 # int division rounds to nearest
        lo = ((num << 52) - int(hi * 2.0 ** 52) * den) / (den << 52)
        head = hi * _SPLIT - (hi * _SPLIT - hi)
        rows.append((hi, lo, head, hi - head))
        shifts.append(s)
    table = np.array(rows, dtype=np.float64).T.copy()
    exps = np.array(shifts, dtype=np.int32)
    table.flags.writeable = exps.flags.writeable = False
    return table, exps


def _scaled(m: np.ndarray, e: np.ndarray, E: np.ndarray):
    """(yh, yl) with yh + yl = m * 2**e * 10**(16 - E) to 2**-103."""
    table, exps = pow10_table()
    k = (16 - _K_MIN) - E
    hi, lo, hh, hl = np.take(table, k, axis=1)
    mh = m * _SPLIT
    mh -= mh - m
    ml = m - mh
    p = m * hi
    err = mh * hh                      # Dekker: m * hi == p + err exactly
    err -= p
    err += mh * hl
    err += ml * hh
    err += ml * hl
    err += m * lo
    yh = p + err                       # fast two-sum: |p| >= |err|
    p -= yh
    p += err
    shift = exps.take(k) + e
    return np.ldexp(yh, shift), np.ldexp(p, shift)


def _out_of_range(yh: np.ndarray, yl: np.ndarray) -> np.ndarray:
    """-1 where yh + yl < 1e16, +1 where it is at least 1e17, else 0."""
    return (((yh - 1e17) + yl >= 0.0).astype(np.int16)
            - ((yh - 1e16) + yl < 0.0))


def digits17(x: np.ndarray):
    """(N, X, slow) for positive finite x.

    N is round(x * 10**(16 - X)), a 17-digit int64, and X the decimal
    exponent of x's leading digit after that rounding.  Where ``slow``
    is set, N and X are placeholders and the value must be formatted
    another way: its scaled value is near a rounding tie, or still out
    of range after one correction of X.
    """
    m, e = np.frexp(x)
    X = np.floor(np.log10(x)).astype(np.int16)
    yh, yl = _scaled(m, e, X)
    off = _out_of_range(yh, yl)
    redo = np.flatnonzero(off)
    if redo.size:
        # log10 rounds across an integer only next to a power of ten
        X[redo] += off[redo]
        yh[redo], yl[redo] = _scaled(m[redo], e[redo], X[redo])
        off[redo] = _out_of_range(yh[redo], yl[redo])
    del m, e
    N = np.rint(yl)
    yl -= N
    slow = np.abs(yl) > 0.5 - _TIE_WINDOW
    slow |= off != 0
    N = N.astype(np.int64)
    N += yh.astype(np.int64)           # yh >= 2**53 is an integer
    carry = N == 10 ** 17              # y rounded up to 1e17: one more place
    N[carry] = 10 ** 16
    X += carry
    N[slow] = 10 ** 16
    X[slow] = 0
    return N, X, slow


def _bytes_below(stops, words: int) -> np.ndarray:
    """(words, len(stops)) uint64: the bytes below byte g of each word."""
    return np.array([[(1 << 8 * min(max(g - 8 * w, 0), 8)) - 1 for g in stops]
                     for w in range(words)], dtype=np.uint64)


@lru_cache(maxsize=1)
def _layout() -> tuple[np.ndarray, ...]:
    """Lookup tables of the row layout, built on first use:
    (point, below, shift, template, chunk, mask).

    A row starts as the sign in byte 0 and the 17 digits in bytes 1-17.
    Then a gap opens at byte g: the bytes from there on (``below`` holds
    those before it) move up by ``shift`` bits, one byte for the point
    after digit ``point``, or five for the "0.000" in front of the
    digits when -4 <= X < 0.  The ``template`` words fill the gap and
    hold "e+XX" or "e-XXX" in bytes 19-23 when X calls for scientific
    notation; of the two templates of each X, the second also holds the
    point, for rows with digits after it.  These four are indexed by
    X - _X_MIN.  ``chunk`` holds the digits of 0..9999, one byte each,
    first digit lowest, and ``mask`` the bytes of digits 1-16 that a row
    with j digits after digit 0 writes, by j.
    """
    xs = range(_X_MIN, _X_MAX + 1)
    point = [X if 0 <= X < 17 else 0 for X in xs]
    small = [-4 <= X < 0 for X in xs]
    gap = [1 if sm else p + 2 for p, sm in zip(point, small)]
    template = np.zeros((len(xs), 2, WIDTH), dtype=np.uint8)
    for i, X in enumerate(xs):
        if small[i]:
            template[i, :, 1:3] = (ord("0"), ord("."))
            template[i, :, 7 + X:6] = ord("0")
        else:
            template[i, 1, gap[i]] = ord(".")
            if not 0 <= X < 17:
                exp = f"e{X:+03d}".encode()
                template[i, :, WIDTH - len(exp):] = np.frombuffer(exp, np.uint8)
    words = np.frombuffer(template.tobytes(), dtype="<u8").reshape(-1, 3)
    c = np.arange(10000)
    tables = (
        np.array(point, dtype=np.int16),
        _bytes_below(gap, 3),
        np.where(small, 40, 8).astype(np.uint64),
        words.T.astype(np.uint64),
        sum((c // 10 ** (3 - i) % 10).astype(np.uint64) << 8 * i for i in range(4)),
        _bytes_below(range(17), 2),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def format_g17(values) -> np.ndarray:
    """``f"{v:.17g}"`` of each finite double, as NUL-padded (n, 24) rows.

    A row's non-NUL bytes, in order, are exactly the bytes CPython
    writes, for every finite value including subnormals and -0.0;
    NULs may sit between them.  The digits are exact to the bound in
    the module docstring, and a value near a rounding tie is formatted
    by CPython.  A non-finite value raises ``ValueError``.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if not np.isfinite(v).all():
        raise ValueError("only finite values can be formatted")
    x = np.abs(v)
    zero = np.flatnonzero(x == 0.0)
    x[zero] = 1.0
    N, X, slow = digits17(x)
    del x
    point_at, below, shift_at, template, chunk, mask = _layout()
    X -= _X_MIN
    # digit 0, then digits 1-8 and 9-16 as two words of one byte per digit
    lead = N // 10 ** 16
    tail = np.empty((2, v.size), dtype=np.int64)
    np.floor_divide(N, 10 ** 8, out=tail[0])
    np.subtract(N, tail[0] * 10 ** 8, out=tail[1])
    tail[0] -= lead * 10 ** 8
    quads = tail // 10 ** 4
    tail -= quads * 10 ** 4
    tail = chunk.take(quads) | (chunk.take(tail) << 32)
    del quads, N
    # the digits after digit 0 up to its last nonzero one: the byte length
    # of the 128-bit value of the two words, from the exponent of its
    # float (no digit byte is near 0xff, so no rounding carries past one)
    f = tail.astype(np.float64)
    f[1] *= 2.0 ** 64
    f[1] += f[0]
    after = (np.frexp(f[1])[1] + 7) >> 3
    del f
    point = point_at.take(X)
    np.maximum(after, point, out=after)            # digits written after 0
    tail += np.uint64(0x3030303030303030)
    tail &= np.take(mask, after, axis=1)
    # the row's words: the sign, then digits 0-16 in bytes 1-17
    W = np.empty((3, v.size), dtype=np.uint64)
    np.left_shift(tail[0], 16, out=W[0])
    W[0] |= (lead + ord("0")).astype(np.uint64) << 8
    W[0] |= (v.view(np.uint64) >> 63) * ord("-")
    np.right_shift(tail[0], 48, out=W[1])
    W[1] |= tail[1] << 16
    np.right_shift(tail[1], 48, out=W[2])
    del tail, lead
    # open the gap, then fill it from the template
    shift = shift_at.take(X)
    low = W & np.take(below, X, axis=1)
    W ^= low                                       # the bytes that move
    low |= W << shift
    low[1:] |= W[:-1] >> (64 - shift)
    W = low
    W |= np.take(template, 2 * X + (after > point), axis=1)
    out = np.empty((v.size, 3), dtype="<u8")
    out.T[...] = W
    del W
    out = out.view(np.uint8)
    out[zero, 1:] = 0
    out[zero, 1] = ord("0")
    for i in np.flatnonzero(slow).tolist():
        text = f"{v[i]:.17g}".encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out
