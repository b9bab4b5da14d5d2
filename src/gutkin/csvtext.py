"""CSV text of the CLI's artifacts: each cell reads as Python's ``'%.17g' %
float(v)``, byte for byte, so an integer counter below 2^53 reads as
``'%d' % n``.

The cells are formatted by a numpy kernel, ``CSV_BLOCK_CELLS`` at a time.
A float ``v`` with ``|v|`` in ``FAST_RANGE`` is scaled to its 17-digit
integer ``N``, ``|v| 10^s`` rounded half to even with ``s = 16 -
floor(log10 |v|)``, by a double-double product: ``|v|`` and ``10^s_hi`` are
split in 26-bit halves (Dekker), so ``|v| 10^s_hi`` is exact as a sum of two
floats, and ``10^s = 10^s_hi + 10^s_lo`` holds to ``2^-106`` of itself.  The
scaled value is exact where ``10^s`` is a float (``s = 0..22``, so ``1e-6 <=
|v| < 1e17``), and known to about ``1e-14`` elsewhere, far inside the margin
``TIE_MARGIN`` of a rounding tie.  ``N`` becomes ASCII through a table of
the 10^4 four-digit groups, and each cell is laid out on a fixed-width byte
row, of which a mask per layout keeps the sign, the fixed or exponent form,
the decimal point, the digits up to the last nonzero one and the separator.
Zero is the fixed form of ``N = 0``.  Every other cell is formatted by
``'%.17g'`` itself: a subnormal, infinite or NaN value, one outside the
range, an inexact scaled value within the margin of a tie, and one outside
``[10^16, 10^17)`` before or after rounding (``log10`` misjudged the decade,
or the value rounds up to a power of ten).  So the text equals the reference
formatting on every value by construction.
"""

from __future__ import annotations

import functools

import numpy as np

# cells formatted by one pass of the kernel; a block's byte rows take
# ROW_BYTES a cell, so peak memory does not grow with the CSV
CSV_BLOCK_CELLS = 1 << 11
FAST_RANGE = (2.0 ** -960, 2.0 ** 960)
# decades floor(log10 |v|) of the power table: those of FAST_RANGE, +-1
DECADES = (-290, 289)
TIE_MARGIN = 2.0 ** -20
# the byte row of a cell, d0..d16 the digits of N:
#   0-7    '-' at 6, d0 at 7: the integer part of a fixed form with X >= 1 ...
#   8-23   ... d1..d16
#   24-31  '-' at 29, d0 at 30, '.' at 31 (X >= 0 and the exponent forms), or
#          '-0.' and -X-1 zeros ending at 30, d0 at 31 (X < 0)
#   32-47  d1..d16, the digits after the point
#   48-55  'e', the exponent's sign and 2 or 3 digits, then the separator;
#          the separator alone in the fixed forms
ROW_BYTES = 56
# X is the decimal exponent of the rounded value: the fixed form is used for
# -4 <= X <= 16, as '%.17g' does
FIXED = (-4, 16)
_X0 = -DECADES[0]  # X + _X0 indexes the tables by exponent
_SPAN = DECADES[1] + 2 + _X0  # exponents -290..290
# layouts (form * 17 + last) * 2 + sign: the fixed forms X = -4..16 and
# the exponent forms of 2 and of 3 digits, with digits d0..d<last>
_FORMS = FIXED[1] - FIXED[0] + 3
_EMPTY = _FORMS * 34  # the layout of a cell formatted outside the kernel


def _words(text: bytes) -> np.ndarray:
    """The little-endian uint64 words of ``text``, 8 bytes each."""
    return np.frombuffer(text, "<u8").astype(np.uint64)


def _powers() -> tuple[np.ndarray, np.ndarray]:
    """10^s = hi + lo for s = 16 - e10 over the decades, each term
    correctly rounded: Python integers in object arrays, exact up to the
    one rounding of a true division."""
    s = 16 - np.arange(DECADES[0], DECADES[1] + 1)
    tens = np.cumprod(np.full(np.abs(s).max() + 1, 10, dtype=object)) // 10
    up, down = tens[np.maximum(s, 0)], tens[np.maximum(-s, 0)]
    hi = (up / down).astype(float)
    # hi = n 2^(e - 53) for an integer n, so up/down - hi has the
    # denominator down 2^max(53 - e, 0)
    m, e = np.frexp(hi)
    n = np.ldexp(m, 53).astype(np.int64).astype(object)
    a, b = (np.maximum(k, 0).astype(object) for k in (53 - e, e - 53))
    return hi, (((up << a) - (n << b) * down) / (down << a)).astype(float)


def _masks() -> np.ndarray:
    """The bytes kept by each layout, one row of ROW_BYTES per layout; the
    last row, that of a cell formatted outside the kernel, keeps none."""
    # X = -4..16 in the fixed forms, 17 and 18 in the exponent forms of 2
    # and of 3 digits
    X = np.arange(_FORMS)[:, None, None] + FIXED[0]
    last = np.arange(17)[:, None]
    byte = np.arange(ROW_BYTES)
    whole = (0 < X) & (X <= FIXED[1])
    # the point follows d<X> in a fixed form with X > 0, else d0, and the
    # digits after it run to d<last>
    point = np.where(whole, X, 0)
    keep = ((32 + point <= byte) & (byte < 32 + last)) | ((byte == 31) & (last > point))
    # '0.' and the zeros before d0 (X < 0), the integer part (X > 0), or d0
    keep |= np.where(X < 0, (30 + X <= byte) & (byte < 32),
                     np.where(whole, (7 <= byte) & (byte < 8 + X), byte == 30))
    # the separator, after 'e', the sign and the exponent's digits if any
    keep |= (48 <= byte) & (byte < 48 + np.where(X <= FIXED[1], 1, X - 12))
    sign = byte == np.where(X < 0, 29 + X, np.where(whole, 6, 29))
    mask = np.zeros((_EMPTY + 1, ROW_BYTES), dtype=bool)
    mask[:-1] = np.stack([keep, keep | sign], axis=2).reshape(_EMPTY, ROW_BYTES)
    return mask


@functools.cache
def _tables() -> dict:
    """The tables of the kernel, built on first use."""
    hi, lo = _powers()
    # hi = hi_hi + hi_lo in 26-bit halves: Veltkamp's split of its significand
    m, e = np.frexp(hi)
    m_hi = _split_hi(m)
    hi_hi, hi_lo = np.ldexp(m_hi, e), np.ldexp(m - m_hi, e)
    # the four-digit groups as little-endian ASCII, and twice their trailing zeros
    group = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    digits = np.frombuffer((group.T + 48).tobytes(), "<u4").astype(np.uint32)
    trailing = np.zeros((10,) * 4, dtype=np.uint8)
    for k in range(1, 5):
        trailing[(...,) + (0,) * k] += 2
    head = _words(b"".join(b"\0" * 6 + b"-%d" % d for d in range(10)))
    exps = np.arange(-_X0, _SPAN - _X0)
    fixed = (FIXED[0] <= exps) & (exps <= FIXED[1])
    # bytes 24-31 by exponent and d0, of X >= 0 or exponent forms, then of X = -1..-4
    leads = _words(b"".join([b"\0" * 5 + b"-%d." % d for d in range(10)]
                            + [b"\0" * (4 - z) + b"-0." + b"0" * z + b"%d" % d
                               for z in range(4) for d in range(10)])).reshape(5, 10)
    lead = leads[np.where(fixed & (exps < 0), -exps, 0)].ravel()
    # bytes 48-55 by separator and exponent: 'e', the sign and the digits of
    # an exponent form, whose width is 4 or 5 bytes, then the separator
    magnitude = np.abs(exps)[:, None]
    width = np.where(fixed[:, None], 0, 4 + (magnitude >= 100))
    j = np.arange(8)
    chars = np.where(j == 0, ord("e"),
                     np.where(j == 1, np.where(exps < 0, ord("-"), ord("+"))[:, None],
                              magnitude // 10 ** np.clip(width - 1 - j, 0, 2) % 10 + 48))
    chars = np.where(j < width, chars, 0)
    tail = _words(np.concatenate([np.where(j == width, ord(sep), chars) for sep in ",\n"])
                  .astype(np.uint8).tobytes())
    # the layout of a positive value with all 17 digits, by exponent; each
    # trailing zero of N takes 2 off it
    form_of = np.where(fixed, exps - FIXED[0], _FORMS - 2 + (np.abs(exps) >= 100)) * 34 + 32
    mask = _masks()
    return dict(hi=hi, hi_hi=hi_hi, hi_lo=hi_lo, lo=lo, digits=digits,
                trailing=trailing.ravel(), head=head, lead=lead, tail=tail, form_of=form_of,
                mask=mask, length=mask.sum(axis=1))


def _split_hi(x):
    """The upper 26 bits of each x (Veltkamp): x - _split_hi(x) is exact and
    has at most 26 bits, for |x| up to 2^996."""
    c = x * 134217729.0
    return c - (c - x)


def _decades(a):
    """floor(log10 a), as intp: the decade of each value, or a neighbour of
    it where log10 rounds across a power of ten."""
    return np.floor(np.log10(a)).astype(np.intp)


def _kernel(t, block, sep):
    """The text of the cells of ``block`` (float64, rows by columns), and
    the indices and layouts of the cells it left out for the reference
    formatting.  ``sep`` is, per cell, 0 where a comma follows it and
    ``_SPAN`` where a newline does."""
    v = block.ravel()
    a = np.abs(v)
    ok = (a >= FAST_RANGE[0]) & (a <= FAST_RANGE[1])
    zero = a == 0
    a = np.where(ok, a, 1.0)
    e10 = _decades(a)
    i = e10 - DECADES[0]
    hi_hi, hi_lo = t["hi_hi"][i], t["hi_lo"][i]
    # |v| 10^s = hi + err exactly (Dekker's product), plus |v| 10^s_lo, which
    # is 0 for s = 0..22: there the scaled value hi + lo is exact
    hi = a * t["hi"][i]
    a_hi = _split_hi(a)
    a_lo = a - a_hi
    err = a_lo * hi_lo - (((hi - a_hi * hi_hi) - a_lo * hi_hi) - a_hi * hi_lo)
    low = t["lo"][i]
    lo = err + a * low
    floor = np.floor(lo)
    frac = lo - floor
    n = hi.astype(np.int64) + floor.astype(np.int64)
    # hi is an even integer (above 2^53 unless the decade is misjudged), so
    # lo rounded half to even rounds hi + lo half to even
    up = np.rint(lo) > floor
    # 10^16 <= n before rounding and n < 10^17 after it; outside that the
    # decade was misjudged, or the value rounds up to a power of ten, and
    # the reference formatting takes it, as it does an inexact near-tie
    ok &= (((n - 10 ** 16).view(np.uint64) < np.uint64(9 * 10 ** 16) - up)
           & ((np.abs(frac - 0.5) >= TIE_MARGIN) | (low == 0)))
    n += up
    # a cell left out reads as 0, which keeps its digits in the tables; zero
    # is the fixed form of N = 0
    n *= ok
    X = np.where(zero, 0, e10)
    ok |= zero
    # the 17 digits: d0 and four groups of four
    d0 = n // 10 ** 16
    rest = n - d0 * 10 ** 16
    top = rest // 10 ** 8
    bottom = rest - top * 10 ** 8
    g1 = top // 10 ** 4
    g3 = bottom // 10 ** 4
    groups = (g1, top - g1 * 10 ** 4, g3, bottom - g3 * 10 ** 4)
    row = np.empty((v.size, ROW_BYTES), dtype=np.uint8)
    words, quads = row.view(np.uint64), row.view(np.uint32)
    x = X + _X0
    words[:, 0] = t["head"][d0]
    words[:, 3] = t["lead"][x * 10 + d0]
    words[:, 6] = t["tail"][x + sep]
    for k, g in enumerate(groups):
        quads[:, 8 + k] = t["digits"][g]
    words[:, 1:3] = words[:, 4:6]
    trailing = t["trailing"]
    zeros = trailing[groups[3]]
    if (zeros == 8).any():
        z1, z2, z3 = (trailing[g] for g in groups[:3])
        zeros = zeros + (zeros == 8) * (z3 + (z3 == 8) * (z2 + (z2 == 8) * z1))
    layout = t["form_of"][x] + np.signbit(v) - zeros
    left = np.flatnonzero(~ok) if not ok.all() else np.empty(0, np.intp)
    layout[left] = _EMPTY
    keep = np.take(t["mask"], layout, axis=0)
    return row[keep].tobytes(), left, layout


def write_csv(path, header: list[str], columns):
    """CSV of equal-length columns, each cell the bytes of ``'%.17g' %
    float(v)``."""
    t = _tables()
    columns = [np.asarray(c) for c in columns]
    width = len(columns)
    rows = min((c.shape[0] for c in columns), default=0)
    step = max(1, CSV_BLOCK_CELLS // max(width, 1))
    sep = np.tile(np.where(np.arange(width) == width - 1, _SPAN, 0), step)
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            block = np.stack([c[start:stop] for c in columns], axis=1, dtype=float)
            text, left, layout = _kernel(t, block, sep[:block.size])
            if left.size:
                text = _splice(text, left, t["length"][layout], block)
            f.write(text)


def _splice(text, left, length, block):
    """``text`` with the cells ``left`` of ``block`` formatted by '%.17g' put in."""
    ends = np.cumsum(length)
    width = block.shape[1]
    pieces, done = [], 0
    for i, value in zip(left.tolist(), block.ravel()[left].tolist()):
        sep = b"\n" if i % width == width - 1 else b","
        pieces += [text[done:ends[i]], b"%.17g" % value, sep]
        done = ends[i]
    pieces.append(text[done:])
    return b"".join(pieces)
