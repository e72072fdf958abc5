"""CSV text in bulk: float64 arrays as Python's ``repr`` bytes, rows as one buffer.

A field column is a ``(rows, width)`` uint8 array of text bytes in which NUL
bytes are padding: they may sit anywhere in a field and are dropped when
the rows are joined. ``float_fields`` gives, for every value, exactly the
bytes of ``repr(float(value))``. It finds the shortest digit string that
reads back to the value (Steele & White, Gay; the same digits as Ryu,
Adams, PLDI 2018) with float64 and int64 arithmetic only:

1. the 17 leading decimal digits of ``|x| * 10**k`` from a double-double
   product (Dekker's split), as an integer ``D`` plus a fraction ``r``;
2. the integers strictly inside the half-ulp rounding interval around it
   give the fewest digits, and among those the candidate nearest the value;
3. the digits are laid out by ``repr``'s rules: positional when the decimal
   point position ``decpt`` satisfies ``-4 < decpt <= 16`` (an integer gets
   ``.0``), else ``d.ddde±XX``.

Values the arithmetic does not settle with a wide margin go to ``repr``
itself: zeros, nan and infinities, subnormals, power-of-two mantissas
(their rounding interval is lopsided), exponents outside the ``10**k`` table,
and any value within ``_MARGIN`` of a tie or an interval edge.
"""
from __future__ import annotations

import numpy as np

__all__ = ["float_fields", "text_fields", "join_rows"]

_K_MIN, _K_MAX = -270, 300  # scale exponents in the table; Dekker's split stays finite
_MARGIN = 1e-6  # in units of the 17th digit; the double-double error is ~1e-14
_SPLIT = 134217729.0  # 2**27 + 1
_EXP_MASK = 0x7FF << 52
_MANT_MASK = (1 << 52) - 1
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_DECPT_MIN, _DECPT_MAX = -323, 309  # value = 0.d1d2... * 10**decpt over all float64
_JOIN_BYTES = 1 << 16  # row buffer per step of join_rows


def _words(rows) -> np.ndarray:
    """Byte strings, NUL-padded to 8, as one uint64 each (native byte order)."""
    return np.frombuffer(b"".join(row.ljust(8, b"\0") for row in rows), np.uint64)


# A float field is four words: [sign, "0.000", lead digit, point] [digits 2..17] [spill, exponent].
# A slot not used by a value holds NUL. A point after digit 2..16 shifts the
# digits after it one byte right, the last one into the spill slot.
_HEAD = _words(  # indexed by ((negative * 5 + prefix) * 10 + lead digit) * 2 + point after it
    [
        (sign + prefix.ljust(5, "\0") + str(lead) + point).encode()
        for sign in ("\0", "-")
        for prefix in ("", "0.", "0.0", "0.00", "0.000")
        for lead in range(10)
        for point in ("\0", ".")
    ]
)
_DIGITS4 = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + 48  # "0000".."9999"
_DIGITS4 = np.ascontiguousarray(_DIGITS4).view(np.uint32)[:, 0]
_SHOW = np.frombuffer(  # keeps the first d digits of a chunk of four, indexed by d + 13
    b"".join((b"\xff" * min(max(d, 0), 4)).ljust(4, b"\0") for d in range(-13, 17)), np.uint32
)
_CHUNK_START = np.arange(1, 17, 4)[:, None] - 13  # digits before each chunk, minus that offset
_EXPONENT = _words(  # the spill slot, then "e±XX" unless decpt is positional; indexed by decpt - _DECPT_MIN
    [b"\0" if -4 < d <= 16 else b"\0e%+03d" % (d - 1) for d in range(_DECPT_MIN, _DECPT_MAX + 1)]
)
_RUN = np.arange(17)  # the 16 digits after the lead and the spill slot


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _pow10_pairs() -> tuple[np.ndarray, np.ndarray]:
    """``10**k`` for k in [_K_MIN, _K_MAX] as double-double ``hi + lo``, from exact integers."""
    hi, lo = [], []
    den = 10**-_K_MIN
    for _ in range(_K_MIN, 0):
        h = 1 / den  # int true division rounds correctly
        num, pow2 = h.as_integer_ratio()
        hi.append(h)
        lo.append((pow2 - num * den) / (pow2 * den))
        den //= 10
    exact = 1
    for _ in range(_K_MAX + 1):
        hi.append(float(exact))
        lo.append(float(exact - int(hi[-1])))
        exact *= 10
    return np.array(hi), np.array(lo)


_P_HI, _P_LO = _pow10_pairs()
_SPLIT_HI, _SPLIT_LO = _split(_P_HI)


def _scaled(ax, k):
    """``ax * 10**k`` as an int64 integer part ``D`` and a fraction ``r`` in [0, 1)."""
    at = k - _K_MIN
    p_hi = _P_HI[at]
    prod = ax * p_hi
    a_hi, a_lo = _split(ax)
    b_hi, b_lo = _SPLIT_HI[at], _SPLIT_LO[at]
    err = ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    lo = err + ax * _P_LO[at]
    hi = prod + lo
    lo -= hi - prod
    floor_lo = np.floor(lo)
    return hi.astype(np.int64) + floor_lo.astype(np.int64), lo - floor_lo


def float_fields(values) -> np.ndarray:
    """``repr`` of each value of ``values`` (flattened) as a NUL-padded field column."""
    x = np.asarray(values, dtype=np.float64).ravel()
    bits = x.view(np.int64)
    exp_bits = bits & _EXP_MASK
    # zero or subnormal, inf or nan, or a power-of-two mantissa
    special = (exp_bits == 0) | (exp_bits == _EXP_MASK) | ((bits & _MANT_MASK) == 0)
    ax = np.abs(x)
    k = 16 - np.floor(np.log10(np.where(special, 1.0, ax))).astype(np.int64)
    special |= (k <= _K_MIN) | (k >= _K_MAX)  # leaves room for the correction below
    ax[special] = 1.5  # a stand-in the arithmetic handles; repr writes these
    k[special] = 16
    D, r = _scaled(ax, k)
    # log10 can be off by one next to a power of ten: bring D into [1e16, 1e17)
    off = (D < _POW10[16]).astype(np.int64) - (D >= _POW10[17])
    if off.any():
        fix = np.flatnonzero(off)
        k[fix] += off[fix]
        D[fix], r[fix] = _scaled(ax[fix], k[fix])
    # half an ulp of ax, scaled: 2**(exponent - 53) * 10**k, in (0.55, 11.2)
    h = ((ax.view(np.int64) & _EXP_MASK) - (53 << 52)).view(np.float64) * _P_HI[k - _K_MIN]
    below, above = r - h, r + h
    q10 = D // 10
    tens = (D - q10 * 10) + r  # distance above the multiple of 10 below
    floor_above, ceil_below = np.floor(above), np.ceil(below)
    flag = (  # within _MARGIN of an interval edge or of a tie between two candidates
        special
        | (np.abs(above - floor_above - 0.5) > 0.5 - _MARGIN)
        | (np.abs(ceil_below - below - 0.5) > 0.5 - _MARGIN)
        | (np.abs(r - 0.5) < _MARGIN)
        | (np.abs(tens - 5.0) < _MARGIN)
    )
    # Integers strictly inside the rounding interval: [lo_int, hi_int].
    lo_int = D + ceil_below.astype(np.int64)
    hi_int = D + floor_above.astype(np.int64)
    # The interval is narrower than 23, so it holds at most one multiple of
    # 100, which is then the only candidate with the fewest digits; else the
    # nearest multiple of 10 inside, else the nearest integer.
    q100 = hi_int // 100
    by10 = (hi_int // 10) * 10 >= lo_int
    c = np.where(by10, q10 + (tens > 5.0), D + (r > 0.5))
    m = by10.astype(np.int64)  # trailing zeros dropped from the 17 digits
    strip = np.flatnonzero(q100 * 100 >= lo_int)
    c[strip] = q100[strip]
    m[strip] = 2
    while strip.size:
        strip = strip[c[strip] % 10 == 0]
        c[strip] //= 10
        m[strip] += 1
    n = 17 - m
    n[m == 17] = 1  # c = 1: the interval held 10**17
    decpt = n + m - k
    w = c * _POW10[17 - n]  # the digits left-aligned in [1e16, 1e17)
    lead = w // _POW10[16]
    w -= lead * _POW10[16]
    chunks = np.empty((4, x.size), np.int64)
    np.floor_divide(w, _POW10[12], out=chunks[0])
    w -= chunks[0] * _POW10[12]
    np.floor_divide(w, _POW10[8], out=chunks[1])
    w -= chunks[1] * _POW10[8]
    np.floor_divide(w, _POW10[4], out=chunks[2])
    np.subtract(w, chunks[2] * _POW10[4], out=chunks[3])
    expo = (decpt <= -4) | (decpt > 16)
    shown = np.where(expo, n, np.maximum(n, decpt + 1))
    point = np.where(expo, n > 1, decpt)  # the digit the point follows; none below 1
    prefix = np.where(expo | (decpt > 0), 0, 1 - decpt)  # "0." and up to three zeros
    words = np.empty((x.size, 4), np.uint64)
    words[:, 0] = _HEAD[(((x < 0) * 5 + prefix) * 10 + lead) * 2 + (point == 1)]
    words.view(np.uint32)[:, 2:6] = (_DIGITS4[chunks] & _SHOW[shown - _CHUNK_START]).T
    words[:, 3] = _EXPONENT[decpt - _DECPT_MIN]
    out = words.view(np.uint8)
    inner = np.flatnonzero(point > 1)
    if inner.size:  # insert the point after digit 2..16: run byte point - 1
        at = point[inner, None] - 1
        run = np.take_along_axis(out[inner, 8:25], _RUN - (_RUN > at), axis=1)
        out[inner, 8:25] = np.where(_RUN == at, 46, run)
    fallback = np.flatnonzero(flag)
    if fallback.size:
        text = np.array([repr(v) for v in x[fallback].tolist()], dtype="S24")
        out[fallback] = 0
        out[fallback, :24] = text.view(np.uint8).reshape(-1, 24)
    return out


def text_fields(strings) -> np.ndarray:
    """A field column of ``strings``, UTF-8 encoded."""
    encoded = np.array([s.encode() for s in strings], dtype=bytes)
    return encoded.view(np.uint8).reshape(len(encoded), encoded.itemsize)


def join_rows(columns) -> bytes:
    """Rows of equal-length field columns: fields joined by commas, each row ended by a newline."""
    rows = len(columns[0])
    widths = [col.shape[1] + 1 for col in columns]
    # A few hundred rows at a time: the buffers stay small enough to be reused
    # from the heap instead of being mapped, and faulted in, for every block.
    step = max(1, _JOIN_BYTES // sum(widths))
    buf = np.empty((min(rows, step), sum(widths)), np.uint8)
    parts = []
    for lo in range(0, rows, step):
        part = buf[: min(rows - lo, step)]
        at = 0
        for col, width in zip(columns, widths):
            part[:, at : at + width - 1] = col[lo : lo + step]
            part[:, at + width - 1] = 44  # ","
            at += width
        part[:, -1] = 10  # "\n" in place of the last comma
        parts.append(part.tobytes().translate(None, b"\0"))
    return b"".join(parts)

