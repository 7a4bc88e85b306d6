"""Vectorised ``repr`` of float64 arrays, for the oracle's CSV rows.

``repr_rows(*columns)`` returns the bytes of
``",".join(repr(float(c[i])) for c in columns) + "\\n"`` for every row i,
without a Python object per value.

A value in (0, 1) gets Python's shortest round-trip digits from Schubfach
(Giulietti 2020).  With v = c 2^q and its rounding interval scaled by
10^-k, the digits are the one multiple of 10^(k+1) in the interval if
there is one, else the multiple of 10^k in it nearest to v, ties to even:
the shortest decimal that reads back as v and, of those, the nearest,
which is what ``repr`` prints.  The scaling multiplies by a 128-bit
approximation g of a power of ten (rounded up, so 2^127 < g <= 2^128) and
rounds to odd, in uint64 limbs whose 64 x 64 -> 128 bit products come from
32-bit halves.  Arithmetic on uint64 arrays takes uint64 operands only:
numpy 1.x turns uint64 mixed with int64 into float64.

The digits are laid out as ``repr`` lays them out: ``0.000ddd`` when the
decimal point position decpt (v = 0.ddd x 10^decpt) is at least -3, else
``d.ddde-XX`` with two or three exponent digits.  Each value fills 32
bytes, four uint64 slots gathered from small tables of ASCII text, NUL
where a character is absent, and the NULs are dropped at the end.  Zero is
``0.0``, and every other value (negative, -0.0, 1 or more, inf, NaN) is
written by ``repr`` itself, so the bytes match ``repr`` for any input.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["repr_rows"]

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_ONE_BITS = _U64(0x3FF0000000000000)  # the bit pattern of 1.0
_FRACTION = _U64((1 << 52) - 1)
_HIDDEN = _U64(1 << 52)
_HALF_BITS = _U64(0x3FE0000000000000)  # 0.5, a stand-in for values repr writes
_POW10 = np.array([10**i for i in range(17)], dtype=np.uint64)
# 10^-k for a positive double below 1 needs -k in [16, 324]
_J_MIN, _J_MAX = 16, 324


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g_hi, g_lo, bits) for j in [_J_MIN, _J_MAX]: g = floor(10^j 2^(128 -
    bits)) + 1 in two uint64 limbs, bits the bit length of 10^j, built
    from exact integers on first use."""
    hi, lo, bits = [], [], []
    for j in range(_J_MIN, _J_MAX + 1):
        p = 10**j
        n = p.bit_length()
        g = (p << (128 - n) if n <= 128 else p >> (n - 128)) + 1
        hi.append(g >> 64)
        lo.append(g & ((1 << 64) - 1))
        bits.append(n)
    return np.array(hi, dtype=np.uint64), np.array(lo, dtype=np.uint64), np.array(bits)


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return a & _LOW32, a >> _U64(32)


def _mul_hi_lo(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of a * b, from a and b as (low, high) 32-bit halves."""
    (a0, a1), (b0, b1) = a, b
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    return hi, (mid << _U64(32)) | (p00 & _LOW32)


def _round_to_odd(g_hi, g_lo, cp: np.ndarray) -> np.ndarray:
    """floor(g cp / 2^128), its last bit set when the dropped bits are not
    negligible; g is the 128-bit (g_hi, g_lo), each as 32-bit halves."""
    cp = _halves(cp)
    x1 = _mul_hi_lo(g_lo, cp)[0]
    y1, y0 = _mul_hi_lo(g_hi, cp)
    z = y0 + x1
    return (y1 + (z < y0)) | (z > _U64(1))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits d and exponent e with repr's d x 10^e for the positive
    doubles below 1 with these bit patterns."""
    fraction, biased = bits & _FRACTION, bits >> _U64(52)
    normal = biased != 0
    c = np.where(normal, fraction | _HIDDEN, fraction)
    q = np.where(normal, biased.astype(np.int64) - 1075, -1074)
    # the interval reaches half as far below v as above it
    closer = (fraction == 0) & (biased > _U64(1))
    # floor(log10(2^q)), or floor(log10(3/4 2^q)) for the uneven interval
    k = (q * 1262611 - closer * 524031) >> 22
    g_hi, g_lo, n = (t[-k - _J_MIN] for t in _pow10_table())
    h = (q + n).astype(np.uint64)  # 1..4
    g_hi, g_lo = _halves(g_hi), _halves(g_lo)
    cb = c << _U64(2)
    vb = _round_to_odd(g_hi, g_lo, cb << h)
    # the ends, (2c +- 1) 2^(q-1) or (4c - 1) 2^(q-2) with q <= -53, have 38
    # or more significant digits: whether they belong to the interval (for
    # repr, when c is even) never changes the digits
    lower = _round_to_odd(g_hi, g_lo, (cb - _U64(2) + closer) << h)
    upper = _round_to_odd(g_hi, g_lo, (cb + _U64(2)) << h)
    s = vb >> _U64(2)
    # one digit fewer: a multiple of 10^(k+1) in the interval
    sp = s // _U64(10)
    up_inside = lower <= sp * _U64(40)
    wp_inside = sp * _U64(40) + _U64(40) <= upper
    shorter = (s >= _U64(10)) & (up_inside != wp_inside)
    u_inside = lower <= s << _U64(2)
    w_inside = (s << _U64(2)) + _U64(4) <= upper
    mid = (s << _U64(2)) + _U64(2)
    round_up = (vb > mid) | ((vb == mid) & ((s & _U64(1)) == 1))
    d = s + np.where(u_inside != w_inside, w_inside, round_up)
    return np.where(shorter, sp + wp_inside, d), k + shorter


def _ascii(texts, width: int, dtype) -> np.ndarray:
    """Each text NUL-padded to width bytes, read as one dtype value."""
    return np.frombuffer(b"".join(t.encode().ljust(width, b"\0") for t in texts), dtype=dtype)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The layout's three slots, by index:
    head: 0.[000]D for 0-3 zeros, then D. and D (sci), for each digit D;
    quad: four digits 0000..9999, then the same with trailing zeros as NULs;
    exponent: e-XX[X] for 5..324, NUL below."""
    head = _ascii([f"0.{'0' * z}{d}" for z in range(4) for d in range(10)]
                  + [f"{d}." for d in range(10)] + [f"{d}" for d in range(10)], 8, np.uint64)
    quads = [f"{i:04d}" for i in range(10_000)]
    quad = _ascii(quads + [q.rstrip("0") for q in quads], 4, np.uint32)
    exponent = _ascii([""] * 5 + [f"e-{x:02d}" for x in range(5, 325)], 8, np.uint64)
    return head, quad, exponent


def _layout(d: np.ndarray, e: np.ndarray, out: np.ndarray) -> None:
    """Write repr's characters of d x 10^e (d >= 1, the value below 1)
    into out, (len(d), 4) uint64 rows of four NUL-padded slots:

        fixed  0.[000]D0   D1..D16
        sci    D0[.]       D1..D16   e-XX[X]

    D1..D16 end at the last nonzero digit."""
    n = np.searchsorted(_POW10, d, side="right")  # digits of d
    decpt = n + e
    d = d * _POW10[17 - n]  # 17 digits: D0 and four groups of four
    d0 = d // _U64(10**16)
    rest = d - d0 * _U64(10**16)
    d0 = d0.astype(np.intp)
    upper = rest // _U64(10**8)
    lower = (rest - upper * _U64(10**8)).astype(np.uint32)
    upper = upper.astype(np.uint32)
    quads = np.empty((len(d), 4), dtype=np.uint32)
    quads[:, 0] = upper // np.uint32(10**4)
    quads[:, 1] = upper - quads[:, 0] * np.uint32(10**4)
    quads[:, 2] = lower // np.uint32(10**4)
    quads[:, 3] = lower - quads[:, 2] * np.uint32(10**4)
    # a group with only zeros after it loses its trailing zeros
    stripped = np.ones(len(d), dtype=bool)
    for i in (3, 2, 1, 0):
        quads[:, i] += np.uint32(10**4) * stripped
        stripped &= quads[:, i] == np.uint32(10**4)
    head, quad, exponent = _tables()
    fixed = decpt >= -3
    out[:, 0] = head[np.where(fixed, -decpt, 4 + stripped) * 10 + d0]
    out[:, 1:3] = quad[quads].view(np.uint64)
    out[:, 3] = exponent[np.where(fixed, 0, 1 - decpt)]


def _repr_block(x: np.ndarray, out: np.ndarray) -> None:
    """Write repr(float(v)) of every v in x into out, (len(x), 4) uint64
    rows whose bytes are NUL where no character is."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    bits = x.view(np.uint64)
    fast = (bits != 0) & (bits < _ONE_BITS)
    _layout(*_shortest(np.where(fast, bits, _HALF_BITS)), out)
    text = out.view(np.uint8)
    text[bits == 0] = np.frombuffer(b"0.0".ljust(32, b"\0"), dtype=np.uint8)
    rest = bits >= _ONE_BITS
    texts = [repr(v).encode() for v in x[rest].tolist()]
    text[rest] = np.array(texts, dtype="S32").view(np.uint8).reshape(-1, 32)


def repr_rows(*columns: np.ndarray) -> bytes:
    """The rows ``",".join(repr(float(c[i])) for c in columns) + "\\n"``,
    for i over the columns' common length, as one bytes object."""
    block = np.empty((len(columns[0]), 4 * len(columns)), dtype=np.uint64)
    for i, c in enumerate(columns):
        _repr_block(c, block[:, 4 * i : 4 * i + 4])
    text = block.view(np.uint8)
    # the last byte of each value's 32 is NUL: it takes the separator
    text[:, 31::32] = ord(",")
    text[:, -1] = ord("\n")
    flat = text.ravel()
    return np.compress(flat != 0, flat).tobytes()
