"""CSV tables of the run artifacts.

Every table is one header line, then rows of comma-separated ``%.18e``
values: the bytes numpy's ``savetxt`` writes at its default format with
``delimiter=","`` and ``comments=""``.

``%.18e`` asks for 19 significant digits, past the fast path of Python's
float formatting, so each value costs a bignum conversion.  The writer
spells the digits with array arithmetic instead, exactly.  For finite x
with 1e-4 <= |x| < 1e19 and E = floor(log10 |x|), the power 10^(18-E) is
an exact double, and a Dekker two-product splits |x| 10^(18-E) into
p + err with no rounding at all.  Where that product lies in [1e18, 1e19),
p is an even integer above 2^59, so N = p + rint(err) is the 19-digit
significand rounded half to even, exactly as ``%`` rounds it; its digits
come from repeated division by 10.  A row falls back to the ``%`` template
when any value is zero, non-finite, outside that range, or rounds up to
N = 1e19: such rows are rare and get the same bytes either way.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_csv"]

# rows spelled per array pass; bounds the text held in memory at once
BLOCK_ROWS = 2048

# bytes per value: sign, d, '.', 18 digits, 'e', exponent sign and two
# digits, then the ',' or newline that follows it
_WIDTH = 26
_DIGIT_COLS = [1, *range(3, 21)]
# exact doubles 10^0 .. 10^22 and their Veltkamp halves
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLIT = 134217729.0  # 2^27 + 1
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def write_csv(path, **columns):
    """Write the named columns to ``path``.

    A 1-D array is one column under its name; an (N, k) array is k columns
    ``name1`` ... ``namek``.  Every column has the same N rows.
    """
    names, parts = [], []
    for name, values in columns.items():
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            names.append(name)
            values = values[:, None]
        else:
            names += [f"{name}{i + 1}" for i in range(values.shape[1])]
        parts.append(values)
    data = np.hstack(parts)
    row = ",".join(["%.18e"] * data.shape[1]) + "\n"
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for start in range(0, len(data), BLOCK_ROWS):
            block = data[start : start + BLOCK_ROWS]
            text, keep, exact = _spell(block)
            # alternate runs of exactly spelled rows and ``%`` rows
            cuts = [0, *(np.flatnonzero(exact[1:] != exact[:-1]) + 1), len(block)]
            for lo, hi in zip(cuts, cuts[1:]):
                if exact[lo]:
                    fh.write(text[lo:hi][keep[lo:hi]].tobytes())
                else:
                    fh.write((row * (hi - lo) % tuple(block[lo:hi].ravel().tolist())).encode())


def _spell(block):
    """``%.18e`` bytes of each row of ``block``, and which rows they are exact for.

    Returns ``text`` (rows, k * _WIDTH) uint8, the ``keep`` mask that drops
    the sign byte of non-negative values, and the per-row ``exact`` flag.
    """
    rows, k = block.shape
    a = np.abs(block)
    ok = (a >= 1e-4) & (a < 1e19)
    a = np.where(ok, a, 1.0)
    e = np.clip(np.floor(np.log10(a)).astype(np.intp), -4, 18)
    # Dekker: p + err == a 10^(18-e) exactly
    b, bh, bl = _POW10[18 - e], _POW10_HI[18 - e], _POW10_LO[18 - e]
    p = a * b
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    ok &= (p >= 1e18) & (p <= 1e19)
    p = np.where(ok, p, 1e18)
    n = p.astype(np.uint64) + np.rint(err).astype(np.int64).view(np.uint64)
    # p == 1e18 with err < 0 means a 10^(18-e) < 1e18: e overshot by one
    ok &= (n >= np.uint64(10**18)) & (n < np.uint64(10**19)) & ((p != 1e18) | (err >= 0.0))

    text = np.empty((rows, k, _WIDTH), dtype=np.uint8)
    text[..., 0] = ord("-")
    text[..., 2] = ord(".")
    text[..., 21] = ord("e")
    text[..., 22] = np.where(e < 0, ord("-"), ord("+"))
    mag = np.abs(e)
    text[..., 23] = mag // 10 + ord("0")
    text[..., 24] = mag % 10 + ord("0")
    text[..., 25] = ord(",")
    text[:, -1, 25] = ord("\n")
    ten = np.uint64(10)
    for col in reversed(_DIGIT_COLS):
        q = n // ten
        text[..., col] = n - q * ten + np.uint64(ord("0"))
        n = q
    keep = np.ones((rows, k, _WIDTH), dtype=bool)
    keep[..., 0] = np.signbit(block)
    return text.reshape(rows, -1), keep.reshape(rows, -1), ok.all(axis=1)
