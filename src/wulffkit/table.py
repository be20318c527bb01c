"""CSV tables of the run artifacts.

Every table is one header line, then rows of comma-separated ``%.18e``
values: the bytes numpy's ``savetxt`` writes at its default format with
``delimiter=","`` and ``comments=""``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_csv"]

# rows formatted per ``%`` operation; bounds the text held in memory at once
BLOCK_ROWS = 256


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
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, len(data), BLOCK_ROWS):
            block = data[start : start + BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
