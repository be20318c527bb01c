import numpy as np
import pytest

from wulffkit.table import BLOCK_ROWS, write_csv


def _savetxt(path, data, header):
    np.savetxt(path, data, delimiter=",", header=header, comments="")
    return path.read_bytes()


def test_bytes_match_savetxt_across_blocks(tmp_path):
    # more rows than one block, and every value savetxt spells specially
    rows = 2 * BLOCK_ROWS + 7
    rng = np.random.default_rng(3)
    x = rng.standard_normal((rows, 2)) * 10.0 ** rng.integers(-300, 300, (rows, 2))
    h = rng.standard_normal(rows)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308]
    h[BLOCK_ROWS - 3 : BLOCK_ROWS + 4] = specials
    x[-len(specials) :, 1] = specials
    write_csv(tmp_path / "new.csv", x=x, kappaF=h[:, None], H=h)
    expected = _savetxt(
        tmp_path / "old.csv", np.hstack([x, h[:, None], h[:, None]]), "x1,x2,kappaF1,H"
    )
    assert (tmp_path / "new.csv").read_bytes() == expected


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS])
def test_header_expands_vector_columns(tmp_path, rows):
    t = np.linspace(0.0, 1.0, rows)
    w = np.stack([np.cos(t), np.sin(t), t], axis=1)
    write_csv(tmp_path / "new.csv", t=t, w=w)
    expected = _savetxt(tmp_path / "old.csv", np.hstack([t[:, None], w]), "t,w1,w2,w3")
    text = (tmp_path / "new.csv").read_bytes()
    assert text.splitlines()[0] == b"t,w1,w2,w3"
    assert text == expected
