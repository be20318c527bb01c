import math
from fractions import Fraction

import numpy as np
import pytest

from wulffkit import table
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


def _template(data, header):
    """The bytes of the ``%.18e`` row template, the writer's fallback and oracle."""
    row = ",".join(["%.18e"] * data.shape[1]) + "\n"
    return (header + "\n" + row * len(data) % tuple(data.ravel().tolist())).encode()


def _exact_share(data):
    """The share of values the writer spells without the template."""
    return table._spell(data.reshape(-1, 1))[2].mean()


def _check(tmp_path, data):
    write_csv(tmp_path / "new.csv", x=data)
    header = ",".join(f"x{i + 1}" for i in range(data.shape[1]))
    assert (tmp_path / "new.csv").read_bytes() == _template(data, header)


def test_random_magnitudes_take_the_exact_path(tmp_path):
    rng = np.random.default_rng(11)
    shape = (3 * BLOCK_ROWS, 3)
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-5.0, 20.0, shape)
    assert _exact_share(x) > 0.85
    _check(tmp_path, x)


def test_powers_of_ten_and_their_neighbours(tmp_path):
    p = 10.0 ** np.arange(-6, 24)
    p = np.concatenate([p, 5.0 * p, 9.999999999999999 * p])
    near = [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    near += [np.nextafter(near[1], 0.0), np.nextafter(near[2], np.inf)]
    x = np.concatenate(near)
    x = np.concatenate([x, -x])[:, None]
    assert _exact_share(x) > 0.5
    _check(tmp_path, x)


def test_half_way_ties_round_to_even(tmp_path):
    # odd * 2^-(19 - E) in [10^E, 10^(E+1)) lies exactly half way between
    # two 19-digit significands
    rng = np.random.default_rng(5)
    ties = []
    for e in range(-4, 14):
        lo, hi = Fraction(10) ** e * 2 ** (19 - e), Fraction(10) ** (e + 1) * 2 ** (19 - e)
        k = 2 * rng.integers(int(lo) // 2 + 1, int(hi) // 2, 50) + 1
        ties.append(np.ldexp(k.astype(float), e - 19))
    ties = np.concatenate(ties)
    for t in ties.tolist():
        e = math.floor(math.log10(t))
        assert (Fraction(t) * Fraction(10) ** (18 - e)).denominator == 2
    # short decimals ending in 5, which a rounding slip would also move
    k = np.arange(1.0, 2001.0)
    x = np.concatenate([ties, k * 0.5, k * 0.125, 1e14 + 0.5 + k])
    x = np.concatenate([x, -x])[:, None]
    assert _exact_share(x) == 1.0
    _check(tmp_path, x)


def test_fallback_rows_mix_with_exact_rows_across_blocks(tmp_path):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2 * BLOCK_ROWS + 5, 4))
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-5, 1e300, 1e19]
    # single fallback rows and runs of them, at and next to block edges
    for r in [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 4]:
        x[r, rng.integers(4)] = rng.choice(special)
    x[100:140, 2] = 0.0
    assert 0.95 < _exact_share(x) < 1.0
    _check(tmp_path, x)


def test_forced_fallback_gives_the_same_bytes(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((BLOCK_ROWS + 9, 3)) * 10.0 ** rng.integers(-6, 21, (BLOCK_ROWS + 9, 3))
    x[::7, 1] = 0.0
    write_csv(tmp_path / "exact.csv", x=x)
    spell = table._spell

    def percent_only(block):
        text, keep, exact = spell(block)
        return text, keep, np.zeros_like(exact)

    monkeypatch.setattr(table, "_spell", percent_only)
    write_csv(tmp_path / "percent.csv", x=x)
    assert (tmp_path / "exact.csv").read_bytes() == (tmp_path / "percent.csv").read_bytes()
