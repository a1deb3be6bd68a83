"""Every CSV cell is Python's ``%.16e`` of its double, byte for byte.

``write_csv`` formats in numpy: it scales |x| by a power of ten held as a
double-double and prints the integer part, writes zeros from the record of
1, and hands non-finite values, |x| > 0 outside ``cli.FMT_RANGE`` and
near-ties to Python.  Each set below is written as one column and compared
with Python's own formatting; the tables at the end hold runs of equal
values down their columns, which the writer formats once per run.
"""

import numpy as np
import pytest

from nmbath import cli


def assert_formats_like_python(tmp_path, values):
    values = np.asarray(values, dtype=np.float64)
    path = tmp_path / "x.csv"
    cli.write_csv(str(path), ["x"], [values])
    expected = "x\n" + "".join("%.16e\n" % v for v in values.tolist())
    lines = path.read_bytes().decode("utf-8").split("\n")
    bad = [(got, want) for got, want in zip(lines, expected.split("\n")) if got != want]
    assert not bad, f"{len(bad)} cells differ, first {bad[:3]}"
    assert path.read_bytes() == expected.encode("utf-8")


def powers_of_ten():
    return np.array([float(f"1e{k}") for k in range(-300, 301)])


def test_random_bit_patterns(tmp_path):
    # any double of either sign: normals over the whole exponent range,
    # subnormals, infinities and NaN payloads
    bits = np.random.default_rng(20240517).integers(0, 2**64, size=2**20, dtype=np.uint64)
    assert_formats_like_python(tmp_path, bits.view(np.float64))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_powers_of_ten_and_their_neighbours(tmp_path, sign):
    p = sign * powers_of_ten()
    assert_formats_like_python(tmp_path, np.concatenate(
        [p, np.nextafter(p, np.inf), np.nextafter(p, -np.inf)]))


def test_double_just_below_a_power_of_ten(tmp_path):
    # the double nearest 1e-248 lies below it, and log10 rounds it up to -248:
    # the exponent comes from the digits before rounding, which say -249
    x = 1e-248
    assert np.floor(np.log10(x)) == -248 and "%.16e" % x == "9.9999999999999998e-249"
    assert_formats_like_python(tmp_path, [x, -x])


def test_halves_and_ties(tmp_path):
    k = np.arange(-100000, 100000, dtype=np.float64)
    # odd multiples of 1/4 near 1e15 and of 1/8 near 1e14 lie exactly halfway
    # between two 17-digit decimals, which round to the even one
    odd = 2.0 * np.random.default_rng(7).integers(2**51, 2**52, size=20000) + 1.0
    assert_formats_like_python(tmp_path, np.concatenate(
        [k / 2, k / 8, odd / 4, -odd / 4, odd / 8, -odd / 8, odd / 2, odd]))


def test_edge_values(tmp_path):
    tiny = np.finfo(np.float64).tiny
    lo, hi = cli.FMT_RANGE
    subnormals = [5e-324, 1e-310, np.nextafter(tiny, 0.0), tiny]
    table_edges = [lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, np.inf), lo / 10, hi * 10,
                   np.finfo(np.float64).max]
    three_digit_exponents = [1e100, np.nextafter(1e100, 0.0), 1e-100, 1.5e-200, 7.25e250,
                             1.0000000000000002e-101]
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                     0x7FF0000000000001, 0xFFF0000000000123], dtype=np.uint64).view(np.float64)
    edge = np.concatenate([subnormals, table_edges, three_digit_exponents, nans,
                           [np.inf, -np.inf, 0.0, -0.0]])
    assert_formats_like_python(tmp_path, np.concatenate([edge, -edge]))


def run_tables():
    """Tables whose columns hold long runs, alternations and runs across the block edges."""
    rng = np.random.default_rng(31)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001],
                    dtype=np.uint64).view(np.float64)
    specials = np.concatenate([nans, [0.0, -0.0, np.inf, -np.inf, 5e-324, -1e-310,
                                      np.nextafter(np.finfo(float).tiny, 0.0)]])
    # near-ties: odd multiples of 1/4 near 1e15 and their neighbours
    tie = (2.0 * rng.integers(2**51, 2**52, size=4) + 1.0) / 4
    near = np.concatenate([tie, np.nextafter(tie, np.inf), np.nextafter(tie, -np.inf)])
    n = 97
    long_runs = np.repeat(rng.choice(np.concatenate([specials, near, [1 / 3]]), 7), 14)[:n]
    alternating = np.resize([0.0, -0.0], n)
    flicker = np.resize(np.concatenate([specials, near]), n)
    constant = np.full(n, -2.5)
    spread = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    full = np.stack([long_runs, alternating, flicker, constant, spread], axis=1)
    # a column that starts with the value that ends the one before it
    twins = np.stack([constant, constant, long_runs, long_runs[::-1]], axis=1)
    return {"full": full, "single_row": full[:1], "single_column": full[:, :1],
            "one_cell": full[:1, 2:3], "runs_in_one_column": long_runs[:, None],
            "twin_columns": twins}


@pytest.mark.parametrize("name", list(run_tables()))
@pytest.mark.parametrize("cells", [None, 1, 7, 13], ids=["default", "one_row", "cells7", "cells13"])
def test_runs_down_columns_format_like_python(tmp_path, monkeypatch, name, cells):
    if cells is not None:
        monkeypatch.setattr(cli, "CSV_CELLS", cells)
    table = run_tables()[name]
    header = [f"c{j}" for j in range(table.shape[1])]
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), header, list(table.T))
    expected = ",".join(header) + "\n" + "".join(
        ",".join("%.16e" % v for v in row) + "\n" for row in table.tolist())
    assert path.read_bytes() == expected.encode("utf-8")
