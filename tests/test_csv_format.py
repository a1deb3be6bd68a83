"""Every CSV cell is Python's ``%.16e`` of its double, byte for byte.

``write_csv`` formats in numpy: it scales |x| by a power of ten held as a
double-double and prints the integer part, and hands zeros, non-finite
values, |x| outside ``cli.FMT_RANGE`` and near-ties to Python.  Each set
below is written as one column and compared with Python's own formatting.
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
