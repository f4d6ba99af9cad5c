"""The CSV writer's cells must be byte for byte what ``"%.16e" % value`` gives."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from realclock_qm import cli
from realclock_qm.cli import RunResult, write_csv


def format_cell(value):  # the writer's former per-cell rule
    if isinstance(value, str):
        return value
    return "%.16e" % value


def expected_lines(columns, rows):
    return [",".join(columns)] + [",".join(format_cell(v) for v in row) for row in rows]


def written_lines(columns, rows):
    fh = io.BytesIO()
    cli._write_table(fh, columns, rows)
    text = fh.getvalue().decode()
    assert text.endswith("\n")
    return text[:-1].split("\n")


def assert_cells_match(values, n_cols=1):
    """Write ``values`` as a float table of ``n_cols`` columns and compare."""
    array = np.asarray(values, dtype=float).reshape(-1, n_cols)
    columns = [f"c{j}" for j in range(n_cols)]
    got = written_lines(columns, array)
    want = expected_lines(columns, array.tolist())
    mismatches = [(g, w) for g, w in zip(got, want) if g != w]
    assert not mismatches, mismatches[:5]
    assert len(got) == len(want)


def test_rounding_ties_go_half_even():
    values = [sign * m * 2.0**-k for k in range(1075) for m in (1, 3) for sign in (1, -1)]
    assert_cells_match(values)
    assert written_lines(["c"], np.array([[2.0**-25]]))[1] == "2.9802322387695312e-08"


def test_powers_of_ten_and_their_neighbours():
    values = []
    for k in range(-99, 100):
        p = 10.0**k
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    assert_cells_match(values)


def test_mantissa_just_below_a_power_of_ten():
    # log10 puts this value at exponent -7; its digits belong to exponent -8
    assert written_lines(["c"], np.array([[9.9999999999999995e-08]]))[1] == \
        "9.9999999999999995e-08"


def test_special_values():
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              -1.7976931348623157e308, float("nan"), float("inf"), -float("inf"),
              1e99, 9.999999999999999e98, 1e-99, 1e-100, 1.0, -1.0, 0.1]
    assert_cells_match(values)


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_exponent_estimate_off_by_one_falls_back(monkeypatch, shift):
    # a log10 that is one off everywhere must cost speed, never a wrong digit
    values = np.array([[0.1, 1.0, 9.9999999999999995e-08, -123.456, 5e-99, 9e98]])
    true_log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: true_log10(a) + shift)
    out = np.empty(values.shape + (24,), dtype=np.uint8)
    exact = cli._format_cells(values, out.view(np.uint32), np.zeros(6, dtype=np.uint32))
    assert not exact.any()
    assert_cells_match(values, n_cols=6)


def test_int_bool_and_numpy_cells():
    rows = [[7, True, np.float64(0.1), 2**60 + 1, -3, False, np.float64(-2.5e-300)]]
    columns = [f"c{j}" for j in range(7)]
    assert written_lines(columns, rows) == expected_lines(columns, rows)


def test_random_bit_patterns():
    rng = np.random.default_rng(20261021)
    raw = rng.integers(-2**63, 2**63, 70000, dtype=np.int64).view(np.float64)
    assert_cells_match(raw, n_cols=7)
    # sign, any mantissa, decimal exponents around the fast path's [-99, 98]
    exponent = rng.integers(1023 - 340, 1023 + 340, 70000).astype(np.uint64)
    mantissa = rng.integers(0, 2**52, 70000).astype(np.uint64)
    sign = rng.integers(0, 2, 70000).astype(np.uint64)
    bits = (sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa
    assert_cells_match(bits.view(np.float64), n_cols=7)


@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_float(values):
    assert_cells_match(values)


def test_fast_path_covers_ordinary_cells():
    # a double above about 1e12 has so few fractional bits that its 18th
    # significant digit is often an exact 5, a tie left to printf; below, never
    rng = np.random.default_rng(7)
    values = rng.standard_normal((3000, 7)) * 10.0 ** rng.uniform(-95, 10, (3000, 7))
    values[0, 0] = 0.0
    values[1, 1] = -0.0
    out = np.empty(values.shape + (24,), dtype=np.uint8)
    exact = cli._format_cells(values, out.view(np.uint32), np.zeros(7, dtype=np.uint32))
    assert exact[:2].all() and exact.mean() > 0.999  # zeros included
    awkward = np.array([[2.0**-25], [9.9999999999999995e-08], [np.nan], [1e-200], [0.25]])
    out = np.empty(awkward.shape + (24,), dtype=np.uint8)
    exact = cli._format_cells(awkward, out.view(np.uint32), np.zeros(1, dtype=np.uint32))
    assert exact.tolist() == [False, False, False, False, True]


def test_one_row_empty_and_mixed_tables(tmp_path):
    result = RunResult(
        columns=["a", "b"], rows=np.array([[1.5, -2.0]]),
        tables=[("mixed", ["mode", "t", "abs_z"],
                 [["ideal", 1.5, np.float64(0.1)], ["realclock", -0.0, 2**-25]]),
                ("empty", ["x", "y"], []),
                ("empty_array", ["x"], np.empty((0, 1)))],
    )
    document = {"command": "zurek", "seed": 0}
    expected = ["# realclock-qm output", "# config: " + json.dumps(document, sort_keys=True)]
    expected += expected_lines(result.columns, result.rows.tolist())
    for name, columns, rows in result.tables:
        expected += ["", f"# table: {name}"] + expected_lines(columns, list(rows))
    out = tmp_path / "o.csv"
    write_csv(str(out), document, result)
    assert out.read_bytes() == ("\n".join(expected) + "\n").encode()


@pytest.mark.parametrize("n_cols", [1, 7, 515])
def test_fallback_rows_across_blocks(n_cols):
    block_rows = max(1, cli.BLOCK_CELLS // n_cols)
    n_rows = 3 * block_rows + 5
    rng = np.random.default_rng(n_cols)
    values = rng.standard_normal((n_rows, n_cols))
    fallback = [0, block_rows - 1, block_rows, block_rows + block_rows // 2,
                2 * block_rows - 1, 2 * block_rows, n_rows - 1]
    tie = [2.0**-25, np.nan, -np.inf, 1e-150, 9.9999999999999995e-08]
    for i, row in enumerate(fallback):
        values[row, i % n_cols] = tie[i % len(tie)]
    columns = [f"c{j}" for j in range(n_cols)]
    assert written_lines(columns, values) == expected_lines(columns, values.tolist())
