"""The bulk CSV formatter against Python's own ``repr``, byte for byte."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from uwachan import csvtext


def repr_lines(values) -> bytes:
    return "".join(repr(v) + "\n" for v in np.asarray(values, dtype=float).ravel().tolist()).encode()


def bulk_lines(values) -> bytes:
    return csvtext.join_rows([csvtext.float_fields(values)])


def assert_matches_repr(values):
    values = np.asarray(values, dtype=float)
    got, want = bulk_lines(values).split(b"\n"), repr_lines(values).split(b"\n")
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert not wrong, f"{len(wrong)} of {values.size} differ, e.g. (repr, bulk) {wrong[:5]}"
    assert len(got) == len(want)


def test_seeded_sweep_over_every_magnitude():
    # 200k values, both signs, log-uniform from 1e-320 (subnormal) to 1e308
    rng = np.random.default_rng(20211806)
    magnitudes = 10.0 ** rng.uniform(-320.0, 308.0, 200_000)
    assert_matches_repr(magnitudes * rng.choice([-1.0, 1.0], magnitudes.size))


def test_seeded_sweep_of_simulator_scales():
    # delays, amplitudes and grids: ~1e-12 to 1e4, where the layout switches
    rng = np.random.default_rng(7)
    assert_matches_repr(10.0 ** rng.uniform(-12.0, 18.0, 100_000) * rng.choice([-1.0, 1.0], 100_000))


def _shortest_of_each_length() -> list[float]:
    """For n = 1..17, values whose shortest repr has n significant digits."""
    digits = "12345678912345678"
    found = {}
    for n in range(1, 18):
        for exponent in (-300, -20, -5, -4, -1, 0, 3, 15, 16, 22, 300):
            value = float(f"{digits[0]}.{digits[1:n]}e{exponent}")
            mantissa = repr(value).split("e")[0].replace("-", "").replace(".", "").strip("0")
            found.setdefault(len(mantissa), []).append(value)
    found.setdefault(17, []).append(0.1 + 0.2)  # 0.30000000000000004
    assert sorted(found) == list(range(1, 18))
    return [v for values in found.values() for v in values]


def _edge_values() -> list[float]:
    edges = [10.0**k for k in range(-30, 31)] + [2.0**k for k in range(-100, 101)]
    edges += [1e16, 1e-4, 1e-5, 2.0**53 + 2, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    edges += _shortest_of_each_length()
    # exact ties between two shortest candidates: the 17th digit (quarters
    # next to 2**50) and the 16th (t / 2**17 in [0.5, 1) for odd t)
    edges += [2.0**50 + q for q in (0.25, 0.75, 1.25, 1.75)] + [t / 2.0**17 for t in range(65537, 65600, 2)]
    with np.errstate(over="ignore"):
        neighbours = [np.nextafter(v, d) for v in edges for d in (-math.inf, math.inf)]
    edges += [float(v) for v in neighbours]
    edges += [0.0, -0.0, math.nan, math.inf, -math.inf]
    return edges + [-v for v in edges]


def test_edge_values():
    assert_matches_repr(_edge_values())


@pytest.mark.parametrize("size", [0, 1, 2, 7])
def test_small_and_empty_columns(size):
    assert_matches_repr(np.linspace(-1.5, 1e20, size))


def test_repr_runs_only_for_flagged_values(monkeypatch):
    # the bulk path writes all but a handful of ordinary values
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(csvtext, "repr", counting_repr, raising=False)
    rng = np.random.default_rng(3)
    values = rng.standard_normal(100_000) * 10.0 ** rng.integers(-12, 12, 100_000)
    assert bulk_lines(values) == repr_lines(values)
    assert len(calls) < 20
    special = [0.0, -0.0, math.nan, math.inf, 5e-324, 0.5]
    assert bulk_lines(special) == repr_lines(special)
    assert calls[-len(special) :] == pytest.approx(special, nan_ok=True)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 5000), elements=st.floats()))
def test_any_float_array_matches_repr(values):
    assert bulk_lines(values) == repr_lines(values)


def test_text_fields_are_utf8_and_may_be_empty():
    fields = csvtext.text_fields(["los", "", "da_s1_b0#3", "é"])
    assert csvtext.join_rows([fields, fields]) == "los,los\n,\nda_s1_b0#3,da_s1_b0#3\né,é\n".encode()
    assert csvtext.text_fields([]).shape[0] == 0
