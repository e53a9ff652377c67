"""The Cephes ``ndtri`` port against ``scipy.special.ndtri``, bit for bit.

Synthesis draws every view duration through
:func:`repro.stats.normal.ndtri`, and the dataset's identity (its
goldens, the benchmark fingerprints) was recorded with scipy's.  So
the port must return scipy's bits, not a close value: each input set
below compares the two results' bits, a NaN counting as equal to any
NaN.  scipy is a test-only dependency.
"""

from __future__ import annotations

import math
import struct
from typing import List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri as scipy_ndtri

from repro.stats.normal import ndtri

#: exp(-2), where the central approximation gives way to the tails, and
#: exp(-32), where the tails switch coefficient sets (x = 8).
_E2 = math.exp(-2.0)
_E32 = math.exp(-32.0)

#: Neighbours taken on each side of a switch point.
_NEIGHBOURS = 64


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _mismatches(values: List[float]) -> List[tuple]:
    """The values whose port and scipy results differ in their bits."""
    expected = scipy_ndtri(np.array(values, dtype=np.float64)).tolist()
    return [
        (p, got, want)
        for p, got, want in zip(values, map(ndtri, values), expected)
        if not (math.isnan(got) and math.isnan(want))
        and _bits(got) != _bits(want)
    ]


def _with_neighbours(x: float) -> List[float]:
    values = [x]
    below = above = x
    for _ in range(_NEIGHBOURS):
        below = math.nextafter(below, -math.inf)
        above = math.nextafter(above, math.inf)
        values += [below, above]
    return values


# Over [0, 1] Hypothesis draws subnormals too, unless told not to.
@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50
    )
)
def test_port_matches_scipy_on_any_probability(values):
    assert _mismatches(values) == []


def test_port_matches_scipy_at_the_edges():
    edges = [0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, -1.0, 2.0]
    switches = [
        5e-324, _E2, 1.0 - _E2, _E32, 1.0 - _E32, 0.5, 1e-9, 1.0 - 1e-9,
    ]
    values = edges + [v for x in switches for v in _with_neighbours(x)]
    assert _mismatches(values) == []
    assert ndtri(0.0) == -math.inf and ndtri(1.0) == math.inf
    assert all(math.isnan(ndtri(p)) for p in (math.nan, -1.0, 2.0))


def test_port_matches_scipy_over_a_seeded_sweep():
    # Uniforms clipped as ``_durations`` clips them.
    uniforms = np.random.default_rng(2018).random(200_000)
    values = np.clip(uniforms, 1e-9, 1.0 - 1e-9).tolist()
    assert _mismatches(values) == []
