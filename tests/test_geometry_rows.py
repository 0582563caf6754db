"""``unique_rows`` finds the classes ``np.unique(axis=0)`` finds, in the same order."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry import unique_rows

keys = st.integers(min_value=1, max_value=6).flatmap(
    lambda width: arrays(
        np.int64,
        st.tuples(st.integers(min_value=0, max_value=60), st.just(width)),
        elements=st.integers(min_value=-3, max_value=3),
    )
)


@settings(max_examples=200, deadline=None)
@given(keys)
def test_equals_np_unique(rows):
    first, inverse = unique_rows(rows)
    _, np_first, np_inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    np.testing.assert_array_equal(first, np_first)
    np.testing.assert_array_equal(inverse, np_inverse.ravel())
    np.testing.assert_array_equal(rows[first][inverse], rows)


def test_wide_keys_beyond_one_int64():
    # Six 30-bit columns: too wide to pack into a single int64 key.
    big = 2**30 - 1
    rows = np.array([[big, 0, 1, 2, 3, 4], [big, 0, 1, 2, 3, 5], [big, 0, 1, 2, 3, 4]])
    first, inverse = unique_rows(rows)
    assert first.tolist() == [0, 1]
    assert inverse.tolist() == [0, 1, 0]
