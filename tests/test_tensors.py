import pytest
from hypothesis import given, strategies as st

from transduce.tensors import VOIGT_PAIRS, voigt_index, voigt_pair


class TestVoigtPacking:
    def test_convention_anchors(self):
        assert voigt_index(0, 0) == 0
        assert voigt_index(1, 1) == 1
        assert voigt_index(2, 2) == 2
        assert voigt_index(1, 2) == 3
        assert voigt_index(2, 1) == 3
        assert voigt_index(0, 2) == 4
        assert voigt_index(0, 1) == 5

    @given(st.integers(0, 2), st.integers(0, 2))
    def test_symmetric_and_roundtrips(self, i, j):
        v = voigt_index(i, j)
        assert v == voigt_index(j, i)
        assert voigt_pair(v) == tuple(sorted((i, j)))

    def test_bijection_on_pairs(self):
        assert sorted(voigt_index(i, j) for i, j in VOIGT_PAIRS) == list(range(6))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            voigt_index(3, 0)
        with pytest.raises(ValueError):
            voigt_index(0, -1)
        with pytest.raises(ValueError):
            voigt_pair(6)
