from hypothesis import given, strategies as st

from transduce.tensors import VOIGT_PAIRS


class TestVoigtPacking:
    def test_convention_anchors(self):
        # The crystallographic order (00, 11, 22, 12, 02, 01): a diagonal
        # pair packs to its axis, which the Miller chain relies on.
        assert VOIGT_PAIRS == ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))

    @given(st.integers(0, 2), st.integers(0, 2))
    def test_symmetric_and_roundtrips(self, i, j):
        # Both orders of a pair pack to the one index of its sorted pair.
        assert VOIGT_PAIRS.count(tuple(sorted((i, j)))) == 1

    def test_bijection_on_pairs(self):
        assert sorted(VOIGT_PAIRS) == [(i, j) for i in range(3) for j in range(i, 3)]
