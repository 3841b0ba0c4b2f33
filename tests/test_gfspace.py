import numpy as np
import pytest
from hypothesis import given, strategies as st

from ap3.gfspace import (
    DensityFunction,
    Element,
    FileFormatError,
    GroupParams,
    PointSet,
    digits_to_index,
    elem_op,
    expectation,
    index_to_digits,
    load_density,
    load_set,
    save_density,
    save_set,
)


class TestGroupParams:
    def test_rejects_p2(self):
        with pytest.raises(ValueError):
            GroupParams(2, 3)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            GroupParams(9, 1)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            GroupParams(3, 0)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            GroupParams(3, 200)

    def test_size(self):
        assert GroupParams(3, 4).size == 81


class TestDigits:
    def test_zero(self):
        assert index_to_digits(0, GroupParams(3, 2)) == (0, 0)

    def test_base_p_expansion(self):
        assert index_to_digits(5, GroupParams(3, 2)) == (2, 1)
        assert index_to_digits(7, GroupParams(5, 2)) == (2, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            index_to_digits(9, GroupParams(3, 2))

    @given(st.integers(0, 3**4 - 1))
    def test_roundtrip(self, i):
        params = GroupParams(3, 4)
        assert digits_to_index(index_to_digits(i, params), params) == i


class TestElement:
    def test_add(self):
        params = GroupParams(3, 2)
        a = Element(params, digits_to_index((1, 2), params))
        b = Element(params, digits_to_index((2, 2), params))
        assert (a + b).digits == (0, 1)

    def test_scale(self):
        params = GroupParams(3, 2)
        a = Element(params, digits_to_index((1, 2), params))
        assert a.scale(2).digits == (2, 1)

    def test_sub_self_is_zero(self):
        params = GroupParams(5, 3)
        for i in [0, 7, 124]:
            x = Element(params, i)
            assert (x - x).index == 0

    def test_order_p(self):
        params = GroupParams(3, 2)
        x = Element(params, 5)
        assert x.scale(3).index == 0

    def test_params_mismatch(self):
        with pytest.raises(ValueError):
            elem_op(Element(GroupParams(3, 1), 1), Element(GroupParams(5, 1), 1), "add")


class TestDensityFunction:
    def test_range_validation(self):
        params = GroupParams(3, 1)
        with pytest.raises(ValueError):
            DensityFunction(params, np.array([0.0, 0.5, 1.5]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DensityFunction(GroupParams(3, 1), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite|outside"):
            DensityFunction(GroupParams(3, 1), np.array([0.0, bad, 1.0]))

    def test_immutable(self):
        f = DensityFunction.constant(GroupParams(3, 1), 0.5)
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestExpectation:
    def test_constant(self):
        f = DensityFunction.constant(GroupParams(3, 2), 1.0)
        assert expectation(f) == 1.0

    def test_indicator(self):
        params = GroupParams(3, 1)
        f = PointSet(params, (0, 1)).density()
        assert expectation(f) == pytest.approx(2 / 3)

    def test_over_subset(self):
        params = GroupParams(3, 1)
        f = DensityFunction(params, np.array([0.25, 0.25, 1.0]))
        assert expectation(f, PointSet(params, (0, 1))) == pytest.approx(0.25)

    def test_empty_subset(self):
        params = GroupParams(3, 1)
        f = DensityFunction.constant(params, 0.5)
        with pytest.raises(ValueError):
            expectation(f, PointSet(params, ()))


class TestFiles:
    def test_load_simple(self, tmp_path):
        path = tmp_path / "f.apf"
        path.write_text("3 1\n1 1 0\n")
        f = load_density(str(path))
        assert list(f.values) == [1.0, 1.0, 0.0]

    def test_roundtrip(self, tmp_path, rng):
        params = GroupParams(5, 2)
        f = DensityFunction(params, rng.random(params.size))
        path = tmp_path / "f.apf"
        save_density(f, str(path))
        g = load_density(str(path))
        assert np.array_equal(f.values, g.values)

    def test_short_body(self, tmp_path):
        path = tmp_path / "f.apf"
        path.write_text("3 1\n1 1\n")
        with pytest.raises(FileFormatError, match="body length 2"):
            load_density(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "f.apf"
        path.write_text("3 1\n1 2 0\n")
        with pytest.raises(FileFormatError, match="outside"):
            load_density(str(path))

    @pytest.mark.parametrize("tok", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, tok):
        path = tmp_path / "f.apf"
        path.write_text(f"3 1\n1 {tok} 0\n")
        with pytest.raises(FileFormatError, match="field 2: value .* is not finite"):
            load_density(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.apf"
        path.write_text("4 1\n0 0 0 0\n")
        with pytest.raises(FileFormatError):
            load_density(str(path))

    def test_set_roundtrip(self, tmp_path):
        s = PointSet(GroupParams(3, 2), (0, 3, 8))
        path = tmp_path / "s.aps"
        save_set(s, str(path))
        assert load_set(str(path)).members == (0, 3, 8)

    def test_set_not_ascending(self, tmp_path):
        path = tmp_path / "s.aps"
        path.write_text("3 2\n3 0\n")
        with pytest.raises(FileFormatError, match="ascending"):
            load_set(str(path))
