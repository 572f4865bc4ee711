"""The four value rules every config dataclass and document loader applies."""

import math

import numpy as np
import pytest

from tabdistill.errors import (
    DataError,
    require_choice,
    require_flag,
    require_integer,
    require_number,
)


class TestRequireNumber:
    @pytest.mark.parametrize("value", [0, 0.5, 1, 1.0, np.float32(0.25), np.int64(1)])
    def test_in_closed_range_is_returned_as_given(self, value):
        assert require_number(value, "beta", 0, 1) is value

    @pytest.mark.parametrize("value, ends", [(0, "(]"), (1, "[)"), (0.0, "()")])
    def test_open_end_excludes_its_bound(self, value, ends):
        with pytest.raises(DataError, match=rf"x must lie in \{ends[0]}0, 1\{ends[1]}"):
            require_number(value, "x", 0, 1, ends)

    @pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5], math.nan,
                                       math.inf, -math.inf, 10 ** 400, np.bool_(True)])
    def test_not_a_finite_number(self, value):
        with pytest.raises(DataError, match=r"leaf value must be finite, got "):
            require_number(value, "leaf value")

    def test_lower_bound_of_zero_alone(self):
        assert require_number(0, "eps", 0) == 0
        with pytest.raises(DataError, match="eps must be nonnegative and finite"):
            require_number(-1e-9, "eps", 0)
        with pytest.raises(DataError, match="rate must be positive and finite, got 0"):
            require_number(0, "rate", 0, ends="()")
        with pytest.raises(DataError, match="rate must be positive and finite"):
            require_number(math.inf, "rate", 0, ends="()")


class TestRequireInteger:
    @pytest.mark.parametrize("value", [1.0, 1.5, True, "2", None, -1])
    def test_rejects(self, value):
        with pytest.raises(DataError, match=r"n must be an integer >= 0, got "):
            require_integer(value, "n")

    def test_numpy_integer_becomes_int(self):
        value = require_integer(np.int16(3), "n", low=3)
        assert value == 3 and type(value) is int


class TestRequireFlag:
    @pytest.mark.parametrize("value", [True, False])
    def test_accepts_bools(self, value):
        assert require_flag(value, "f") is value

    @pytest.mark.parametrize("value", ["no", "true", 0, 1, None, np.bool_(True)])
    def test_rejects_anything_else(self, value):
        with pytest.raises(DataError, match="f must be true or false"):
            require_flag(value, "f")


class TestRequireChoice:
    def test_accepts_a_member(self):
        assert require_choice(None, "t", (None, "a")) is None
        assert require_choice("a", "t", (None, "a")) == "a"

    @pytest.mark.parametrize("value", ["b", 1, True, ["a"], np.array(["a"])])
    def test_rejects_anything_else(self, value):
        with pytest.raises(DataError, match=r"t must be one of \[None, 'a'\], got "):
            require_choice(value, "t", (None, "a"))

    def test_equal_values_of_another_type_are_not_members(self):
        with pytest.raises(DataError):
            require_choice(True, "n", (1, 2))
