"""The typed field readers shared by every file format."""

import math

import pytest

from ebrguard.jsonl import json_number


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_number_rejects_non_finite_values(value):
    with pytest.raises(TypeError, match="is not a finite number"):
        json_number(value, "x")
