import pytest

from metaplectic.certify import run_certification
from metaplectic.errors import DomainError


def test_check_filter_refuses_unknown_ids():
    with pytest.raises(DomainError, match="unknown check ids: algebra_unit_valuez$"):
        run_certification(0, check_filter=["algebra_unit_values", "algebra_unit_valuez"])
    # a bare string is refused, not read as a sequence of one-letter ids
    with pytest.raises(DomainError, match="not the string 'algebra_unit_values'"):
        run_certification(0, check_filter="algebra_unit_values")
