import math

import pytest

from metaplectic import certify
from metaplectic.certify import run_certification
from metaplectic.errors import DomainError


def test_check_filter_refuses_unknown_ids():
    with pytest.raises(DomainError, match="unknown check ids: algebra_unit_valuez$"):
        run_certification(0, check_filter=["algebra_unit_values", "algebra_unit_valuez"])
    # a bare string is refused, not read as a sequence of one-letter ids
    with pytest.raises(DomainError, match="not the string 'algebra_unit_values'"):
        run_certification(0, check_filter="algebra_unit_values")


def test_phi_branch_profile_surfaces_foreign_errors(monkeypatch):
    """Only a DomainError from branch_profile is a failed check; anything else is a bug and propagates."""
    def broken(gamma, points):
        raise TypeError("not a branch-profile failure")

    monkeypatch.setattr(certify, "branch_profile", broken)
    with pytest.raises(TypeError, match="not a branch-profile failure"):
        run_certification(2, check_filter=["phi_branch_profile"])


def test_worst_keeps_the_first_nan():
    worst = certify._Worst()
    worst.see(1.0, at=1)
    worst.see(float("nan"), at=2)
    worst.see(5.0, at=3)
    worst.see(float("nan"), at=4)
    assert math.isnan(worst.value) and worst.witness == {"at": 2}


def test_nan_residual_fails_its_check(monkeypatch):
    monkeypatch.setattr(certify, "composition_residual", lambda *args: float("nan"))
    report = run_certification(2, check_filter=["action_composition"])
    (check,) = report["checks"]
    assert check["pass"] is False and math.isnan(check["max_residual"])
    assert report["pass"] is False
