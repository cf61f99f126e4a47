from dataclasses import replace

import numpy as np
import pytest

from metaplectic.cover import enumerate_cover
from metaplectic.qseries import CERTIFY_CONFIG
from metaplectic.slash import slash, worst_residual


@pytest.fixture(scope="session")
def cover4():
    """Depth-4 enumeration: enough variety for sampled algebra/analysis tests."""
    return enumerate_cover(4)


@pytest.fixture(scope="session")
def cover7():
    """Depth-7 enumeration: the deep universe the array passes are checked against their oracles on."""
    return enumerate_cover(7)


@pytest.fixture(scope="session")
def qcfg():
    """Series config used by the certification suite (reduction on)."""
    return CERTIFY_CONFIG


@pytest.fixture(scope="session")
def raw_cfg():
    """Same truncation budget with fundamental-domain reduction disabled."""
    return replace(CERTIFY_CONFIG, reduce=False)


@pytest.fixture(scope="session")
def composition_residual():
    """The scalar reference of ``slash.composition_residuals`` for one pair: max over points and components
    of |((f|x)|y - f|(x*y))(z)|, through ``slash`` and ``HoloFn.at``."""
    def residual(f, weight, x, y, points):
        lhs, rhs = slash(slash(f, weight, x), weight, y), slash(f, weight, x * y)
        return worst_residual(np.max(np.abs(lhs.at(z) - rhs.at(z))) for z in points)
    return residual
