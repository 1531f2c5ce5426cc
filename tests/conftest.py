import pytest

import spineforge as sf
from spineforge.chart import build_chart
from spineforge.simplicial import Metric

from helpers import census_self_check


@pytest.fixture(scope="session", autouse=True)
def census_gate():
    # every census entry must match its expected f-vector, links and homology
    # before any test trusts it
    census_self_check()


@pytest.fixture(scope="session")
def census():
    return {name: sf.build_census(name) for name in sf.census_names()}


@pytest.fixture(scope="session")
def charts(census):
    """Default-decomposition chart per census complex (bfs from facet 0)."""
    out = {}
    for name, c in census.items():
        d = sf.decompose(c, root=0, strategy="bfs", seed=0)
        out[name] = build_chart(c, d, Metric.from_complex(c))
    return out
