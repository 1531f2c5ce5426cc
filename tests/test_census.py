import pytest

import spineforge as sf
from spineforge.census import CENSUS, build_census
from spineforge.simplicial import InvalidComplexError, Metric

from helpers import census_self_check


def test_registry_names():
    assert sf.census_names() == ("circle3", "sphere_tet", "torus7",
                                 "rp2_6", "sphere3_pent")


def test_unknown_name():
    with pytest.raises(InvalidComplexError):
        build_census("klein")


def test_f_vectors(census):
    for name, entry in CENSUS.items():
        assert census[name].f_vector == entry.f_vector


def test_torus7_orbit_construction(census):
    c = census["torus7"]
    assert len(set(c.top_simplices)) == 14
    # every edge of K7 appears: the 1-skeleton is complete
    assert len(c.faces[1]) == 21


def test_embedded_census_is_nondegenerate(census):
    # strict triangle inequalities guarantee positive area per triangle
    for name in ("circle3", "sphere_tet", "torus7"):
        c = census[name]
        m = Metric.from_complex(c)
        if c.dimension < 2:
            continue
        for a, b, d in c.faces[2]:
            lab, lad, lbd = m.length(a, b), m.length(a, d), m.length(b, d)
            assert lab + lad - lbd > 1e-6
            assert lab + lbd - lad > 1e-6
            assert lad + lbd - lab > 1e-6


def test_unembeddable_entries_carry_no_coords(census):
    assert census["rp2_6"].vertex_coords is None
    assert census["sphere3_pent"].vertex_coords is None


def test_self_check_runs():
    census_self_check()
