"""Built-in triangulations used as test subjects and CLI inputs.

Facet lists are derived where a construction exists (simplex boundaries, the
mod-7 orbit torus).  Each entry records its expected f-vector and homology,
and the test suite checks every entry against them before trusting any, so
a transcription slip cannot propagate silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .simplicial import InvalidComplexError, SimplicialComplex


@dataclass(frozen=True)
class CensusEntry:
    name: str
    builder: object            # () -> SimplicialComplex
    f_vector: tuple
    homology: tuple            # per degree: (betti, torsion tuple)


def _circle3() -> SimplicialComplex:
    coords = [(math.cos(a), math.sin(a))
              for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)]
    return SimplicialComplex(1, [(0, 1), (1, 2), (0, 2)], vertex_coords=coords)


def _sphere_tet() -> SimplicialComplex:
    coords = [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)]
    return SimplicialComplex(2, list(combinations(range(4), 3)), vertex_coords=coords)


def _torus7() -> SimplicialComplex:
    tops = set()
    for i in range(7):
        tops.add(tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))))
        tops.add(tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))))
    # Flat-torus lattice positions pushed onto a torus of revolution; only
    # per-triangle nondegeneracy matters for the metric.
    coords = []
    big, small = 2.0, 1.0
    for j in range(7):
        u = 2 * math.pi * j / 7
        v = 2 * math.pi * (3 * j % 7) / 7
        coords.append(((big + small * math.cos(v)) * math.cos(u),
                       (big + small * math.cos(v)) * math.sin(u),
                       small * math.sin(v)))
    return SimplicialComplex(2, sorted(tops), vertex_coords=coords)


def _rp2_6() -> SimplicialComplex:
    # 6-vertex hemi-icosahedron
    tops = [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
            (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)]
    return SimplicialComplex(2, tops)


def _sphere3_pent() -> SimplicialComplex:
    return SimplicialComplex(3, list(combinations(range(5), 4)))


CENSUS = {
    "circle3": CensusEntry(
        "circle3", _circle3, (3, 3),
        ((1, ()), (1, ()))),
    "sphere_tet": CensusEntry(
        "sphere_tet", _sphere_tet, (4, 6, 4),
        ((1, ()), (0, ()), (1, ()))),
    "torus7": CensusEntry(
        "torus7", _torus7, (7, 21, 14),
        ((1, ()), (2, ()), (1, ()))),
    "rp2_6": CensusEntry(
        "rp2_6", _rp2_6, (6, 15, 10),
        ((1, ()), (0, (2,)), (0, ()))),
    "sphere3_pent": CensusEntry(
        "sphere3_pent", _sphere3_pent, (5, 10, 10, 5),
        ((1, ()), (0, ()), (0, ()), (1, ()))),
}


def census_names():
    return tuple(CENSUS)


def build_census(name: str) -> SimplicialComplex:
    try:
        entry = CENSUS[name]
    except KeyError:
        raise InvalidComplexError(
            f"unknown census name {name!r}; known: {', '.join(CENSUS)}")
    return entry.builder()
