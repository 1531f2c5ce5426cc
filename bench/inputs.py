"""Generated benchmark inputs and their start-up self-checks.

Inputs are written here as ``.tri`` / ``.fld`` text, without calling the
package, so the program sees only generated files.  Every family has a
homology known by construction, which makes it ground truth at any size.
"""

from __future__ import annotations

import math
import random

# Unreduced integral homology by degree: (betti, torsion coefficients).
TORUS_HOMOLOGY = ((1, ()), (2, ()), (1, ()))
KLEIN_HOMOLOGY = ((1, ()), (1, (2,)), (0, ()))
# Removing one open triangle leaves a wedge of two circles in both cases.
PUNCTURED_SURFACE_HOMOLOGY = ((1, ()), (2, ()), (0, ()))

SELF_CHECK_K = 4


def _grid_facets(k, vertex):
    """Two triangles per square of the k x k grid, diagonal (i,j)-(i+1,j+1)."""
    facets = []
    for i in range(k):
        for j in range(k):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i + 1, j + 1), vertex(i, j + 1)
            facets.append(tuple(sorted((a, b, c))))
            facets.append(tuple(sorted((a, d, c))))
    return facets


def _tri_text(facets, coords=None):
    out = ["dim 2"]
    if coords is not None:
        out.append("coords 3")
        out.extend(" ".join(repr(x) for x in p) for p in coords)
    out.extend(" ".join(str(v) for v in f) for f in facets)
    return "\n".join(out) + "\n"


def torus_tri(k, big=2.0, small=1.0):
    """k x k torus grid, vertices on a torus of revolution (R=big, r=small)."""
    facets = _grid_facets(k, lambda i, j: (i % k) * k + j % k)
    coords = []
    for i in range(k):
        for j in range(k):
            u, v = 2 * math.pi * i / k, 2 * math.pi * j / k
            ring = big + small * math.cos(v)
            coords.append((ring * math.cos(u), ring * math.sin(u), small * math.sin(v)))
    return _tri_text(facets, coords)


def klein_tri(k):
    """k x k Klein-bottle grid without coordinates: the square's j-sides are
    glued straight, its i-sides with the reflection (i, k) ~ (-i, 0)."""
    def vertex(i, j):
        if j == k:
            i, j = -i, 0
        return (i % k) * k + j
    return _tri_text(_grid_facets(k, vertex))


def linear_fld():
    """Type-(1,1) linear field on R^3 coordinates, one fixed field for every
    seed: offsets and slopes drawn like the acceptance suite's Lipschitz
    field, 0.3 * (u - 0.5) with a fixed generator."""
    rng = random.Random(555)
    rows = [" ".join(repr(0.3 * (rng.random() - 0.5)) for _ in range(4))
            for _ in range(4)]
    return "type 1 1\nlinear\n" + "\n".join(rows) + "\n"


def grid_f_vector(k):
    return (k * k, 3 * k * k, 2 * k * k)


def self_check(sf, texts, k):
    """Start-up gate on generated inputs of size k x k.

    ``texts`` maps a name to its .tri text.  Each input must
    pass validate_closed_manifold, round-trip bit-exactly through
    format_tri/parse_tri and have the grid f-vector; the same family at
    SELF_CHECK_K must have the homology its construction gives.  Returns a
    list of problems, empty when every check holds.
    """
    format_tri, parse_tri = sf.simplicial.format_tri, sf.simplicial.parse_tri
    problems = []
    for name, text in texts.items():
        c = parse_tri(text)
        if not sf.validate_closed_manifold(c).ok:
            problems.append(f"{name}: fails validate_closed_manifold")
        if format_tri(c) != text:
            problems.append(f"{name}: format_tri(parse_tri(text)) != text")
        if c.f_vector != grid_f_vector(k):
            problems.append(f"{name}: f-vector {c.f_vector} != {grid_f_vector(k)}")
    small = {"torus": (torus_tri(SELF_CHECK_K), TORUS_HOMOLOGY),
             "klein": (klein_tri(SELF_CHECK_K), KLEIN_HOMOLOGY)}
    for name, (text, expected) in small.items():
        groups = sf.homology_groups(parse_tri(text)).groups
        if tuple((b, tuple(t)) for b, t in groups) != expected:
            problems.append(f"{name} k={SELF_CHECK_K}: homology {groups} != {expected}")
    return problems
