"""Generated closed manifolds shared by the tests: grid surfaces and the
Freudenthal 3-torus, whose homology and vertex links are known by
construction, at any size; the linear field texts the tests deform on them;
and the benchmark's own input generators, loaded from ``bench/inputs.py``."""

import importlib.util
import itertools
import math
import os
import random

from spineforge.simplicial import SimplicialComplex

# type-(1,0) linear field on R^3 coordinates: an offset and three slopes per row
LINEAR_FLD = ("type 1 0\nlinear\n"
              "0.1 0.2 -0.1 0.05\n"
              "0.3 -0.15 0.1 0.2\n")


def bench_inputs():
    """``bench/inputs.py`` as a module, loaded from its file, so the tests read
    the benchmark's generators (``torus_tri``, ``klein_tri``, ``linear_fld``)
    without a copy and without the repository root on the path."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "inputs.py")
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def grid_surface(k, klein=False):
    """k x k square grid, two triangles per square, opposite sides glued.
    The torus glues both pairs straight; the Klein bottle glues the pair at
    j = 0 and j = k with the reflection i -> -i."""
    def vertex(i, j):
        if klein and j == k:
            i, j = -i, 0
        return (i % k) * k + j % k
    facets = []
    for i in range(k):
        for j in range(k):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i + 1, j + 1), vertex(i, j + 1)
            facets += [tuple(sorted((a, b, c))), tuple(sorted((a, c, d)))]
    return SimplicialComplex(2, facets)


def coordinate_torus(k, big=2.0, small=1.0):
    """The k x k torus grid with its vertices on a torus of revolution in R^3
    (radii big and small), so that linear fields can be deformed on it."""
    coords = []
    for i in range(k):
        for j in range(k):
            u, v = 2 * math.pi * i / k, 2 * math.pi * j / k
            ring = big + small * math.cos(v)
            coords.append((ring * math.cos(u), ring * math.sin(u), small * math.sin(v)))
    return SimplicialComplex(2, grid_surface(k).top_simplices, vertex_coords=coords)


def freudenthal_torus3(k):
    """The 3-torus as k^3 unit cubes, opposite faces glued, each cube cut
    into the 6 tetrahedra of Freudenthal's triangulation: one per order of
    the three axes, walking from the cube's low corner to its high corner
    one unit step per axis.  Needs k >= 3, so that no tetrahedron meets a
    vertex twice and no two share all their vertices."""
    if k < 3:
        raise ValueError(f"k = {k}: the Freudenthal 3-torus needs k >= 3")
    def vertex(p):
        return (p[0] % k) * k * k + (p[1] % k) * k + p[2] % k
    facets = []
    for cube in itertools.product(range(k), repeat=3):
        for axes in itertools.permutations(range(3)):
            corner = list(cube)
            verts = [vertex(corner)]
            for axis in axes:
                corner[axis] += 1
                verts.append(vertex(corner))
            facets.append(tuple(sorted(verts)))
    return SimplicialComplex(3, facets)


def torus3_in_r6(k):
    """The Freudenthal 3-torus with vertex a*k*k + b*k + d at the (cos, sin)
    of the angles 2 pi a / k, 2 pi b / k and 2 pi d / k in R^6, and the .fld
    text of a type-(1,1) linear field on those coordinates: 9 rows of an
    offset and 6 slopes, each 0.3 * (u - 0.5) from ``random.Random(555)``."""
    c = freudenthal_torus3(k)
    coords = [tuple(f(2 * math.pi * i / k) for i in (v // (k * k), v // k % k, v % k)
                    for f in (math.cos, math.sin)) for v in range(c.vertex_count)]
    rng = random.Random(555)
    rows = [" ".join(repr(0.3 * (rng.random() - 0.5)) for _ in range(7)) for _ in range(9)]
    return (SimplicialComplex(3, c.top_simplices, vertex_coords=coords),
            "type 1 1\nlinear\n" + "\n".join(rows) + "\n")
