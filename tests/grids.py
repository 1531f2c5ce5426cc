"""Generated closed manifolds shared by the tests: grid surfaces and the
Freudenthal 3-torus, whose homology and vertex links are known by
construction, at any size."""

import itertools
import math

from spineforge.simplicial import SimplicialComplex


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
