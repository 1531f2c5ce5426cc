"""Generated surfaces shared by the tests: their homology and their vertex
links are known by construction, at any size."""

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
