"""Triangulated closed manifolds: face lattice, metrics, dual adjacency.

A complex is stored as its top-dimensional simplices over dense integer
vertices.  Every lower face is derived from the top list and given a stable
id, its position in the lexicographic order of sorted vertex tuples, so that
reports and serializations are reproducible.  Instances are built once and
treated as immutable afterwards; they are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

MEMBERSHIP_TOL = 1e-12


class InvalidComplexError(ValueError):
    """Input data cannot form (or has stopped being) a valid complex."""


class SimplicialComplex:
    """Pure complex of dimension ``n`` given by its (n+1)-vertex facets.

    ``faces[k]`` lists every k-face as a sorted vertex tuple in lexicographic
    order; ``face_index[k]`` inverts that listing.  ``ridge_cofacets`` maps
    each (n-1)-face id to the facets containing it.
    """

    def __init__(self, dimension, top_simplices, vertex_coords=None):
        if dimension < 0:
            raise InvalidComplexError("dimension must be non-negative")
        self.dimension = int(dimension)

        tops = []
        seen = set()
        for s in top_simplices:
            t = tuple(sorted(int(v) for v in s))
            if len(t) != self.dimension + 1:
                raise InvalidComplexError(
                    f"facet {t} has {len(t)} vertices, expected {self.dimension + 1}")
            if len(set(t)) != len(t):
                raise InvalidComplexError(f"facet {t} repeats a vertex")
            if t in seen:
                raise InvalidComplexError(f"duplicate facet {t}")
            seen.add(t)
            tops.append(t)
        if not tops:
            raise InvalidComplexError("complex needs at least one facet")
        self.top_simplices = tuple(tops)

        verts = sorted({v for t in tops for v in t})
        if verts[0] < 0 or verts != list(range(len(verts))):
            raise InvalidComplexError("vertices must be dense integers 0..V-1")
        self.vertex_count = len(verts)

        faces = []
        for k in range(self.dimension + 1):
            fs = set()
            for t in tops:
                fs.update(combinations(t, k + 1))
            faces.append(tuple(sorted(fs)))
        self.faces = tuple(faces)
        self.face_index = tuple({f: i for i, f in enumerate(fk)} for fk in faces)

        if self.dimension >= 1:
            cof = [[] for _ in self.faces[self.dimension - 1]]
            for ti, t in enumerate(tops):
                for f in combinations(t, self.dimension):
                    cof[self.face_index[self.dimension - 1][f]].append(ti)
            self.ridge_cofacets = tuple(tuple(v) for v in cof)
        else:
            self.ridge_cofacets = ()

        if vertex_coords is not None:
            coords = [tuple(float(x) for x in p) for p in vertex_coords]
            if len(coords) != self.vertex_count:
                raise InvalidComplexError(
                    f"{len(coords)} coordinate rows for {self.vertex_count} vertices")
            dims = {len(p) for p in coords}
            if len(dims) != 1:
                raise InvalidComplexError("coordinate rows have mixed lengths")
            d = dims.pop()
            if d < max(1, self.dimension):
                raise InvalidComplexError(
                    f"ambient dimension {d} below complex dimension {self.dimension}")
            self.vertex_coords = tuple(coords)
        else:
            self.vertex_coords = None

        self._dual_cache = None
        self._validation_cache = None

    @property
    def f_vector(self):
        return tuple(len(fk) for fk in self.faces)

    def face_id(self, k, verts):
        try:
            return self.face_index[k][tuple(sorted(verts))]
        except KeyError:
            raise InvalidComplexError(f"no {k}-face with vertices {tuple(verts)}")

    def __repr__(self):
        return (f"SimplicialComplex(dim={self.dimension}, "
                f"f={self.f_vector})")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the closed-manifold checks; violations are data, not errors."""

    ridge_violations: tuple   # (ridge id, cofacet count) where count != 2
    dual_connected: bool
    link_violations: tuple    # (vertex id, description)
    links_checked: bool

    @property
    def ok(self):
        return not self.ridge_violations and self.dual_connected and not self.link_violations


def validate_closed_manifold(c: SimplicialComplex) -> ValidationReport:
    """Check that every ridge has two cofacets, the dual graph is connected,
    and (for n <= 2 only) every vertex link is a single sphere/cycle."""
    if c._validation_cache is not None:
        return c._validation_cache
    ridge_violations = tuple(
        (rid, len(cof)) for rid, cof in enumerate(c.ridge_cofacets) if len(cof) != 2)

    # Dual connectivity through properly shared ridges; isolated facets count
    # as disconnection.
    adj = {i: set() for i in range(len(c.top_simplices))}
    for cof in c.ridge_cofacets:
        if len(cof) == 2:
            a, b = cof
            adj[a].add(b)
            adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    dual_connected = len(seen) == len(c.top_simplices)

    link_violations = []
    links_checked = c.dimension <= 2
    if c.dimension == 1:
        degree = [0] * c.vertex_count
        for t in c.top_simplices:
            for v in t:
                degree[v] += 1
        for v, deg in enumerate(degree):
            if deg != 2:
                link_violations.append((v, f"vertex in {deg} edges, expected 2"))
    elif c.dimension == 2:
        for v in range(c.vertex_count):
            link_edges = [tuple(w for w in t if w != v)
                          for t in c.top_simplices if v in t]
            deg = {}
            for a, b in link_edges:
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
            if not link_edges:
                link_violations.append((v, "empty link"))
                continue
            if any(d != 2 for d in deg.values()):
                link_violations.append((v, "link is not 2-regular"))
                continue
            nbr = {}
            for a, b in link_edges:
                nbr.setdefault(a, []).append(b)
                nbr.setdefault(b, []).append(a)
            start = link_edges[0][0]
            cycle = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in nbr[u]:
                    if w not in cycle:
                        cycle.add(w)
                        stack.append(w)
            if len(cycle) != len(deg):
                link_violations.append((v, "link splits into several cycles"))

    report = ValidationReport(ridge_violations, dual_connected,
                              tuple(link_violations), links_checked)
    c._validation_cache = report
    return report


@dataclass(frozen=True)
class DualGraph:
    """Facet adjacency: one edge per shared ridge of a closed complex."""

    node_count: int
    edges: tuple       # (ridge id, facet a, facet b), sorted by ridge id
    adjacency: tuple   # per facet: tuple of (ridge id, neighbor facet)


def build_dual_graph(c: SimplicialComplex) -> DualGraph:
    if c._dual_cache is not None:
        return c._dual_cache
    report = validate_closed_manifold(c)
    if report.ridge_violations:
        rid, count = report.ridge_violations[0]
        face = c.faces[c.dimension - 1][rid] if c.dimension >= 1 else ()
        raise InvalidComplexError(
            f"ridge {face} has {count} cofacets, expected 2")
    if not report.dual_connected:
        raise InvalidComplexError("dual graph is disconnected")
    edges = []
    adjacency = [[] for _ in c.top_simplices]
    for rid, cof in enumerate(c.ridge_cofacets):
        a, b = cof
        edges.append((rid, a, b))
        adjacency[a].append((rid, b))
        adjacency[b].append((rid, a))
    graph = DualGraph(len(c.top_simplices), tuple(edges),
                      tuple(tuple(sorted(a)) for a in adjacency))
    c._dual_cache = graph
    return graph


def euler_characteristic(c: SimplicialComplex) -> int:
    return sum((-1) ** k * len(fk) for k, fk in enumerate(c.faces))


class Metric:
    """Piecewise-flat metric: one positive length per edge of the complex.

    Segment lengths inside a simplex come from the flat simplex those edge
    lengths determine: for barycentric difference c with sum 0,
    |sum c_i v_i|^2 = -sum_{i<j} c_i c_j d_ij^2.
    """

    def __init__(self, edge_lengths):
        lengths = {}
        for e, l in edge_lengths.items():
            u, v = e
            if l <= 0:
                raise InvalidComplexError(f"edge {e} has non-positive length {l}")
            lengths[(min(u, v), max(u, v))] = float(l)
        self.edge_lengths = lengths

    @classmethod
    def from_complex(cls, c: SimplicialComplex) -> "Metric":
        """Euclidean lengths when coordinates exist, unit lengths otherwise."""
        if c.dimension < 1:
            return cls({})
        lengths = {}
        for u, v in c.faces[1]:
            if c.vertex_coords is not None:
                pu, pv = c.vertex_coords[u], c.vertex_coords[v]
                lengths[(u, v)] = math.sqrt(sum((a - b) ** 2 for a, b in zip(pu, pv)))
            else:
                lengths[(u, v)] = 1.0
        m = cls(lengths)
        m.validate(c)
        return m

    def validate(self, c: SimplicialComplex):
        for u, v in (c.faces[1] if c.dimension >= 1 else ()):
            if (u, v) not in self.edge_lengths:
                raise InvalidComplexError(f"metric misses edge {(u, v)}")
        if c.dimension >= 2:
            for a, b, d in c.faces[2]:
                lab, lad, lbd = self.length(a, b), self.length(a, d), self.length(b, d)
                slack = 1e-9 * max(lab, lad, lbd)
                if lab > lad + lbd + slack or lad > lab + lbd + slack or lbd > lab + lad + slack:
                    raise InvalidComplexError(
                        f"triangle inequality fails on 2-face {(a, b, d)}")

    def length(self, u, v) -> float:
        return self.edge_lengths[(min(u, v), max(u, v))]

    def sq_dist(self, verts, a, b) -> float:
        diff = [x - y for x, y in zip(a, b)]
        s = 0.0
        for i in range(len(verts)):
            if diff[i] == 0.0:
                continue
            for j in range(i + 1, len(verts)):
                if diff[j] == 0.0:
                    continue
                s -= diff[i] * diff[j] * self.length(verts[i], verts[j]) ** 2
        return max(s, 0.0)

    def dist(self, verts, a, b) -> float:
        return math.sqrt(self.sq_dist(verts, a, b))


# ---------------------------------------------------------------------------
# .tri text format
#
#   dim n
#   coords d          (optional; then one row of d floats per vertex)
#   v0 v1 ... vn      (one facet per line)
#
# '#' starts a comment.  Coordinate rows are recognized by float-marker
# tokens ('.', 'e', ...) or by a field count different from n+1; the writer
# always emits repr() floats so its output round-trips bit-exactly.

def _tokens(text):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line.split()


def _is_int_token(tok):
    try:
        int(tok)
        return True
    except ValueError:
        return False


def parse_tri(text: str) -> SimplicialComplex:
    lines = list(_tokens(text))
    if not lines or lines[0][0] != "dim" or len(lines[0]) != 2:
        raise InvalidComplexError("first line must be 'dim n'")
    try:
        n = int(lines[0][1])
    except ValueError:
        raise InvalidComplexError(f"bad dimension {lines[0][1]!r}")
    body = lines[1:]
    coords = None
    if body and body[0][0] == "coords":
        if len(body[0]) != 2 or not _is_int_token(body[0][1]):
            raise InvalidComplexError(
                f"coords line must be 'coords d', got {' '.join(body[0])!r}")
        d = int(body[0][1])
        coords = []
        body = body[1:]
        while body:
            toks = body[0]
            looks_coord = len(toks) == d and (d != n + 1 or not all(_is_int_token(t) for t in toks))
            if not looks_coord:
                break
            try:
                coords.append(tuple(float(t) for t in toks))
            except ValueError:
                raise InvalidComplexError(f"bad coordinate line {' '.join(toks)!r}")
            body = body[1:]
    tops = []
    for toks in body:
        if len(toks) != n + 1 or not all(_is_int_token(t) for t in toks):
            raise InvalidComplexError(f"bad facet line {' '.join(toks)!r}")
        tops.append(tuple(int(t) for t in toks))
    return SimplicialComplex(n, tops, vertex_coords=coords)


def format_tri(c: SimplicialComplex) -> str:
    out = [f"dim {c.dimension}"]
    if c.vertex_coords is not None:
        out.append(f"coords {len(c.vertex_coords[0])}")
        for p in c.vertex_coords:
            out.append(" ".join(repr(x) for x in p))
    for t in c.top_simplices:
        out.append(" ".join(str(v) for v in t))
    return "\n".join(out) + "\n"


def read_tri(path) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tri(fh.read())


def write_tri(c: SimplicialComplex, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_tri(c))
