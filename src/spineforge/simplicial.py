"""Triangulated closed manifolds: face lattice, validation, metrics.

A complex is stored as its top-dimensional simplices over dense integer
vertices.  Every lower face is derived from the top list and given a stable
id, its position in the lexicographic order of sorted vertex tuples, so that
reports and serializations are reproducible.  Instances are built once and
treated as immutable afterwards; they are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

import numpy as np

# Every tolerance of the package lives here; each line states its scale.
# Barycentric: how far a coordinate may fall below 0, a sum stray from 1, or
# an arc overshoot its interval (as a fraction of the interval).
MEMBERSHIP_TOL = 1e-12
# Relative: stray weight off a shared face, triangle slack per longest edge,
# Gram determinant slack per longest edge^(2k) of a k-face, probe offset per
# line length; also deform's absolute hole-boundary bound.
GEOMETRIC_TOL = 1e-9
# Absolute length or field component: largest accepted endpoint gap, and
# deform's bound on spine-limit and gate jumps.
JUMP_TOL = 1e-6
# Absolute length or determinant: a height or frame at or below it is flat.
DEGENERACY_TOL = 1e-12


class InvalidComplexError(ValueError):
    """Input data cannot form (or has stopped being) a valid complex.

    ``facet`` is the position in the input facet list of the facet at fault,
    and ``coords`` is true when the coordinate rows are at fault, so that a
    parser can name the source line.
    """

    def __init__(self, message, facet=None, coords=False):
        super().__init__(message)
        self.facet = facet
        self.coords = coords


class SimplicialComplex:
    """Pure complex of dimension ``n`` given by its (n+1)-vertex facets.

    ``faces[k]`` lists every k-face as a sorted vertex tuple in lexicographic
    order; ``face_index[k]`` inverts that listing.  ``ridge_cofacets`` maps
    each (n-1)-face id to the facets containing it, in facet order; one pass
    over the facets gives both the ridges and their cofacets.
    """

    def __init__(self, dimension, top_simplices, vertex_coords=None):
        if dimension < 0:
            raise InvalidComplexError("dimension must be non-negative")
        self.dimension = int(dimension)

        tops = []
        seen = set()
        for i, s in enumerate(top_simplices):
            t = tuple(sorted(map(int, s)))
            if len(t) != self.dimension + 1:
                raise InvalidComplexError(
                    f"facet {t} has {len(t)} vertices, expected {self.dimension + 1}",
                    facet=i)
            if len(set(t)) != len(t):
                raise InvalidComplexError(f"facet {t} repeats a vertex", facet=i)
            if t in seen:
                raise InvalidComplexError(f"duplicate facet {t}", facet=i)
            seen.add(t)
            tops.append(t)
        if not tops:
            raise InvalidComplexError("complex needs at least one facet")
        self.top_simplices = tuple(tops)

        verts = sorted({v for t in tops for v in t})
        if verts[0] < 0 or verts != list(range(len(verts))):
            raise InvalidComplexError("vertices must be dense integers 0..V-1")
        self.vertex_count = len(verts)

        n = self.dimension
        # vertices are dense, so the 0-faces need no pass over the facets
        faces = [tuple([(v,) for v in verts])] if n >= 2 else []
        for k in range(1, n - 1):
            fs = set()
            for t in tops:
                fs.update(combinations(t, k + 1))
            faces.append(tuple(sorted(fs)))
        # one pass lists each ridge's cofacets in facet order; its keys are
        # the ridges, each the first tuple seen, as a set would keep it
        cofacets = {}
        for ti, t in enumerate(tops):
            for f in combinations(t, n):
                cofacets.setdefault(f, []).append(ti)
        if n >= 1:
            faces.append(tuple(sorted(cofacets)))
            self.ridge_cofacets = tuple(map(tuple, map(cofacets.__getitem__, faces[-1])))
        else:
            self.ridge_cofacets = ()
        faces.append(tuple(sorted(tops)))   # the facets themselves, no copy
        self.faces = tuple(faces)
        self.face_index = tuple({f: i for i, f in enumerate(fk)} for fk in faces)

        if vertex_coords is not None:
            coords = [tuple(float(x) for x in p) for p in vertex_coords]
            if len(coords) != self.vertex_count:
                raise InvalidComplexError(
                    f"{len(coords)} coordinate rows for {self.vertex_count} vertices",
                    coords=True)
            dims = {len(p) for p in coords}
            if len(dims) != 1:
                raise InvalidComplexError("coordinate rows have mixed lengths", coords=True)
            d = dims.pop()
            if d < max(1, self.dimension):
                raise InvalidComplexError(
                    f"ambient dimension {d} below complex dimension {self.dimension}",
                    coords=True)
            if not all(math.isfinite(x) for p in coords for x in p):
                raise InvalidComplexError("non-finite vertex coordinate", coords=True)
            self.vertex_coords = tuple(coords)
        else:
            self.vertex_coords = None

        self._gate_table = None         # spine's per-facet gate steps
        self._step_geometry = None      # chart's per-step geometry under one metric
        self._vertex_tables = {}        # a linear field's rows -> fields._vertex_table
        self._validation_cache = None
        self._punctured_homology = {}   # root facet id -> HomologyProfile

    @property
    def f_vector(self):
        return tuple(len(fk) for fk in self.faces)

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
    and (for n <= 2 only) every vertex link is a single sphere/cycle.  Link
    degrees are read off the ridge check; only n = 2 builds its links."""
    if c._validation_cache is not None:
        return c._validation_cache
    ridge_violations = tuple(
        (rid, len(cof)) for rid, cof in enumerate(c.ridge_cofacets) if len(cof) != 2)

    # Dual connectivity through properly shared ridges; isolated facets count
    # as disconnection, so every facet enters as its own singleton.
    dual_connected = component_count(chain(
        ((i,) for i in range(len(c.top_simplices))),
        (cof for cof in c.ridge_cofacets if len(cof) == 2)),
        [-1] * len(c.top_simplices))[1] == 1

    # In n = 1 a vertex is a ridge.  In n = 2 a link vertex w of v has as many
    # link edges as the edge vw has cofacets, so one pass over the facets
    # gathers the links only to test that each is one cycle.
    link_violations = []
    links_checked = c.dimension <= 2
    if c.dimension == 1:
        for v, count in ridge_violations:
            link_violations.append((v, f"vertex in {count} edges, expected 2"))
    elif c.dimension == 2:
        irregular = {v for rid, _ in ridge_violations for v in c.faces[1][rid]}
        links = [[] for _ in range(c.vertex_count)]
        for a, b, d in c.top_simplices:
            links[a].append((b, d))
            links[b].append((a, d))
            links[d].append((a, b))
        table = [-1] * c.vertex_count   # one table for every link: linear in all
        for v, link in enumerate(links):
            if v in irregular:
                link_violations.append((v, "link is not 2-regular"))
            elif component_count(link, table)[1] != 1:
                link_violations.append((v, "link splits into several cycles"))

    report = ValidationReport(ridge_violations, dual_connected,
                              tuple(link_violations), links_checked)
    c._validation_cache = report
    return report


def component_count(simplices, parent) -> tuple:
    """(vertices, components) of the union of ``simplices``, vertex tuples
    over int labels, each simplex joining its own vertices; by union-find
    with path halving (Tarjan, 1975).

    ``parent`` is the caller's table over the labels, -1 at every label on
    entry; the labels touched are reset to -1 before returning, so that one
    table serves many calls at the cost of the simplices alone."""
    seen = []
    count = 0
    for s in simplices:
        root = -1
        for v in s:
            r = parent[v]
            if r < 0:
                parent[v] = r = v
                seen.append(v)
                count += 1
            else:
                while parent[r] != r:
                    parent[r] = r = parent[parent[r]]
            if root < 0:
                root = r
            elif r != root:
                parent[r] = root
                count -= 1
    for v in seen:
        parent[v] = -1
    return len(seen), count


def facet_rows(c: SimplicialComplex) -> np.ndarray:
    """The facets' sorted vertex ids as an index array, one row per facet,
    read straight off the flattened tuples."""
    width = c.dimension + 1
    return np.fromiter(chain.from_iterable(c.top_simplices), np.intp,
                       width * len(c.top_simplices)).reshape(-1, width)


def ordered_matmul(a, b) -> np.ndarray:
    """The matrix product over the last two axes of ``a`` and ``b`` (which
    broadcast over the rest), each entry's products added in index order by
    elementwise IEEE operations: the same bits under any BLAS kernel."""
    out = a[..., :, :1] * b[..., :1, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k:k + 1] * b[..., k:k + 1, :]
    return out


class Metric:
    """Piecewise-flat metric: one positive length per edge of the complex.

    Segment lengths inside a simplex come from the flat simplex those edge
    lengths determine: for barycentric difference c with sum 0,
    |sum c_i v_i|^2 = -sum_{i<j} c_i c_j d_ij^2.

    Every length and squared length follows one rule of IEEE operations: a
    square is ``x * x`` and a sum adds its terms left to right (as in
    ``ordered_matmul``), so the bits depend on no BLAS kernel, interpreter
    ``sum`` or libm ``pow``.

    ``lengths_at`` gathers many edges at once from a sorted edge table,
    built on first use, and ``fields.root_facet_clearance`` keeps its value
    per root facet; the lengths must not change after either.
    """

    def __init__(self, edge_lengths):
        lengths = {}
        for e, l in edge_lengths.items():
            u, v = e
            if not (l > 0 and math.isfinite(l)):
                raise InvalidComplexError(
                    f"edge {e} has length {l}, expected a finite positive number")
            # an (u, v) tuple key with u < v is kept, not copied: a metric
            # from a complex shares the complex's edge tuples
            key = e if type(e) is tuple and u < v else (min(u, v), max(u, v))
            lengths[key] = float(l)
        self.edge_lengths = lengths
        self._clearances = {}   # root facet's vertices -> fields.root_facet_clearance

    @classmethod
    def from_complex(cls, c: SimplicialComplex) -> "Metric":
        """Euclidean lengths when coordinates exist, unit lengths otherwise.

        All edges are taken in one stacked pass, and each length has the
        bits of the per-edge rule: each coordinate difference squared as
        ``d * d``, the squares added left to right, then ``math.sqrt``."""
        if c.dimension < 1:
            return cls({})
        edges = c.faces[1]
        if c.vertex_coords is None:
            m = cls(dict.fromkeys(edges, 1.0))
        else:
            ends = np.fromiter(chain.from_iterable(edges), np.intp, 2 * len(edges)).reshape(-1, 2)
            coords = np.array(c.vertex_coords)
            with np.errstate(over="ignore"):    # an infinite length is refused below
                diff = coords[ends[:, 0]] - coords[ends[:, 1]]
                squares = ordered_matmul(diff[:, None, :], diff[:, :, None])
            m = cls(dict(zip(edges, np.sqrt(squares.ravel()).tolist())))
        m.validate(c)
        return m

    def validate(self, c: SimplicialComplex):
        for u, v in (c.faces[1] if c.dimension >= 1 else ()):
            if (u, v) not in self.edge_lengths:
                raise InvalidComplexError(f"metric misses edge {(u, v)}")
        if c.dimension >= 2:
            # one stacked check; the gathers give ``length``'s floats, bit for bit
            tri = c.faces[2]
            a, b, d = np.fromiter(chain.from_iterable(tri), np.intp, 3 * len(tri)).reshape(-1, 3).T
            lab, lad, lbd = self.lengths_at(a, b), self.lengths_at(a, d), self.lengths_at(b, d)
            slack = GEOMETRIC_TOL * np.maximum(np.maximum(lab, lad), lbd)
            bad = (lab > lad + lbd + slack) | (lad > lab + lbd + slack) | (lbd > lab + lad + slack)
            if bad.any():
                raise InvalidComplexError(
                    f"triangle inequality fails on 2-face {tri[int(bad.argmax())]}")
        for k in range(3, c.dimension + 1):
            for face in c.faces[k]:
                det, scale = self._gram_det(face)
                if det < -GEOMETRIC_TOL * scale:
                    raise InvalidComplexError(
                        f"Cayley-Menger determinant of {k}-face {face} has the wrong "
                        "sign: no Euclidean simplex has its edge lengths")

    def _gram_det(self, verts):
        """Gram determinant of a simplex's edge vectors from its first vertex,
        (k!)^2 times its squared volume, and the scale (longest edge)^(2k).

        It is the Cayley-Menger determinant divided by (-1)^(k+1) 2^k.  When
        every proper face is realizable, as ``validate`` has checked by then,
        it is negative exactly when no Euclidean k-simplex has these lengths.
        """
        k = len(verts) - 1
        sq = [[self.length(u, v) * self.length(u, v) if u != v else 0.0 for v in verts]
              for u in verts]
        gram = [[(sq[0][i] + sq[0][j] - sq[i][j]) / 2.0 for j in range(1, k + 1)]
                for i in range(1, k + 1)]
        longest = max(self.length(u, v) for u, v in combinations(verts, 2))
        return float(np.linalg.det(gram)), longest ** (2 * k)

    def length(self, u, v) -> float:
        return self.edge_lengths[(min(u, v), max(u, v))]

    @cached_property
    def _edge_table(self):
        """(base, codes, lengths, squares): the edges as sorted codes
        u * base + v (u < v), and each one's length and square, the square
        taken as ``sq_dist`` takes it (``l * l``)."""
        table = self.edge_lengths
        pairs = np.fromiter(chain.from_iterable(table), np.int64, 2 * len(table)).reshape(-1, 2)
        base = int(pairs.max(initial=0)) + 1
        codes = pairs[:, 0] * base + pairs[:, 1]
        # a metric built from a complex lists its edges sorted; only sort otherwise
        order = slice(None) if (codes[1:] > codes[:-1]).all() else np.argsort(codes)
        lengths = np.fromiter(table.values(), float, len(table))[order]
        squares = lengths * lengths
        return base, codes[order], lengths, squares

    def lengths_at(self, u, v, squared=False) -> np.ndarray:
        """Lengths (or squared lengths) of the edges (u, v), elementwise over
        broadcast arrays of vertex ids (a 0-d array for two scalar ids): 0
        where u == v and NaN where the metric has no such edge.  One sorted
        search over the edge table instead of one ``length`` call per edge;
        a squared length equals the one ``sq_dist`` uses, bit for bit."""
        base, codes, lengths, squares = self._edge_table
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        want = lo * base
        want += hi
        at = np.searchsorted(codes, want)
        missing = np.take(codes, at, mode="clip") != want
        missing |= hi >= base
        # an array even for scalar ids, so that the masks below can write to it
        out = np.asarray(np.take(squares if squared else lengths, at, mode="clip"))
        out[missing] = np.nan
        out[lo == hi] = 0.0
        return out

    def sq_dist(self, verts, a, b) -> float:
        diff = [x - y for x, y in zip(a, b)]
        s = 0.0
        for i in range(len(verts)):
            if diff[i] == 0.0:
                continue
            for j in range(i + 1, len(verts)):
                if diff[j] == 0.0:
                    continue
                l = self.length(verts[i], verts[j])
                s -= diff[i] * diff[j] * (l * l)
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

# int() accepts no token that holds one of these, so a float row needs no try
_FLOAT_MARKS = frozenset(".eEiInN")


def _tokens(text):
    """(1-based source line number, tokens) of every non-blank line."""
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line.split()


def _is_int_token(tok):
    if not _FLOAT_MARKS.isdisjoint(tok):
        return False
    try:
        int(tok)
        return True
    except ValueError:
        return False


def _bad_line(number, what, toks):
    return InvalidComplexError(f"line {number}: {what} {' '.join(toks)!r}")


def parse_tri(text: str) -> SimplicialComplex:
    lines = list(_tokens(text))
    if not lines:
        raise InvalidComplexError("first line must be 'dim n'")
    number, head = lines[0]
    if head[0] != "dim" or len(head) != 2:
        raise _bad_line(number, "first line must be 'dim n', got", head)
    try:
        n = int(head[1])
    except ValueError:
        raise _bad_line(number, "bad dimension in", head)
    i = 1
    coords = coords_number = None
    if i < len(lines) and lines[i][1][0] == "coords":
        coords_number, toks = lines[i]
        if len(toks) != 2 or not _is_int_token(toks[1]):
            raise _bad_line(coords_number, "coords line must be 'coords d', got", toks)
        d = int(toks[1])
        coords = []
        i += 1
        while i < len(lines):
            number, toks = lines[i]
            looks_coord = len(toks) == d and (d != n + 1 or not all(_is_int_token(t) for t in toks))
            if not looks_coord:
                break
            try:
                row = tuple(map(float, toks))
            except ValueError:
                raise _bad_line(number, "bad coordinate line", toks)
            if not all(map(math.isfinite, row)):
                raise _bad_line(number, "non-finite coordinate in", toks)
            coords.append(row)
            i += 1
    tops = []
    facet_numbers = []
    ids = {}    # each distinct vertex token parsed once; the facets share its int
    for number, toks in lines[i:]:
        try:
            row = tuple([ids[t] if t in ids else ids.setdefault(t, int(t)) for t in toks])
        except ValueError:
            row = None
        if row is None or len(row) != n + 1:
            raise _bad_line(number, "bad facet line", toks)
        tops.append(row)
        facet_numbers.append(number)
    try:
        return SimplicialComplex(n, tops, vertex_coords=coords)
    except InvalidComplexError as exc:
        if exc.facet is not None:
            number = facet_numbers[exc.facet]
        elif exc.coords:
            number = coords_number
        else:
            raise
        raise InvalidComplexError(f"line {number}: {exc}") from None


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
