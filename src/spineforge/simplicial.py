"""Triangulated closed manifolds: face lattice, validation, metrics.

A complex is stored as its top-dimensional simplices over dense integer
vertices.  Every lower face is derived from the top list and given a stable
id, its position in the lexicographic order of sorted vertex tuples, so that
reports and serializations are reproducible.  Instances are built once and
treated as immutable afterwards; they are safe to share across threads.
Tables derived from one later are kept by ``derived``'s one rule.

Loading is a few bulk passes over NumPy arrays, each linear in the facets
plus one sort; ``parse_tri``, the constructor and
``validate_closed_manifold`` each state theirs.  The parser keeps a line
table of strings and token counts and reads each block of the text in one
join-and-split, so it keeps no token list per line.  No row is read on its
own except to name the one at fault once a bulk check has failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, compress
from operator import itemgetter, methodcaller

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

_LONGEST_EDGE = math.sqrt(np.finfo(float).max)   # the longest length whose square is finite


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


def derived(owner, name, key, build):
    """The table ``name`` of ``owner`` (a complex, metric or chart) for
    ``key``, by the one rule for lazily built state.  ``owner._derived``
    keeps, per name, the table built for the latest key, as one (key, table)
    tuple stored only once ``build()`` has returned: a table is published
    whole, and a build that raises stores nothing.  Threads that race build
    equal tables, and whichever is stored serves later requests.  Keys
    compare by ``==``, which for a metric is identity; a name that keeps one
    table per key carries the key in the name, with key None."""
    entry = owner._derived.get(name)
    if entry is None or entry[0] != key:
        entry = owner._derived[name] = key, build()
    return entry[1]


class SimplicialComplex:
    """Pure complex of dimension ``n`` given by its (n+1)-vertex facets.

    ``faces[k]`` lists every k-face as a sorted vertex tuple in lexicographic
    order; ``face_index[k]`` inverts that listing.  ``ridge_cofacets`` maps
    each (n-1)-face id to the facets containing it, in facet order.

    The facets are read in bulk passes over one int array (``_facet_array``):
    one conversion checks the row lengths, the sorted rows show repeated
    vertices, one lexicographic sort of the rows shows duplicates and gives
    ``faces[n]``, and one count checks the labels are dense.  One
    lexicographic sort of every facet's ridges gives ``faces[n-1]`` and
    ``ridge_cofacets``, read off in pairs when every ridge has two
    cofacets; the middle faces of n >= 3 take one sort per
    dimension.  Each pass is linear in the facets plus its sort.  A row at
    fault is named by ``_scanned_facets``, which reads the rows one at a
    time only once a bulk check has failed.
    """

    def __init__(self, dimension, top_simplices, vertex_coords=None):
        if dimension < 0:
            raise InvalidComplexError("dimension must be non-negative")
        n = self.dimension = int(dimension)

        facets, order = _facet_array(n, top_simplices)
        flat = facets.ravel()
        verts = int(flat.max()) + 1
        # dense labels: none below 0, none past the id count, every one used
        if flat.min() < 0 or verts > flat.size or not np.bincount(flat).all():
            raise InvalidComplexError("vertices must be dense integers 0..V-1")
        self.vertex_count = verts
        # every vertex and facet id the lattice holds is one of these ints
        ints = int_objects(max(verts, len(facets)))
        self.top_simplices = tops = _row_tuples(ints[facets])

        # vertices are dense, so the 0-faces need no pass over the facets
        faces = [tuple(zip(ints[:verts].tolist()))] if n >= 2 else []
        for k in range(1, n - 1):
            rows = facets[:, list(combinations(range(n + 1), k + 1))].reshape(-1, k + 1)
            faces.append(_row_tuples(ints[_lex_groups(rows)[1]]))
        if n >= 1:
            # row f*(n+1) + j is facet f without its slot j: the stable sort
            # keeps each ridge's cofacets in facet order
            rows = facets[:, [[k for k in range(n + 1) if k != j] for j in range(n + 1)]]
            ridge_order, unique, first = _lex_groups(rows.reshape(-1, n))
            faces.append(_row_tuples(ints[unique]))
            owners = tuple(ints[ridge_order // (n + 1)].tolist())
            starts = np.flatnonzero(first)
            if 2 * len(starts) == len(owners) and first[::2].all():
                # the groups start exactly at the even positions: pairs
                self.ridge_cofacets = tuple(zip(owners[::2], owners[1::2]))
            else:
                starts = starts.tolist()
                self.ridge_cofacets = tuple(map(owners.__getitem__,
                                                map(slice, starts, starts[1:] + [len(owners)])))
        else:
            self.ridge_cofacets = ()
        faces.append(tuple(map(tops.__getitem__, order.tolist())))   # no copy
        self.faces = tuple(faces)
        self.face_index = tuple(dict(zip(fk, range(len(fk)))) for fk in faces)

        if vertex_coords is not None:
            try:
                coords = np.array(vertex_coords, float)
            except (ValueError, TypeError):
                coords = None
            if coords is None or coords.ndim != 2:
                # ragged rows, iterators or a value float() refuses, which
                # reading the rows one at a time raises on
                rows = [tuple(map(float, p)) for p in vertex_coords]
                coords = np.array(rows) if len(set(map(len, rows))) == 1 else None
                count = len(rows)
            else:
                count = len(coords)
            if count != verts:
                raise InvalidComplexError(
                    f"{count} coordinate rows for {verts} vertices", coords=True)
            if coords is None:
                raise InvalidComplexError("coordinate rows have mixed lengths", coords=True)
            d = coords.shape[1]
            if d < max(1, n):
                raise InvalidComplexError(
                    f"ambient dimension {d} below complex dimension {n}", coords=True)
            if not np.isfinite(coords).all():
                raise InvalidComplexError("non-finite vertex coordinate", coords=True)
            self.vertex_coords = _row_tuples(coords)
        else:
            self.vertex_coords = None

        self._derived = {}   # name -> (key, table), see ``derived``

    @property
    def f_vector(self):
        return tuple(len(fk) for fk in self.faces)

    def __repr__(self):
        return (f"SimplicialComplex(dim={self.dimension}, "
                f"f={self.f_vector})")


def _facet_array(n, rows) -> tuple:
    """(facets, order): the facet rows as one int array, each row sorted, and
    the lexicographic order of the rows.  One conversion checks that every
    row has n+1 int ids; the sorted rows show repeated vertices, and equal
    neighbours in the sort show duplicates.  When a check fails, or the rows
    are not one int array, ``_scanned_facets`` names the first row at fault."""
    try:
        facets = np.sort(np.asarray(rows, np.int64), axis=1)
    except (ValueError, TypeError, OverflowError):
        facets = None   # ragged rows, ids that are no numbers or past int64
    if facets is not None and facets.ndim == 2 and facets.shape[1] == n + 1 and len(facets):
        order, _, first = _lex_groups(facets)
        if first.all() and not (facets[:, 1:] == facets[:, :-1]).any():
            return facets, order
    rows = _scanned_facets(n, rows)   # raises at the first row at fault
    if not rows:
        raise InvalidComplexError("complex needs at least one facet")
    try:
        facets = np.array(rows, np.int64)
    except OverflowError:
        raise InvalidComplexError("vertices must be dense integers 0..V-1") from None
    return facets, _lex_groups(facets)[0]


def _scanned_facets(n, rows) -> list:
    """The rows as sorted int tuples, read one at a time, raising at the first
    with the wrong length, a repeated vertex or the vertices of an earlier
    row; ``_facet_array`` reads them this way only to name a fault."""
    out, seen = [], set()
    for i, s in enumerate(rows):
        t = tuple(sorted(map(int, s)))
        if len(t) != n + 1:
            raise InvalidComplexError(f"facet {t} has {len(t)} vertices, expected {n + 1}",
                                      facet=i)
        if len(set(t)) != len(t):
            raise InvalidComplexError(f"facet {t} repeats a vertex", facet=i)
        if t in seen:
            raise InvalidComplexError(f"duplicate facet {t}", facet=i)
        seen.add(t)
        out.append(t)
    return out


def _row_tuples(a) -> tuple:
    """The rows of a 2-D array as tuples of Python numbers, zipped from its
    columns: no list per row."""
    return tuple(zip(*a.T.tolist()))


def int_objects(count) -> np.ndarray:
    """The ints 0..count-1 as one object array, so that every table
    gathered from it shares one Python int per id rather than making one
    per entry, as ``tolist`` of an int array would."""
    return np.arange(count).astype(object)


def _lex_groups(rows) -> tuple:
    """(order, unique, first) for an (m, w) int array: the stable
    lexicographic order of its rows, its distinct rows in that order, and
    the mask over the order of each row unequal to the one before it."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(ranked), bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order, ranked[first], first


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
    and (for n <= 2 only) every vertex link is a single sphere/cycle.

    The ridge check reads the cofacet counts in one pass.  Dual connectivity
    is one union-find over the cofacet pairs, which meets a facet only
    through its ridges: the facets it never meets are isolated, each its own
    component.  Link degrees are read off the ridge check; only n = 2 builds
    its links, in one more pass over the facets, and counts each one's
    cycles.  Every pass is linear in the facets.  Kept on the complex."""
    return derived(c, "validation", None, lambda: _validation(c))


def _validation(c: SimplicialComplex) -> ValidationReport:
    counts = np.fromiter(map(len, c.ridge_cofacets), np.intp, len(c.ridge_cofacets))
    paired = counts == 2
    bad = np.flatnonzero(~paired)
    ridge_violations = tuple(zip(bad.tolist(), counts[bad].tolist()))

    facet_count = len(c.top_simplices)
    met, parts = component_count(compress(c.ridge_cofacets, paired.tolist()),
                                 [-1] * facet_count)
    dual_connected = parts + facet_count - met == 1

    # In n = 1 a vertex is a ridge.  In n = 2 a link vertex w of v has as many
    # link edges as the edge vw has cofacets, so the links are gathered only
    # to test that each is one cycle.
    link_violations = []
    links_checked = c.dimension <= 2
    if c.dimension == 1:
        for v, count in ridge_violations:
            link_violations.append((v, f"vertex in {count} edges, expected 2"))
    elif c.dimension == 2:
        irregular = {v for rid, _ in ridge_violations for v in c.faces[1][rid]}
        # appended from the facets' own ints, which beats a NumPy gather
        # that must make a new int per entry
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

    return ValidationReport(ridge_violations, dual_connected,
                            tuple(link_violations), links_checked)


def component_count(simplices, parent) -> tuple:
    """(vertices, components) of the union of ``simplices``, vertex
    sequences over int labels, each simplex joining its own vertices; by
    union-find with path halving (Tarjan, 1975).  A simplex's first vertex
    gives the root its other vertices join.

    ``parent`` is the caller's table over the labels, -1 at every label on
    entry; the labels touched are reset to -1 before returning, so that one
    table serves many calls at the cost of the simplices alone."""
    seen = []
    count = 0
    for s in simplices:
        rest = iter(s)
        for root in rest:   # the first vertex, then the others below
            r = parent[root]
            if r < 0:
                parent[root] = root
                seen.append(root)
                count += 1
            else:
                while parent[r] != r:
                    parent[r] = r = parent[parent[r]]
                root = r
            for v in rest:
                r = parent[v]
                if r < 0:
                    parent[v] = root
                    seen.append(v)
                else:
                    while parent[r] != r:
                        parent[r] = r = parent[parent[r]]
                    if r != root:
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
            # up to _LONGEST_EDGE, l * l is finite, as heights and distances need
            if not 0.0 < l <= _LONGEST_EDGE:
                raise InvalidComplexError(
                    f"edge {e} has length {l}, expected a positive number with a finite square")
            # an (u, v) tuple key with u < v is kept, not copied: a metric
            # from a complex shares the complex's edge tuples
            key = e if type(e) is tuple and u < v else (min(u, v), max(u, v))
            lengths[key] = float(l)
        self.edge_lengths = lengths
        self._derived = {}   # name -> (key, table), see ``derived``

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
        base, codes, lengths, squares = derived(self, "edge_table", None, self._edge_table)
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


def _line_table(text) -> tuple:
    """(lines, counts): the lines of a .tri text, each cut at '#' when the
    text holds one, and each line's token count as an int array.  A line is
    split only to count its tokens and the split is dropped, so no list is
    kept per line."""
    lines = text.splitlines()
    if "#" in text:
        lines = list(map(itemgetter(0), map(methodcaller("partition", "#"), lines)))
    return lines, np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))


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


def _coordinate_block(lines, first, d) -> np.ndarray:
    """The coordinate rows ``lines``, the first of them source line
    ``first``, as one float array: their tokens come from one join-and-split
    and each is read once by ``float``.  When a token fails or a value is
    not finite, the lines are split one at a time, in order, to name the
    first such line."""
    tokens = " ".join(lines).split()
    try:
        values = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        for number, line in enumerate(lines, first):
            toks = line.split()
            try:
                row = tuple(map(float, toks))
            except ValueError:
                raise _bad_line(number, "bad coordinate line", toks) from None
            if not all(map(math.isfinite, row)):
                raise _bad_line(number, "non-finite coordinate in", toks)
    return values.reshape(-1, d) if len(values) else values


def parse_tri(text: str) -> SimplicialComplex:
    """The complex of a .tri text, read in block passes, linear in its
    tokens.  ``_line_table`` counts each line's tokens; the coordinate block
    and the facet block are each one join-and-split of their lines, whose
    tokens are converted in one pass (``float`` once per token, ``int`` once
    per distinct token), and the constructor takes the facets as one int
    array.  Only the header lines are split on their own, and a block's
    lines are split one at a time only to name a fault."""
    lines, counts = _line_table(text)
    heads = np.flatnonzero(counts)[:2].tolist()   # the dim line and the one after it
    if not heads:
        raise InvalidComplexError("first line must be 'dim n'")
    head = lines[heads[0]].split()
    if head[0] != "dim" or len(head) != 2:
        raise _bad_line(heads[0] + 1, "first line must be 'dim n', got", head)
    try:
        n = int(head[1])
    except ValueError:
        raise _bad_line(heads[0] + 1, "bad dimension in", head)
    start = heads[0] + 1   # the position of the block's first line
    coords = coords_number = None
    toks = lines[heads[1]].split() if len(heads) == 2 else []
    if toks[:1] == ["coords"]:
        coords_number = start = heads[1] + 1   # its line number, the next line's position
        if len(toks) != 2 or not _is_int_token(toks[1]):
            raise _bad_line(coords_number, "coords line must be 'coords d', got", toks)
        d = int(toks[1])
        # the block runs over rows of d tokens, and, when d = n + 1, up to
        # the first row of int tokens only, which is a facet
        rest = counts[start:]
        off = np.flatnonzero((rest != d) & (rest != 0))
        stop = start + int(off[0]) if len(off) else len(lines)
        if d == n + 1:
            unmarked = compress(range(start, stop),
                                map(_FLOAT_MARKS.isdisjoint, lines[start:stop]))
            stop = next((j for j in unmarked
                         if counts[j] and all(map(_is_int_token, lines[j].split()))), stop)
        coords = _coordinate_block(lines[start:stop], start + 1, d)
        start = stop
    block, rest = lines[start:], counts[start:]
    tokens = " ".join(block).split()
    try:
        ids = dict.fromkeys(tokens)   # each distinct vertex token parsed once
        ids = dict(zip(ids, map(int, ids)))
    except ValueError:
        ids = None
    if ids is None or ((rest != 0) & (rest != n + 1)).any():
        for number, line in enumerate(block, start + 1):
            toks = line.split()
            if toks and (len(toks) != n + 1 or not all(map(_is_int_token, toks))):
                raise _bad_line(number, "bad facet line", toks)
    try:   # each row has n + 1 >= 1 tokens; with no row the constructor names the fault
        tops = (np.fromiter(map(ids.__getitem__, tokens), np.int64, len(tokens)).reshape(-1, n + 1)
                if tokens else [])
    except OverflowError:   # an id past int64, which the constructor refuses
        tops = list(zip(*[map(ids.__getitem__, tokens)] * (n + 1)))
    try:
        return SimplicialComplex(n, tops, vertex_coords=coords)
    except InvalidComplexError as exc:
        if exc.facet is not None:
            number = start + 1 + int(np.flatnonzero(rest)[exc.facet])
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
