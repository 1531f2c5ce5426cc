"""Cell/spine decomposition of a closed triangulated manifold.

Growing from a root facet, coordinates spread across one shared ridge at a
time ("gates"); the ridges never crossed form the spine.  Gates trace a
spanning tree of the dual graph in absorption order, so every prefix of the
gate list spans a connected subtree containing the root.

``decompose`` is one pass over a per-complex table of gate steps, built once
in one bulk pass (linear in the ridges plus one sort, see ``_gate_table``):
each ridge enters the frontier exactly once, as a step of that table, so growth
costs O(ridges) and builds no step.  ``random`` draws uniformly over the
frontier with the same bits as ``random.Random(seed).randrange``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, repeat, starmap
from typing import NamedTuple

import numpy as np

from .simplicial import (InvalidComplexError, SimplicialComplex, component_count, derived,
                         int_objects, validate_closed_manifold)

STRATEGIES = ("bfs", "dfs", "random")


class GateStep(NamedTuple):
    """One crossing of the growth: parent facet, gate ridge id, child facet.
    Every decomposition of a complex shares its steps from one table, and
    the chart reads them as they are; it keeps no copy."""

    parent: int
    gate: int    # ridge id
    child: int


_as_step = partial(tuple.__new__, GateStep)   # a (parent, gate, child) tuple as a GateStep


@dataclass(frozen=True)
class Decomposition:
    root: int
    gates: tuple      # GateStep in growth order
    spine: tuple      # sorted ridge ids never used as gates
    strategy: str
    seed: int

    def gate_ids(self):
        return tuple(g.gate for g in self.gates)

    def to_json_obj(self, c: SimplicialComplex):
        ridge_faces = c.faces[c.dimension - 1]
        return {
            "root": self.root,
            "gates": [[g.parent, g.gate, g.child] for g in self.gates],
            "spine": [list(ridge_faces[rid]) for rid in self.spine],
            "strategy": self.strategy,
            "seed": self.seed,
        }

    def to_json(self, c: SimplicialComplex) -> str:
        return json.dumps(self.to_json_obj(c), sort_keys=True, separators=(",", ":"))


def _gate_table(c: SimplicialComplex) -> tuple:
    """Per facet, the ``GateStep`` out of it across each of its ridges, in
    ridge-id order.  Built once per complex, after the checks that every
    ridge has two cofacets and that the dual graph is connected.

    One bulk pass: every ridge gives a step out of each of its two cofacets,
    and one stable sort by parent facet keeps each facet's steps in ridge-id
    order.  Each facet then has exactly n+1 steps (none on a point), so the
    rows are read off in consecutive runs.  Each step is made by
    ``tuple.__new__``, without the named tuple's own ``__new__``, from ints
    shared per id.  Linear in the ridges plus the sort."""
    return derived(c, "gates", None, lambda: _gate_steps(c))


def _gate_steps(c: SimplicialComplex) -> tuple:
    report = validate_closed_manifold(c)
    if report.ridge_violations:
        rid, count = report.ridge_violations[0]
        face = c.faces[c.dimension - 1][rid] if c.dimension >= 1 else ()
        raise InvalidComplexError(
            f"ridge {face} has {count} cofacets, expected 2")
    if not report.dual_connected:
        raise InvalidComplexError("dual graph is disconnected")
    ridges = len(c.ridge_cofacets)
    pairs = np.fromiter(chain.from_iterable(c.ridge_cofacets), np.intp, 2 * ridges)
    order = np.argsort(pairs, kind="stable")   # entry 2*rid + side is a step out of pairs[it]
    ints = int_objects(max(ridges, len(c.top_simplices)))   # one int per id, shared
    parents, gates, children = ints[pairs[order]], ints[order // 2], ints[pairs[order ^ 1]]
    steps = map(_as_step, zip(parents.tolist(), gates.tolist(), children.tolist()))
    # a point (n = 0) has no ridge, and the dual graph's check left one facet
    n = c.dimension
    return tuple(zip(*[steps] * (n + 1))) if n else ((),)


def decompose(c: SimplicialComplex, root: int = 0, strategy: str = "bfs",
              seed: int = 0) -> Decomposition:
    """Paint outward from ``root``, one unpainted facet per step.

    Any search order is legal; ``bfs`` (default) grows shallow trees, ``dfs``
    deep ones, ``random`` draws the next crossing from a seeded generator.
    """
    if strategy not in STRATEGIES:
        raise InvalidComplexError(f"unknown strategy {strategy!r}; use one of {STRATEGIES}")
    table = _gate_table(c)   # raises if ridges are bad or dual graph splits
    if not 0 <= root < len(table):
        raise InvalidComplexError(f"no facet with id {root}")

    painted = [False] * len(table)
    painted[root] = True
    is_spine = [True] * len(c.ridge_cofacets)
    frontier = list(table[root])
    gates = []
    if strategy == "random":
        # randrange(size) minus its argument checks: CPython's same draw
        getrandbits = random.Random(seed).getrandbits
        append, pop = frontier.append, frontier.pop
        size = len(frontier)
        while size:
            k = size.bit_length()
            r = getrandbits(k)
            while r >= size:
                r = getrandbits(k)
            size -= 1
            step = frontier[r]
            frontier[r] = frontier[size]
            pop()
            child = step[2]
            if painted[child]:
                continue
            painted[child] = True
            gates.append(step)
            is_spine[step[1]] = False
            for out in table[child]:
                if not painted[out[2]]:
                    append(out)
                    size += 1
    else:
        # each ridge enters the frontier once, pushed by whichever of its
        # two facets is painted first, so both take exactly one entry per
        # ridge: bfs reads the frontier in order, dfs pops it
        takes = (starmap(frontier.pop, repeat((), len(is_spine))) if strategy == "dfs"
                 else map(frontier.__getitem__, range(len(is_spine))))
        append = frontier.append
        for step in takes:
            child = step[2]
            if painted[child]:
                continue
            painted[child] = True
            gates.append(step)
            is_spine[step[1]] = False
            for out in table[child]:
                if not painted[out[2]]:
                    append(out)
    # is_spine is indexed by ridge id, so the spine's ids come out sorted
    spine = tuple(compress(range(len(is_spine)), is_spine))
    return Decomposition(root, tuple(gates), spine, strategy, seed)


@dataclass(frozen=True)
class Subcomplex:
    complex: SimplicialComplex
    vertex_map: tuple   # new vertex id -> vertex id in the parent complex


def spine_subcomplex(c: SimplicialComplex, d: Decomposition) -> Subcomplex:
    """Closure of the spine ridges as a standalone complex of dimension n-1,
    relabelled to dense vertices.  ``verify_theorem2`` and ``spine_connected``
    do not need it: they read the spine off its ridge ids, ``c.faces`` and
    ``c.face_index``, in ``c``'s own vertex labels."""
    ridge_faces = c.faces[c.dimension - 1]
    # its own id check, with spine_ridges' message, so as not to depend on it
    bad = next((rid for rid in d.spine if not 0 <= rid < len(ridge_faces)), None)
    if bad is not None:
        raise InvalidComplexError(f"no ridge with id {bad} "
                                  f"(ridge ids run 0..{len(ridge_faces) - 1})")
    verts = sorted({v for rid in d.spine for v in ridge_faces[rid]})
    back = tuple(verts)
    fwd = {v: i for i, v in enumerate(verts)}
    tops = [tuple(fwd[v] for v in ridge_faces[rid]) for rid in d.spine]
    return Subcomplex(SimplicialComplex(c.dimension - 1, tops), back)


def spine_ridges(c: SimplicialComplex, d: Decomposition) -> list:
    """The spine's ridges as ``c``'s vertex tuples, in ridge-id order, after
    checking that its ids are nonempty, in range and distinct."""
    ids = sorted(d.spine)   # one pass when sorted, as decompose leaves them
    if not ids:
        raise InvalidComplexError("decomposition has an empty spine")
    ridge_faces = c.faces[c.dimension - 1]
    if ids[0] < 0 or ids[-1] >= len(ridge_faces):
        raise InvalidComplexError(f"no ridge with id {ids[0] if ids[0] < 0 else ids[-1]} "
                                  f"(ridge ids run 0..{len(ridge_faces) - 1})")
    if len(set(ids)) != len(ids):
        raise InvalidComplexError("decomposition repeats a spine ridge")
    return [ridge_faces[rid] for rid in ids]


def spine_connected(c: SimplicialComplex, d: Decomposition) -> bool:
    """A nonempty complex is connected iff the union of its facets is."""
    return component_count(spine_ridges(c, d), [-1] * c.vertex_count)[1] == 1
