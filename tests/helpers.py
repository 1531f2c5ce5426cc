"""Face-lattice helpers and the census self-check, which only the tests use."""

from spineforge.census import CENSUS
from spineforge.homology import homology_groups
from spineforge.simplicial import InvalidComplexError, validate_closed_manifold


def face_id(c, k, verts):
    """Id of the k-face of ``c`` with vertices ``verts``, in any order."""
    try:
        return c.face_index[k][tuple(sorted(verts))]
    except KeyError:
        raise InvalidComplexError(f"no {k}-face with vertices {tuple(verts)}")


def euler_characteristic(c):
    return sum((-1) ** k * len(fk) for k, fk in enumerate(c.faces))


def census_self_check():
    """Validate every census entry against its expectations; raise on drift."""
    for name, entry in CENSUS.items():
        c = entry.builder()
        report = validate_closed_manifold(c)
        if not report.ok:
            raise InvalidComplexError(f"census {name}: manifold checks failed: {report}")
        if c.f_vector != entry.f_vector:
            raise InvalidComplexError(
                f"census {name}: f-vector {c.f_vector} != expected {entry.f_vector}")
        profile = homology_groups(c)
        got = tuple((b, tuple(t)) for b, t in profile.groups)
        if got != entry.homology:
            raise InvalidComplexError(
                f"census {name}: homology {got} != expected {entry.homology}")
