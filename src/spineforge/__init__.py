"""spineforge: cell + codimension-1 spine decompositions of triangulated
closed manifolds, with cell charts, the retraction homotopy, integer-homology
verification, and tensor-field deformation toward the thickened spine."""

from .census import CENSUS, build_census, census_names
from .chart import (BrokenLine, CellChart, ChartDomainError, PointRef, Segment,
                    broken_line_to, build_chart, forward_map, inverse_map,
                    retract, stretch)
from .fields import (FrameField, HoleRegion, TensorField, black_hole_region,
                     constant_tensor, continuity_report, deform_tensor,
                     extend_frame)
from .homology import (HomologyProfile, homology_groups, punctured_complex,
                       smith_normal_form, verify_theorem2)
from .simplicial import (InvalidComplexError, Metric, SimplicialComplex,
                         ValidationReport, read_tri, validate_closed_manifold,
                         write_tri)
from .spine import (Decomposition, GateStep, decompose, spine_connected,
                    spine_subcomplex)

__version__ = "0.1.0"
