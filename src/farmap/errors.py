"""Exception types shared across the package."""


class FarmapError(Exception):
    """Base class for all package errors."""


class NotCentrallySymmetric(FarmapError):
    """Input vertex set has no antipodal pairing within tolerance."""


class DegenerateHull(FarmapError):
    """Input points are coplanar or otherwise do not span a 3D hull."""


class GluingMismatch(FarmapError):
    """Net edges glued together have inconsistent lengths or structure."""


class InvolutionNotIsometric(FarmapError):
    """Supplied antipodal pairing is not a length-preserving involution."""


class SearchBudgetExceeded(FarmapError):
    """Geodesic unfolding search exceeded its node budget."""


class CutDegeneracy(FarmapError):
    """Two cuts of a star unfolding coincide beyond relabeling."""


class VoronoiDegeneracy(FarmapError):
    """Qhull cannot build the Voronoi diagram of the source images."""


class NotInRegion(FarmapError, KeyError):
    """Point lies in no cell of the region (or decomposition) asked.

    Also a KeyError: region lookups that miss are control flow for the
    samplers, which try the next point."""


class OutsidePolygon(FarmapError):
    """Planar point is not strictly inside the star polygon."""


class OutsideFace(FarmapError):
    """A computed surface point lies outside its face triangle."""


class NotConverged(FarmapError):
    """Orbit did not converge, so no limit certificate exists."""


class MonotonicityViolation(FarmapError):
    """Orbit radius decreased beyond tolerance (signals an engine bug)."""


class ArrangementDegeneracy(FarmapError):
    """Cut-locus edges overlap non-transversally beyond tolerance."""


class FitDegenerate(FarmapError):
    """Region too thin to fit an isometry from non-collinear samples."""


class AllTranslations(FarmapError):
    """All three pairwise isometry compositions are translations."""


class CompositionIsTranslation(FarmapError):
    """Chosen isometry pair composes to a translation, not a rotation."""


class NoSolution(FarmapError):
    """Equidistance line system has no real solution."""
