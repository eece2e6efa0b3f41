"""Farthest-point map f(p) = F(phi(p)) evaluated on the star unfolding.

Candidates are circumcenters of good triples of source images (interior
points with at least three minimizers back to the source) and the cone
points themselves; f(p) keeps whichever family realizes the larger
distance, or both on a tie. A good triple's circumcenter is a vertex of
the Voronoi diagram of the source images, so only the triples at those
vertices are tested.
"""

import math
from dataclasses import InitVar, dataclass, field
from itertools import combinations

import numpy as np

from .geom import circumcenter
from .star_unfold import unfold

# images within this distance (x chart_scale) of the nearest one at a
# Voronoi vertex count as its nearest too: cocircular images meet at one
# vertex, which qhull may split into several by rounding
VORONOI_MERGE = 1e-6


# slotted: batch callers keep thousands of results, each with ~K good triples
@dataclass(slots=True)
class GoodTriple:
    indices: tuple      # three 0-based source-image indices
    center: tuple       # circumcenter in the star-polygon plane
    radius: float


@dataclass(slots=True)
class FarthestPoint:
    point: object       # SurfacePoint
    provenance: str     # "triple" | "cone"
    center: tuple       # planar image (triple) or cone image (cone)
    distance: float
    indices: tuple      # triple indices, or (image index,) for a cone


@dataclass(slots=True)
class FarthestResult:
    surface: object
    source: object          # phi(p), the unfolding source
    m1: float
    m2: float
    radius: float
    points: list            # FarthestPoint entries, deduplicated
    # all good triples: kept when passed, else rebuilt on access (`good`)
    good: InitVar[list] = None
    _good: list = field(default=None, init=False, repr=False, compare=False)
    _unfolding: object = field(default=None, repr=False, compare=False)

    def __post_init__(self, good):
        self._good = good

    @property
    def unfolding(self):
        """The star unfolding around `source`. Unless the caller supplied
        it, it is rebuilt on first access (`unfold` is deterministic), so
        that a kept result does not pin the whole unfolding."""
        if self._unfolding is None:
            self._unfolding = unfold(self.surface, self.source)
        return self._unfolding


def _result_good(result):
    """All good triples of the result's unfolding, in lexicographic index
    order, rebuilt on first access like the unfolding itself, so that a
    kept result does not pin ~K of them."""
    if result._good is None:
        result._good = good_triples(result.unfolding)
    return result._good


# a property, not a field: `good` is also the init argument, so that
# dataclasses.replace(result, good=...) keeps working
FarthestResult.good = property(_result_good)


def triple_conditions(u, triple, *, slack=None):
    """Good-triple test for one index triple; None when no circumcenter.

    Centers within 1e-9 x chart_scale of the polygon boundary fail the
    interior condition, and star paths may not graze a polygon vertex that
    closely. slack loosens the minimality condition (condition 3): a
    visible image may undercut the triple's radius by up to slack before
    the triple stops being good. The strict evaluator uses float-noise
    slack; the curve validity filter passes its landing tolerance.
    """
    eps = 1e-9 * u.surface.chart_scale
    if slack is None:
        slack = 1e-12 * u.surface.chart_scale
    imgs = u.source_images
    i, j, k = triple
    c = circumcenter(imgs[i], imgs[j], imgs[k])
    if c is None:
        return None
    if not u.contains(c, clearance=eps):
        return None
    if not (u.is_star_path(c, imgs[i], eps)
            and u.is_star_path(c, imgs[j], eps)
            and u.is_star_path(c, imgs[k], eps)):
        return None
    r = math.dist(c, imgs[i])
    for n in range(u.n_images):
        if n in (i, j, k):
            continue
        if math.dist(c, imgs[n]) < r - slack and \
                u.is_star_path(c, imgs[n], eps):
            return None
    return GoodTriple((i, j, k), c, r)


def _voronoi_candidates(u):
    """Index triples among the nearest source images of some Voronoi
    vertex: the only triples whose circumcenter can be a good one."""
    vor = u.voronoi()
    d = np.linalg.norm(vor.vertices[:, None, :] - vor.points[None, :, :],
                       axis=2)
    nearest = d <= d.min(axis=1, keepdims=True) + \
        VORONOI_MERGE * u.surface.chart_scale
    candidates = set()
    for row in nearest:
        candidates.update(combinations(np.flatnonzero(row).tolist(), 3))
    return candidates


def good_triples(u):
    """All good triples of the unfolding, in lexicographic index order.

    Clipped to the star polygon, the Voronoi diagram of the source images
    is the cut locus, so a good triple's circumcenter is a Voronoi vertex
    and its images are the vertex's nearest ones. Every triple among the
    nearest images of some vertex is tested. Collinear image triples have
    no circumcenter and are skipped; centers on the polygon boundary fail
    the interior condition.
    """
    out = []
    for triple in sorted(_voronoi_candidates(u)):
        g = triple_conditions(u, triple)
        if g is not None:
            out.append(g)
    return out


def max_good_radius(u):
    """max(g.radius for g in good_triples(u)), or -inf without a good
    triple, testing the candidates by decreasing circumradius and stopping
    at the first good one. The radius is computed as in
    `triple_conditions`, so the two agree bit for bit."""
    imgs = u.source_images
    ranked = []
    for triple in _voronoi_candidates(u):
        i, j, k = triple
        c = circumcenter(imgs[i], imgs[j], imgs[k])
        if c is not None:
            ranked.append((math.dist(c, imgs[i]), triple))
    ranked.sort(reverse=True)
    for r, triple in ranked:
        if triple_conditions(u, triple) is not None:
            return r
    return -math.inf


def evaluate_f(surface, p, *, eps_tie=None, unfolding=None):
    """All farthest points from phi(p), with the radius d(p).

    Ties within eps_tie emit every candidate: f is genuinely multi-valued
    on the special curves and downstream classification needs the full set.
    eps_tie only widens what is reported: the unfolding keeps its default
    cut choice, since a cut picked among wider near-ties can be longer
    than the distance to its cone point. A caller that needs the
    unfolding afterwards passes its own as `unfolding`, which the result
    keeps, with its good triples.
    """
    if eps_tie is None:
        eps_tie = surface.eps_tie
    u = unfolding
    if u is None:
        u = unfold(surface, surface.antipode(p))
    gts = good_triples(u)
    m1 = max((g.radius for g in gts), default=-math.inf)
    m2 = max(c.length for c in u.cuts)
    radius = max(m1, m2)

    merge_tol = max(1e-9 * surface.chart_scale, 1e-3 * eps_tie)
    points = []
    if m1 >= m2 - eps_tie:
        centers = []
        for g in sorted(gts, key=lambda g: -g.radius):
            if g.radius < m1 - eps_tie:
                break
            dup = next((c for c in centers
                        if math.dist(c[0], g.center) < merge_tol), None)
            if dup is None:
                centers.append((g.center, g))
        for c, g in centers:
            pt = u.fold_back(c)
            points.append(FarthestPoint(surface.canonical(pt), "triple",
                                        c, g.radius, g.indices))
    if m2 >= m1 - eps_tie:
        for n, cut in enumerate(u.cuts):
            if cut.length >= m2 - eps_tie:
                pt = surface.vertex_point(cut.vid)
                points.append(FarthestPoint(pt, "cone", u.cone_images[n],
                                            cut.length, (n,)))
    return FarthestResult(surface, u.source, m1, m2, radius, points,
                          gts if unfolding is not None else None,
                          _unfolding=unfolding)
