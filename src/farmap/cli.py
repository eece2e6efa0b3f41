"""farmap command line: validate surfaces, draw star unfoldings, run and
certify orbit batches, trace the special curves, and aggregate a report.

Exit codes: 0 = all certified, 1 = usage or I/O error, 2 = a certification
failed. Outputs under --out are byte-deterministic for a fixed seed.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import presets
from .cutlocus import build_regions, region_isometries
from .curves import hyperbola_form, trace_curves
from .dynamics import (certify_limit, iterate, orbit_csv_rows,
                       periodicity_scan, synthetic_cycle_orbit)
from .errors import FarmapError
from .geom import polygon_is_simple
from .surface import SurfacePoint, build_from_gluing, build_from_vertices
from .svgout import net_svg, star_polygon_svg

TWO_PI = 2.0 * math.pi


@dataclass
class RunConfig:
    surface: object
    out: str
    seed: int = 0
    resolution: int = 512
    max_steps: int = 500
    orbits: int = 100
    tol_geom: float = None
    tol_fix: float = None
    tol_conv: float = None
    tol_curve: float = None

    def __post_init__(self):
        # a --tol-* flag overrides the surface's default
        s = self.surface
        if self.tol_geom is None:
            self.tol_geom = s.eps_geom
        if self.tol_fix is None:
            self.tol_fix = s.eps_fix
        if self.tol_conv is None:
            self.tol_conv = s.eps_conv
        if self.tol_curve is None:
            self.tol_curve = s.eps_curve

    def rng(self):
        return np.random.default_rng(self.seed)


def load_surface(args):
    if args.preset:
        return presets.make(args.preset)
    if not args.input:
        raise FarmapError("need --input FILE or --preset NAME")
    with open(args.input) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise FarmapError("surface JSON must be an object")
    if "vertices" in data:
        return build_from_vertices(data["vertices"])
    missing = [k for k in ("faces", "gluings") if k not in data]
    if missing:
        raise FarmapError(f"net JSON lacks {', '.join(missing)}")
    return build_from_gluing(data)


def _ensure_out(cfg):
    os.makedirs(cfg.out, exist_ok=True)


# -- validate ---------------------------------------------------------------

def cmd_validate(cfg):
    s = cfg.surface
    report = {}
    s.validate()
    report["n_faces"] = s.n_faces
    report["n_cone_points"] = s.n_cone_points
    report["deficits"] = s.deficits()
    report["deficit_sum"] = sum(s.deficits())
    report["gauss_bonnet_gap"] = abs(report["deficit_sum"] - 4 * math.pi)
    report["area"] = s.area
    report["diameter"] = s.diameter
    rng = cfg.rng()
    from .geodesics import distance
    worst = 0.0
    for _ in range(20):
        p, q = s.random_point(rng), s.random_point(rng)
        d1 = distance(s, p, q)
        d2 = distance(s, s.antipode(p), s.antipode(q))
        worst = max(worst, abs(d1 - d2))
    report["antipodal_isometry_gap"] = worst
    ok = (report["gauss_bonnet_gap"] < 1e-7
          and worst < 100 * cfg.tol_geom)
    report["ok"] = bool(ok)
    _ensure_out(cfg)
    with open(os.path.join(cfg.out, "validate.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"validate: {'PASS' if ok else 'FAIL'} "
          f"(sum deficits = {report['deficit_sum']:.12f})")
    return 0 if ok else 2


# -- unfold -----------------------------------------------------------------

def cmd_unfold(cfg, point=None):
    s = cfg.surface
    from .star_unfold import unfold
    if point is None:
        point = s.random_point(cfg.rng())
    u = unfold(s, point)
    svg = star_polygon_svg(u)
    _ensure_out(cfg)
    path = os.path.join(cfg.out, "star_unfolding.svg")
    with open(path, "w") as fh:
        fh.write(svg)
    simple = polygon_is_simple(u.vertices, 1e-9 * s.chart_scale)
    print(f"unfold: {len(u.vertices)}-gon, simple={simple}, "
          f"closure={u.closure_error:.3g} -> {path}")
    return 0 if simple else 2


# -- orbit ------------------------------------------------------------------

def _run_one_orbit(cfg, p0):
    """Iterate f from p0, scan the orbit for periodic points and certify
    its limit: the per-orbit step of `orbit` and `report`."""
    s = cfg.surface
    orb = iterate(s, p0, max_steps=cfg.max_steps, eps_conv=cfg.tol_conv)
    cert = None
    hits = periodicity_scan(s, orb, eps_conv=cfg.tol_conv)
    if orb.status == "converged":
        cert = certify_limit(s, orb)
    return orb, cert, hits


def cmd_orbit(cfg, starts=None):
    s = cfg.surface
    rng = cfg.rng()
    if starts is None:
        starts = [s.random_point(rng) for _ in range(cfg.orbits)]
    results = [_run_one_orbit(cfg, p) for p in starts]

    _ensure_out(cfg)
    n_conv = 0
    n_periodic = 0
    worst_resid = 0.0
    certs = []
    with open(os.path.join(cfg.out, "orbits.csv"), "w") as fh:
        fh.write("orbit,steps,status,converged_step,radius_final,"
                 "fixed_residual,minimizer_count,periodic_hits\n")
        for k, (orb, cert, hits) in enumerate(results):
            n_conv += orb.status == "converged"
            n_periodic += len(hits)
            resid = cert.fixed_point_residual if cert else math.nan
            count = cert.minimizer_count if cert else -1
            if cert:
                worst_resid = max(worst_resid, resid)
                certs.append({
                    "orbit": k,
                    "limit": [cert.limit.face, cert.limit.u, cert.limit.v],
                    "fixed_point_residual": resid,
                    "minimizer_count": count,
                    "on_cone_point": cert.on_cone_point,
                    "radius": cert.radius,
                })
            fh.write(f"{k},{len(orb.points)},{orb.status},"
                     f"{orb.converged_step},{orb.radii[-1]:.12g},"
                     f"{resid:.12g},{count},{len(hits)}\n")
    with open(os.path.join(cfg.out, "orbit_certificates.json"), "w") as fh:
        json.dump(certs, fh, indent=2, sort_keys=True)
    # per-orbit step logs for the first few orbits (debug aid)
    with open(os.path.join(cfg.out, "orbit_log.csv"), "w") as fh:
        fh.write("orbit,step,face,u,v,radius,step_size,candidates\n")
        for k, (orb, _, _) in enumerate(results[:10]):
            for row in orbit_csv_rows(orb):
                fh.write(f"{k}," + ",".join(str(x) for x in row) + "\n")
    ok = (n_conv == len(starts) and n_periodic == 0
          and worst_resid < cfg.tol_fix)
    print(f"orbit: {n_conv}/{len(starts)} converged, "
          f"{n_periodic} periodic hits, worst residual {worst_resid:.3g}")
    return 0 if ok else 2


# -- curves -----------------------------------------------------------------

def cmd_curves(cfg):
    s = cfg.surface
    dec = build_regions(s)
    all_curves = []
    for region in dec.regions:
        region_isometries(s, region)
        all_curves.extend(trace_curves(s, region,
                                       resolution=cfg.resolution,
                                       eps_curve=cfg.tol_curve,
                                       eps_fix=cfg.tol_fix))
    _ensure_out(cfg)
    svg = net_svg(s, dec=dec, curves=all_curves)
    with open(os.path.join(cfg.out, "curves.svg"), "w") as fh:
        fh.write(svg)
    tree_svg = net_svg(s, dec=dec, curves=None)
    with open(os.path.join(cfg.out, "cut_loci.svg"), "w") as fh:
        fh.write(tree_svg)
    dump = []
    for c in all_curves:
        mx, mean = c.residual_stats()
        dump.append({
            "region": c.region_id,
            "kind": c.kind,
            "data": [list(d) if isinstance(d, tuple) else d
                     for d in c.data],
            "label": c.label,
            "n_points": len(c.polyline),
            "polyline": [[round(x, 9), round(y, 9)] for x, y in c.polyline],
            "residual_max": mx,
            "residual_mean": mean,
        })
    regions_dump = []
    for r in dec.regions:
        entry = {
            "region": r.rid,
            "corners": len(r.polygon.vertices),
            "area": r.area,
            "convex_defect": r.convex_defect,
        }
        if r.isometries is not None:
            entry["cone_order"] = r.cone_order
            entry["isometries"] = [
                [iso.a, iso.b, iso.c, iso.d, iso.tx, iso.ty]
                for iso in r.isometries]
            entry["cone_constants"] = [list(c) for c in r.cone_constants]
            entry["fit_residual"] = r.fit_residual
        regions_dump.append(entry)
    with open(os.path.join(cfg.out, "curves.json"), "w") as fh:
        json.dump({"curves": dump, "regions": regions_dump}, fh,
                  indent=2, sort_keys=True)
    labels = {c.label for c in all_curves}
    bad = [c for c in all_curves
           if c.residual_stats()[0] > 10 * cfg.tol_curve]
    print(f"curves: {len(all_curves)} curves, labels {sorted(labels)}, "
          f"{len(dec.regions)} regions")
    return 0 if not bad else 2


# -- report -----------------------------------------------------------------

def cmd_report(cfg, inject_cycle=False):
    s = cfg.surface
    rng = cfg.rng()
    report = {"preset_diameter": s.diameter}

    # theorem 1: no generalized periodic points over an orbit batch
    starts = [s.random_point(rng) for _ in range(cfg.orbits)]
    results = [_run_one_orbit(cfg, p) for p in starts]
    certs = [cert for _, cert, _ in results if cert is not None]
    periodic_total = sum(len(hits) for _, _, hits in results)
    if inject_cycle:
        fake = synthetic_cycle_orbit(s, s.random_point(rng),
                                     s.random_point(rng))
        periodic_total += len(periodicity_scan(s, fake,
                                               eps_conv=cfg.tol_conv))
    report["orbits"] = len(starts)
    report["converged"] = sum(orb.status == "converged"
                              for orb, _, _ in results)
    report["periodic_hits"] = periodic_total
    report["theorem1_ok"] = periodic_total == 0
    report["theorem3_ok"] = report["converged"] == len(starts)

    worst_resid = max((c.fixed_point_residual for c in certs),
                      default=math.inf)
    counts_ok = all(c.on_cone_point
                    or (c.minimizer_count >= 4
                        and c.minimizer_count % 2 == 0)
                    for c in certs)
    report["worst_fixed_residual"] = worst_resid
    report["theorem2_ok"] = bool(worst_resid < cfg.tol_fix and counts_ok
                                 and len(certs) == len(starts))

    # theorem 4: hyperbola residuals for every certified limit
    dec = build_regions(s)
    worst_hyp = 0.0
    any_limit = False
    for cert in certs:
        rid = dec.locate(cert.limit)
        region = dec.regions[rid]
        if region.isometries is None:
            region_isometries(s, region)
        hf = hyperbola_form(s, region, region.chart(cert.limit),
                            level=cert.radius)
        worst_hyp = max(worst_hyp, hf.residual)
        any_limit = True
    report["worst_hyperbola_residual"] = worst_hyp
    report["theorem4_ok"] = bool(any_limit and
                                 worst_hyp < 1e-6 * s.diameter ** 2)

    _ensure_out(cfg)
    with open(os.path.join(cfg.out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    ok = all(report[f"theorem{k}_ok"] for k in (1, 2, 3, 4))
    for k in (1, 2, 3, 4):
        print(f"theorem{k}_ok: {report[f'theorem{k}_ok']}")
    return 0 if ok else 2


# -- entry point -------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="farmap",
        description="farthest-point map dynamics on centrally symmetric "
                    "convex polyhedra")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("validate", "unfold", "orbit", "curves", "report"):
        p = sub.add_parser(name)
        p.add_argument("--input", help="surface JSON (vertices or net)")
        p.add_argument("--preset", help="regular-octahedron | cube | "
                       "antiprism:h=H | perturbed-octahedron:seed=N")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--res", type=int, default=512)
        p.add_argument("--out", default="farmap_out")
        p.add_argument("--orbits", type=int, default=100)
        p.add_argument("--max-steps", type=int, default=500)
        for tol in ("geom", "fix", "conv", "curve"):
            p.add_argument(f"--tol-{tol}", type=float, default=None)
        if name == "unfold":
            p.add_argument("--point", help="face,u,v source point")
        if name == "report":
            p.add_argument("--selftest-inject-cycle", action="store_true",
                           help="feed a fake 2-cycle into the periodicity "
                                "detector (must flip theorem1_ok)")
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        surface = load_surface(args)
    except (FarmapError, OSError, json.JSONDecodeError, ValueError) as exc:
        from . import errors
        validation_errors = (errors.NotCentrallySymmetric,
                             errors.DegenerateHull, errors.GluingMismatch,
                             errors.InvolutionNotIsometric)
        if isinstance(exc, validation_errors):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cfg = RunConfig(surface=surface, out=args.out, seed=args.seed,
                    resolution=args.res, max_steps=args.max_steps,
                    orbits=args.orbits, tol_geom=args.tol_geom,
                    tol_fix=args.tol_fix, tol_conv=args.tol_conv,
                    tol_curve=args.tol_curve)
    try:
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "unfold":
            point = None
            if args.point:
                f, u, v = args.point.split(",")
                point = SurfacePoint(int(f), float(u), float(v))
            return cmd_unfold(cfg, point)
        if args.command == "orbit":
            return cmd_orbit(cfg)
        if args.command == "curves":
            return cmd_curves(cfg)
        if args.command == "report":
            return cmd_report(
                cfg, inject_cycle=getattr(args, "selftest_inject_cycle",
                                          False))
    except FarmapError as exc:
        print(f"certification error: {exc}", file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
