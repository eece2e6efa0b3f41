"""The benchmark's layer tracer (perfbench/tracing.py) against the package:
it wraps the star-path test in StarUnfolding's own namespace, counts the
triple tests that good_triples makes through the farthest module (a
result's `good`), and puts every original back when it is uninstalled."""

import importlib.util
from pathlib import Path

from farmap import farthest
from farmap.geom import circumcenter
from farmap.star_unfold import StarUnfolding

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_triple_tests_and_uninstalls(octa, fresh_rng):
    tracer = _tracing_module().Tracer()
    star_path = vars(StarUnfolding)["is_star_path"]
    triple_test = farthest.triple_conditions
    p = octa.random_point(fresh_rng(0))
    with tracer.installed():
        assert vars(StarUnfolding)["is_star_path"] is not star_path
        res = farthest.evaluate_f(octa, p)
        good = res.good
    assert vars(StarUnfolding)["is_star_path"] is star_path
    assert farthest.triple_conditions is triple_test
    counts = tracer.counts
    assert counts["farthest.triple_conditions.calls"] > 0
    assert counts["star_unfold.is_star_path.calls"] > 0
    # one triple test per Voronoi candidate with a circumcenter, each made
    # by good_triples; evaluate_f's own tests are not among them
    imgs = res.unfolding.source_images
    ranked = [t for t in farthest._voronoi_candidates(res.unfolding)
              if circumcenter(*(imgs[n] for n in t)) is not None]
    assert counts["farthest.good_triples.tested"] == len(ranked)
    assert counts["farthest.triple_conditions.calls"] > len(ranked)
    assert counts["farthest.good_triples.found"] == len(good)
