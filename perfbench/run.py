"""farmap benchmark: one workload per process, timed, then checked.

    python3 perfbench/run.py --workload orbits-presets --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`. `--workload all` runs every workload, each in its own
process, and prints each one's JSON line in turn. Results and traces go
to `.perfbench_out/`. See README.md in this directory for the workloads,
metrics and reference figures.
"""

import os

# one thread per process: no BLAS pools, and the orbit batch's own
# thread pool stays off
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["FARMAP_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import farmap  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import farmap from {ROOT / 'src'}: "
                 f"{exc}")


_import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
# layer functions are called through their modules, so that the traced
# mode's wrappers see the calls
from farmap import (cli, curves, cutlocus, farthest, presets,  # noqa: E402
                    surface)
from tracing import Tracer, per_layer_metrics  # noqa: E402

# metric names and units come from BENCHMARK.json, so the output and the
# declared metrics cannot drift apart
_BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for m in _BENCH["end_to_end"] + _BENCH["per_layer"]}


# Calibration. On a shared machine the CPU speed drifts by tens of percent
# within minutes, so raw times from two runs are hard to compare. While a
# plain run measures, a timer signal runs a fixed pure-Python reference
# loop every SAMPLE_EVERY_S seconds; its time is kept out of the measured
# times. Each round's times are then scaled by REF_NOMINAL_S divided by the
# median reference time of the samples taken within SCALE_WINDOW_S of the
# round. Set-ups run before the sampler starts, each between two runs of the
# reference loop, and are scaled by the mean of those two: the speed can
# flip within tens of ms, faster than the sampling period, and a set-up can
# be that short. A time reads as if the reference loop had taken
# REF_NOMINAL_S, about its median on the machine the benchmark was
# built on. A change to farmap moves calibrated times as it moves raw
# ones, while the machine's drift mostly cancels.
REF_NOMINAL_S = 0.01
REF_POINTS = 20_000
SAMPLE_EVERY_S = 0.5
SCALE_WINDOW_S = 2.0


def reference_s():
    """Wall time of the reference loop: float math, tuples, a list and a
    sort, like farmap's pure-Python geometry, and independent of farmap."""
    t0 = time.perf_counter()
    acc = 0.0
    pts = []
    for i in range(REF_POINTS):
        p = (i * 0.5, i * 0.25)
        acc += math.hypot(p[0] - 1.0, p[1] + 2.0)
        pts.append(p)
        if len(pts) == 1000:
            pts.sort(key=lambda q: -q[1])
            pts.clear()
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the reference loop on SIGALRM while it is entered.

    `clock()` is perf_counter minus the time spent in samples, so that
    intervals taken with it exclude the sampling, and so are the sample
    times."""

    def __init__(self):
        self.samples = []        # (clock time, reference seconds)
        self._spent = 0.0

    def _sample(self, signum, frame):
        at = self.clock()
        t = reference_s()
        self.samples.append((at, t))
        self._spent += t

    def clock(self):
        return time.perf_counter() - self._spent

    def scale(self, t0=-math.inf, t1=math.inf):
        """REF_NOMINAL_S over the median reference time of the samples
        within SCALE_WINDOW_S of [t0, t1]; the whole run if there are
        fewer than three."""
        near = [t for at, t in self.samples
                if t0 - SCALE_WINDOW_S <= at <= t1 + SCALE_WINDOW_S]
        if len(near) < 3:
            near = [t for _, t in self.samples]
        return REF_NOMINAL_S / statistics.median(near)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _timed_call(clock, fn, *args, **kwargs):
    """(seconds, result, error). An exception is returned as its repr,
    not raised: a raising operation counts as failed and the run goes on."""
    t0 = clock()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:
        return clock() - t0, None, repr(exc)
    return clock() - t0, result, None


class Op:
    """One operation: an orbit, an evaluation or a traced region."""

    def __init__(self, ms, payload=None, error=None):
        self.ms = ms
        self.payload = payload
        self.error = error
        self.problems = []


class Workload:
    # set-ups per plain run: about 2 s of set-up in all, since short
    # set-ups spread most
    setup_repeats = 3

    def __init__(self, seed):
        self.seed = seed
        self.clock = time.perf_counter

    def setup(self):
        raise NotImplementedError

    def run_round(self, r):
        """Run round r and return (seconds inside the program, ops)."""
        raise NotImplementedError

    def check(self, ops):
        """Fill op.problems; return problems not tied to one op."""
        raise NotImplementedError


# -- orbits-presets ----------------------------------------------------------

class OrbitsPresets(Workload):
    """`farmap orbit` batches, in process, on the three figure presets.

    Each preset's batch holds the starts that `farmap orbit --orbits 16
    --seed 0` draws on that preset, and --seed sets their order. A round is
    one batch per preset, so every round does the same work. The starts
    are fixed because random starts fail now and then on each of these
    presets (see CHANGES.md): with seeded starts, whether a run failed
    would depend on its seed."""

    preset_names = ("regular-octahedron", "perturbed-octahedron:seed=1",
                    "cube")
    # 16 orbits per preset make a round of about 12 s, so a 25-s run holds
    # two or three whole rounds of 48 orbits
    orbits_per_batch = 16
    pool_seed = 0
    oracle_level = 4
    setup_repeats = 40

    def setup(self):
        order = np.random.default_rng(self.seed).permutation(
            self.orbits_per_batch)
        self.batches = []
        for name in self.preset_names:
            s = presets.make(name)
            s.diameter
            rng = np.random.default_rng(self.pool_seed)
            pool = [s.random_point(rng) for _ in range(self.orbits_per_batch)]
            self.batches.append((s, [pool[i] for i in order]))

    def run_round(self, r):
        out = OUT / "orbit"
        busy = 0.0
        ops = []
        for s, starts in self.batches:
            cfg = cli.RunConfig(surface=s, out=str(out), orbits=len(starts))
            with contextlib.redirect_stdout(io.StringIO()):
                dt, _, error = _timed_call(self.clock, cli.cmd_orbit, cfg,
                                           starts)
            busy += dt
            if error:
                ops += [Op(math.nan, error=error) for _ in starts]
                continue
            per_orbit_ms = 1e3 * dt / len(starts)
            ops += [Op(per_orbit_ms, (s, orbit))
                    for orbit in _read_orbit_output(out)]
        return busy, ops

    def check(self, ops):
        for op in ops:
            s, orbit = op.payload
            op.problems = checks.check_orbit(s, orbit, self.oracle_level)
        return []


def _read_orbit_output(out):
    """Orbit records from orbits.csv joined with orbit_certificates.json."""
    with open(out / "orbit_certificates.json") as fh:
        certs = {c["orbit"]: c for c in json.load(fh)}
    with open(out / "orbits.csv") as fh:
        rows = fh.read().splitlines()[1:]
    records = []
    for row in rows:
        k, _, status, _, _, _, _, hits = row.split(",")
        rec = {"orbit": int(k), "status": status, "periodic_hits": int(hits)}
        cert = certs.get(int(k))
        if cert is not None:
            rec.update(cert)
            rec["limit"] = surface.SurfacePoint(*cert["limit"])
        records.append(rec)
    return records


# -- f-random-k20 ------------------------------------------------------------

def random_symmetric_polytope(seed, half=10):
    """K = 2*half cone points: `half` normalized Gaussian directions and
    their mirror images."""
    v = np.random.default_rng(seed).normal(size=(half, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return surface.build_from_vertices(np.vstack([v, -v]))


class FRandomK20(Workload):
    """evaluate_f at fixed random points on fixed random K=20 polytopes.

    The polytopes (seeds 0-3 of the recipe) and the points on them are the
    same in every run, and --seed sets the order of the evaluations. A
    round evaluates every point once, so every round does the same work
    and the times spread with the machine, not with the points drawn."""

    polytope_seeds = (0, 1, 2, 3)
    points_per_polytope = 8
    pool_seed = 0
    oracle_level = 5

    def setup(self):
        rng = np.random.default_rng(self.pool_seed)
        self.surfaces = []
        pool = []
        for j, ps in enumerate(self.polytope_seeds):
            s = random_symmetric_polytope(ps)
            s.diameter
            self.surfaces.append(s)
            pool += [(j, k, s.random_point(rng))
                     for k in range(self.points_per_polytope)]
        self.pool = [pool[i] for i in
                     np.random.default_rng(self.seed).permutation(len(pool))]

    def run_round(self, r):
        busy = 0.0
        ops = []
        for j, k, p in self.pool:
            dt, res, error = _timed_call(self.clock, farthest.evaluate_f,
                                         self.surfaces[j], p)
            busy += dt
            ops.append(Op(1e3 * dt, (j, k, r, p, res), error))
        return busy, ops

    def check(self, ops):
        problems = []
        for s in self.surfaces:
            problems += checks.check_surface(s)
        for op in ops:
            j, k, r, p, res = op.payload
            s = self.surfaces[j]
            op.problems = checks.check_evaluation(s, res)
            if k == 0 and r == 0:  # the oracle subset: one per polytope
                op.problems += checks.check_oracle(
                    s, p, res.radius, self.oracle_level, res.unfolding)
        return problems


# -- curves-octahedron -------------------------------------------------------

class CurvesOctahedron(Workload):
    """trace_curves at resolution 96 on regions of the regular octahedron.

    The eight regions are congruent, so any one costs the same; --seed
    picks the order in which they are traced, one region per round."""

    resolution = 96
    oracle_level = 4
    setup_repeats = 15

    def setup(self):
        s = presets.regular_octahedron()
        s.diameter
        dec = cutlocus.build_regions(s)
        for region in dec.regions:
            cutlocus.region_isometries(s, region)
        self.surface = s
        self.regions = dec.regions
        self.order = [int(i) for i in np.random.default_rng(
            self.seed).permutation(len(dec.regions))]

    def run_round(self, r):
        region = self.regions[self.order[r % len(self.order)]]
        dt, found, error = _timed_call(self.clock, curves.trace_curves,
                                       self.surface, region,
                                       resolution=self.resolution)
        return dt, [Op(1e3 * dt, (region, found), error)]

    def check(self, ops):
        for op in ops:
            region, found = op.payload
            op.problems = checks.check_region_curves(
                self.surface, region, found, self.oracle_level)
        return []


WORKLOAD_CLASSES = {"orbits-presets": OrbitsPresets,
                    "f-random-k20": FRandomK20,
                    "curves-octahedron": CurvesOctahedron}


# -- running -----------------------------------------------------------------

def _timed_setups(wl):
    """(raw seconds, calibrated seconds) of each set-up repeat."""
    out = []
    ref = reference_s()
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        wl.setup()
        dt = time.perf_counter() - t0
        ref_after = reference_s()
        out.append((dt, dt * 2 * REF_NOMINAL_S / (ref + ref_after)))
        ref = ref_after
    return out


def _run_rounds(wl, seconds):
    """Whole rounds until `seconds` of wall time have passed. Returns
    (start, end, seconds inside the program, ops) per round, the times
    taken on wl.clock."""
    rounds = []
    r = 0
    t0 = time.perf_counter()
    while True:
        start = wl.clock()
        b, round_ops = wl.run_round(r)
        rounds.append((start, wl.clock(), b, round_ops))
        r += 1
        if time.perf_counter() - t0 >= seconds:
            return rounds


def _check(wl, ops):
    problems = wl.check([op for op in ops if op.error is None])
    failed = sum(1 for op in ops if op.error or op.problems)
    correct = not problems and not any(op.problems for op in ops)
    for op in ops:
        for msg in ([op.error] if op.error else []) + op.problems:
            print(f"perfbench: {msg}", file=sys.stderr)
    for msg in problems:
        print(f"perfbench: {msg}", file=sys.stderr)
    return correct, failed


def run_plain(wl, seconds):
    setups = _timed_setups(wl)
    with SpeedSampler() as sampler:
        wl.clock = sampler.clock
        rounds = _run_rounds(wl, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    busy = 0.0
    ops = []
    raw_busy = 0.0
    for start, end, b, round_ops in rounds:
        scale = sampler.scale(start, end)
        busy += scale * b
        raw_busy += b
        for op in round_ops:
            op.ms *= scale
        ops += round_ops
    correct, failed = _check(wl, ops)
    passed = len(ops) - failed
    timed = [op.ms for op in ops if not op.error]
    metrics = {
        "setup_s": statistics.median(cal for _, cal in setups),
        "ops_per_s": passed / busy,
        "op_ms_p50": statistics.median(timed) if timed else math.inf,
        "peak_rss_mb": peak_rss_mb,
    }
    # in the result file only: the raw figures behind the calibrated ones
    calibration = {"ref_nominal_s": REF_NOMINAL_S,
                   "run_scale": sampler.scale(),
                   "samples": len(sampler.samples),
                   "raw_setup_s": statistics.median(raw
                                                    for raw, _ in setups),
                   "raw_ops_per_s": passed / raw_busy}
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": _named(metrics, "end_to_end"),
            "calibration": calibration}


def run_traced(wl, seconds, trace_path):
    """Per-layer totals over one traced set-up and the first traced round.

    Each round runs twice on the same inputs, once untraced and once
    traced, the order alternating from round to round so that neither side
    always meets warm caches. The median ratio of the two times is the
    tracing overhead. Rounds go on until `seconds` have passed, but later
    rounds are traced into a throwaway tracer: they only add to the
    overhead figure, so the totals cover the same work on every commit and
    do not grow with the machine's or the program's speed."""
    tracer = Tracer()
    with tracer.installed():
        wl.setup()
    ratios = []
    ops = []
    r = 0
    t0 = time.perf_counter()
    while r == 0 or time.perf_counter() - t0 < seconds:
        times = {}
        round_tracer = tracer if r == 0 else Tracer()
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            if traced:
                with round_tracer.installed():
                    times[traced], round_ops = wl.run_round(r)
            else:
                times[traced], round_ops = wl.run_round(r)
            ops += round_ops
        ratios.append(times[True] / times[False])
        r += 1
    tracer.dump(trace_path)
    correct, failed = _check(wl, ops)
    values = per_layer_metrics(tracer)
    values["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    values["trace.spans"] = len(tracer.spans)
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": _named(values, "per_layer")}


def _named(values, kind):
    """Every metric BENCHMARK.json declares of this kind, with its unit."""
    return {m["name"]: {"value": values[m["name"]],
                        "unit": UNITS[m["name"]]}
            for m in _BENCH[kind]}


def run_all(args):
    """Every workload, each in its own process, one after the other."""
    rc = 0
    for name in WORKLOAD_CLASSES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        if lines:
            print(lines[-1])
        rc = rc or proc.returncode or int(not lines)
    return rc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOAD_CLASSES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    wl = WORKLOAD_CLASSES[args.workload](args.seed)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        result = run_traced(wl, args.seconds, OUT / f"trace-{stem}.json")
    else:
        result = run_plain(wl, args.seconds)
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
