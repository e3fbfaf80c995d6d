"""Benchmark of the sandpiles acceptance sweeps, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload spm_funnel --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload sqrt_law --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --compare OLD.jsonl NEW.jsonl

With --trace 0 the named workload's pass is repeated until --seconds have
passed and the end-to-end metrics of BENCHMARK.json are reported: the pass
time and states explored per second (medians over the run), the resident
memory the passes add to the process's high-water mark at the end of
set-up, and the set-up time of a cold interpreter (median of probes spread
over the run).  With --trace 1 each round replays every workload once
untraced and once with a span around each call into the package, until
--seconds have passed, and reports the per-layer metrics as medians over
the rounds; the paired untraced passes give each workload's tracing
overhead.  The spans of every round are kept in memory and written to
.bench_build/spans-<workload>.jsonl, replacing the last traced run's, when
the run ends.  Outputs are checked after the clock stops.  The last line
of standard output is the summary object; the line before it is the full
result document, which --out appends to a file that --compare reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / f"sandpiles-bench-{os.getpid()}"
MIN_PASSES = 3
PROBE_EVERY = 3


def _load_package():
    if not (SRC / "sandpiles" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'sandpiles'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (part of what set-up pays for)
    import sandpiles

    if not Path(sandpiles.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported sandpiles from {sandpiles.__file__}, not from {SRC}")
    return sandpiles


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sandpiles").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _provenance(seed: int) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def _setup_probe(workload: str, seed: int) -> float:
    """One cold set-up, timed from before a fresh interpreter starts to the
    moment it holds the workload's inputs.  Both ends read CLOCK_MONOTONIC,
    which all processes share."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    probe = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(probe.stdout.split()[-1]) - t0


class Checker:
    """Runs a workload's checks on each pass and keeps the tally."""

    def __init__(self, workload: str):
        import checks
        from sandpiles import enumerate_fixed_points, spm_fixed_point
        from workloads import CENSUS_N, COUNT_N, LATTICE_N, SPM_N

        self.attempted = 0
        self.failures: list[str] = []
        if workload == "spm_funnel":
            sizes = checks.spm_orbit_sizes(max(SPM_N, LATTICE_N))
            self._check = lambda out: checks.check_spm_funnel(out, sizes, spm_fixed_point)
        elif workload == "sqrt_law":
            self._check = lambda out: checks.check_sqrt_law(out, COUNT_N, CENSUS_N)
        else:
            digests = checks.stored_digests()
            self._check = lambda out: checks.check_sspm_orbit(out, digests, enumerate_fixed_points)

    def __call__(self, out: dict) -> None:
        for name, ok, detail in self._check(out):
            self.attempted += 1
            if not ok:
                self.failures.append(f"{name}: {detail}")


def _timed_pass(workload: str, roots, call) -> tuple[float, dict]:
    from workloads import PASSES

    t0 = time.perf_counter()
    out = PASSES[workload](roots, call, SCRATCH)
    return time.perf_counter() - t0, out


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _end_to_end(workload: str, seed: int, seconds: float, roots, checker: Checker) -> tuple[dict, dict, dict]:
    """Repeat the pass for `seconds`, with a cold set-up probe after every
    PROBE_EVERY-th pass, and report medians.  The probes are spread over
    the run so that they sample the same stretch of the machine's load as
    the passes.  workload_rss_mb is how far the passes and their checks
    raise the process's peak resident memory above its peak at the end of
    set-up, so that it is their own memory rather than the interpreter's,
    numpy's and the package's."""
    from workloads import direct

    rss = {"after_setup_mb": _rss_mb()}
    raw: dict[str, list[float]] = {"wall_s": [], "states_per_s": [], "setup_s": []}
    started = time.perf_counter()
    while len(raw["wall_s"]) < MIN_PASSES or time.perf_counter() - started < seconds:
        wall, out = _timed_pass(workload, roots, direct)
        raw["wall_s"].append(wall)
        raw["states_per_s"].append(out["states"] / wall)
        print(f"{workload} pass {len(raw['wall_s'])}: {wall:.3f} s, {out['states']} states", file=sys.stderr)
        checker(out)
        del out
        if len(raw["wall_s"]) % PROBE_EVERY == 1:
            raw["setup_s"].append(_setup_probe(workload, seed))
    rss["peak_mb"] = _rss_mb()
    raw["workload_rss_mb"] = [rss["peak_mb"] - rss["after_setup_mb"]]
    return {k: statistics.median(v) for k, v in raw.items()}, raw, rss


def _microbench(sandpiles, vertices) -> dict[str, float]:
    """States per second of three per-shape entry points over og((22), SSPM)."""
    model = sandpiles.Model.SSPM
    cases = {
        "core.successors.states_per_s": lambda c: sandpiles.successors(c, model),
        "core.enabled_moves.states_per_s": lambda c: sandpiles.enabled_moves(c, model),
        "structure.sspm_member.states_per_s": sandpiles.sspm_member,
    }
    out = {}
    for name, fn in cases.items():
        rates = []
        for _ in range(5):
            t0 = time.perf_counter()
            for c in vertices:
                fn(c)
            rates.append(len(vertices) / (time.perf_counter() - t0))
        out[name] = statistics.median(rates)
    return out


def _traced(workload: str, seed: int, seconds: float, checker_for, sandpiles) -> tuple[dict, dict, list]:
    """Rounds of: the per-shape microbenchmarks, then each workload once
    untraced and once traced, until `seconds` have passed.  Layer metrics
    are medians over rounds; trace.overhead_s.<workload> is the median over
    rounds of traced minus untraced pass time.  Also returns every round's
    tracers, so that their spans can be written out when the run ends."""
    from spans import Tracer
    from workloads import PASSES, direct, make_inputs

    order = [workload] + [w for w in PASSES if w != workload]
    inputs = {w: make_inputs(w, seed) for w in order}
    og22 = sandpiles.build(sandpiles.Configuration((22,)), sandpiles.Model.SSPM).vertices
    plain = {w: [] for w in order}
    traced = {w: [] for w in order}
    rounds: list[dict[str, float]] = []
    tracers: list[tuple[int, str, Tracer]] = []
    # One untimed pass of each workload first, so that first-call costs
    # (lazy imports, cold caches) land in neither side of the overhead.
    for w in order:
        _timed_pass(w, inputs[w], direct)
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        layers = _microbench(sandpiles, og22)
        for w in order:
            tracer = Tracer()
            # Alternate which pass goes first, so a slower first pass does
            # not always land on the same side of the overhead.
            for call in (direct, tracer) if len(rounds) % 2 == 0 else (tracer, direct):
                wall, out = _timed_pass(w, inputs[w], call)
                checker_for[w](out)
                del out
                (traced if call is tracer else plain)[w].append(wall)
            tracer.finish()
            for name, value in tracer.layers().items():
                layers[name] = layers.get(name, 0.0) + value
            tracers.append((len(rounds), w, tracer))
        builds = layers["orbit.build.sspm.calls"]
        layers["orbit.build.sspm.fresh_ratio"] = (layers["orbit.build.sspm.vertices"] - builds) / layers["orbit.build.sspm.moves"]
        rounds.append(layers)
    raw = {name: [r[name] for r in rounds] for name in rounds[0]}
    values = {k: statistics.median(v) for k, v in raw.items()}
    for w in order:
        raw[f"trace.overhead_s.{w}"] = [t - p for t, p in zip(traced[w], plain[w])]
        values[f"trace.overhead_s.{w}"] = statistics.median(raw[f"trace.overhead_s.{w}"])
    return values, raw, tracers


def run(args) -> int:
    sandpiles = _load_package()
    sys.path.insert(0, str(Path(__file__).parent))
    from workloads import PASSES, make_inputs

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in PASSES:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(PASSES)}")
    SCRATCH.mkdir(parents=True, exist_ok=True)
    extra = {}
    try:
        if args.trace:
            from spans import write

            checkers = {w: Checker(w) for w in PASSES}
            values, raw, tracers = _traced(args.workload, args.seed, args.seconds, checkers, sandpiles)
            path = ROOT / ".bench_build" / f"spans-{args.workload}.jsonl"
            extra["spans"] = {"path": path.relative_to(ROOT).as_posix(), "count": write(path, tracers)}
        else:
            roots = make_inputs(args.workload, args.seed)
            checkers = {args.workload: Checker(args.workload)}
            values, raw, extra["rss"] = _end_to_end(args.workload, args.seed, args.seconds, roots, checkers[args.workload])
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    attempted = sum(c.attempted for c in checkers.values())
    failures = [f for c in checkers.values() for f in c.failures]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    doc = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": _provenance(args.seed),
        "roots": {w: [list(r.columns) for r in make_inputs(w, args.seed)] for w in checkers},
        "samples": {m: len(raw[m]) for m in metrics},
        "quartiles": {m: _quartiles(raw[m]) for m in metrics},
        "raw": {m: raw[m] for m in metrics},
        **extra,
        "checks": {"attempted": attempted, "failed": len(failures), "error_rate": len(failures) / attempted, "failures": failures[:20]},
        "metrics": metrics,
    }
    line = json.dumps(doc)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    for f in failures[:20]:
        print(f"check failed: {f}", file=sys.stderr)
    print(line)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


def compare(old_path: str, new_path: str) -> int:
    """Per workload and metric: each side's median and quartiles over its
    runs, and the ratio new/old with the old median as its base."""

    def load(path):
        groups: dict[tuple[str, str], list[float]] = {}
        units = {}
        for line in Path(path).read_text().splitlines():
            doc = json.loads(line)
            for name, m in doc["metrics"].items():
                groups.setdefault((doc["workload"], name), []).append(m["value"])
                units[name] = m["unit"]
        return groups, units

    def cell(values: list[float]) -> str:
        q1, q2, q3 = _quartiles(values)
        return f"{q1:.4g}/{q2:.4g}/{q3:.4g} ({len(values)})"

    old, units = load(old_path)
    new, _ = load(new_path)
    print(f"{'workload':<11} {'metric':<38} {'unit':<6} {'old q1/median/q3 (n)':<34} {'new q1/median/q3 (n)':<34} new/old")
    for key in sorted(old.keys() & new.keys()):
        base = statistics.median(old[key])
        ratio = f"{statistics.median(new[key]) / base:.3f} of {base:.4g}" if base else "n/a (old median 0)"
        print(f"{key[0]:<11} {key[1]:<38} {units[key[1]]:<6} {cell(old[key]):<34} {cell(new[key]):<34} {ratio}")
    for key in sorted(old.keys() ^ new.keys()):
        print(f"{key[0]:<11} {key[1]:<38} only in {'old' if key in old else 'new'}")
    return 0


def setup_probe(args) -> int:
    _load_package()
    sys.path.insert(0, str(Path(__file__).parent))
    from workloads import make_inputs

    make_inputs(args.workload, args.seed)
    print(time.clock_gettime(time.CLOCK_MONOTONIC))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="spm_funnel")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the full result document to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two --out files")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
