"""Command-line front end: seeded trajectories, orbit-graph exports,
fixed-point galleries, counting tables, orbit profiles and the
verification suite.

Exit codes: 0 success, 1 a verification or counting mismatch, 2 usage
error, 3 an exploration limit cut the run short, 141 standard output
closed early (128 + SIGPIPE, as a shell reports for a tool a pipe killed).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from math import inf, isqrt
from pathlib import Path

from .census import SinkCensus, sink_census
from .core import Configuration, Model, _fire
from .orbit import (
    MAX_VERTICES,
    OrbitGraph,
    build,
    export,
    lattice_check,
    transient_stats,
    verify,
)
from .structure import enumerate_fixed_points, fixed_point_counts

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_PIPE = 141

# Search cell of a count_table row whose sweep hit an exploration limit.
TRUNCATED = "trunc"


def evolve(c0: Configuration, model: Model, seed: int) -> list[Configuration]:
    """Fire uniformly random enabled moves until a fixed point.

    The schedule comes from random.Random(seed) (Mersenne Twister, stable
    across platforms) choosing among the enabled moves ordered by column
    index, left before right at one column, so a trajectory is
    reproducible from its seed.  Termination is guaranteed because every
    move strictly lowers energy.
    """
    model = Model(model)
    rng = random.Random(seed)
    cur = c0.columns
    trajectory = [c0]
    while True:
        _, kids = _fire(cur, model)
        if not kids:
            return trajectory
        cur = kids[rng.randrange(len(kids))]
        trajectory.append(Configuration(cur))


def render_gallery(shapes: tuple[Configuration, ...]) -> str:
    """All shapes side by side on a shared baseline, '#' grain, '.' empty."""
    height = max(max(s.columns) for s in shapes)
    return "\n".join(
        "  ".join("".join("#" if h >= level else "." for h in s.columns) for s in shapes)
        for level in range(height, 0, -1)
    )


def count_table(
    n_max: int, bfs_cutoff: int, max_vertices: int = MAX_VERTICES
) -> tuple[list[tuple[int, int, int, int, int | str | None]], bool, tuple[int, SinkCensus] | None]:
    """Rows (n, single-top, wide-top, closed-form total, search total).

    The search column is filled by an actual sweep for n up to the
    cutoff and left empty beyond it; it holds TRUNCATED where the sweep
    hit an exploration limit.  The closed-form total is the sum of the
    two family counts.  The boolean reports whether every row is
    internally consistent: the closed form equals isqrt(n), and the
    sweep (when it ran to the end) found the same number of sinks.  The
    last item is the first truncated sweep, as (n, census), or None when
    no limit was hit.
    """
    rows: list[tuple[int, int, int, int, int | str | None]] = []
    ok = True
    cut: tuple[int, SinkCensus] | None = None
    for n in range(1, n_max + 1):
        census = fixed_point_counts(n)
        searched: int | str | None = None
        if n <= bfs_cutoff:
            # the cap goes positionally: the bench's census wrapper forwards
            # the third positional argument
            swept = sink_census(Configuration((n,)), Model.SSPM, max_vertices)
            searched = TRUNCATED if swept.truncated else len(swept.sinks)
            if swept.truncated and cut is None:
                cut = (n, swept)
        total = census.total
        rows.append((n, census.single_top, census.wide_top, total, searched))
        if total != isqrt(n):
            ok = False
        if isinstance(searched, int) and searched != total:
            ok = False
    return rows, ok, cut


def _int(text: str, low: int, message: str, high: float = inf) -> int:
    # ASCII digits after at most a minus sign, so a negative value meets
    # its range check; int() alone would also take spaces, a plus sign,
    # other scripts' digits and underscores, reading 1_0 as 10
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    value = int(text)
    if not low <= value < high:
        raise argparse.ArgumentTypeError(message)
    return value


def _positive_int(text: str) -> int:
    return _int(text, 1, "must be a positive integer")


def _non_negative_int(text: str) -> int:
    return _int(text, 0, "must be a non-negative integer")


def _seed(text: str) -> int:
    return _int(text, 0, "seed must fit in 64 unsigned bits", 2**64)


def _shape(text: str) -> Configuration:
    # the parts are read left to right, and the first bad one is reported
    try:
        cols = [_int(part, 1, "heights must be positive integers") for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated heights, like 3,2,1") from None
    return Configuration(tuple(cols))


def _emit(payload: str | bytes, out: str | None) -> None:
    if isinstance(payload, str):
        payload = payload.encode()
    if out is not None:
        try:
            Path(out).write_bytes(payload)
        except OSError as err:
            # A path that cannot be written is a usage error, not a mismatch.
            print(f"error: cannot write --out {out}: {err.strerror}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE) from None
        return
    sys.stdout.buffer.write(payload)
    if not payload.endswith(b"\n"):
        sys.stdout.buffer.write(b"\n")
    sys.stdout.buffer.flush()


def _root(ns: argparse.Namespace) -> Configuration:
    return ns.config if ns.config is not None else Configuration((ns.n,))


def _limit_hit(what: str, max_vertices: int, vertices: int, depth: int) -> int:
    # One stderr line per exit 3; standard output is left as it was.
    print(
        f"error: {what} exceeds max_vertices={max_vertices}:"
        f" stopped at {vertices} vertices, depth {depth}",
        file=sys.stderr,
    )
    return EXIT_LIMIT


def _graph_limit_hit(g: OrbitGraph, max_vertices: int) -> int:
    return _limit_hit(f"og(({g.root}))", max_vertices, g.vertex_count, max(g.depths))


def _cmd_evolve(ns: argparse.Namespace) -> int:
    model = Model(ns.model)
    trajectory = evolve(_root(ns), model, ns.seed)
    if ns.format == "json":
        doc = {
            "model": model.name,
            "seed": ns.seed,
            "trajectory": [list(c.columns) for c in trajectory],
        }
        _emit(json.dumps(doc, separators=(",", ":")), ns.out)
    else:
        _emit("\n".join(str(c) for c in trajectory), ns.out)
    return EXIT_OK


def _cmd_graph(ns: argparse.Namespace) -> int:
    g = build(_root(ns), Model(ns.model), ns.max_vertices)
    _emit(export(g, ns.format), ns.out)
    return _graph_limit_hit(g, ns.max_vertices) if g.truncated else EXIT_OK


def _cmd_fixpoints(ns: argparse.Namespace) -> int:
    shapes = enumerate_fixed_points(ns.n)
    if ns.format == "json":
        doc = {
            "n": ns.n,
            "count": len(shapes),
            "shapes": [list(c.columns) for c in shapes],
        }
        _emit(json.dumps(doc, separators=(",", ":")), ns.out)
    else:
        _emit(render_gallery(shapes), ns.out)
    return EXIT_OK


def _cmd_count(ns: argparse.Namespace) -> int:
    rows, ok, cut = count_table(ns.n, ns.bfs_cutoff, ns.max_vertices)
    header = ("n", "g1", "g2", "closed", "search")
    if ns.format == "csv":
        lines = [",".join(header)]
        for n, g1, g2, total, searched in rows:
            tail = "" if searched is None else str(searched)
            lines.append(f"{n},{g1},{g2},{total},{tail}")
    else:
        cells = [tuple(str(one) for one in header)]
        for n, g1, g2, total, searched in rows:
            cells.append(
                (str(n), str(g1), str(g2), str(total), "-" if searched is None else str(searched))
            )
        widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells]
    _emit("\n".join(lines), ns.out)
    if not ok:
        return EXIT_MISMATCH
    if cut is None:
        return EXIT_OK
    n, census = cut
    return _limit_hit(
        f"og(({n})), the first truncated row,", ns.max_vertices, census.vertex_count, census.depth
    )


def _cmd_verify(ns: argparse.Namespace) -> int:
    g = build(_root(ns), Model(ns.model), ns.max_vertices)
    report = verify(g)
    _emit(str(report), ns.out)
    if g.truncated:
        return _graph_limit_hit(g, ns.max_vertices)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _cmd_profile(ns: argparse.Namespace) -> int:
    # Orbit graphs of the single columns 1..n: sizes, sinks, shortest and
    # longest transients, and under SPM the lattice verdict.  No formula
    # is known for the shortest SSPM transient; this table is where to
    # look for one.  Each row is printed as soon as it is computed.
    model = Model(ns.model)
    spm = model is Model.SPM
    print(
        f"{'n':>4} {'vertices':>9} {'edges':>9} {'sinks':>6} {'short':>6} {'long':>6} {'secs':>7}"
        + (" lattice" if spm else ""),
        flush=True,
    )
    for n in range(1, ns.n + 1):
        t0 = time.perf_counter()
        g = build(Configuration((n,)), model, MAX_VERTICES)
        if g.truncated:
            return _graph_limit_hit(g, MAX_VERTICES)
        stats = transient_stats(g)
        row = (
            f"{n:>4} {g.vertex_count:>9} {len(g.edges):>9} {len(g.sink_ids):>6}"
            f" {stats.shortest:>6} {stats.longest:>6} {time.perf_counter() - t0:>7.2f}"
        )
        if spm:
            row += f" {'yes' if lattice_check(g) else 'NO':>7}"
        print(row, flush=True)
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sandpiles",
        description="Grain-pile rewriting: trajectories, orbit graphs, "
        "fixed points and their counting laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        return p

    def add_model(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--model",
            choices=["spm", "sspm"],
            default="sspm",
            help="rightward-only (spm) or symmetric (sspm) rule set",
        )

    def add_root(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--n", type=_positive_int, help="start from a single column of n grains")
        group.add_argument("--config", type=_shape, metavar="H1,H2,...", help="start from an explicit shape")

    def add_limit(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-vertices",
            type=_positive_int,
            default=MAX_VERTICES,
            help="stop exploring at this many shapes and exit 3 (default %(default)s); "
            "the cut rule is the one documented at sandpiles.orbit.MAX_VERTICES",
        )

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write to this path instead of standard output")

    p = command("evolve", _cmd_evolve, "run one seeded trajectory to a fixed point")
    add_model(p)
    add_root(p)
    p.add_argument("--seed", type=_seed, default=0, help="PRNG seed (default 0)")
    p.add_argument("--format", choices=["ascii", "json"], default="ascii")
    add_out(p)

    p = command("graph", _cmd_graph, "build the orbit graph and export it")
    add_model(p)
    add_root(p)
    p.add_argument("--format", choices=["dot", "json"], default="json")
    add_limit(p)
    add_out(p)

    p = command("fixpoints", _cmd_fixpoints, "render all stable shapes for n grains")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--format", choices=["ascii", "json"], default="ascii")
    add_out(p)

    p = command("count", _cmd_count, "tabulate fixed-point counts up to n")
    p.add_argument("--n", type=_positive_int, required=True, help="largest grain count tabulated")
    p.add_argument(
        "--bfs-cutoff",
        type=_non_negative_int,
        default=24,
        help="fill the search column for n up to this bound (default 24)",
    )
    p.add_argument("--format", choices=["ascii", "csv"], default="ascii")
    add_limit(p)
    add_out(p)

    p = command("verify", _cmd_verify, "build an orbit graph and check its invariants")
    add_model(p)
    add_root(p)
    add_limit(p)
    add_out(p)

    p = command("profile", _cmd_profile, "tabulate orbit sizes and transients of single columns up to n")
    add_model(p)
    p.add_argument("--n", type=_positive_int, required=True, help="largest grain count profiled")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
        return ns.run(ns)
    except SystemExit as stop:
        # argparse or _emit already printed the error; normalize its code
        return EXIT_USAGE if stop.code not in (0, None) else EXIT_OK
    except BrokenPipeError:
        # With standard output on devnull, the last flush at exit cannot fail.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
