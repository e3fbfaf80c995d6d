"""Output checks for the benchmark passes, and the oracles they compare to.

The oracles are written here from the definitions, not imported from the
package or its tests: an SPM orbit size is counted by building staircases
from the lowest step upwards, and a fixed point is recognised from its
height differences.  Every check returns (name, ok, detail); a truncated
exploration counts as a failed check.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from math import isqrt
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")


def spm_orbit_sizes(n_max: int) -> list[int]:
    """sizes[n] = number of non-increasing crazed shapes holding n grains.

    Such a shape is a strictly decreasing list of step heights, each used
    by one or two columns; two doubled steps need a drop of at least 2
    somewhere between them.  Steps are added from the lowest upwards and
    `armed` records a doubled step with no such drop above it yet.
    """
    # ways[v][g][armed]: partial shapes whose highest step is v, using g grains
    ways = [[[0, 0] for _ in range(n_max + 1)] for _ in range(n_max + 1)]
    sizes = [0] * (n_max + 1)
    for v in range(1, n_max + 1):
        ways[v][v][0] += 1
        if 2 * v <= n_max:
            ways[v][2 * v][1] += 1
    for v in range(1, n_max + 1):
        for g in range(v, n_max + 1):
            for armed in (0, 1):
                w = ways[v][g][armed]
                if not w:
                    continue
                sizes[g] += w
                for up in range(v + 1, n_max - g + 1):
                    live = armed and up - v < 2
                    ways[up][g + up][live] += w
                    if not live and g + 2 * up <= n_max:
                        ways[up][g + 2 * up][1] += w
    return sizes


def is_sspm_fixed(cols: tuple[int, ...]) -> bool:
    """No grain can move either way: neighbours, ground included, differ by < 2."""
    padded = (0,) + tuple(cols) + (0,)
    return all(-1 <= a - b <= 1 for a, b in zip(padded, padded[1:]))


def is_spm_fixed(cols: tuple[int, ...]) -> bool:
    """No grain can move right: no column stands 2 above its right neighbour."""
    padded = tuple(cols) + (0,)
    return all(a - b <= 1 for a, b in zip(padded, padded[1:]))


def stored_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_root_sinks(tag: str, root, sinks, truncated: bool, fixed) -> list:
    """Every sink of a seeded root is a fixed point with the root's grains."""
    n = root.grains
    bad = [s for s in sinks if sum(s.columns) != n or not fixed(s.columns)]
    return [
        (f"{tag} ({root}) complete", not truncated, "exploration truncated"),
        (f"{tag} ({root}) sinks", bool(sinks) and not bad, f"bad sinks {bad[:3]}"),
    ]


def check_spm_funnel(out, spm_sizes: list[int], spm_fixed_point) -> list:
    results = []
    for n, census in enumerate(out["census"], start=1):
        want = (spm_fixed_point(n),)
        results.append((f"spm census ({n}) complete", not census.truncated, "truncated"))
        results.append((f"spm census ({n}) sink", census.sinks == want, f"{census.sinks}"))
        results.append(
            (
                f"spm census ({n}) states",
                census.vertex_count == spm_sizes[n],
                f"{census.vertex_count} != {spm_sizes[n]}",
            )
        )
    for root, census in zip(out["roots"], out["root_census"]):
        results += check_root_sinks("spm root", root, census.sinks, census.truncated, is_spm_fixed)
    for n, (vertices, truncated, lattice) in enumerate(out["lattice"], start=1):
        results.append((f"spm build ({n}) complete", not truncated, "truncated"))
        results.append(
            (f"spm build ({n}) vertices", vertices == spm_sizes[n], f"{vertices} != {spm_sizes[n]}")
        )
        results.append((f"lattice_check ({n})", lattice is True, f"returned {lattice}"))
    return results


def check_sqrt_law(out, count_n: int, census_n: int) -> list:
    results = [("count exit code", out["count_exit"] == 0, f"exit {out['count_exit']}")]
    path = out["count_path"]
    rows = list(csv.reader(io.StringIO(path.read_text() if path.is_file() else "")))
    ok_rows = rows[:1] == [["n", "g1", "g2", "closed", "search"]] and len(rows) == count_n + 1
    bad_row = None
    if ok_rows:
        for n, row in enumerate(rows[1:], start=1):
            g1, g2, total = (int(x) for x in row[1:4])
            searched = row[4]
            want_search = str(isqrt(n)) if n <= census_n else ""
            if int(row[0]) != n or g1 + g2 != total or total != isqrt(n) or searched != want_search:
                bad_row = row
                break
    results.append(("count table", ok_rows and bad_row is None, f"row {bad_row}"))
    census = out["count_census"]
    results.append(("count census calls", len(census) == census_n, f"{len(census)} calls"))
    for n, (root, res) in enumerate(census, start=1):
        want = out["enumerated"][n - 1]
        results.append((f"sspm census ({root}) complete", not res.truncated, "truncated"))
        results.append(
            (
                f"sspm census ({root}) sinks",
                root.columns == (n,) and res.sinks == want and len(want) == isqrt(n),
                f"{len(res.sinks)} sinks",
            )
        )
    for root, res in zip(out["roots"], out["root_census"]):
        results += check_root_sinks("sspm root", root, res.sinks, res.truncated, is_sspm_fixed)
    for n, shapes in enumerate(out["enumerated"], start=1):
        cols = [s.columns for s in shapes]
        ok = (
            len(cols) == isqrt(n)
            and cols == sorted(set(cols))
            and all(sum(c) == n and is_sspm_fixed(c) for c in cols)
        )
        results.append((f"enumerate_fixed_points({n})", ok, f"{len(cols)} shapes"))
    return results


def check_sspm_orbit(out, digests: dict[str, dict[str, str]], enumerate_fixed_points) -> list:
    results = []
    for item in out["orbits"]:
        root = item["root"]
        tag = f"sspm orbit ({root})"
        results.append((f"{tag} complete", not item["truncated"], "truncated"))
        results.append((f"{tag} verify", item["report"].ok, str(item["report"])))
        ts = item["transients"]
        results.append((f"{tag} transients", 0 <= ts.shortest <= ts.longest, f"{ts}"))
        if root.width == 1:
            n = root.grains
            want = sorted(enumerate_fixed_points(n))
            results.append(
                (f"{tag} sinks", sorted(item["sinks"]) == want and len(want) == isqrt(n), "")
            )
            for fmt in ("json", "dot"):
                got = sha256(item[fmt])
                want_digest = digests[fmt].get(str(n))
                results.append((f"{tag} {fmt} digest", got == want_digest, got))
        else:
            results += check_root_sinks(tag, root, item["sinks"], item["truncated"], is_sspm_fixed)
            doc = json.loads(item["json"])
            lines = item["dot"].decode("ascii").splitlines()
            results.append(
                (
                    f"{tag} exports",
                    len(doc["vertices"]) == item["vertices"]
                    and len(doc["edges"]) == item["edges"]
                    and len(lines) == item["vertices"] + item["edges"] + 2,
                    "export sizes disagree with the graph",
                )
            )
    return results
