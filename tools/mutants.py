"""Replay recorded mutants of the package against the tests that must kill them.

Run from the repository root:

    python3 tools/mutants.py              # every mutant
    python3 tools/mutants.py NAME ...     # the named ones
    python3 tools/mutants.py --list

A mutant names a file of the repository, an exact old text that must occur
in it once, the new text that replaces it, and the test ids that must fail
once it does.  For each mutant the tool copies src/, tests/ and
pyproject.toml into a temporary directory, applies that one replacement
and runs only those tests there, so the checkout is never touched.  First
it runs every listed test on an unchanged copy, since a test that already
fails kills nothing.  Hypothesis runs under one fixed seed, so a verdict
replays: a mutant that only some draws catch needs an @example in its
test, not another seed.

Each mutant is reported as killed (its tests fail), survived (they pass),
anchor-missing (its file is missing, or the old text does not occur
exactly once: the code moved, and the entry needs a new path or anchor,
not deletion, unless the code it mutates was itself deleted) or error (pytest could not run the tests, for instance
a test id that no longer exists), with its time.  The last line tallies
the verdicts and gives the wall time of the whole replay, baseline
included, as in "47 killed in 74.2 s".  The exit status is 0 only when
every mutant is killed.  Uses the standard library only; the tests themselves
need pytest, hypothesis and numpy.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 600
HYPOTHESIS_SEED = 0


class Mutant(NamedTuple):
    name: str
    why: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


CENSUS = "src/sandpiles/census.py"
CLI = "src/sandpiles/cli.py"
CORE = "src/sandpiles/core.py"
ORBIT = "src/sandpiles/orbit.py"
STRUCTURE = "src/sandpiles/structure.py"
CENSUS_TESTS = "tests/test_orbit.py::TestSinkCensus::"

MUTANTS = (
    Mutant(
        "spm-left-neighbour-any-drop",
        "the SPM kept-move table keeps column L - 1 at any drop >= 2, not only at 2",
        CENSUS,
        "    keep[q == p - 1] = 1\n",
        "    keep[q == p - 1] = 1 << 8 * signed.itemsize - 1\n",
        (CENSUS_TESTS + "test_matches_naive_census_on_small_roots[spm]",),
    ),
    Mutant(
        "spm-entry-0-offset",
        "the SPM root row offsets -c_0 by -2 as well as the slopes",
        CENSUS,
        "    a[1:] -= 2  # the slopes offset, -c_0 as it is\n",
        "    a -= 2\n",
        (
            CENSUS_TESTS + "test_matches_naive_census_on_small_roots[spm]",
            CENSUS_TESTS + "test_agrees_with_full_build[spm]",
        ),
    ),
    Mutant(
        "spm-widen-off-by-one",
        "SPM rows widen only when column W - 1 fires, one column too late",
        CENSUS,
        "        if np.count_nonzero(kept[:, -2]):\n",
        "        if np.count_nonzero(kept[:, -1]):\n",
        (CENSUS_TESTS + "test_spm_rows_widen_at_the_edge",),
    ),
    Mutant(
        "spm-row-mask-drops-a-bit",
        "a kept compare's move is read with the top bit of the row stride cleared",
        CENSUS,
        "        last = flat & width\n",
        "        last = flat & width >> 1\n",
        (
            CENSUS_TESTS + "test_matches_naive_census_under_limits[spm-50]",
            CENSUS_TESTS + "test_matches_naive_census_on_small_roots[spm]",
        ),
    ),
    Mutant(
        "sspm-row-split-drops-a-bit",
        "a firing's entry in its SSPM row is read with the top bit of the row stride cleared",
        CENSUS,
        "        cell = (flat & width) + np.arange(0, len(kids) << s, width + 1)\n",
        "        cell = (flat & width >> 1) + np.arange(0, len(kids) << s, width + 1)\n",
        (
            CENSUS_TESTS + "test_matches_naive_census_under_limits[sspm-50]",
            CENSUS_TESTS + "test_matches_naive_census_on_small_roots[sspm]",
        ),
    ),
    Mutant(
        "sspm-cross-word-flip-in-lower-word",
        "flip[64] holds both of its bits in word 0, so the key of a shape "
        "whose partial sum moves between 64 and 65 is wrong",
        CENSUS,
        "    flip[s, word] ^= bit\n",
        "    flip[s, word] ^= bit\n"
        "    flip[64:65, 0] |= np.uint64(1)\n"
        "    flip[64:65, 1:] = 0\n",
        (CENSUS_TESTS + "test_sspm_key_tables_match_the_definition",),
    ),
    Mutant(
        "sspm-second-widening",
        "SSPM rows double once at most, so a grain that reaches the edge "
        "a second time is lost off it",
        CENSUS,
        "        if np.count_nonzero(kids[:, 1]) or np.count_nonzero(kids[:, -2] != n):\n",
        "        if s == (len(cols) + 2).bit_length() and (\n"
        "            np.count_nonzero(kids[:, 1]) or np.count_nonzero(kids[:, -2] != n)\n"
        "        ):\n",
        (CENSUS_TESTS + "test_sspm_rows_widen_at_either_margin[3000]",),
    ),
    Mutant(
        "sspm-cross-word-flip-drops-upper-bit",
        "flip[t] for t a multiple of 64 keeps only its lower-word bit",
        CENSUS,
        "    flip[s, word] ^= bit\n",
        "    flip[s, word] ^= bit\n    t = np.arange(64, n, 64)\n    flip[t, t // 64] = 0\n",
        (
            CENSUS_TESTS + "test_sspm_key_tables_match_the_definition",
            CENSUS_TESTS + "test_sspm_key_crosses_word_boundaries[2000]",
        ),
    ),
    Mutant(
        "sspm-end-borders-keyed",
        "the borders past either end (sums 0 and n) own the bits of sums 1 "
        "and n - 1, so a grain crossing either end border flips no bit",
        CENSUS,
        "    flip[s, word] ^= bit\n",
        "    flip[s, word] ^= bit\n    flip[0] = flip[n - 1] = 0\n",
        (
            CENSUS_TESTS + "test_sspm_key_tables_match_the_definition",
            CENSUS_TESTS + "test_matches_naive_census_on_small_roots[sspm]",
        ),
    ),
    Mutant(
        "sspm-dedupe-within-level-only",
        "the SSPM sweep drops repeated keys within a level but not keys seen before",
        CENSUS,
        '        fresh = seen.take(seen.searchsorted(key), mode="clip") != key\n',
        "        fresh = np.ones(len(key), dtype=bool)\n",
        (CENSUS_TESTS + "test_matches_naive_census_on_small_roots[sspm]",),
    ),
    Mutant(
        "spm-rows-always-int8",
        "SPM rows are int8 whatever the root's tallest column",
        CENSUS,
        "    signed = np.dtype(_int_type(max(cols), cols))\n",
        "    signed = np.dtype(np.int8)\n",
        (CENSUS_TESTS + "test_spm_array_lane_takes_every_root[2000]",),
    ),
    Mutant(
        "census-vertex-cap-at-equality",
        "the exploration loop refuses a level that would bring the count exactly to max_vertices",
        ORBIT,
        "vertex_count + size > max_vertices:",
        "vertex_count + size >= max_vertices:",
        (
            CENSUS_TESTS + "test_matches_naive_census_under_limits[spm-1000]",
            "tests/test_orbit.py::test_build_matches_naive_build_under_limits",
        ),
    ),
    Mutant(
        "fire-right-before-left",
        "the rule kernel lists a column's rightward move before its leftward one",
        CORE,
        "        if sspm and h - left >= 2:\n"
        "            moves.append(-j)\n"
        "            kids.append((cols[: j - 2] if j > 1 else ()) + (left + 1, h - 1) + cols[j:])\n"
        "        if h - right >= 2:\n"
        "            moves.append(j)\n"
        "            kids.append(cols[: j - 1] + (h - 1, right + 1) + cols[j + 1 :])\n",
        "        if h - right >= 2:\n"
        "            moves.append(j)\n"
        "            kids.append(cols[: j - 1] + (h - 1, right + 1) + cols[j + 1 :])\n"
        "        if sspm and h - left >= 2:\n"
        "            moves.append(-j)\n"
        "            kids.append((cols[: j - 2] if j > 1 else ()) + (left + 1, h - 1) + cols[j:])\n",
        ("tests/test_cli.py::TestEvolve::test_golden_sspm_trajectory",),
    ),
    Mutant(
        "fire-labels-swapped",
        "the rule kernel labels a leftward move RIGHT and a rightward one LEFT",
        CORE,
        "            moves.append(-j)\n"
        "            kids.append((cols[: j - 2] if j > 1 else ()) + (left + 1, h - 1) + cols[j:])\n"
        "        if h - right >= 2:\n"
        "            moves.append(j)\n",
        "            moves.append(j)\n"
        "            kids.append((cols[: j - 2] if j > 1 else ()) + (left + 1, h - 1) + cols[j:])\n"
        "        if h - right >= 2:\n"
        "            moves.append(-j)\n",
        ("tests/test_core.py::TestMoves::test_apply_move_examples",),
    ),
    Mutant(
        "fire-left-recorded-right",
        "the rule kernel records a leftward move at column j as +j, the rightward one",
        CORE,
        "            moves.append(-j)\n",
        "            moves.append(j)\n",
        ("tests/test_core.py::TestMoves::test_enabled_moves_examples",),
    ),
    Mutant(
        "successors-first-child-only",
        "successors keeps only the kernel's first child",
        CORE,
        "_fire(c.columns, Model(model))[1]",
        "_fire(c.columns, Model(model))[1][:1]",
        ("tests/test_core.py::TestSuccessors::test_examples",),
    ),
    Mutant(
        "build-drops-back-edges",
        "build keeps only the edges into vertices with a larger id",
        ORBIT,
        "outs.append(tuple(sorted(set(map(intern.__getitem__, kids)))))",
        "outs.append(tuple(v for v in sorted(set(map(intern.__getitem__, kids))) if v > len(outs)))",
        ("tests/test_orbit.py::test_build_and_census_match_naive_bfs_on_multi_column_roots",),
    ),
    Mutant(
        "orbit-graph-keeps-model-as-given",
        "OrbitGraph stores a model given by its value as the string, so verify "
        "applies the other model's theory and export cannot name it",
        ORBIT,
        '        object.__setattr__(self, "model", Model(self.model))\n',
        "        pass\n",
        ("tests/test_orbit.py::test_orbit_graph_takes_a_model_by_its_value",),
    ),
    Mutant(
        "build-interns-padded-shapes",
        "build wraps each vertex with a trailing empty column",
        ORBIT,
        "vertices=tuple(map(Configuration._trusted, islice(intern, vertex_count))),",
        "vertices=tuple(Configuration._trusted(t + (0,)) for t in islice(intern, vertex_count)),",
        ("tests/test_orbit.py::TestBuild::test_sspm_from_four_exact_graph",),
    ),
    Mutant(
        "build-sinks-after-cut",
        "build judges a vertex a sink after a limit cut its children, so a "
        "vertex whose every child was cut off is reported as fixed",
        ORBIT,
        "    sink_ids = tuple([u for u, kids in enumerate(outs) if not kids])\n"
        "    if truncated:\n"
        "        outs = [tuple([v for v in kids if v < vertex_count]) for kids in outs]\n",
        "    if truncated:\n"
        "        outs = [tuple([v for v in kids if v < vertex_count]) for kids in outs]\n"
        "    sink_ids = tuple([u for u, kids in enumerate(outs) if not kids])\n",
        ("tests/test_orbit.py::test_build_matches_naive_build_under_limits",),
    ),
    Mutant(
        "build-keeps-part-of-cut-level",
        "build keeps every shape the lane interned, the cut level's too, where "
        "sink_census drops that level whole",
        ORBIT,
        "islice(intern, vertex_count)",
        "intern",
        (
            "tests/test_orbit.py::test_build_and_census_cut_at_the_same_level",
            "tests/test_orbit.py::test_build_matches_naive_build_under_limits",
        ),
    ),
    Mutant(
        "build-keeps-cut-children",
        "build keeps the edges into the first shape of the level the cap cut off, "
        "so a truncated graph has edges into no vertex",
        ORBIT,
        "v < vertex_count",
        "v <= vertex_count",
        ("tests/test_orbit.py::test_build_matches_naive_build_under_limits",),
    ),
    Mutant(
        "build-unsorted-out-lists",
        "build lists each vertex's children in set order, not by id",
        ORBIT,
        "outs.append(tuple(sorted(set(map(intern.__getitem__, kids)))))",
        "outs.append(tuple(set(map(intern.__getitem__, kids))))",
        ("tests/test_orbit.py::test_export_bytes_match_the_recorded_digests[sspm_columns-json]",),
    ),
    Mutant(
        "labels-slice-drops-a-character",
        "labels cut the encoded height lists one character short, so the last "
        "vertex's label loses its last digit",
        ORBIT,
        'return tuple(text[2:-2].split("],["))',
        'return tuple(text[2:-3].split("],["))',
        ("tests/test_orbit.py::test_labels_and_json_export_are_read_off_the_graph",),
    ),
    Mutant(
        "lattice-no-glb-test",
        "lattice_check accepts every pair without testing its meet",
        ORBIT,
        "            if lower & ~desc[glb]:\n                return False\n            rest ^= low\n",
        "            rest ^= low\n",
        (
            "tests/test_orbit.py::TestLattice::test_diamond_pair_without_meet",
            "tests/test_orbit.py::test_lattice_check_matches_naive_lattice_on_random_graphs",
        ),
    ),
    Mutant(
        "lattice-tests-comparable-pairs",
        "lattice_check tests the pairs where b lies below a, which always meet, "
        "and skips the incomparable ones",
        ORBIT,
        "        rest = full >> a + 1 << a + 1 & ~da\n",
        "        rest = full >> a + 1 << a + 1 & da\n",
        (
            "tests/test_orbit.py::TestLattice::test_diamond_pair_without_meet",
            "tests/test_orbit.py::test_lattice_check_matches_naive_lattice_on_random_graphs",
        ),
    ),
    Mutant(
        "lattice-first-incomparable-only",
        "lattice_check tests each vertex only against its first later incomparable partner",
        ORBIT,
        "        while rest:\n",
        "        if rest:\n",
        ("tests/test_orbit.py::TestLattice::test_unmet_pair_behind_an_incomparable_partner",),
    ),
    Mutant(
        "lattice-no-unique-source-test",
        "lattice_check accepts graphs with more than one source",
        ORBIT,
        "    if desc[0] != full:\n        return False\n",
        "",
        ("tests/test_orbit.py::test_lattice_check_matches_naive_lattice_on_random_graphs",),
    ),
    Mutant(
        "verify-top-bound-5",
        "verify lets SSPM tops be 5 columns wide",
        ORBIT,
        "    bound = 4 if g.model is Model.SSPM else 2\n",
        "    bound = 5 if g.model is Model.SSPM else 2\n",
        ("tests/test_orbit.py::TestVerify::test_wide_tops_fail_with_the_first_in_id_order",),
    ),
    Mutant(
        "verify-last-membership-witness",
        "verify names the last vertex that fails membership, not the first",
        ORBIT,
        'f"{_named(g, at(failed[0]))} fails the predicate"',
        'f"{_named(g, at(failed[-1]))} fails the predicate"',
        ("tests/test_orbit.py::TestVerify::test_valleys_fail_with_the_first_in_id_order",),
    ),
    Mutant(
        "verify-last-splitless-witness",
        "verify names the last vertex without a monotone split, not the first",
        ORBIT,
        "for v in failed if not lr_splits(v))",
        "for v in failed[::-1] if not lr_splits(v))",
        ("tests/test_orbit.py::TestVerify::test_valleys_fail_with_the_first_in_id_order",),
    ),
    Mutant(
        "verify-rising-edge-names-its-source-twice",
        "verify names a rising edge's source in place of its target",
        ORBIT,
        'f"edge from {_named(g, u)} to {_named(g, v)} does not drop"',
        'f"edge from {_named(g, u)} to {_named(g, u)} does not drop"',
        ("tests/test_orbit.py::TestVerify::test_rising_edge_falls_back_to_kahn",),
    ),
    Mutant(
        "verify-witness-depth-is-its-id",
        "verify gives a failing vertex's id where its depth belongs",
        ORBIT,
        'at depth {g.depths[i]}"',
        'at depth {i}"',
        ("tests/test_orbit.py::TestVerify::test_valleys_fail_with_the_first_in_id_order",),
    ),
    Mutant(
        "convergence-names-one-sink",
        "verify's convergence check lists only the first of several sinks",
        ORBIT,
        "', '.join(map(str, g.sink_ids))",
        "', '.join(map(str, g.sink_ids[:1]))",
        ("tests/test_orbit.py::TestVerify::test_convergence_fails_naming_its_witness",),
    ),
    Mutant(
        "verify-top-width-first-failed-only",
        "verify seeks a top-width witness only in the first vertex that fails membership",
        ORBIT,
        "for v in failed if top(v).size > bound)",
        "for v in failed[:1] if top(v).size > bound)",
        (
            "tests/test_orbit.py::TestVerify::"
            "test_top_width_witness_is_searched_past_the_first_failed_member",
        ),
    ),
    Mutant(
        "verify-last-missing-sink",
        "verify's sink census names the last missing sink, not the first",
        ORBIT,
        'next((f"({v}) missing" for v in want if v not in got), None)',
        'next((f"({v}) missing" for v in want[::-1] if v not in got), None)',
        ("tests/test_orbit.py::TestVerify::test_sink_census_names_the_first_missing_sink",),
    ),
    Mutant(
        "convergence-shortest-against-itself",
        "verify's convergence check compares the shortest SPM transient with itself, "
        "so transients of different lengths pass",
        ORBIT,
        "if shortest != longest else None",
        "if shortest != shortest else None",
        ("tests/test_orbit.py::TestVerify::test_convergence_fails_naming_its_witness",),
    ),
    Mutant(
        "topo-order-rising-energy",
        "topo_order sorts the vertices by rising energy, not falling",
        ORBIT,
        "key=e.__getitem__, reverse=True))",
        "key=e.__getitem__))",
        ("tests/test_orbit.py::test_topo_order_lists_each_vertex_once_and_every_edge_forward",),
    ),
    Mutant(
        "topo-order-energy-despite-a-rise",
        "topo_order returns the energy order even when an edge rises in energy",
        ORBIT,
        "        if self._rising_edge is None:\n",
        "        if True:\n",
        ("tests/test_orbit.py::TestVerify::test_rising_edge_falls_back_to_kahn",),
    ),
    Mutant(
        "plateau-spans-restart",
        "plateau_spans starts a new span at every equal pair",
        STRUCTURE,
        "            first = spans.pop()[0] if spans and spans[-1][1] == i else i\n",
        "            first = i\n",
        (
            "tests/test_structure.py::TestPlateausAndCliffs::test_plateau_spans",
            "tests/test_structure.py::TestPlateausAndCliffs::test_plateau_spans_against_runs",
        ),
    ),
    Mutant(
        "is-crazed-one-short",
        "is_crazed accepts a shape whose crazed prefix stops one column short",
        STRUCTURE,
        "    return _prefix(c.columns, True, False) == len(c.columns)\n",
        "    return _prefix(c.columns, True, False) >= len(c.columns) - 1\n",
        ("tests/test_structure.py::TestCrazed::test_examples",),
    ),
    Mutant(
        "cliffs-threshold-3",
        "cliffs counts only height jumps of 3 or more, not 2",
        STRUCTURE,
        "abs(cols[i] - cols[i - 1]) >= 2)",
        "abs(cols[i] - cols[i - 1]) > 2)",
        ("tests/test_structure.py::TestPlateausAndCliffs::test_cliffs",),
    ),
    Mutant(
        "json-edges-reversed",
        "the JSON export lists the edges last to first",
        ORBIT,
        '        edges = ",".join([f"[{u},{v}]" for u, v in g.edges])\n',
        '        edges = ",".join([f"[{u},{v}]" for u, v in g.edges[::-1]])\n',
        ("tests/test_orbit.py::test_export_bytes_match_the_recorded_digests[sspm_columns-json]",),
    ),
    Mutant(
        "crazed-cut-no-climb-stop",
        "the split scans read a descent as part of a climbing zone",
        STRUCTURE,
        "        elif climb and x > y:\n            return i + 1\n",
        "",
        (
            "tests/test_structure.py::TestHasCrazedLR::"
            "test_every_small_composition_against_definition_and_membership",
        ),
    ),
    Mutant(
        "crazed-cut-last-cut-refused",
        "the cut search refuses a split whose lowest cut is also its highest",
        STRUCTURE,
        "_prefix(cols, crazed, True) + 1)",
        "_prefix(cols, crazed, True))",
        ("tests/test_structure.py::TestHasCrazedLR::test_lowest_cut_against_definition",),
    ),
    Mutant(
        "sspm-member-last-cut-refused",
        "sspm_member refuses a shape whose one crazed cut is both the lowest and the highest",
        STRUCTURE,
        "    return len(cols) - _prefix(cols[::-1], True, True) <= _prefix(cols, True, True)\n",
        "    return len(cols) - _prefix(cols[::-1], True, True) < _prefix(cols, True, True)\n",
        (
            "tests/test_structure.py::TestHasCrazedLR::"
            "test_every_small_composition_against_definition_and_membership",
        ),
    ),
    Mutant(
        "lr-splits-crazed",
        "lr_splits asks for crazed zones as well as monotone ones",
        STRUCTURE,
        "for t in _cuts(cols, False))",
        "for t in _cuts(cols, True))",
        (
            "tests/test_structure.py::TestHasCrazedLR::"
            "test_every_small_composition_against_definition_and_membership",
        ),
    ),
    Mutant(
        "spm-member-any-cut",
        "spm_member accepts a crazed split at any cut, not only at t = 0",
        STRUCTURE,
        "    return _prefix(c.columns[::-1], True, True) == len(c.columns)\n",
        "    return sspm_member(c)\n",
        ("tests/test_orbit.py::TestVerify::test_spm_checks_use_the_rightward_theory",),
    ),
    Mutant(
        "stairs-no-doubled-step",
        "the staircase never doubles a step, so every shape built from it is short of grains",
        STRUCTURE,
        "    return tuple(range(h, max(j - 1, 0), -1)) + tuple(range(j, 0, -1))\n",
        "    return tuple(range(h, j, -1)) + tuple(range(j, 0, -1))\n",
        (
            "tests/test_structure.py::TestSpmFixedPoint::test_matches_the_triangular_staircase",
            "tests/test_structure.py::TestEnumeration::test_golden_digest",
        ),
    ),
    Mutant(
        "flanks-two-column-top-never-widens",
        "the flank tables stop short of doubling step h, so no two-column top widens to three",
        STRUCTURE,
        "    js = range(h + wide)\n",
        "    js = range(h)\n",
        ("tests/test_structure.py::TestCounting::test_counts_classify_by_top_size",),
    ),
    Mutant(
        "family-keeps-the-collision",
        "the two-column-top family also builds the right-flank twin of the three-column top",
        STRUCTURE,
        "    if lo == 0 and not (wide and spare == h):\n",
        "    if lo == 0:\n",
        ("tests/test_structure.py::TestEnumeration::test_lexicographic_and_distinct",),
    ),
    Mutant(
        "gallery-grain-above-level",
        "the gallery draws a grain only above its level, so the top row of each shape is lost",
        CLI,
        '"#" if h >= level else "."',
        '"#" if h > level else "."',
        ("tests/test_cli.py::TestRenderAscii::test_single_grain",),
    ),
    Mutant(
        "cli-reads-integers-with-int",
        "the CLI reads its integers with int() alone, which takes spaces, a plus sign, "
        "underscores and other scripts' digits",
        CLI,
        "    if not (digits.isascii() and digits.isdigit()):\n        raise ValueError(text)\n",
        "",
        tuple(
            f"tests/test_cli.py::TestUsageErrors::test_rejected_invocations[argv{i}]"
            for i in range(13, 18)
        ),
    ),
    Mutant(
        "out-in-missing-directory-raises",
        "only an --out path that is a directory is caught; one in a missing directory raises",
        CLI,
        "        except OSError as err:\n",
        "        except IsADirectoryError as err:\n",
        (
            "tests/test_cli.py::TestUsageErrors::"
            "test_unwritable_out_is_a_usage_error[missing-dir-verify]",
        ),
    ),
    Mutant(
        "numpy-at-import",
        "census.py imports numpy with the module, so every command pays for it",
        CENSUS,
        "if TYPE_CHECKING:\n    import numpy as np\n",
        "import numpy as np\n",
        ("tests/test_cli.py::TestSubprocess::test_only_a_census_imports_numpy[graph]",),
    ),
    Mutant(
        "count-mismatch-exits-0",
        "count exits 0 when a row disagrees",
        CLI,
        "    if not ok:\n        return EXIT_MISMATCH\n",
        "    if not ok:\n        return EXIT_OK\n",
        (
            "tests/test_cli.py::TestMainWithFiles::test_count_exits_1_when_a_sweep_misses_a_sink",
            "tests/test_cli.py::TestMainWithFiles::test_count_exits_1_when_the_closed_form_is_not_isqrt",
        ),
    ),
    Mutant(
        "verify-mismatch-exits-0",
        "verify exits 0 on a failing report",
        CLI,
        "return EXIT_OK if report.ok else EXIT_MISMATCH",
        "return EXIT_OK",
        ("tests/test_cli.py::TestMainWithFiles::test_verify_exits_1_on_a_failing_report",),
    ),
    Mutant(
        "pipe-exits-1",
        "a closed standard output exits as a mismatch",
        CLI,
        "        return EXIT_PIPE\n",
        "        return EXIT_MISMATCH\n",
        (
            "tests/test_cli.py::TestSubprocess::test_closed_pipe_exits_141_without_a_traceback[count]",
            "tests/test_cli.py::TestSubprocess::test_closed_pipe_exits_141_without_a_traceback[profile]",
        ),
    ),
)


def _copy(dst: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dst / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dst / name)


def _pytest(where: Path, tests: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    seed = f"--hypothesis-seed={HYPOTHESIS_SEED}"
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", seed, *tests]
    done = subprocess.run(cmd, cwd=where, env=env, capture_output=True, timeout=TIMEOUT_S)
    return done.returncode


def run(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="sandpiles-mutant-") as tmp:
        where = Path(tmp)
        _copy(where)
        target = where / mutant.path
        text = target.read_text() if target.is_file() else ""
        if text.count(mutant.old) != 1:
            return "anchor-missing"
        target.write_text(text.replace(mutant.old, mutant.new))
        code = _pytest(where, mutant.tests)
    # pytest exits 1 when a test failed; 0 when all passed; anything else
    # (usage error, nothing collected, internal error) ran no verdict.
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}: {m.why}")
        return 0
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] if args.names else list(MUTANTS)

    start = time.perf_counter()
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="sandpiles-mutant-") as tmp:
        _copy(Path(tmp))
        code = _pytest(Path(tmp), tests)
    if code != 0:
        print(f"baseline: the listed tests do not pass on an unchanged copy (pytest exit {code})")
        return 2

    tally: dict[str, int] = {}
    for m in chosen:
        begun = time.perf_counter()
        verdict = run(m)
        tally[verdict] = tally.get(verdict, 0) + 1
        print(f"{m.name}: {verdict} ({time.perf_counter() - begun:.1f} s)", flush=True)
    counts = ", ".join(f"{count} {verdict}" for verdict, count in sorted(tally.items()))
    print(f"{counts} in {time.perf_counter() - start:.1f} s")
    return 0 if tally.get("killed", 0) == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
