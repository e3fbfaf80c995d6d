"""Command-line behaviour: formats, exit codes, reproducibility."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sandpiles
from sandpiles import (
    Configuration,
    Model,
    OrbitGraph,
    build,
    enumerate_fixed_points,
    export,
    is_fixed_point,
    sink_census,
)
from sandpiles.cli import (
    EXIT_LIMIT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    TRUNCATED,
    count_table,
    evolve,
    main,
    render_gallery,
)
from sandpiles.orbit import MAX_VERTICES

C = Configuration


# The child process imports the same package as this one, installed or not.
PACKAGE_ROOT = str(Path(sandpiles.__file__).resolve().parents[1])


def run_cli(
    *args: str, stdout=subprocess.PIPE, entry=("-m", "sandpiles.cli")
) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *entry, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestRenderAscii:
    def test_single_grain(self):
        assert render_gallery((C((1,)),)) == "#"

    def test_small_hill(self):
        assert render_gallery((C((1, 2, 1)),)) == ".#.\n###"

    def test_staircase(self):
        assert render_gallery((C((3, 2, 2, 1)),)) == "#...\n###.\n####"

    def test_grain_character_count(self):
        for cols in [(1,), (5,), (2, 4, 1), (3, 3, 3), (1, 2, 3, 2, 1)]:
            drawn = render_gallery((C(cols),)).count("#")
            assert drawn == sum(cols)

    def test_gallery_layout(self):
        out = render_gallery(enumerate_fixed_points(4))
        assert out == "....  .#.\n####  ###"


class TestEvolve:
    def test_fixed_root_is_a_singleton_trajectory(self):
        assert evolve(C((1, 1)), Model.SSPM, seed=7) == [C((1, 1))]

    def test_forced_spm_schedule(self):
        for seed in (0, 1, 99):
            assert evolve(C((4,)), Model.SPM, seed) == [
                C((4,)),
                C((3, 1)),
                C((2, 2)),
                C((2, 1, 1)),
            ]

    def test_lands_on_an_enumerated_fixed_point(self):
        stable = set(enumerate_fixed_points(5))
        for seed in range(8):
            path = evolve(C((5,)), Model.SSPM, seed)
            assert path[0] == C((5,))
            assert path[-1] in stable

    def test_same_seed_same_path(self):
        a = evolve(C((9,)), Model.SSPM, seed=3)
        b = evolve(C((9,)), Model.SSPM, seed=3)
        assert a == b

    def test_golden_sspm_trajectory(self):
        # pins the order in which the seeded schedule sees SSPM options:
        # ascending column, left before right at one column
        path = evolve(C((9,)), Model.SSPM, seed=3)
        assert " ".join(str(c) for c in path) == (
            "9 1,8 2,7 3,6 3,5,1 4,4,1 1,3,4,1 2,2,4,1 2,3,3,1 2,3,2,2"
            " 1,1,3,2,2 1,2,2,2,2 1,2,2,2,1,1"
        )

    def test_every_step_is_a_legal_move(self):
        from sandpiles import successors

        path = evolve(C((11,)), Model.SSPM, seed=5)
        for here, there in zip(path, path[1:]):
            assert there in successors(here, Model.SSPM)


class TestCountTable:
    def test_totals_up_to_five(self):
        rows, ok, cut = count_table(5, bfs_cutoff=5)
        assert ok and cut is None
        assert [r[3] for r in rows] == [1, 1, 1, 2, 2]
        assert [r[4] for r in rows] == [1, 1, 1, 2, 2]

    def test_single_row(self):
        rows, ok, cut = count_table(1, bfs_cutoff=1)
        assert ok and cut is None and rows == [(1, 1, 0, 1, 1)]

    def test_search_column_respects_cutoff(self):
        rows, ok, cut = count_table(10, bfs_cutoff=4)
        assert ok and cut is None
        assert all(r[4] is not None for r in rows[:4])
        assert all(r[4] is None for r in rows[4:])

    def test_first_truncated_sweep_is_returned(self):
        rows, ok, cut = count_table(10, 10, 5)
        n, census = cut
        assert ok and n == 4 and census.truncated
        assert census.vertex_count == 5 and census.depth == 2
        assert [r[0] for r in rows if r[4] == TRUNCATED][0] == 4


class TestMainWithFiles:
    def test_graph_json_matches_library_export(self, tmp_path):
        out = tmp_path / "g.json"
        rc = main(["graph", "--n", "8", "--model", "spm", "--format", "json", "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_bytes() == export(build(C((8,)), Model.SPM), "json")

    def test_graph_dot_matches_library_export(self, tmp_path):
        out = tmp_path / "g.dot"
        rc = main(["graph", "--n", "5", "--format", "dot", "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_bytes() == export(build(C((5,)), Model.SSPM), "dot")

    def test_graph_truncation_exit_code(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc = main(["graph", "--n", "8", "--max-vertices", "3", "--out", str(out)])
        assert rc == EXIT_LIMIT
        assert json.loads(out.read_bytes())["truncated"] is True
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: og((8)) exceeds max_vertices=3: stopped at 3 vertices, depth 1\n"

    def test_graph_from_explicit_config(self, tmp_path):
        out = tmp_path / "g.json"
        rc = main(["graph", "--config", "3,1", "--model", "spm", "--out", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_bytes())["root"] == [3, 1]

    def test_evolve_json_trajectory(self, tmp_path):
        out = tmp_path / "t.json"
        rc = main(["evolve", "--n", "5", "--seed", "1", "--format", "json", "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_bytes())
        assert doc["model"] == "SSPM" and doc["seed"] == 1
        assert doc["trajectory"][0] == [5]
        assert tuple(doc["trajectory"][-1]) in {
            (1, 2, 1, 1),
            (1, 1, 2, 1),
        }

    def test_evolve_ascii_lines(self, tmp_path):
        out = tmp_path / "t.txt"
        rc = main(["evolve", "--n", "4", "--model", "spm", "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_text() == "4\n3,1\n2,2\n2,1,1"

    def test_fixpoints_json(self, tmp_path):
        out = tmp_path / "f.json"
        rc = main(["fixpoints", "--n", "9", "--format", "json", "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_bytes())
        assert doc["n"] == 9 and doc["count"] == 3
        shapes = {tuple(s) for s in doc["shapes"]}
        assert shapes == {f.columns for f in enumerate_fixed_points(9)}

    def test_fixpoints_ascii_parses_back(self, tmp_path):
        out = tmp_path / "f.txt"
        rc = main(["fixpoints", "--n", "16", "--out", str(out)])
        assert rc == EXIT_OK
        rows = out.read_text().split("\n")
        blocks = [line.split("  ") for line in rows]
        per_shape = list(zip(*blocks))
        assert len(per_shape) == 4
        for grid in per_shape:
            heights = tuple(
                sum(1 for row in grid if row[i] == "#") for i in range(len(grid[0]))
            )
            assert is_fixed_point(C(heights), Model.SSPM)
            assert sum(heights) == 16

    def test_count_csv(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["count", "--n", "5", "--bfs-cutoff", "5", "--format", "csv", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().split("\n")
        assert lines[0] == "n,g1,g2,closed,search"
        assert lines[1] == "1,1,0,1,1"
        assert lines[5] == "5,2,0,2,2"

    def test_count_csv_beyond_cutoff_leaves_blank(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["count", "--n", "6", "--bfs-cutoff", "2", "--format", "csv", "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_text().split("\n")[6] == "6,1,1,2,"

    def test_count_truncation_exit_code(self, tmp_path, capsys):
        out = tmp_path / "c.txt"
        argv = ["count", "--n", "10", "--bfs-cutoff", "10", "--max-vertices", "5"]
        rc = main(argv + ["--out", str(out)])
        assert rc == EXIT_LIMIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: og((4)), the first truncated row, exceeds max_vertices=5:"
            " stopped at 5 vertices, depth 2\n"
        )
        rows = [line.split() for line in out.read_text().split("\n")[1:]]
        assert len(rows) == 10
        for n, _, _, closed, search in rows:
            # og((n)) under SSPM has more than 5 vertices from n = 4 on
            assert search == (TRUNCATED if int(n) >= 4 else closed)

    def test_count_exits_1_when_a_sweep_misses_a_sink(self, tmp_path, monkeypatch):
        from sandpiles import cli

        real = cli.sink_census

        def one_short(root, model, max_vertices):
            census = real(root, model, max_vertices)
            return census._replace(sinks=census.sinks[:-1]) if root.grains == 5 else census

        monkeypatch.setattr(cli, "sink_census", one_short)
        out = tmp_path / "c.csv"
        rc = main(["count", "--n", "6", "--bfs-cutoff", "6", "--format", "csv", "--out", str(out)])
        assert rc == EXIT_MISMATCH
        assert out.read_text().split("\n")[5] == "5,2,0,2,1"

    def test_count_exits_1_when_the_closed_form_is_not_isqrt(self, tmp_path, monkeypatch):
        from sandpiles import cli

        real = cli.fixed_point_counts

        def one_over(n, include_shapes=False):
            census = real(n, include_shapes)
            return census._replace(wide_top=census.wide_top + 1) if n == 7 else census

        monkeypatch.setattr(cli, "fixed_point_counts", one_over)
        out = tmp_path / "c.csv"
        rc = main(["count", "--n", "8", "--bfs-cutoff", "0", "--format", "csv", "--out", str(out)])
        assert rc == EXIT_MISMATCH
        assert out.read_text().split("\n")[7] == "7,0,3,3,"

    def test_verify_exits_1_on_a_failing_report(self, tmp_path, monkeypatch):
        from sandpiles import cli

        # acyclic, but the edge (2,1,1) -> (2,2) rises from energy 5 to 6
        rising = OrbitGraph(
            model=Model.SPM,
            vertices=(C((4,)), C((2, 1, 1)), C((3, 1)), C((2, 2))),
            out_lists=((1, 2), (3,), (3,), ()),
            depths=(0, 1, 1, 2),
            sink_ids=(3,),
            truncated=False,
        )
        monkeypatch.setattr(cli, "build", lambda root, model, max_vertices: rising)
        out = tmp_path / "v.txt"
        rc = main(["verify", "--n", "4", "--model", "spm", "--out", str(out)])
        assert rc == EXIT_MISMATCH
        assert "energy-decrease: fail" in out.read_text()

    def test_profile_table(self, capsys):
        rc = main(["profile", "--n", "8", "--model", "spm"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.split("\n")
        assert lines[0].split() == ["n", "vertices", "edges", "sinks", "short", "long", "secs", "lattice"]
        last = lines[8].split()
        assert last[:6] == ["8", "13", "15", "1", "9", "9"] and last[7] == "yes"

    def test_profile_limit_exit(self, capsys, monkeypatch):
        from sandpiles import cli

        monkeypatch.setattr(cli, "MAX_VERTICES", 30)
        rc = main(["profile", "--n", "8"])
        assert rc == EXIT_LIMIT
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 7  # header and n = 1..6
        assert captured.err.startswith("error: og((7)) exceeds max_vertices=30: stopped at ")

    def test_verify_report(self, tmp_path):
        out = tmp_path / "v.txt"
        rc = main(["verify", "--n", "12", "--model", "sspm", "--out", str(out)])
        assert rc == EXIT_OK
        text = out.read_text()
        assert "sink-census: pass" in text and "fail" not in text

    def test_verify_limit_exit(self, tmp_path, capsys):
        out = tmp_path / "v.txt"
        rc = main(["verify", "--n", "8", "--max-vertices", "3", "--out", str(out)])
        assert rc == EXIT_LIMIT
        assert "skipped" in out.read_text()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: og((8)) exceeds max_vertices=3: stopped at 3 vertices, depth 1\n"

    @pytest.mark.parametrize("command", ["graph", "verify"])
    def test_limit_stops_where_the_census_does(self, command, tmp_path, capsys):
        # the level after (12)'s first would pass the cap, so the build
        # drops it whole, as the census of the same root and cap does
        census = sink_census(C((12,)), Model.SSPM, 5)
        assert (census.vertex_count, census.depth) == (3, 1)
        rc = main([command, "--n", "12", "--max-vertices", "5", "--out", str(tmp_path / "out")])
        assert rc == EXIT_LIMIT
        captured = capsys.readouterr()
        assert captured.err == "error: og((12)) exceeds max_vertices=5: stopped at 3 vertices, depth 1\n"

    @pytest.mark.parametrize("command", ["graph", "count", "verify"])
    def test_default_vertex_cap_is_the_limits_default(self, command, tmp_path, monkeypatch):
        from sandpiles import cli

        seen = []

        def spy(explore):
            def run(root, model, max_vertices):
                seen.append(max_vertices)
                return explore(root, model, max_vertices)

            return run

        monkeypatch.setattr(cli, "build", spy(cli.build))
        monkeypatch.setattr(cli, "sink_census", spy(cli.sink_census))
        rc = main([command, "--n", "3", "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        assert seen and all(x == MAX_VERTICES for x in seen)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--n", "4"],
            ["graph", "--n", "4"],
            ["fixpoints", "--n", "4"],
            ["count", "--n", "4"],
            ["verify", "--n", "4"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, argv, where):
        out = tmp_path / "no" / "such" / "f" if where == "missing-dir" else tmp_path
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert str(out) in lines[0]
        assert not (tmp_path / "no").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["evolve"],
            ["evolve", "--n", "4", "--config", "2,2"],
            ["evolve", "--n", "0"],
            ["evolve", "--n", "4", "--seed", "-1"],
            ["evolve", "--n", "4", "--seed", str(2**64)],
            ["graph", "--n", "4", "--format", "csv"],
            ["count", "--n", "5", "--format", "dot"],
            ["fixpoints"],
            ["graph", "--config", "1,0,1"],
            ["nonsense", "--n", "4"],
            ["count", "--n", "5", "--bfs-cutoff", "-1"],
            ["evolve", "--config", ""],
            # int() would read these as 10, 7, 7, 7 and 10
            ["evolve", "--config", "1_0"],
            ["evolve", "--n", " 7"],
            ["evolve", "--n", "+7"],
            ["evolve", "--n", "\u0667"],
            ["count", "--n", "5", "--bfs-cutoff", "1_0"],
        ],
    )
    def test_rejected_invocations(self, argv):
        assert main(argv) == EXIT_USAGE

    def test_non_integer_height_names_the_expected_format(self, capsys):
        assert main(["evolve", "--config", "3,x"]) == EXIT_USAGE
        assert "expected comma-separated heights, like 3,2,1" in capsys.readouterr().err

    def test_help_is_not_an_error(self):
        assert main(["--help"]) == EXIT_OK


class TestSubprocess:
    def test_console_entry_evolve(self):
        proc = run_cli("evolve", "--n", "4", "--model", "spm")
        assert proc.returncode == 0
        assert proc.stdout == "4\n3,1\n2,2\n2,1,1\n"

    def test_stdout_gets_one_trailing_newline(self):
        proc = run_cli("graph", "--n", "2", "--format", "json")
        assert proc.returncode == 0
        assert proc.stdout.endswith("}\n") and not proc.stdout.endswith("\n\n")

    def test_usage_error_return_code(self):
        proc = run_cli("evolve")
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    @pytest.mark.parametrize(
        "args",
        [
            ("count", "--n", "5000", "--bfs-cutoff", "0"),  # one write through _emit
            ("profile", "--n", "3"),  # a print per row
        ],
        ids=["count", "profile"],
    )
    def test_closed_pipe_exits_141_without_a_traceback(self, args):
        # the reader is gone before the first write, as when `| head -1`
        # has read its line and left
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_cli(*args, stdout=write)
        finally:
            os.close(write)
        assert proc.returncode == EXIT_PIPE == 141
        assert "Traceback" not in proc.stderr and "Exception" not in proc.stderr

    @pytest.mark.parametrize(
        "args, loads",
        [
            (("graph", "--n", "4"), False),
            (("verify", "--n", "4"), False),
            (("evolve", "--n", "4"), False),
            (("fixpoints", "--n", "4"), False),
            (("profile", "--n", "4"), False),
            (("count", "--n", "3", "--bfs-cutoff", "3"), True),
        ],
        ids=["graph", "verify", "evolve", "fixpoints", "profile", "count"],
    )
    def test_only_a_census_imports_numpy(self, args, loads):
        # numpy is imported where a census lane needs it, so a command that
        # runs no census starts without paying for it
        script = (
            "import sys; from sandpiles.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'numpy' in sys.modules, file=sys.stderr)"
        )
        proc = run_cli(*args, entry=("-c", script))
        assert proc.stderr.split() == ["0", str(loads)]

    def test_seeded_runs_repeat(self):
        a = run_cli("evolve", "--n", "7", "--seed", "42")
        b = run_cli("evolve", "--n", "7", "--seed", "42")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
