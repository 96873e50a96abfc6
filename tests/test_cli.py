"""End-to-end checks of the command line interface.

Each test calls main() directly with a fresh argv, so exit codes and
printed output are asserted without spawning subprocesses.
"""

from __future__ import annotations

import json

import pytest

from fliptet.cli import main
from fliptet.family import bottom_triangulation, top_triangulation
from fliptet.fileio import emit_polygon, emit_sphere, parse_path, parse_polygon, parse_sphere
from fliptet.polygon import PolygonTriangulation
from fliptet.sphere import glue
from fliptet.verify import run_verification

from fixtures import tetrahedron


@pytest.fixture
def family_files(tmp_path):
    top = tmp_path / "top.txt"
    bottom = tmp_path / "bottom.txt"
    assert main(["family", "--n", "2", "--part", "top", "-o", str(top)]) == 0
    assert main(["family", "--n", "2", "--part", "bottom", "-o", str(bottom)]) == 0
    return top, bottom


@pytest.fixture
def sphere_file(tmp_path, family_files):
    top, bottom = family_files
    out = tmp_path / "sphere.txt"
    assert main(["glue", "--top", str(top), "--bottom", str(bottom), "-o", str(out)]) == 0
    return out


def test_family_output_is_parseable_and_labeled(family_files):
    top, _ = family_files
    text = top.read_text()
    assert text.splitlines()[0].startswith("# top of size 2; 0=A 1=v2")
    assert parse_polygon(text) == top_triangulation(2)


def test_family_bottom_matches_library(family_files):
    _, bottom = family_files
    assert parse_polygon(bottom.read_text()) == bottom_triangulation(2)


def test_flip_distance_prints_value_and_path_replays(family_files, tmp_path, capsys):
    top, bottom = family_files
    path_file = tmp_path / "path.txt"
    code = main(
        ["flip-distance", "--from", str(top), "--to", str(bottom), "--emit-path", str(path_file)]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["distance 7", "nodes 67", "frontier-peak 35"]
    p = parse_path(path_file.read_text())
    assert len(p) == 7
    assert p.end() == bottom_triangulation(2)


def test_flip_distance_budget_exit(family_files, capsys):
    top, bottom = family_files
    code = main(
        ["flip-distance", "--from", str(top), "--to", str(bottom), "--node-budget", "1"]
    )
    assert code == 3
    out = capsys.readouterr().out
    assert "distance >=" in out


def test_flip_distance_no_split_same_distance_more_nodes(tmp_path, capsys):
    # the two nonagon triangulations share the diagonal (0, 5)
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    t1 = PolygonTriangulation.of(9, [(0, 2), (0, 3), (0, 4), (0, 5), (5, 7), (5, 8)])
    t2 = PolygonTriangulation.of(9, [(0, 5), (0, 6), (1, 5), (2, 4), (2, 5), (6, 8)])
    a.write_text(emit_polygon(t1))
    b.write_text(emit_polygon(t2))
    outputs = []
    for extra in ([], ["--no-split"]):
        assert main(["flip-distance", "--from", str(a), "--to", str(b)] + extra) == 0
        outputs.append(dict(line.split() for line in capsys.readouterr().out.splitlines()))
    split, plain = outputs
    assert split["distance"] == plain["distance"] == "5"
    assert int(plain["nodes"]) >= int(split["nodes"])


def test_flip_distance_rejects_strategy_flag(family_files):
    top, bottom = family_files
    with pytest.raises(SystemExit) as exc:
        main(["flip-distance", "--from", str(top), "--to", str(bottom), "--strategy", "bfs"])
    assert exc.value.code == 2


def test_glue_matches_library(sphere_file):
    tau, cycle = parse_sphere(sphere_file.read_text())
    assert cycle is None
    assert tau == glue(top_triangulation(2), bottom_triangulation(2))


def test_recut_cut_round_trip(sphere_file, tmp_path, capsys):
    ra = tmp_path / "a.txt"
    rb = tmp_path / "b.txt"
    code = main(
        ["recut", "--sphere", str(sphere_file), "--cycle"]
        + [str(v) for v in range(8)]
        + ["--out-top", str(ra), "--out-bottom", str(rb)]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "labeling 0 1 2 3 4 5 6 7"
    halves = {parse_polygon(ra.read_text()), parse_polygon(rb.read_text())}
    assert halves == {top_triangulation(2), bottom_triangulation(2)}


def test_recut_search_reports_distance_and_cycle(sphere_file, capsys):
    code = main(["recut", "--sphere", str(sphere_file), "--stop-at", "7"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "distance 7"
    assert lines[1].startswith("cycle ")
    assert lines[2].startswith("tried ")
    assert lines[3] == "nodes 67 refuted 0"


def test_recut_exhaustive_reports_nodes_and_refuted(sphere_file, capsys):
    # the first cycle is optimal, so each later one is refuted by the bound
    code = main(["recut", "--sphere", str(sphere_file)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "distance 7"
    assert lines[2:] == ["tried 60 cycles (exhausted)", "nodes 666 refuted 59"]


def test_recut_rejects_short_cycle(sphere_file, capsys):
    code = main(["recut", "--sphere", str(sphere_file), "--cycle", "0", "1", "7"])
    assert code == 2
    assert "Hamiltonian" in capsys.readouterr().err


def test_min_tet_exact_and_witness_validates(sphere_file, tmp_path, capsys):
    tets = tmp_path / "tets.txt"
    code = main(["min-tet", "--sphere", str(sphere_file), "--emit-tets", str(tets)])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["size 7", "lower-bound 7", "status exact", "nodes 22", "rejected 0"]
    assert main(["validate", "--sphere", str(sphere_file), "--tets", str(tets)]) == 0
    assert capsys.readouterr().out == (
        "ok: 8 vertices, 20 edges, 20 triangles, 7 tets, euler 1, collapsible yes\n"
    )


def test_min_tet_budget_exit(tmp_path, capsys):
    sph = tmp_path / "big.txt"
    tau = glue(top_triangulation(3), bottom_triangulation(3))
    sph.write_text(emit_sphere(tau))
    code = main(["min-tet", "--sphere", str(sph), "--budget-nodes", "1"])
    assert code == 3
    assert "status bound" in capsys.readouterr().out


def test_validate_failure_exits_one(sphere_file, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("tets V 8\nT 0 1 2 3\n")
    code = main(["validate", "--sphere", str(sphere_file), "--tets", str(bad)])
    assert code == 1
    assert capsys.readouterr().out.startswith("invalid:")


def test_lp_bound_value_and_chain(sphere_file, tmp_path, capsys):
    chain = tmp_path / "chain.txt"
    code = main(["lp-bound", "--sphere", str(sphere_file), "--emit-chain", str(chain)])
    assert code == 0
    value, pivots, solved_in = capsys.readouterr().out.splitlines()
    assert value == "value 7"
    assert pivots.startswith("pivots ") and int(pivots.split()[1]) > 0
    assert solved_in == "solved-in float"
    assert chain.read_text().splitlines()[1] == "chain V 8"


def test_lp_bound_vertex_guard_exits_three(tmp_path, capsys):
    rim = 29
    faces = [(0, 2 + i, 2 + (i + 1) % rim) for i in range(rim)]
    faces += [(1, 2 + i, 2 + (i + 1) % rim) for i in range(rim)]
    sph = tmp_path / "wide.txt"
    lines = [f"sphere V {rim + 2}"] + [f"t {a} {b} {c}" for a, b, c in faces]
    sph.write_text("\n".join(lines) + "\n")
    code = main(["lp-bound", "--sphere", str(sph)])
    assert code == 3
    assert "at most 30 vertices" in capsys.readouterr().err


def test_cone_size_and_file(sphere_file, tmp_path, capsys):
    tets = tmp_path / "cone.txt"
    code = main(["cone", "--sphere", str(sphere_file), "--vertex", "0", "--emit-tets", str(tets)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "size 7"
    assert main(["validate", "--sphere", str(sphere_file), "--tets", str(tets)]) == 0


def test_bad_cycles_counts(tmp_path, capsys):
    sph = tmp_path / "tetra.txt"
    sph.write_text(emit_sphere(tetrahedron()))
    assert main(["bad-cycles", "--sphere", str(sph)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("examined ")
    assert lines[2] == "bad 0"


def test_render_writes_svg(sphere_file, tmp_path):
    svg = tmp_path / "out.svg"
    code = main(["render", "--kind", "sphere", "--in", str(sphere_file), "-o", str(svg)])
    assert code == 0
    assert svg.read_text().startswith("<svg ")


def test_render_polygon_to_stdout(family_files, capsys):
    top, _ = family_files
    assert main(["render", "--kind", "polygon", "--in", str(top)]) == 0
    assert "<polygon class=\"rim\"" in capsys.readouterr().out


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 6\nd 0 1\n")
    code = main(["flip-distance", "--from", str(bad), "--to", str(bad)])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    code = main(["min-tet", "--sphere", str(tmp_path / "absent.txt")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_table(capsys):
    assert main(["verify", "--n-max", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("claim")
    assert len(lines) == 9
    assert all(" pass " in line for line in lines[1:])


def test_verify_json(capsys):
    assert main(["verify", "--n-max", "2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 8
    assert {r["claim"] for r in rows} >= {"explicit-path", "min-tet", "ratio"}
    assert all(r["status"] == "pass" for r in rows)


def test_verify_ratio_comes_from_measured_rows():
    rows = {(r.claim, r.n): r for r in run_verification(n_max=3, distance_max=2).rows}
    assert rows["ratio", 2].status == "pass"
    assert rows["ratio", 2].computed.startswith("1;")
    assert rows["flip-distance", 3].status == "bounded"
    assert rows["ratio", 3].status == "bounded"
