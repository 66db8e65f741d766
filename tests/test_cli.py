import argparse
import json
import subprocess
import sys

import importlib.resources as resources

import pytest

from covol import cli
from covol.cli import build_arg_parser, main, run_command
from covol.groups import FgAbelian, FiniteTable, FreeGroup
from covol.voltage import smash_quiver, window_ball
from covol.workspace import parse

from iso_pair_oracle import _small_window_element
from test_covering import _s3

FIXTURES = ["loop", "dbl", "kron", "tri_ac", "tri_acbc", "sl2"]


def fixture_path(name, tmp_path):
    text = (resources.files("covol") / "fixtures" / ("%s.cov" % name)).read_text()
    path = tmp_path / ("%s.cov" % name)
    path.write_text(text)
    return str(path)


def run(command, name, tmp_path, *extra):
    path = fixture_path(name, tmp_path)
    args = build_arg_parser().parse_args([command, path, *extra])
    with open(path, "r", encoding="utf-8") as handle:
        ws = parse(handle.read())
    return run_command(command, ws, args)


def test_smash_loop(tmp_path):
    report, dot, code = run("smash", "loop", tmp_path, "--dot")
    assert code == 0
    assert report["vertices"] == 7 and report["arrows"] == 6
    assert report["localCovering"]
    assert dot.startswith("digraph")
    assert dot.count("rank=same") == 1  # one fiber group for the one vertex


def test_smash_reports_coalgebra(tmp_path):
    report, _, code = run("smash", "sl2", tmp_path)
    assert code == 0
    assert report["coassociativeInterior"]
    assert report["coalgebraSymbols"] > 0


def test_check_cover(tmp_path):
    for name in FIXTURES:
        report, _, code = run("check-cover", name, tmp_path)
        assert code == 0, (name, report)


def test_homog(tmp_path):
    report, _, code = run("homog", "sl2", tmp_path)
    assert code == 0 and report["homogeneous"]
    report, _, code = run("homog", "tri_acbc", tmp_path)
    assert code == 0 and not report["homogeneous"]
    assert report["witness"] == "a.c+b.c"


def test_minimal(tmp_path):
    report, _, code = run("minimal", "sl2", tmp_path)
    assert code == 0
    assert report["minimalElements"] == 3
    report, _, code = run("minimal", "tri_ac", tmp_path)
    assert report["minimalElements"] == 0


def test_relators(tmp_path):
    report, _, code = run("relators", "sl2", tmp_path)
    assert code == 0
    assert report["pi1Rank"] == 4 and report["count"] == 3
    report, _, code = run("relators", "tri_acbc", tmp_path)
    assert report["count"] == 1 and report["relators"] == ["b"]


def test_universal(tmp_path):
    report, _, code = run("universal", "sl2", tmp_path)
    assert code == 0
    assert report["group"] == "Z (abelianized)"
    assert report["rank"] == 1
    assert report["pi1Rank"] == 4
    assert report["relators"] == 3

    report, _, _ = run("universal", "loop", tmp_path)
    assert report["group"] == "Z" and report["relators"] == 0

    report, _, _ = run("universal", "dbl", tmp_path)
    assert report["group"] == "free(2)"

    report, _, _ = run("universal", "tri_ac", tmp_path)
    assert report["group"] == "Z"

    report, _, _ = run("universal", "tri_acbc", tmp_path)
    assert report["group"] == "trivial (abelianized)"


def test_cov_crosscheck(tmp_path):
    report, _, code = run("cov-crosscheck", "sl2", tmp_path, "--window", "4")
    assert code == 0
    assert report["homogeneous"] and report["connected"] and report["coveringOK"]
    report, _, code = run("cov-crosscheck", "tri_acbc", tmp_path, "--window", "4")
    assert code == 0
    assert not report["homogeneous"] and report["witness"] == "a.c+b.c"


def test_csm_iso(tmp_path):
    report, _, code = run("csm-iso", "kron", tmp_path, "--liftings", "2")
    assert code == 0
    assert report["verified"] == report["liftings"] == 3


@pytest.mark.parametrize("window", ["1", "2"])
def test_csm_iso_small_windows(tmp_path, window):
    # Random lifts are drawn at interior vertices only, so no lifting
    # meets the window boundary.
    for name in FIXTURES:
        report, _, code = run("csm-iso", name, tmp_path, "--window", window)
        assert code == 0, (name, report)
        assert report["verified"] == report["liftings"] == 6, (name, report)


def test_csm_iso_default_window_keeps_every_small_element(tmp_path):
    # At the default window every small element lifts each vertex to the
    # interior, so the random draws are those of the unfiltered lists.
    for name in FIXTURES:
        with open(fixture_path(name, tmp_path), encoding="utf-8") as handle:
            weighting = parse(handle.read()).sole("weighting", None).weighting
        group = weighting.group
        sq = smash_quiver(weighting.quiver, weighting, window_ball(group, 3))
        for v in range(weighting.quiver.num_vertices()):
            for g in sq.window:
                if _small_window_element(group, g):
                    assert sq.vertex_of(v, g) in sq.interior_vertices, (name, v, g)


def test_csm_iso_small_elements_are_the_radius_1_window():
    # `csm-iso` draws among the window elements that lie in
    # window_ball(group, 1); the backend-by-backend rule it replaced picks
    # the same elements, in window order, on every backend at radii 0-4
    groups = [FgAbelian(1), FiniteTable.cyclic(5), FgAbelian(2), FgAbelian(1, (2, 3)),
              FgAbelian(0), FreeGroup(1), FreeGroup(2), _s3(), FiniteTable.cyclic(4)]
    for group in groups:
        ball = set(window_ball(group, 1))
        for radius in range(5):
            window = window_ball(group, radius)
            assert [g for g in window if g in ball] \
                == [g for g in window if _small_window_element(group, g)], (group, radius)


def test_csm_iso_without_interior_lift_exits_2(tmp_path, capsys):
    ws = tmp_path / "wide.cov"
    ws.write_text("quiver q { vertices x, y; arrows a: x -> y, b: y -> y; }\n"
                  "group G = Z;\n"
                  "weighting d on q into G { a = 0; b = 2; }\n"
                  "subcoalgebra B of q { truncate 1; generators: a; }\n")
    assert main(["csm-iso", str(ws), "--window", "1"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == (
        "no small window element lifts vertex 'y' to the interior at window 1")


_TRI_WITH_UV_WEIGHTING = (
    "quiver tri { vertices x, y, z; arrows c: x -> y, a: y -> z, b: y -> z; }\n"
    "quiver uv { vertices u, v; arrows a: u -> v, b: u -> v, c: v -> u; }\n"
    "group G = Z;\n"
    "weighting d on uv into G { a = 0; b = 1; c = 0; }\n"
    "subcoalgebra B of tri { truncate 2; generators: a.c + b.c; }\n")
_KRON_WITH_UV_WEIGHTING = (
    "quiver kron { vertices x, y; arrows a: x -> y, b: x -> y; }\n"
    "quiver uv { vertices u, v; arrows a: u -> v, b: v -> u; }\n"
    "group G = Z;\n"
    "weighting d on uv into G { a = 0; b = 1; }\n"
    "comodule band on kron { basis m @ x, n @ y; map a: m -> n; map b: m -> n; }\n")


@pytest.mark.parametrize("command", ["homog", "cov-crosscheck", "csm-iso", "smash", "gradable"])
def test_cli_weighting_on_another_quiver_exits_2(tmp_path, capsys, command):
    # both quivers have as many arrows, so matching weights to arrows by
    # index would give a verdict on the wrong quiver
    if command == "gradable":
        text, other = _KRON_WITH_UV_WEIGHTING, "comodule 'band' is on quiver 'kron'"
    else:
        text, other = _TRI_WITH_UV_WEIGHTING, "subcoalgebra 'B' is on quiver 'tri'"
    ws = tmp_path / "mismatch.cov"
    ws.write_text(text)
    assert main([command, str(ws)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == (
        "weighting 'd' is on quiver 'uv', but " + other)


def test_twist(tmp_path):
    report, _, code = run("twist", "kron", tmp_path, "--gamma", "x=0,y=1")
    assert code == 0
    assert report["weighting"] == {"a": "-1", "b": "0"}


def test_twist_refuses_a_vertex_assigned_twice(tmp_path, capsys):
    kron = fixture_path("kron", tmp_path)
    assert main(["twist", kron, "--gamma", "x=0,x=5,y=1"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == (
        "vertex 'x' is assigned twice in --gamma")
    assert main(["twist", kron, "--gamma", "x=0,y=1"]) == 0


def test_gradable(tmp_path):
    report, _, code = run("gradable", "kron", tmp_path)
    assert code == 0
    assert report["verdict"] == "ungradable"
    assert report["refutedVectors"] > 0


def test_gradable_string(tmp_path):
    path = tmp_path / "string.cov"
    path.write_text("""
quiver kron { vertices x, y; arrows a: x -> y, b: x -> y; }
group G = Z;
weighting d on kron into G { a = 0; b = 1; }
comodule s on kron { basis m @ x, n @ y; map a: m -> n; }
""")
    args = build_arg_parser().parse_args(["gradable", str(path)])
    ws = parse(path.read_text())
    report, _, code = run_command("gradable", ws, args)
    assert code == 0
    assert report["verdict"] == "gradable"
    assert report["degrees"]["x.0"] == report["degrees"]["y.0"]


def test_export(tmp_path):
    report, dot, code = run("export", "kron", tmp_path, "--dot")
    assert code == 0
    assert dot.count("->") == 2
    assert report["subcoalgebra"]["dimension"] == 4
    assert report["declarations"][0]["kind"] == "quiver"


def test_reports_deterministic(tmp_path):
    a = json.dumps(run("universal", "sl2", tmp_path)[0], sort_keys=True)
    b = json.dumps(run("universal", "sl2", tmp_path)[0], sort_keys=True)
    assert a == b


def test_check_cover_finite_group(tmp_path):
    path = tmp_path / "cyclic.cov"
    path.write_text("""
quiver loop { vertices x; arrows a: x -> x; }
group G = Z/5;
weighting d on loop into G { a = 1; }
""")
    args = build_arg_parser().parse_args(["check-cover", str(path)])
    ws = parse(path.read_text())
    report, _, code = run_command("check-cover", ws, args)
    assert code == 0
    assert report["covering"] and report["deckTransitive"]


def test_cli_entry_point(tmp_path):
    import shutil
    covol = shutil.which("covol")
    if covol is None:
        pytest.skip("covol entry point not on PATH")
    path = fixture_path("loop", tmp_path)
    proc = subprocess.run([covol, "universal", path],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["group"] == "Z"


def test_cli_subprocess_exit_codes(tmp_path):
    path = fixture_path("loop", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "covol.cli", "universal", path],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["group"] == "Z" and report["schema"] == 1


def test_cli_subprocess_bad_workspace(tmp_path):
    bad = tmp_path / "bad.cov"
    bad.write_text("quiver q { vertices x arrows }")
    proc = subprocess.run(
        [sys.executable, "-m", "covol.cli", "homog", str(bad)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert "error" in report


def test_cli_zero_denominator_exits_2(tmp_path, capsys):
    bad = tmp_path / "zero.cov"
    bad.write_text("quiver q { vertices x, y; arrows a: x -> y; }\n"
                   "subcoalgebra B of q { truncate 1; generators: 1/0 * a; }\n")
    assert main(["export", str(bad)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "line 2, column 49: zero denominator"


def test_cli_non_ascii_digit_exits_2_with_a_position(tmp_path, capsys):
    bad = tmp_path / "digit.cov"
    bad.write_text("quiver kron { vertices x, y; arrows a: x -> y, b: x -> y; }\n"
                   "group G = Z;\nweighting d on kron into G { a = \u00b2; b = 0; }\n",
                   encoding="utf-8")
    assert main(["export", str(bad)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "line 3, column 34: unexpected character '\u00b2'"


def test_cli_truncate_zero_with_arrows_exits_2(tmp_path, capsys):
    bad = tmp_path / "trunc0.cov"
    bad.write_text("quiver q { vertices x, y; arrows a: x -> y; }\n"
                   "subcoalgebra B of q { truncate 0; }\n")
    assert main(["export", str(bad)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == ("line 2, column 23: an admissible subcoalgebra needs "
                               "truncate >= 1 when the quiver has arrows")


def test_cli_truncate_zero_without_arrows_exits_0(tmp_path, capsys):
    good = tmp_path / "trunc0.cov"
    good.write_text("quiver q { vertices x, y; }\n"
                    "subcoalgebra B of q { truncate 0; }\n")
    assert main(["export", str(good)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["subcoalgebra"]["dimension"] == 2


def test_cli_json_output_file(tmp_path):
    path = fixture_path("sl2", tmp_path)
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "covol.cli", "universal", path,
         "--json", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["group"] == "Z (abelianized)"


def test_cli_missing_workspace_exits_2(tmp_path, capsys):
    assert main(["homog", str(tmp_path / "missing.cov")]) == 2
    out = capsys.readouterr().out
    assert json.loads(out)["schema"] == 1
    assert "No such file" in json.loads(out)["error"]


def test_cli_unwritable_dot_leaves_only_the_error(tmp_path, capsys):
    path = fixture_path("kron", tmp_path)
    dot = tmp_path / "missing-dir" / "x.dot"
    assert main(["export", path, "--dot", str(dot)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"schema", "error"}


def test_cli_negative_liftings_exits_2(tmp_path, capsys):
    path = fixture_path("kron", tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["csm-iso", path, "--liftings", "-3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, name", [
    ("smash", "kron"), ("check-cover", "kron"), ("csm-iso", "kron"),
    ("gradable", "kron"), ("smash", "dbl"), ("check-cover", "dbl")])
def test_cli_negative_window_exits_2_naming_the_option(tmp_path, capsys, command, name):
    # the parser refuses it before any window is built, gradable included
    path = fixture_path(name, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--window", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--window must be >= 0" in captured.err


def _subparser_oracle():
    """The parser as it was with one subparser per command."""
    parser = argparse.ArgumentParser(prog="covol")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(cli.COMMANDS):
        p = sub.add_parser(name)
        p.add_argument("workspace", help="workspace (.cov) file")
        p.add_argument("--window", type=int, default=3)
        p.add_argument("--json")
        p.add_argument("--dot", nargs="?", const="-")
        p.add_argument("--quiver")
        p.add_argument("--weighting")
        p.add_argument("--subcoalgebra")
        p.add_argument("--comodule")
        if name == "twist":
            p.add_argument("--gamma", required=True)
        if name == "csm-iso":
            p.add_argument("--liftings", type=int, default=5)
    return parser


def _parse_or_exit(parser, argv):
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return None


def test_flat_parser_matches_subparser_oracle(capsys):
    # same accept/reject and same values as one subparser per command;
    # a negative --liftings (now refused) is the one deliberate difference
    option_sets = [[], ["--window", "2"], ["--json", "out"], ["--dot"],
                   ["--dot", "out.dot"], ["--quiver", "q"], ["--weighting", "w"],
                   ["--subcoalgebra", "s"], ["--comodule", "c"],
                   ["--gamma", "x=0"], ["--liftings", "2"],
                   ["--window", "2", "--json", "out"]]
    corpus = [["nosuch", "ws.cov"], ["twist", "ws.cov", "--liftings", "2"]]
    for command in sorted(cli.COMMANDS):
        corpus.append([command])
        for options in option_sets:
            corpus.append([command, "ws.cov", *options])
            corpus.append([command, "ws.cov", *options, "--gamma", "y=1"])
    oracle = _subparser_oracle()
    accepted = 0
    for argv in corpus:
        want = _parse_or_exit(oracle, argv)
        got = _parse_or_exit(build_arg_parser(), argv)
        assert (want is None) == (got is None), argv
        if want is not None:
            for key, value in vars(want).items():
                assert getattr(got, key) == value, (argv, key)
            accepted += 1
    capsys.readouterr()
    # 10 option sets on each of 9 commands, 11 on csm-iso, 12 on twist
    assert accepted == 9 * 10 + 11 + 12


def _swap_phi(monkeypatch, with_psi):
    """Wrap covering_coalgebra_iso so phi swaps the lifts of one arrow path
    at two fibers; with_psi swaps psi to match, so both composites stay
    identities and the projection square still commutes."""
    iso = cli.covering_coalgebra_iso

    def wrong(cover, lifting, base_pindex, cover_pindex, window):
        psi, phi, smash, induced = iso(cover, lifting, base_pindex,
                                       cover_pindex, window)
        arrow = next(i for i in range(len(base_pindex)) if base_pindex.length(i))
        s1, s2 = [s for g in window if (s := smash.symbol(arrow, g)) in phi][:2]
        (p1,), (p2,) = phi[s1], phi[s2]
        phi[s1], phi[s2] = phi[s2], phi[s1]
        if with_psi:
            psi[p1], psi[p2] = psi[p2], psi[p1]
        return psi, phi, smash, induced

    monkeypatch.setattr(cli, "covering_coalgebra_iso", wrong)


@pytest.mark.parametrize("with_psi", [False, True])
def test_csm_iso_catches_a_wrong_map(tmp_path, capsys, monkeypatch, with_psi):
    path = fixture_path("kron", tmp_path)
    assert main(["csm-iso", path, "--liftings", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] == 3
    _swap_phi(monkeypatch, with_psi)
    assert main(["csm-iso", path, "--liftings", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verified"] < report["liftings"] == 3


def test_cli_lookup_errors_report_the_message(tmp_path, capsys):
    # a failed workspace lookup prints its message, not the KeyError repr
    kron, loop = fixture_path("kron", tmp_path), fixture_path("loop", tmp_path)
    assert main(["homog", kron, "--weighting", "nope"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == (
        "no weighting named 'nope' in workspace")
    assert main(["gradable", loop]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == (
        "workspace needs exactly one comodule (found 0); pass an explicit name")


@pytest.mark.parametrize("body, error", [
    ("a = 0;", "line 3, column 1: weighting misses arrow 'b'"),
    ("a = 0; b = 1; a = 5;", "line 3, column 44: arrow 'a' is weighted twice"),
])
def test_cli_weighting_assigns_each_arrow_once(tmp_path, capsys, body, error):
    bad = tmp_path / "weights.cov"
    bad.write_text("quiver kron { vertices x, y; arrows a: x -> y, b: x -> y; }\n"
                   "group G = Z;\nweighting d on kron into G { %s }\n" % body)
    assert main(["export", str(bad)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == error
