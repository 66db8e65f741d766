import json
import subprocess
import sys

import importlib.resources as resources

import pytest

from covol.cli import build_arg_parser, main, run_command
from covol.workspace import parse

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


def test_twist(tmp_path):
    report, _, code = run("twist", "kron", tmp_path, "--gamma", "x=0,y=1")
    assert code == 0
    assert report["weighting"] == {"a": "-1", "b": "0"}


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
