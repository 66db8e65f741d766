"""Byte-stability of the CLI reports.

The stdout of every command on every shipped fixture, at CLI defaults, is
compared byte for byte with the goldens in `tests/golden/`.  `twist` takes
a per-fixture vertex weighting, and `gradable` runs on `kron`, the one
fixture that declares a comodule.  RREF is unique, so a change to
the exact kernel must leave every report identical.  To re-record after a
deliberate report change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os

import pytest

from covol import cli, covering, fixtures, voltage

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
FIXTURE_DIR = os.path.join(os.path.dirname(cli.__file__), "fixtures")
FIXTURES = sorted(name[:-4] for name in os.listdir(FIXTURE_DIR)
                  if name.endswith(".cov"))
COMMANDS = ["check-cover", "cov-crosscheck", "csm-iso", "export", "homog",
            "minimal", "relators", "smash", "twist", "universal"]
TWIST_GAMMA = {
    "dbl": "x=a",
    "kron": "x=0,y=1",
    "loop": "x=1",
    "sl2": "x0=0,x1=1,x2=0,x3=-1,x4=2",
    "tri_ac": "x=0,y=1,z=-1",
    "tri_acbc": "x=1,y=0,z=1",
}
CASES = [(command, name) for command in COMMANDS for name in FIXTURES] + \
    [("gradable", "kron")]


def golden_path(command, name):
    return os.path.join(GOLDEN_DIR, "%s.%s.out" % (name, command))


def render(command, name, *extra):
    """(exit code, stdout) of an in-process `covol <command> <fixture>`;
    csm-iso's random liftings use the CLI's default seed."""
    argv = [command, os.path.join(FIXTURE_DIR, name + ".cov"), *extra]
    if command == "twist":
        argv += ["--gamma", TWIST_GAMMA[name]]
    saved = os.environ.pop("COVOL_SEED", None)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        if saved is not None:
            os.environ["COVOL_SEED"] = saved
    return code, buf.getvalue()


def _load_codes():
    with open(os.path.join(GOLDEN_DIR, "exit_codes.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("command,name", CASES)
def test_cli_report_bytes_match_golden(command, name):
    code, text = render(command, name)
    with open(golden_path(command, name), "rb") as handle:
        assert text.encode("utf-8") == handle.read()
    assert code == _load_codes()["%s %s" % (command, name)]


@pytest.mark.parametrize("name", FIXTURES)
def test_cov_crosscheck_builds_no_window(name, monkeypatch):
    # certified from the identity fiber: the same bytes with every window
    # builder disabled, and at a radius that used to be refused
    def refuse(*args):
        raise AssertionError("cov-crosscheck built a window")
    for module in (cli, covering, fixtures, voltage):
        monkeypatch.setattr(module, "window_ball", refuse)
    with open(golden_path("cov-crosscheck", name), "rb") as handle:
        want = handle.read()
    for extra in ([], ["--window", "0"]):
        code, text = render("cov-crosscheck", name, *extra)
        assert code == 0 and text.encode("utf-8") == want


def record():
    codes = {}
    for command, name in CASES:
        code, text = render(command, name)
        with open(golden_path(command, name), "wb") as handle:
            handle.write(text.encode("utf-8"))
        codes["%s %s" % (command, name)] = code
    with open(os.path.join(GOLDEN_DIR, "exit_codes.json"), "w", encoding="utf-8") as handle:
        json.dump(codes, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("recorded %d goldens in %s" % (len(codes), GOLDEN_DIR))


if __name__ == "__main__":
    record()
