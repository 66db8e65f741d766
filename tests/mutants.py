"""Run the mutant catalogue `tests/mutants.json` against the test suite.

Each entry names a file, an exact snippet that must occur in it once, the
snippet that replaces it, a pytest selection and the expected outcome.
For each entry the checkout is copied to a temporary directory, the
mutant is applied there, and its selection runs in one pytest process;
mutants run one after another, never in parallel.  An outcome is
`killed` (the selection failed), `survived` (it passed), `timeout` (it
ran past `TIMEOUT` seconds, as a mutant that never shrinks the closure's
worklist does) or `error` (pytest stopped for another reason, such as a
collection error).  The selections first run on an unmutated copy, so a
kill is never a test that already fails.

Usage: python tests/mutants.py (runs the whole catalogue).

Prints one markdown table row per mutant and exits 1 when an outcome
differs from its expectation, 2 when the unmutated selections fail.
Not a test module: pytest collects only `test_*.py`.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

TIMEOUT = 300  # seconds per mutant; a targeted selection takes a few
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache")


def _run_selection(checkout, select):
    """'passed', 'killed', 'timeout' or 'error' for one pytest process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *select],
            cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "passed", 1: "killed"}.get(proc.returncode, "error")


def _copy(root, tmp):
    checkout = os.path.join(tmp, "checkout")
    shutil.copytree(root, checkout, ignore=IGNORE)
    return checkout


def run_mutant(root, entry):
    """Apply one mutant to a fresh copy of `root` and run its selection."""
    with tempfile.TemporaryDirectory() as tmp:
        checkout = _copy(root, tmp)
        path = os.path.join(checkout, entry["file"])
        with open(path, encoding="utf-8") as f:
            text = f.read()
        if text.count(entry["old"]) != 1:
            raise SystemExit("%s: the old snippet occurs %d times in %s, not once"
                             % (entry["id"], text.count(entry["old"]), entry["file"]))
        with open(path, "w", encoding="utf-8") as f:
            f.write(text.replace(entry["old"], entry["new"]))
        outcome = _run_selection(checkout, entry["select"])
    return "survived" if outcome == "passed" else outcome


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "tests", "mutants.json"), encoding="utf-8") as f:
        entries = json.load(f)
    select = sorted({t for e in entries for t in e["select"]})
    with tempfile.TemporaryDirectory() as tmp:
        baseline = _run_selection(_copy(root, tmp), select)
    if baseline != "passed":
        print("the selections do not pass unmutated: %s" % baseline)
        return 2
    print("| mutant | outcome | expected |")
    print("|---|---|---|")
    unexpected = 0
    for entry in entries:
        outcome = run_mutant(root, entry)
        unexpected += outcome != entry["expect"]
        print("| %s | %s | %s |" % (entry["id"], outcome, entry["expect"]), flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
