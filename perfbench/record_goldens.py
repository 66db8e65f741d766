"""Record the cli_sweep goldens from the covol tree in this checkout.

    python3 perfbench/record_goldens.py

Run from the root of the checkout.  Writes perfbench/goldens/cli_sweep.json:
for every op label, the exit code and the parsed JSON report.
"""

import json
import os
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main():
    os.environ["COVOL_SEED"] = workloads.CSM_ISO_SEED
    goldens = {}
    for label, argv in workloads.cli_argvs():
        code, text = workloads.run_cli(argv)
        goldens[label] = {"code": code, "report": json.loads(text)}
    with open(workloads.GOLDENS, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("recorded %d goldens" % len(goldens))


if __name__ == "__main__":
    main()
