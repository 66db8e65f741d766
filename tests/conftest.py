"""Put this checkout's src/ on PYTHONPATH for the tests that start
`python -m covol.cli` in a subprocess, so that a bare `python -m pytest`
works; pyproject's `pythonpath` only reaches the pytest process itself."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + _paths)
