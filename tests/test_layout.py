"""The layout of the test suite: instances and constants that several
modules share live in `corpus`, reference implementations that left the
package in the `oracles` package, and no definition is copied."""

import ast
import collections
import copy
import functools
import glob
import os
import re

from corpus import ROOT

HERE = os.path.join(ROOT, "tests")


@functools.cache
def _modules():
    """(path relative to tests/, parsed module) for every .py under tests/."""
    out = []
    for path in sorted(glob.glob(os.path.join(HERE, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            out.append((os.path.relpath(path, HERE), ast.parse(handle.read())))
    return out


def test_test_modules_import_shared_code_only_from_corpus_and_oracles():
    local = {os.path.splitext(name)[0] for name in os.listdir(HERE)} - {"corpus", "oracles"}
    bad = []
    for path, tree in _modules():
        for node in ast.walk(tree) if path.startswith("test_") else ():
            if isinstance(node, ast.Import):
                bad += [(path, a.name) for a in node.names if a.name.split(".")[0] in local]
            elif isinstance(node, ast.ImportFrom) and not node.level \
                    and node.module.split(".")[0] in local:
                bad.append((path, node.module))
    assert bad == []
    assert sorted(name for name in os.listdir(HERE) if name.endswith(".py")
                  and not name.startswith("test_")) == ["conftest.py", "corpus.py"]


def _without_docstrings(node):
    """A copy of a definition with its docstring and those of the defs and
    classes inside it removed."""
    node = copy.deepcopy(node)
    for inner in ast.walk(node):
        if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and ast.get_docstring(inner, clean=False) is not None:
            inner.body = inner.body[1:] or [ast.Pass()]
    return node


def test_no_definition_is_copied_between_modules():
    """Same-named definitions that differ (a sampler that draws otherwise,
    an oracle of another vintage) are allowed; copies are not, whatever
    their docstrings say."""
    where = collections.defaultdict(list)
    for path, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                where[(name, ast.dump(_without_docstrings(node)))].append(path)
    assert {name: paths for (name, _), paths in where.items() if len(paths) > 1} == {}


def test_every_oracle_module_names_the_commit_it_came_from():
    oracles = [(path, tree) for path, tree in _modules()
               if os.path.dirname(path) == "oracles" and not path.endswith("__init__.py")]
    assert oracles
    for path, tree in oracles:
        assert re.search(r"\b[0-9a-f]{7,40}\b", ast.get_docstring(tree) or ""), path
