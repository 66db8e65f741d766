"""The layout of the test suite and of what it reaches: instances and
constants that several modules share live in `corpus`, reference
implementations that left the package in the `oracles` package, no
definition is copied, and the library names that only the tests reach are
the paper constructions kept on purpose."""

import ast
import collections
import copy
import functools
import glob
import os
import re

from corpus import ROOT

HERE = os.path.join(ROOT, "tests")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# The defs and classes of src/covol that no code in src/ or perfbench/
# references, each with what states it: a paper construction that an
# acceptance criterion or a test module checks, though no command prints
# it.  A convenience that only duplicates a public reader, or emits a format
# that no command prints, belongs in neither the package nor this list.
KEPT = {
    "verify_comodule": "criterion 10",
    "GradedComodule.verify": "criterion 10",
    "to_smash_comodule": "criterion 10",
    "from_smash_comodule": "criterion 10",
    "witness_graded_comodule": "criterion 10",
    "SubcoalgebraBasis.coordinates": "criterion 10",
    "SmashQuiver.arrow_of": "criterion 10",
    "twist_iso": "criterion 9",
    "SmashQuiver.lifting_from_vertex_weighting": "criteria 3 and 9",
    "build_lifted_subcoalgebra": "criterion 5",
    "FiniteTable.cyclic": "criterion 2",
    "emit": "criterion 11",
    "all_fixtures": "the shipped examples",
    "universal_factor_map": "test_covering: the universal property",
    "GaloisCoverData.from_finite":
        "test_iso_oracle and test_coalgebra: Galois covers given as permutation morphisms",
}


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


def _normalised(node):
    """A copy of a definition with its docstring and those of the defs and
    classes inside it removed, and with the imports in its body removed."""
    node = copy.deepcopy(node)
    for inner in ast.walk(node):
        if isinstance(inner, DEFS) and ast.get_docstring(inner, clean=False) is not None:
            inner.body = inner.body[1:] or [ast.Pass()]
        if isinstance(getattr(inner, "body", None), list):  # not a lambda's
            inner.body = [s for s in inner.body if not isinstance(
                s, (ast.Import, ast.ImportFrom))] or [ast.Pass()]
    return node


def test_no_definition_is_copied_between_modules():
    """Same-named definitions that differ (a sampler that draws otherwise,
    an oracle of another vintage) are allowed; copies are not, whatever
    their docstrings say or wherever they import from."""
    where = collections.defaultdict(list)
    for path, tree in _modules():
        for node in tree.body:
            if isinstance(node, DEFS):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                where[(name, ast.dump(_normalised(node)))].append(path)
    assert {name: paths for (name, _), paths in where.items() if len(paths) > 1} == {}


def test_every_oracle_module_names_the_commit_it_came_from():
    oracles = [(path, tree) for path, tree in _modules()
               if os.path.dirname(path) == "oracles" and not path.endswith("__init__.py")]
    assert oracles
    for path, tree in oracles:
        assert re.search(r"\b[0-9a-f]{7,40}\b", ast.get_docstring(tree) or ""), path


def _references(paths):
    """How often each name occurs as a name, an attribute or an import."""
    counts = collections.Counter()
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                counts[node.id] += 1
            elif isinstance(node, ast.Attribute):
                counts[node.attr] += 1
            elif isinstance(node, ast.alias):
                counts[node.name.split(".")[-1]] += 1
    return counts


def test_library_names_only_the_tests_reach_are_the_kept_constructions():
    """A non-dunder def or class of src/covol (a class's methods as
    Class.method) that no code in src/ or perfbench/ references is in
    `KEPT`, and every name in `KEPT` is such a def that a test reaches."""
    src = sorted(glob.glob(os.path.join(ROOT, "src", "covol", "*.py")))
    library = _references(src + sorted(glob.glob(
        os.path.join(ROOT, "perfbench", "**", "*.py"), recursive=True)))
    tests = _references(sorted(glob.glob(os.path.join(HERE, "**", "*.py"), recursive=True)))
    test_only = []
    for path in src:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in tree.body:
            if not isinstance(node, DEFS):
                continue
            members = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                members += [(m.name, "%s.%s" % (node.name, m.name))
                            for m in node.body if isinstance(m, DEFS)]
            test_only += [qualified for name, qualified in members
                          if not (name.startswith("__") and name.endswith("__"))
                          and not library[name]]
    assert sorted(test_only) == sorted(KEPT)
    assert [name for name in KEPT if not tests[name.split(".")[-1]]] == []
