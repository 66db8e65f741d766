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


def _parsed(paths):
    trees = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            trees.append(ast.parse(handle.read()))
    return trees


def _references(trees):
    """How often each name occurs as a name, an attribute or an import,
    and how often as an attribute read alone."""
    names, reads = collections.Counter(), collections.Counter()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                names[node.attr] += 1
                reads[node.attr] += isinstance(node.ctx, ast.Load)
            elif isinstance(node, ast.alias):
                names[node.name.split(".")[-1]] += 1
    return names, reads


def _unreferenced(defining, referencing):
    """The non-dunder defs and classes of the `defining` trees, a class's
    methods as Class.method, that the `referencing` trees never reference:
    a module-level def by name, attribute or import, a method by an
    attribute read `.method`, so that a bare name of another def does not
    count for it."""
    names, reads = _references(referencing)
    out = []
    for tree in defining:
        for node in tree.body:
            if not isinstance(node, DEFS):
                continue
            members = [(names, node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                members += [(reads, m.name, "%s.%s" % (node.name, m.name))
                            for m in node.body if isinstance(m, DEFS)]
            out += [qualified for counts, name, qualified in members
                    if not (name.startswith("__") and name.endswith("__"))
                    and not counts[name]]
    return out


def test_a_method_is_not_referenced_by_a_bare_name():
    """A function `scale` elsewhere, which a count of bare names took for
    a reference, does not reference the method `Vector.scale`; only an
    attribute read does."""
    library = ast.parse("class Vector:\n    def scale(self, c):\n        return c\n")
    shadow = ast.parse("def scale(v):\n    return v\n\nscale(Vector())\n")
    assert _references([shadow])[0]["scale"]
    assert _unreferenced([library], [shadow]) == ["Vector.scale"]
    assert _unreferenced([library], [shadow, ast.parse("v.scale = None")]) == ["Vector.scale"]
    assert _unreferenced([library], [shadow, ast.parse("Vector().scale(2)")]) == []


def test_library_names_only_the_tests_reach_are_the_kept_constructions():
    """A non-dunder def or class of src/covol that no code in src/ or
    perfbench/ references (`_unreferenced`) is in `KEPT`, and every name
    in `KEPT` is such a def that a test reaches."""
    src = _parsed(sorted(glob.glob(os.path.join(ROOT, "src", "covol", "*.py"))))
    library = src + _parsed(sorted(glob.glob(
        os.path.join(ROOT, "perfbench", "**", "*.py"), recursive=True)))
    assert sorted(_unreferenced(src, library)) == sorted(KEPT)
    tests = _parsed(sorted(glob.glob(os.path.join(HERE, "**", "*.py"), recursive=True)))
    assert set(_unreferenced(src, tests)).isdisjoint(KEPT)
