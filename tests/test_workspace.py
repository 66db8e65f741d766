import pytest

from covol.groups import FgAbelian, FreeGroup
from covol.workspace import WorkspaceError, emit, parse

KRON_SOURCE = """
# sample workspace
quiver kron {
  vertices x, y;
  arrows a: x -> y, b: x -> y;
}

group G = Z;

weighting d on kron into G {
  a = 0;
  b = 1;
}

subcoalgebra B of kron {
  truncate 2;
}
"""


def test_parse_kronecker():
    ws = parse(KRON_SOURCE)
    assert set(ws.quivers) == {"kron"}
    assert set(ws.groups) == {"G"}
    assert set(ws.weightings) == {"d"}
    q = ws.quivers["kron"].quiver
    assert q.num_vertices() == 2 and q.num_arrows() == 2
    w = ws.weightings["d"].weighting
    assert w.of(q.arrow_index["b"]) == FgAbelian(1).element(free=[1])
    assert ws.subcoalgebras["B"].basis.dimension == 4


def test_parse_group_kinds():
    ws = parse("""
group A = Z;
group B = Z/5;
group C = Z^2;
group D = free(2);
group E = free(u, v);
group F = trivial;
""")
    assert ws.groups["A"].group == FgAbelian(1)
    assert ws.groups["B"].group == FgAbelian(0, [5])
    assert ws.groups["C"].group == FgAbelian(2)
    assert ws.groups["D"].group == FreeGroup(2)
    assert ws.groups["E"].group == FreeGroup(2)
    assert ws.groups["E"].group.names == ["u", "v"]
    assert ws.groups["F"].group == FgAbelian(0)


def test_parse_free_weighting():
    ws = parse("""
quiver q { vertices x; arrows a: x -> x, b: x -> x; }
group F = free(u, v);
weighting d on q into F { a = u*v^-1; b = 1; }
""")
    w = ws.weightings["d"].weighting
    free = ws.groups["F"].group
    assert w.of(0) == (1, -2)
    assert w.of(1) == free.identity()


def test_parse_generators_with_coefficients():
    ws = parse("""
quiver tri { vertices x, y, z; arrows c: x -> y, a: y -> z, b: y -> z; }
group G = Z;
weighting d on tri into G { a = 0; b = 1; c = 0; }
subcoalgebra B of tri { truncate 2; generators: a.c + -2*b.c; }
""")
    basis = ws.subcoalgebras["B"].basis
    assert basis.dimension == 7


def test_parse_error_carries_position():
    with pytest.raises(WorkspaceError) as err:
        parse("quiver q { vertices x arrows a: x -> x; }")
    assert err.value.line == 1
    assert err.value.col > 10


def test_parse_error_unknown_reference():
    with pytest.raises(WorkspaceError) as err:
        parse("weighting d on nowhere into G { }")
    assert "nowhere" in str(err.value)


def test_parse_error_endpoint_mismatch():
    # c.a means a first (y->z), then c must start at z but starts at x
    with pytest.raises(WorkspaceError) as err:
        parse("""
quiver tri { vertices x, y, z; arrows c: x -> y, a: y -> z, b: y -> z; }
subcoalgebra B of tri { truncate 2; generators: c.a; }
""")
    assert "mismatch" in str(err.value)


def test_parse_error_duplicate_name():
    with pytest.raises(WorkspaceError):
        parse("group G = Z;\ngroup G = Z;")


def test_comodule_parsing():
    ws = parse("""
quiver kron { vertices x, y; arrows a: x -> y, b: x -> y; }
comodule M on kron { basis m @ x, n @ y; map a: m -> n; map b: m -> 2*n; }
""")
    rep = ws.comodules["M"].representation
    assert rep.dims == [1, 1]
    assert rep.maps[0] == [[1]]
    assert rep.maps[1] == [[2]]


def test_comodule_map_must_follow_arrow():
    with pytest.raises(WorkspaceError):
        parse("""
quiver kron { vertices x, y; arrows a: x -> y, b: x -> y; }
comodule M on kron { basis m @ x, n @ y; map a: n -> m; }
""")


def test_emit_roundtrip_identity():
    ws = parse(KRON_SOURCE)
    text = emit(ws)
    ws2 = parse(text)
    assert ws2 == ws
    # emit is a fixed point: byte-stable across parse/emit cycles
    assert emit(ws2) == text


def test_emit_roundtrip_all_fixture_files():
    import importlib.resources as resources
    for name in ["loop", "dbl", "kron", "tri_ac", "tri_acbc", "sl2"]:
        text = (resources.files("covol") / "fixtures" / ("%s.cov" % name)).read_text()
        ws = parse(text)
        canonical = emit(ws)
        ws2 = parse(canonical)
        assert ws2 == ws, name
        assert emit(ws2) == canonical, name


def test_fixture_files_match_programmatic_fixtures():
    import importlib.resources as resources
    from covol.fixtures import (
        double_loop_fixture, kronecker_fixture, loop_fixture, sl2_fixture,
        tri_fixture,
    )
    pairs = [
        ("loop", loop_fixture()),
        ("dbl", double_loop_fixture()),
        ("kron", kronecker_fixture()),
        ("tri_ac", tri_fixture("ac")),
        ("tri_acbc", tri_fixture("ac+bc")),
        ("sl2", sl2_fixture()),
    ]
    for name, fx in pairs:
        text = (resources.files("covol") / "fixtures" / ("%s.cov" % name)).read_text()
        ws = parse(text)
        decl = next(iter(ws.subcoalgebras.values()))
        assert decl.basis.dimension == fx.basis.dimension, name
        w = next(iter(ws.weightings.values())).weighting
        assert w.assignment == fx.weighting.assignment, name


def test_parse_error_zero_denominator():
    with pytest.raises(WorkspaceError) as err:
        parse("quiver q { vertices x, y; arrows a: x -> y; }\n"
              "subcoalgebra B of q { truncate 1; generators: 1/0 * a; }")
    assert "zero denominator" in str(err.value)
    assert (err.value.line, err.value.col) == (2, 49)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff11"])
def test_non_ascii_digit_is_an_unexpected_character(digit):
    # superscript two, Arabic-Indic three and fullwidth one pass
    # str.isdigit; only ASCII digits make an integer token
    with pytest.raises(WorkspaceError) as err:
        parse("quiver kron { vertices x, y; arrows a: x -> y, b: x -> y; }\n"
              "group G = Z;\nweighting d on kron into G {\n  a = %s;\n  b = 0;\n}\n"
              % digit)
    assert str(err.value) == "line 4, column 7: unexpected character %r" % digit
    assert (err.value.line, err.value.col) == (4, 7)


def _weighting_source(group_spec, values):
    return ("quiver kron { vertices x, y; arrows a: x -> y, b: x -> y; }\n"
            "group G = %s;\n"
            "weighting d on kron into G { a = %s; b = %s; }\n" % ((group_spec,) + values))


def test_parse_tuple_weights_in_z2():
    ws = parse(_weighting_source("Z^2", ("(1, -2)", "(0,3)")))
    z2 = ws.groups["G"].group
    w = ws.weightings["d"].weighting
    assert w.of(0) == z2.element(free=[1, -2])
    assert w.of(1) == z2.element(free=[0, 3])
    text = emit(ws)
    assert "a = (1,-2);" in text
    assert parse(text) == ws and emit(parse(text)) == text


def test_parse_tuple_arity_and_bare_integer_errors():
    with pytest.raises(WorkspaceError) as err:
        parse(_weighting_source("Z^2", ("(1, 2, 3)", "(0, 0)")))
    assert "element needs 2 coordinates" in str(err.value)
    assert (err.value.line, err.value.col) == (3, 34)  # at the opening "("
    with pytest.raises(WorkspaceError) as err:
        parse(_weighting_source("Z^2", ("1", "(0, 0)")))
    assert "element needs tuple syntax" in str(err.value)


def test_parse_cyclic_residues():
    ws = parse(_weighting_source("Z/5", ("7", "-1")))
    z5 = ws.groups["G"].group
    w = ws.weightings["d"].weighting
    assert w.of(0) == z5.element(torsion=[2])
    assert w.of(1) == z5.element(torsion=[4])
    text = emit(ws)
    assert "a = 2;" in text and "b = 4;" in text
    assert parse(text) == ws


def test_parse_trivial_group_literal():
    ws = parse(_weighting_source("trivial", ("0", "1")))
    trivial = ws.groups["G"].group
    w = ws.weightings["d"].weighting
    assert w.of(0) == w.of(1) == trivial.identity()
    assert parse(emit(ws)) == ws
    with pytest.raises(WorkspaceError) as err:
        parse(_weighting_source("trivial", ("0", "2")))
    assert "trivial group has only 0" in str(err.value)


def test_rational_coefficients_reach_the_closure_exactly():
    from fractions import Fraction

    from covol.coalgebra import SparseVector
    ws = parse("""
quiver tri { vertices x, y, z; arrows c: x -> y, a: y -> z, b: y -> z; }
subcoalgebra B of tri { truncate 2; generators: 1/2 * a.c + -3/4 * b.c; }
""")
    decl = ws.subcoalgebras["B"]
    pindex, basis = decl.pindex, decl.basis
    ac, bc = pindex.from_names(["a", "c"]), pindex.from_names(["b", "c"])
    gen = SparseVector({ac: Fraction(1, 2), bc: Fraction(-3, 4)})
    assert basis.dimension == 7  # vertices, arrows and the generator
    assert basis.coordinates(gen) is not None
    assert basis.coordinates(SparseVector.unit(ac)) is None
    row = next(basis.row_vector(s) for s in basis.symbols()
               if ac in basis.row_vector(s).support())
    assert dict(row.items()) == {ac: 1, bc: Fraction(-3, 2)}
    assert decl.generator_texts == ["1/2*a.c + -3/4*b.c"]
    text = emit(ws)
    assert "generators: 1/2*a.c + -3/4*b.c;" in text
    assert parse(text) == ws and emit(parse(text)) == text


def test_weighting_assigns_each_arrow_exactly_once():
    # a missing arrow is reported at the weighting head, a repeated one at
    # its second assignment
    with pytest.raises(WorkspaceError) as err:
        parse("quiver kron { vertices x, y; arrows a: x -> y, b: x -> y; }\n"
              "group G = Z;\nweighting d on kron into G { a = 0; }\n")
    assert "weighting misses arrow 'b'" in str(err.value)
    assert (err.value.line, err.value.col) == (3, 1)
    with pytest.raises(WorkspaceError) as err:
        parse("quiver kron { vertices x, y; arrows a: x -> y, b: x -> y; }\n"
              "group G = Z;\nweighting d on kron into G {\n  a = 0;\n  b = 1;\n  a = 5;\n}\n")
    assert "arrow 'a' is weighted twice" in str(err.value)
    assert (err.value.line, err.value.col) == (6, 3)


@pytest.mark.parametrize("text, message, position", [
    ("quiver Q { vertices x, x; }", "duplicate vertex label 'x'", (1, 24)),
    ("quiver Q { vertices x;\n  vertices y, x; }", "duplicate vertex label 'x'", (2, 15)),
    ("quiver Q { vertices x, y;\n  arrows a: x -> y, a: y -> x; }",
     "duplicate arrow name 'a'", (2, 21)),
    ("quiver Q { vertices x, y;\n  arrows a: x -> z; }",
     "arrow a uses undeclared vertex 'z'", (2, 18)),
    ("quiver Q { vertices x, y;\n  arrows a: w -> y; }",
     "arrow a uses undeclared vertex 'w'", (2, 13)),
])
def test_quiver_block_errors_point_at_the_token(text, message, position):
    with pytest.raises(WorkspaceError) as err:
        parse(text)
    assert message in str(err.value)
    assert (err.value.line, err.value.col) == position


def test_quiver_block_may_declare_vertices_after_arrows():
    ws = parse("quiver Q { arrows a: x -> y; vertices x, y; }")
    quiver = ws.quivers["Q"].quiver
    assert quiver.vertices == ["x", "y"] and quiver.num_arrows() == 1


@pytest.mark.parametrize("maps", ["", " map a: m -> m;"])
def test_comodule_refuses_a_repeated_basis_label(maps):
    with pytest.raises(WorkspaceError) as err:
        parse("quiver kron { vertices x, y; arrows a: x -> y, b: x -> y; }\n"
              "comodule M on kron {\n  basis m @ x, m @ y;%s }\n" % maps)
    assert "duplicate basis label 'm'" in str(err.value)
    assert (err.value.line, err.value.col) == (3, 16)

