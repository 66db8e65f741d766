"""
Workspace DSL: named quivers, groups, arrow weightings, subcoalgebras and
comodules in a small declaration language.

    quiver Q { vertices x, y; arrows a: x -> y, b: x -> y; }
    group G = Z;                    # or Z/5, Z^2, free(2), free(u,v), trivial
    weighting d on Q into G { a = 0; b = 1; }
    subcoalgebra B of Q { truncate 2; generators: a.c + b.c; }
    comodule M on Q { basis m0 @ x, m1 @ y; map a: m0 -> m1; }

Paths in generator expressions compose right to left: in `a.c` the arrow c
is traversed first.  Parsing resolves every reference; errors carry the
line, column and the expected-token set.
"""

from fractions import Fraction

from .coalgebra import PathIndex, SparseVector, subcoalgebra_closure, \
    rational_str
from .comodule import QuiverRepresentation
from .groups import FgAbelian, FreeGroup
from .quiver import Quiver
from .voltage import ArrowWeighting


class WorkspaceError(ValueError):
    def __init__(self, message, line, col, expected=()):
        self.line = line
        self.col = col
        self.expected = sorted(expected)
        text = "line %d, column %d: %s" % (line, col, message)
        if self.expected:
            text += " (expected %s)" % ", ".join(self.expected)
        super().__init__(text)


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.value)


def tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: int() would take any Unicode digit
            start = i
            while i < n and "0" <= text[i] <= "9":
                i += 1
            tokens.append(Token("int", int(text[start:i]), line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("name", text[start:i], line, col))
            col += i - start
            continue
        two = text[i:i + 2]
        if two == "->":
            tokens.append(Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "{}();:,=.+-*^/@":
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise WorkspaceError("unexpected character %r" % ch, line, col)
    tokens.append(Token("eof", None, line, col))
    return tokens


class Declaration:
    """One named workspace object with its parse provenance."""

    def __init__(self, kind, name, line, col, **fields):
        self.kind = kind
        self.name = name
        self.line = line
        self.col = col
        self.fields = fields

    def __getattr__(self, item):
        try:
            return self.fields[item]
        except KeyError:
            raise AttributeError(item)


class Workspace:
    def __init__(self):
        self.declarations = []
        self.quivers = {}
        self.groups = {}
        self.weightings = {}
        self.subcoalgebras = {}
        self.comodules = {}

    def _kind_map(self, kind):
        return {"quiver": self.quivers, "group": self.groups,
                "weighting": self.weightings,
                "subcoalgebra": self.subcoalgebras,
                "comodule": self.comodules}[kind]

    def add(self, decl):
        table = self._kind_map(decl.kind)
        if decl.name in table:
            raise WorkspaceError("duplicate %s name %r" % (decl.kind, decl.name),
                                 decl.line, decl.col)
        table[decl.name] = decl
        self.declarations.append(decl)

    def sole(self, kind, name=None, required=True):
        table = self._kind_map(kind)
        if name is not None:
            if name not in table:
                raise KeyError("no %s named %r in workspace" % (kind, name))
            return table[name]
        if len(table) == 1:
            return next(iter(table.values()))
        if not table and not required:
            return None
        raise KeyError("workspace needs exactly one %s (found %d); "
                       "pass an explicit name" % (kind, len(table)))

    def structure(self):
        """Canonical nested-dict image used for equality and JSON export."""
        out = {"schema": 1, "declarations": []}
        for decl in self.declarations:
            out["declarations"].append(_declaration_structure(decl))
        return out

    def __eq__(self, other):
        return isinstance(other, Workspace) and self.structure() == other.structure()


def _declaration_structure(decl):
    body = {"kind": decl.kind, "name": decl.name}
    if decl.kind == "quiver":
        body["vertices"] = list(decl.vertices)
        body["arrows"] = [list(a) for a in decl.arrows]
    elif decl.kind == "group":
        body["spec"] = decl.spec
    elif decl.kind == "weighting":
        body["quiver"] = decl.quiver_name
        body["group"] = decl.group_name
        body["values"] = {k: decl.group.format(v)
                          for k, v in sorted(decl.named_values.items())}
    elif decl.kind == "subcoalgebra":
        body["quiver"] = decl.quiver_name
        body["truncate"] = decl.truncation
        body["generators"] = decl.generator_texts
    elif decl.kind == "comodule":
        body["quiver"] = decl.quiver_name
        body["basis"] = [list(b) for b in decl.basis]
        body["maps"] = {k: sorted((s, rational_str(c), d) for (s, c, d) in v)
                        for k, v in sorted(decl.map_terms.items())}
    return body


class Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise WorkspaceError("found %r" % (tok.value,), tok.line, tok.col,
                                 expected={str(want)})
        return self.next()

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        return None

    def parse(self):
        ws = Workspace()
        readers = {"quiver": self.quiver_decl, "group": self.group_decl,
                   "weighting": lambda: self.weighting_decl(ws),
                   "subcoalgebra": lambda: self.subcoalgebra_decl(ws),
                   "comodule": lambda: self.comodule_decl(ws)}
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "name" or tok.value not in readers:
                raise WorkspaceError("found %r" % (tok.value,), tok.line, tok.col,
                                     expected=set(readers))
            ws.add(readers[tok.value]())
        return ws

    def quiver_ref(self, ws, head):
        """Name and quiver of a reference to a declared quiver."""
        name = self.expect("name").value
        if name not in ws.quivers:
            raise WorkspaceError("unknown quiver %r" % name, head.line, head.col,
                                 expected=set(ws.quivers))
        return name, ws.quivers[name].quiver

    def known_arrow(self, quiver, tok):
        """The name token, checked to be an arrow of the quiver."""
        if tok.value not in quiver.arrow_index:
            raise WorkspaceError("unknown arrow %r" % tok.value, tok.line, tok.col,
                                 expected=set(quiver.arrow_index))
        return tok

    def coefficient(self):
        """Optional `rational *` prefix of a term; 1 when absent."""
        if self.peek().kind not in ("int", "-"):
            return Fraction(1)
        coeff = self.rational()
        self.expect("*")
        return coeff

    def unique_name(self, seen, kind):
        """The next name token, refused at its position if already in seen."""
        tok = self.expect("name")
        if tok.value in seen:
            raise WorkspaceError("duplicate %s %r" % (kind, tok.value), tok.line, tok.col)
        return tok

    def name_list(self):
        names = [self.expect("name").value]
        while self.accept(","):
            names.append(self.expect("name").value)
        return names

    def quiver_decl(self):
        head = self.expect("name", "quiver")
        name = self.expect("name").value
        self.expect("{")
        vertices = []
        arrows = {}  # arrow name -> (source token, target token)
        while not self.accept("}"):
            section = self.expect("name")
            if section.value == "vertices":
                while True:
                    vertex = self.unique_name(vertices, "vertex label")
                    vertices.append(vertex.value)
                    if not self.accept(","):
                        break
                self.expect(";")
            elif section.value == "arrows":
                while True:
                    arrow = self.unique_name(arrows, "arrow name")
                    self.expect(":")
                    src = self.expect("name")
                    self.expect("->")
                    arrows[arrow.value] = (src, self.expect("name"))
                    if not self.accept(","):
                        break
                self.expect(";")
            else:
                raise WorkspaceError("found %r" % section.value, section.line,
                                     section.col, expected={"vertices", "arrows"})
        for aname, ends in arrows.items():  # vertices may follow the arrows
            for tok in ends:
                if tok.value not in vertices:
                    raise WorkspaceError("arrow %s uses undeclared vertex %r"
                                         % (aname, tok.value), tok.line, tok.col)
        arrows = [(aname, src.value, tgt.value) for aname, (src, tgt) in arrows.items()]
        quiver = Quiver(vertices, arrows)
        return Declaration("quiver", name, head.line, head.col,
                           vertices=vertices, arrows=arrows, quiver=quiver)

    def group_decl(self):
        head = self.expect("name", "group")
        name = self.expect("name").value
        self.expect("=")
        tok = self.expect("name")
        if tok.value == "Z":
            if self.accept("/"):
                order = self.expect("int").value
                if order < 2:
                    raise WorkspaceError("torsion order must be >= 2",
                                         tok.line, tok.col)
                group, spec = FgAbelian(0, [order]), "Z/%d" % order
            elif self.accept("^"):
                rank = self.expect("int").value
                group, spec = FgAbelian(rank), "Z^%d" % rank
            else:
                group, spec = FgAbelian(1), "Z"
        elif tok.value == "free":
            self.expect("(")
            if self.peek().kind == "int":
                rank = self.next().value
                group = FreeGroup(rank)
                spec = "free(%d)" % rank
            else:
                names = self.name_list()
                group = FreeGroup(len(names), names=names)
                spec = "free(%s)" % ",".join(names)
            self.expect(")")
        elif tok.value == "trivial":
            group, spec = FgAbelian(0), "trivial"
        else:
            raise WorkspaceError("found %r" % tok.value, tok.line, tok.col,
                                 expected={"Z", "free", "trivial"})
        self.expect(";")
        return Declaration("group", name, head.line, head.col,
                           group=group, spec=spec)

    def signed_int(self):
        sign = -1 if self.accept("-") else 1
        return sign * self.expect("int").value

    def group_element(self, group):
        tok = self.peek()
        if isinstance(group, FgAbelian):
            if self.accept("("):
                coords = [self.signed_int()]
                while self.accept(","):
                    coords.append(self.signed_int())
                self.expect(")")
                if len(coords) != group.free_rank + len(group.torsion):
                    raise WorkspaceError("element needs %d coordinates"
                                         % (group.free_rank + len(group.torsion)),
                                         tok.line, tok.col)
                return group.element(free=coords[:group.free_rank],
                                     torsion=coords[group.free_rank:])
            value = self.signed_int()
            if group.free_rank == 1 and not group.torsion:
                return group.element(free=[value])
            if group.free_rank == 0 and len(group.torsion) == 1:
                return group.element(torsion=[value])
            if group.free_rank == 0 and not group.torsion:
                if value not in (0, 1):
                    raise WorkspaceError("trivial group has only 0",
                                         tok.line, tok.col)
                return group.identity()
            raise WorkspaceError("element needs tuple syntax", tok.line, tok.col)
        if isinstance(group, FreeGroup):
            if self.peek().kind == "int":
                value = self.next().value
                if value != 1:
                    raise WorkspaceError("free-group literal must be a word or 1",
                                         tok.line, tok.col)
                return group.identity()
            letters = []
            while True:
                gen = self.expect("name")
                if gen.value not in group.names:
                    raise WorkspaceError("unknown generator %r" % gen.value,
                                         gen.line, gen.col,
                                         expected=set(group.names))
                index = group.names.index(gen.value) + 1
                power = 1
                if self.accept("^"):
                    power = self.signed_int()
                letters.extend([index if power > 0 else -index] * abs(power))
                if not self.accept("*"):
                    break
            return group.word(letters)
        raise WorkspaceError("group backend has no literal syntax",
                             tok.line, tok.col)

    def weighting_decl(self, ws):
        head = self.expect("name", "weighting")
        name = self.expect("name").value
        self.expect("name", "on")
        quiver_name, quiver = self.quiver_ref(ws, head)
        self.expect("name", "into")
        group_name = self.expect("name").value
        if group_name not in ws.groups:
            raise WorkspaceError("unknown group %r" % group_name,
                                 head.line, head.col, expected=set(ws.groups))
        group = ws.groups[group_name].group
        self.expect("{")
        named = {}
        while not self.accept("}"):
            arrow = self.known_arrow(quiver, self.expect("name"))
            if arrow.value in named:
                raise WorkspaceError("arrow %r is weighted twice" % arrow.value,
                                     arrow.line, arrow.col)
            self.expect("=")
            named[arrow.value] = self.group_element(group)
            self.expect(";")
        for arrow_name, _, _ in quiver.arrows:
            if arrow_name not in named:
                raise WorkspaceError("weighting misses arrow %r" % arrow_name,
                                     head.line, head.col)
        weighting = ArrowWeighting.by_name(quiver, group, named)
        return Declaration("weighting", name, head.line, head.col,
                           quiver_name=quiver_name, group_name=group_name,
                           group=group, named_values=named, weighting=weighting)

    def rational(self):
        num = self.signed_int()
        if self.accept("/"):
            den = self.expect("int")
            if not den.value:
                raise WorkspaceError("zero denominator", den.line, den.col)
            return Fraction(num, den.value)
        return Fraction(num)

    def path_expr(self, quiver):
        names = [self.expect("name")]
        while True:
            dot = self.accept(".")
            if not dot:
                break
            names.append(self.expect("name"))
            # validate endpoint compatibility at the dot, right-to-left
            later, earlier = names[-2], names[-1]
            if earlier.value in quiver.arrow_index and \
                    later.value in quiver.arrow_index:
                e = quiver.arrow_index[earlier.value]
                l = quiver.arrow_index[later.value]
                if quiver.target(e) != quiver.source(l):
                    raise WorkspaceError(
                        "path mismatch: %s ends at %s but %s starts at %s"
                        % (earlier.value,
                           quiver.vertices[quiver.target(e)],
                           later.value,
                           quiver.vertices[quiver.source(l)]),
                        dot.line, dot.col)
        for tok in names:
            if len(names) == 1 and tok.value in quiver.vertex_index:
                continue
            self.known_arrow(quiver, tok)
        return [tok.value for tok in names]

    def generator_expr(self, quiver, pindex):
        """Sum of optionally scaled path expressions; canonical text form
        carries explicit rational coefficients."""
        vec = SparseVector()
        texts = []
        while True:
            coeff = self.coefficient()
            names = self.path_expr(quiver)
            idx = pindex.from_names(names)
            vec = vec + SparseVector({idx: coeff})
            text = ".".join(names)
            if coeff != 1:
                text = "%s*%s" % (rational_str(coeff), text)
            texts.append(text)
            if not self.accept("+"):
                break
        return vec, " + ".join(texts)

    def subcoalgebra_decl(self, ws):
        head = self.expect("name", "subcoalgebra")
        name = self.expect("name").value
        self.expect("name", "of")
        quiver_name, quiver = self.quiver_ref(ws, head)
        self.expect("{")
        keyword = self.expect("name", "truncate")
        truncation = self.expect("int").value
        if truncation < 1 and quiver.num_arrows():
            raise WorkspaceError("an admissible subcoalgebra needs truncate >= 1 when "
                                 "the quiver has arrows", keyword.line, keyword.col)
        self.expect(";")
        pindex = PathIndex(quiver, truncation)
        generators = []
        texts = []
        if self.accept("name", "generators"):
            self.expect(":")
            while True:
                vec, text = self.generator_expr(quiver, pindex)
                generators.append(vec)
                texts.append(text)
                if not self.accept(","):
                    break
            self.expect(";")
        self.expect("}")
        basis = subcoalgebra_closure(pindex, generators)
        return Declaration("subcoalgebra", name, head.line, head.col,
                           quiver_name=quiver_name, truncation=truncation,
                           generator_texts=texts, pindex=pindex, basis=basis)

    def comodule_decl(self, ws):
        head = self.expect("name", "comodule")
        name = self.expect("name").value
        self.expect("name", "on")
        quiver_name, quiver = self.quiver_ref(ws, head)
        self.expect("{")
        self.expect("name", "basis")
        basis = []
        while True:
            label = self.unique_name([b[0] for b in basis], "basis label").value
            self.expect("@")
            vertex = self.expect("name")
            if vertex.value not in quiver.vertex_index:
                raise WorkspaceError("unknown vertex %r" % vertex.value,
                                     vertex.line, vertex.col,
                                     expected=set(quiver.vertex_index))
            basis.append((label, vertex.value))
            if not self.accept(","):
                break
        self.expect(";")
        labels = [b[0] for b in basis]
        map_terms = {}
        while self.accept("name", "map"):
            arrow = self.known_arrow(quiver, self.expect("name"))
            self.expect(":")
            src = self.expect("name")
            if src.value not in labels:
                raise WorkspaceError("unknown basis label %r" % src.value,
                                     src.line, src.col, expected=set(labels))
            self.expect("->")
            terms = []
            while True:
                coeff = self.coefficient()
                dst = self.expect("name")
                if dst.value not in labels:
                    raise WorkspaceError("unknown basis label %r" % dst.value,
                                         dst.line, dst.col, expected=set(labels))
                terms.append((src.value, coeff, dst.value))
                if not self.accept("+"):
                    break
            self.expect(";")
            map_terms.setdefault(arrow.value, []).extend(terms)
        self.expect("}")
        rep = _representation_from_decl(quiver, basis, map_terms, head)
        return Declaration("comodule", name, head.line, head.col,
                           quiver_name=quiver_name, basis=basis,
                           map_terms=map_terms, representation=rep)


def _representation_from_decl(quiver, basis, map_terms, head):
    dims = [0] * quiver.num_vertices()
    slot = {}
    for label, vertex in basis:
        v = quiver.vertex_index[vertex]
        slot[label] = (v, dims[v])
        dims[v] += 1
    maps = {}
    for arrow_name, terms in map_terms.items():
        a = quiver.arrow_index[arrow_name]
        rows = dims[quiver.target(a)]
        cols = dims[quiver.source(a)]
        mat = [[Fraction(0)] * cols for _ in range(rows)]
        for src_label, coeff, dst_label in terms:
            sv, sk = slot[src_label]
            dv, dk = slot[dst_label]
            if sv != quiver.source(a) or dv != quiver.target(a):
                raise WorkspaceError(
                    "map %s: %s -> %s does not follow the arrow"
                    % (arrow_name, src_label, dst_label), head.line, head.col)
            mat[dk][sk] += coeff
        maps[a] = mat
    return QuiverRepresentation(quiver, dims, maps)


def parse(text):
    return Parser(text).parse()


def emit(ws):
    """Canonical source text; emit(parse(s)) reparses to an equal
    workspace and is a fixed point of parse-emit."""
    chunks = []
    for decl in ws.declarations:
        if decl.kind == "quiver":
            lines = ["quiver %s {" % decl.name]
            lines.append("  vertices %s;" % ", ".join(decl.vertices))
            if decl.arrows:
                arrows = ", ".join("%s: %s -> %s" % a for a in decl.arrows)
                lines.append("  arrows %s;" % arrows)
            lines.append("}")
            chunks.append("\n".join(lines))
        elif decl.kind == "group":
            chunks.append("group %s = %s;" % (decl.name, decl.spec))
        elif decl.kind == "weighting":
            lines = ["weighting %s on %s into %s {"
                     % (decl.name, decl.quiver_name, decl.group_name)]
            quiver = ws.quivers[decl.quiver_name].quiver
            for aname in [quiver.arrow_name(a) for a in range(quiver.num_arrows())]:
                lines.append("  %s = %s;" % (aname,
                                             decl.group.format(decl.named_values[aname])))
            lines.append("}")
            chunks.append("\n".join(lines))
        elif decl.kind == "subcoalgebra":
            lines = ["subcoalgebra %s of %s {" % (decl.name, decl.quiver_name)]
            lines.append("  truncate %d;" % decl.truncation)
            if decl.generator_texts:
                lines.append("  generators: %s;" % ", ".join(decl.generator_texts))
            lines.append("}")
            chunks.append("\n".join(lines))
        elif decl.kind == "comodule":
            lines = ["comodule %s on %s {" % (decl.name, decl.quiver_name)]
            lines.append("  basis %s;" % ", ".join("%s @ %s" % b for b in decl.basis))
            for arrow in sorted(decl.map_terms):
                by_src = {}
                for src, coeff, dst in decl.map_terms[arrow]:
                    by_src.setdefault(src, []).append((coeff, dst))
                for src in sorted(by_src):
                    terms = []
                    for coeff, dst in sorted(by_src[src], key=lambda t: t[1]):
                        terms.append(dst if coeff == 1 else
                                     "%s*%s" % (rational_str(coeff), dst))
                    lines.append("  map %s: %s -> %s;" % (arrow, src,
                                                          " + ".join(terms)))
            lines.append("}")
            chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"
