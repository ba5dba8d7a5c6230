"""Seeded generator of valid-ish Java classes for metric fuzz tests."""

import random


def _expr(rng, depth=0):
    choices = ["var%d" % rng.randrange(4), str(rng.randrange(100))]
    if depth < 2:
        op = rng.choice(["+", "-", "*", "&&", "||", ">", "<", "=="])
        choices.append(f"{_expr(rng, depth + 1)} {op} {_expr(rng, depth + 1)}")
        choices.append(f"f{rng.randrange(3)}({_expr(rng, depth + 1)})")
        choices.append(
            f"{_expr(rng, depth + 1)} > 0 ? {_expr(rng, depth + 1)} : {_expr(rng, depth + 1)}"
        )
    return rng.choice(choices)


def _statement(rng, depth, lines):
    kind = rng.randrange(8)
    pad = "    " * (depth + 2)
    if kind == 0 and depth < 3:
        lines.append(f"{pad}if ({_expr(rng)}) {{")
        _block(rng, depth + 1, lines)
        if rng.random() < 0.4:
            lines.append(f"{pad}}} else if ({_expr(rng)}) {{")
            _block(rng, depth + 1, lines)
        if rng.random() < 0.4:
            lines.append(f"{pad}}} else {{")
            _block(rng, depth + 1, lines)
        lines.append(f"{pad}}}")
    elif kind == 1 and depth < 3:
        lines.append(f"{pad}for (int i = 0; i < {rng.randrange(10)}; i++) {{")
        _block(rng, depth + 1, lines)
        lines.append(f"{pad}}}")
    elif kind == 2 and depth < 3:
        lines.append(f"{pad}while ({_expr(rng)}) {{")
        _block(rng, depth + 1, lines)
        lines.append(f"{pad}}}")
    elif kind == 3 and depth < 2:
        lines.append(f"{pad}try {{")
        _block(rng, depth + 1, lines)
        lines.append(f"{pad}}} catch (Exception e) {{")
        _block(rng, depth + 1, lines)
        lines.append(f"{pad}}}")
    elif kind == 4:
        lines.append(f"{pad}int var{rng.randrange(4)} = {_expr(rng)};")
    elif kind == 5:
        lines.append(f"{pad}// note {rng.randrange(1000)}")
        lines.append(f"{pad}var{rng.randrange(4)} = {_expr(rng)};")
    elif kind == 6:
        lines.append(f'{pad}log("msg {rng.randrange(50)}", {_expr(rng)});')
    else:
        lines.append(f"{pad}return {_expr(rng)};")


def _block(rng, depth, lines):
    for _ in range(rng.randrange(1, 4)):
        _statement(rng, depth, lines)


def make_class(seed):
    """One random class with 1..5 methods; returns source text."""
    rng = random.Random(seed)
    lines = ["package fuzz;", ""]
    if rng.random() < 0.5:
        lines.append("/** Doc for C%d. */" % seed)
    lines.append("public class C%d {" % seed)
    n_methods = rng.randrange(1, 6)
    for m in range(n_methods):
        lines.append("")
        if rng.random() < 0.4:
            lines.append("    /** Doc m%d. */" % m)
        vis = rng.choice(["public ", "private ", ""])
        params = ", ".join(f"int p{i}" for i in range(rng.randrange(0, 3)))
        lines.append(f"    {vis}int m{m}({params}) {{")
        _block(rng, 0, lines)
        lines.append("        return 0;")
        lines.append("    }")
    if rng.random() < 0.3:
        lines.append("    private int field0 = 1, field1 = 2;")
    lines.append("}")
    return "\n".join(lines) + "\n"


_ANNOTATIONS = (
    "@Override",
    "@Deprecated",
    "@java.lang.SafeVarargs",
    '@SuppressWarnings("unchecked")',
    '@SuppressWarnings({"rawtypes", "unused"})',
    "@a.b.Marker(value = 3, names = {\"x\"})",
    "@Nullable",
)
_MODIFIERS = (
    "public", "protected", "private", "static", "abstract", "final",
    "native", "synchronized", "transient", "volatile", "strictfp", "default",
)
_TYPES = (
    "int", "long", "boolean", "double", "char", "String", "Object", "T",
    "int[]", "String[][]", "List<String>", "Map<K, List<V>>",
    "java.util.List<? extends Number>", "Map.Entry<K, V>[]",
    "Comparator<? super T>", "Set<Map<String, int[]>>",
)
_TYPE_PARAMETERS = ("<T>", "<K, V>", "<T extends Comparable<? super T>>", "<R extends a.B & C>")


def _annotations(rng, indent):
    return [indent + rng.choice(_ANNOTATIONS) for _ in range(rng.randrange(3) // 2)]


def _modifiers(rng):
    mods = rng.sample(_MODIFIERS, rng.randrange(4))
    if rng.random() < 0.3:  # annotations among the modifiers
        mods.insert(rng.randrange(len(mods) + 1), rng.choice(_ANNOTATIONS))
    return " ".join(mods + [""])


def _parameters(rng):
    params = []
    n = rng.randrange(4)
    for k in range(n):
        prefix = ""
        if rng.random() < 0.2:
            prefix += "final "
        if rng.random() < 0.2:
            prefix += rng.choice(_ANNOTATIONS) + " "
        ty = rng.choice(_TYPES)
        if k == n - 1 and rng.random() < 0.2:
            ty += "..."
        suffix = "[]" if rng.random() < 0.1 else ""
        params.append(f"{prefix}{ty} p{k}{suffix}")
    return ", ".join(params)


def _throws(rng):
    if rng.random() < 0.25:
        return " throws " + ", ".join(
            rng.sample(["IOException", "a.b.Failure", "RuntimeException"], rng.randrange(1, 3))
        )
    return ""


def _body(rng, indent, lines):
    """A method body: statements, sometimes a local or anonymous class."""
    roll = rng.random()
    if roll < 0.1:
        lines.append(f"{indent}    class Local{rng.randrange(9)} {{ void go() {{ }} }}")
    elif roll < 0.2:
        lines.append(f"{indent}    Runnable r = new Runnable() {{")
        lines.append(f"{indent}        public void run() {{ step(); }}")
        lines.append(f"{indent}    }};")
    for _ in range(rng.randrange(3)):
        _statement(rng, 0, lines)


def _member(rng, lines, cls, kind, depth, counter):
    indent = "    " * (depth + 1)
    counter[0] += 1
    n = counter[0]
    lines.extend(_annotations(rng, indent))
    mods = _modifiers(rng)
    roll = rng.random()
    if roll < 0.3:
        tparams = rng.choice(_TYPE_PARAMETERS) + " " if rng.random() < 0.2 else ""
        head = f"{indent}{mods}{tparams}{rng.choice(_TYPES + ('void',))} m{n}({_parameters(rng)})"
        head += "[]" if rng.random() < 0.05 else ""
        head += _throws(rng)
        if kind == "@interface" or rng.random() < 0.15:
            default = " default 1" if kind == "@interface" and rng.random() < 0.5 else ""
            lines.append(head + default + ";")  # no body
        else:
            lines.append(head + " {")
            _body(rng, indent, lines)
            lines.append(f"{indent}}}")
    elif roll < 0.4:
        tparams = rng.choice(_TYPE_PARAMETERS) + " " if rng.random() < 0.2 else ""
        lines.append(f"{indent}{mods}{tparams}{cls}({_parameters(rng)}){_throws(rng)} {{")
        _body(rng, indent, lines)
        lines.append(f"{indent}}}")
    elif roll < 0.65:
        declarators = []
        for k in range(rng.randrange(1, 4)):
            d = f"f{n}_{k}" + ("[]" if rng.random() < 0.1 else "")
            init = rng.choice(["", "", " = 1", " = g(1, 2)", " = {1, 2}", " = new ArrayList<>()",
                               " = new Object() { int x; }", " = a < b", " = (x) -> { return x; }"])
            declarators.append(d + init)
        lines.append(f"{indent}{mods}{rng.choice(_TYPES)} {', '.join(declarators)};")
    elif roll < 0.75:
        lines.append(f"{indent}{'static ' if rng.random() < 0.5 else ''}{{ init{n}(); }}")
    elif roll < 0.85 and depth < 2:
        _declaration(rng, lines, f"N{n}", depth + 1, counter, mods)
    else:
        lines.append(f"{indent};" if rng.random() < 0.5 else f"{indent}int[] t{n} = {{ {n} }};")


def _declaration(rng, lines, name, depth, counter, mods=None):
    indent = "    " * depth
    kind = rng.choice(["class", "class", "interface", "enum", "@interface"])
    if mods is None:
        lines.extend(_annotations(rng, indent))
        mods = rng.choice(["public ", "", "abstract ", "public final ", "strictfp "])
    header = f"{indent}{mods}{kind} {name}"
    if kind in ("class", "interface") and rng.random() < 0.3:
        header += rng.choice(_TYPE_PARAMETERS)
    if kind == "class" and rng.random() < 0.3:
        header += " extends Base<T> implements I, J<K>"
    lines.append(header + " {")
    if kind == "enum":
        constants = []
        for k in range(rng.randrange(1, 4)):
            c = f"C{k}"
            if rng.random() < 0.4:
                c += f"({k}, \"v\")"
            if rng.random() < 0.3:
                c += " { @Override int weight() { return 2; } }"
            constants.append(c)
        trailer = rng.choice([";", "", ","]) if rng.random() < 0.5 else ";"
        lines.append(f"{indent}    {', '.join(constants)}{trailer}")
    for _ in range(rng.randrange(1, 6)):
        _member(rng, lines, name, kind, depth, counter)
    lines.append(f"{indent}}}")


def make_declarations(seed):
    """One random compilation unit exercising the declaration rules:
    annotations, modifiers, type parameters, generic/array/varargs types,
    constructors, bodyless methods, enum constants, fields with several
    declarators, nested/local/anonymous classes, ``@interface`` and
    initializers.  Names may repeat, so a few sources collide."""
    rng = random.Random(seed)
    lines = ["package decl.p%d;" % (seed % 3), "", "import java.util.*;", ""]
    counter = [0]
    for k in range(rng.randrange(1, 3)):
        _declaration(rng, lines, f"D{seed}_{k}", 0, counter)
    return "\n".join(lines) + "\n"


def mutate(source, seed):
    """``source`` with one character deleted, inserted or replaced."""
    rng = random.Random(seed)
    pos = rng.randrange(len(source) + 1)
    char = rng.choice("{}()<>;,.@=[]\"'/ \nab")
    op = rng.randrange(3)
    if op == 0 or pos == len(source):
        return source[:pos] + char + source[pos:]
    if op == 1:
        return source[:pos] + source[pos + 1:]
    return source[:pos] + char + source[pos + 1:]


def _soup_statement(rng, depth, lines):
    """One statement of a form the statement scanner treats on its own, with
    its sub-statements braced or bare."""
    pad = "    " * (depth + 2)
    inner = depth < 3
    roll = rng.randrange(22 if inner else 10)
    if roll == 0:
        lines.append(f"{pad}var{rng.randrange(4)} = {_expr(rng)};")
    elif roll == 1:
        keyword = rng.choice(["return", "throw", "break", "continue", "assert"])
        lines.append(f"{pad}{keyword} {_expr(rng)};")
    elif roll == 2:
        # sometimes a stray brace or paren, an orphan else or a lone do
        stray = rng.random() < 0.3
        choices = ["{", "}", "(", ")", "else", "do"] if stray else [";", "{ }"]
        lines.append(pad + rng.choice(choices))
    elif roll == 3:
        lines.append(f"{pad}{rng.choice(['// note', '/* a */ step();', 'step(); // tail'])}")
    elif roll == 4:
        label = rng.choice(["outer", "inner"])
        labelled = rng.choice(["", "step();", "for (;;) break outer;", "x: y: z();"])
        lines.append(f"{pad}{label}: {labelled}")
    elif roll == 5:
        lines.append(f"{pad}Runnable r = () -> {{ if ({_expr(rng)}) step(); }};")
    elif roll == 6:
        lines.append(f"{pad}list.forEach(x -> {{ while (x > 0) x--; }});")
    elif roll == 7:
        lines.append(
            f"{pad}Object o = new Object() {{ int f() {{ do {{ }} while (a); return 1; }} }};"
        )
    elif roll == 8:
        kind = rng.choice(["class", "interface", "enum"])
        constants = "A, B;" if kind == "enum" else ""
        lines.append(
            f"{pad}{kind} L{rng.randrange(9)} {{ {constants} void go() {{ if (x) {{ y(); }} }} }}"
        )
    elif roll == 9:
        lines.append(f"{pad}int v = a ? b : c, w = f((x), {{1}});")
    elif roll in (10, 11):
        lines.append(f"{pad}if ({_expr(rng)})")
        _soup_body(rng, depth, lines)
        for _ in range(rng.randrange(3)):
            lines.append(f"{pad}else if ({_expr(rng)})")
            _soup_body(rng, depth, lines)
        if rng.random() < 0.5:
            lines.append(f"{pad}else")
            _soup_body(rng, depth, lines)
    elif roll == 12:
        loops = ["for (int i = 0; i < n; i++)", "for (String s : names)", "while (more())"]
        lines.append(pad + rng.choice(loops))
        _soup_body(rng, depth, lines)
    elif roll == 13:
        lines.append(f"{pad}do")
        _soup_body(rng, depth, lines)
        lines.append(f"{pad}{rng.choice(['while (a);', 'while (a)', ''])}")
    elif roll == 14:
        lines.append(f"{pad}synchronized ({rng.choice(['this', 'lock', ''])})")
        _soup_body(rng, depth, lines)
    elif roll == 15:
        lines.append(f"{pad}switch ({_expr(rng)}) {{")
        for k in range(rng.randrange(1, 4)):
            lines.append(f"{pad}case {rng.choice([str(k), '(1 + 2)', 'A', '{3}'])}:")
            _soup_statement(rng, depth + 1, lines)
        if rng.random() < 0.5:
            lines.append(f"{pad}default:")
            _soup_statement(rng, depth + 1, lines)
        lines.append(f"{pad}}}")
    elif roll in (16, 17):
        lines.append(f"{pad}try {rng.choice(['', '(Res r = open(); Res s = open(r)) '])}{{")
        _soup_block(rng, depth + 1, lines)
        lines.append(f"{pad}}}")
        for _ in range(rng.randrange(3)):
            lines.append(f"{pad}catch ({rng.choice(['Exception e', 'A | B e'])}) {{")
            _soup_block(rng, depth + 1, lines)
            lines.append(f"{pad}}}")
        if rng.random() < 0.5:
            lines.append(f"{pad}finally {{")
            _soup_block(rng, depth + 1, lines)
            lines.append(f"{pad}}}")
    elif roll == 18:
        lines.append(f"{pad}{{")
        _soup_block(rng, depth + 1, lines)
        lines.append(f"{pad}}}")
    else:
        lines.append(f"{pad}{rng.choice(['step', 'f0', 'log'])}({_expr(rng)});")


def _soup_body(rng, depth, lines):
    """The body of a control structure: a block or one bare statement."""
    if rng.random() < 0.6:
        lines.append("    " * (depth + 2) + "{")
        _soup_block(rng, depth + 1, lines)
        lines.append("    " * (depth + 2) + "}")
    else:
        _soup_statement(rng, depth + 1, lines)


def _soup_block(rng, depth, lines):
    for _ in range(rng.randrange(1, 4)):
        _soup_statement(rng, depth, lines)


def make_statements(seed):
    """One random class whose method bodies mix every statement form the
    statement scanner treats on its own: ``if``/``else if``/``else`` chains
    (an orphan ``else`` too), loops, ``do ... while``, ``switch`` with
    ``case``/``default``, ``synchronized``, labels, try-with-resources with
    ``catch``/``finally``, local, anonymous and enum classes, lambdas,
    comments, and stray braces and parens.  A quarter of the units are cut
    off after a lone ``do``."""
    rng = random.Random(seed)
    lines = ["package soup;", "", "class S%d {" % seed]
    for m in range(rng.randrange(1, 4)):
        lines.append(f"    void m{m}(int a) {{")
        _soup_block(rng, 0, lines)
        lines.append("    }")
    if rng.random() < 0.25:
        # cut off after a lone ``do``: the body window ends just before the
        # file's last token, and the scan reads that token as the do's body
        lines.append("    void cut() {")
        _soup_block(rng, 0, lines)
        lines.append("        do " + rng.choice(["x", ";", "if", "while"]))
    else:
        lines.append("}")
    return "\n".join(lines) + "\n"
