import hashlib
import random

import pytest
from snippets import make_declarations, mutate

from fixpair.analyzer import analyze_source
from fixpair.java.structure import ElementCollisionError, parse_elements
from fixpair.java.tokenizer import tokenize

DECLARATIONS_DIGEST = "0e843e74b4beb593f2ec10e1c9e85e8485c3095558166f7785bc584c64c7a7db"


def parse(src, path="src/A.java"):
    return parse_elements(path, tokenize(src))


def by_kind(elements, kind):
    return [e for e in elements if e.kind == kind]


def find(elements, fqn):
    return next(e for e in elements if e.fqn == fqn)


def test_minimal_class_and_method():
    elems = parse("package p; class A { void m(int x){} }")
    fqns = {(e.kind, e.fqn) for e in elems}
    assert ("class", "p.A") in fqns
    assert ("method", "p.A.m(int)void") in fqns
    method = find(elems, "p.A.m(int)void")
    assert method.parent_fqn == "p.A"


def test_file_element_spans_whole_file():
    src = "package p;\nclass A {\n}\n"
    elems = parse(src, path="p/A.java")
    f = by_kind(elems, "file")[0]
    assert f.fqn == "p/A.java"
    assert (f.start_line, f.end_line) == (1, 3)
    assert not f.degraded


def test_anonymous_class_not_emitted():
    src = """package p;
class A {
    void m() {
        Runnable r = new Runnable() {
            public void run() { helper(); }
        };
        r.run();
    }
    void helper() { }
}
"""
    elems = parse(src)
    classes = by_kind(elems, "class")
    methods = by_kind(elems, "method")
    assert [c.fqn for c in classes] == ["p.A"]
    assert sorted(m.name for m in methods) == ["helper", "m"]
    m = find(elems, "p.A.m()void")
    # the anonymous body is inside m's range
    assert m.start_line == 3 and m.end_line == 8


def test_local_class_not_emitted():
    src = """class A {
    void m() {
        class Local { void inner() { } }
        new Local().inner();
    }
}
"""
    elems = parse(src)
    assert [c.fqn for c in by_kind(elems, "class")] == ["A"]
    assert [m.fqn for m in by_kind(elems, "method")] == ["A.m()void"]


def test_overloads_get_distinct_fqns():
    src = "class A { void m(int x){} void m(long x){} }"
    elems = parse(src)
    fqns = sorted(m.fqn for m in by_kind(elems, "method"))
    assert fqns == ["A.m(int)void", "A.m(long)void"]


def test_generics_erased_arrays_kept():
    src = """package p;
import java.util.List;
import java.util.Map;
class A {
    List<String> pick(Map<String, List<Integer>> table, int[] keys, String... extra) { return null; }
}
"""
    elems = parse(src)
    m = by_kind(elems, "method")[0]
    assert m.fqn == "p.A.pick(Map,int[],String[])List"


def test_constructor_fqn_uses_void():
    src = "package p; class A { A(int seed) { } }"
    m = by_kind(parse(src), "method")[0]
    assert m.fqn == "p.A.A(int)void"


def test_nested_class_fqn_and_ranges_nest():
    src = """package p;
class Outer {
    static class Inner {
        void m() { }
    }
    void outerM() { }
}
"""
    elems = parse(src)
    outer = find(elems, "p.Outer")
    inner = find(elems, "p.Outer.Inner")
    m = find(elems, "p.Outer.Inner.m()void")
    assert inner.parent_fqn == "p.Outer"
    assert outer.start_line <= inner.start_line <= inner.end_line <= outer.end_line
    assert inner.start_line <= m.start_line <= m.end_line <= inner.end_line


def test_interface_and_default_method():
    src = """package p;
interface Op {
    int apply(int v);
    default int twice(int v) { return apply(apply(v)); }
}
"""
    elems = parse(src)
    assert find(elems, "p.Op").kind == "class"
    methods = by_kind(elems, "method")
    # the bodyless declaration is not an element
    assert [m.fqn for m in methods] == ["p.Op.twice(int)int"]


def test_enum_constants_counted_as_fields():
    src = "package p; enum Color { RED, GREEN, BLUE }"
    enum = find(parse(src), "p.Color")
    assert sum(f.declarators for f in enum.fields) == 3


def test_fields_with_multiple_declarators():
    src = """class A {
    private int a, b = f(1, 2);
    public static final String NAME = "x";
    int[] table = {1, 2, 3};
}
"""
    cls = by_kind(parse(src), "class")[0]
    counts = sorted((f.modifiers, f.declarators) for f in cls.fields)
    total = sum(f.declarators for f in cls.fields)
    assert total == 4
    assert (("public", "static", "final"), 1) in counts


def test_annotations_with_brace_args_do_not_confuse_parser():
    src = """class A {
    @SuppressWarnings({"unchecked", "raw"})
    void m() { }
}
"""
    methods = by_kind(parse(src), "method")
    assert [m.fqn for m in methods] == ["A.m()void"]
    assert methods[0].start_line == 2  # declaration includes the annotation


def test_unbalanced_braces_degrade_but_still_emit():
    src = "class A { void m() { if (x) { }\n"  # missing closers
    elems = parse(src)
    f = by_kind(elems, "file")[0]
    assert f.degraded
    assert any(e.fqn == "A" for e in elems)


def test_fqn_collision_is_an_error():
    src = "class A { void m(int x){} void m(int y){} }"
    with pytest.raises(ElementCollisionError):
        parse(src)


def test_determinism():
    src = "package p; class A { void m(){} class B { B(){} } }"
    a = [(e.kind, e.fqn, e.start_line, e.end_line) for e in parse(src)]
    b = [(e.kind, e.fqn, e.start_line, e.end_line) for e in parse(src)]
    assert a == b


def test_golden_position_triples():
    src = """package com.example;

/** Doc. */
public class Sample {

    private int counter;

    public Sample(int start) {
        counter = start;
    }

    /** Increment. */
    public int bump(int by) {
        counter += by;
        return counter;
    }

    static class Helper {
        void reset() {
        }
    }
}
"""
    elems = parse(src, path="com/example/Sample.java")
    triples = sorted((e.fqn, e.start_line, e.end_line) for e in elems)
    assert triples == sorted(
        [
            ("com/example/Sample.java", 1, 22),
            ("com.example.Sample", 4, 22),
            ("com.example.Sample.Sample(int)void", 8, 10),
            ("com.example.Sample.bump(int)int", 13, 16),
            ("com.example.Sample.Helper", 18, 21),
            ("com.example.Sample.Helper.reset()void", 19, 20),
        ]
    )


GNARLY = r"""package com.ex;

import java.util.*;
import java.util.function.*;

/** Outer doc. */
@SuppressWarnings({"unchecked", "rawtypes"})
public abstract class Gnarly<T extends Comparable<? super T>> implements Iterable<T> {

    static { REGISTRY = new HashMap<>(); }
    private static Map<String, List<? extends Number>> REGISTRY;

    { instanceInit(); }

    public enum Mode {
        FAST(1) {
            @Override int weight() { return 1; }
        },
        SLOW(9);
        private final int w;
        Mode(int w) { this.w = w; }
        int weight() { return w; }
    }

    public <R> Map<R, T[]> transform(Function<? super T, ? extends R> f, int[][] grid, T... extras) throws IllegalStateException {
        Runnable r = () -> {
            class LocalHelper { void go() { } }
            new LocalHelper().go();
        };
        Comparator<T> cmp = new Comparator<T>() {
            public int compare(T a, T b) {
                return a == null ? -1 : a.compareTo(b);
            }
        };
        outer:
        for (int i = 0; i < grid.length; i++) {
            switch (grid[i].length % 3) {
                case 0:
                    continue outer;
                case 1: {
                    do { i++; } while (i < 2 && grid[i] != null);
                    break;
                }
                default:
                    assert i >= 0 : "negative";
            }
        }
        try (AutoCloseable ac = null) {
            synchronized (this) { notifyAll(); }
        } catch (Exception | Error e) {
            throw new IllegalStateException("msg: \"quoted\", 'c'", e);
        } finally {
            cleanup();
        }
        char c = 'A';
        String s = "a\\b\"c,d";
        return null;
    }

    abstract void cleanup();
    native int nativeThing(int x);

    interface Inner { default int twice(int v) { return v * 2; } }
}
"""


def test_gnarly_realistic_source():
    elems = parse(GNARLY, path="src/com/ex/Gnarly.java")
    fqns = {e.fqn for e in elems if e.kind == "method"}
    assert "com.ex.Gnarly.transform(Function,int[][],T[])Map" in fqns
    assert "com.ex.Gnarly.Mode.Mode(int)void" in fqns
    assert "com.ex.Gnarly.Mode.weight()int" in fqns
    assert "com.ex.Gnarly.Inner.twice(int)int" in fqns
    # anonymous Comparator and the local class are not elements
    assert not any("compare" in f or "LocalHelper" in f or "go()" in f for f in fqns)
    # bodyless declarations are not elements
    assert not any("cleanup" in f or "nativeThing" in f for f in fqns)
    gnarly = find(elems, "com.ex.Gnarly")
    mode = find(elems, "com.ex.Gnarly.Mode")
    # enum constants and the w field count as attributes
    assert sum(f.declarators for f in mode.fields) == 3
    assert sum(f.declarators for f in gnarly.fields) == 1
    assert not by_kind(elems, "file")[0].degraded


def test_parser_tolerates_arbitrary_soup():
    import random

    rng = random.Random(99)
    alphabet = "abcz01 \n\t{}()<>;,.=+-*/\"'@#classvoidintenum"
    for _ in range(300):
        soup = "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(0, 160))
        )
        try:
            elems = parse(soup)
        except ElementCollisionError:
            continue  # the one documented analyzer error
        for e in elems:
            assert e.start_line <= e.end_line


def test_method_elements_nest_inside_their_class():
    src = """package p;
class A {
    void m() { }
    class B { void n() { } }
}
"""
    elems = parse(src)
    classes = {c.fqn: c for c in by_kind(elems, "class")}
    for m in by_kind(elems, "method"):
        parent = classes[m.parent_fqn]
        assert parent.start_line <= m.start_line <= m.end_line <= parent.end_line


def _analysis_record(fa):
    """Every field the front end produces for one source, in a stable form."""
    elements = [
        (
            e.kind, e.fqn, e.path, e.start_line, e.end_line, e.parent_fqn,
            e.name, e.modifiers, e.decl_index, e.body_open, e.body_close,
            e.param_types, e.return_type,
            tuple((f.modifiers, f.declarators) for f in e.fields), e.degraded,
        )
        for e in fa.elements
    ]
    vectors = sorted(
        (key, vec.level, tuple(vec.values.items())) for key, vec in fa.vectors.items()
    )
    return repr((fa.error, sorted(fa.code_lines), elements, vectors))


def test_declarations_are_pinned():
    """Elements and metric vectors of 1 000 generated declaration units and a
    one-character mutation of each, against a digest of the reference output
    (any change to a declaration rule shows here)."""
    digest = hashlib.sha256()
    for seed in range(1000):
        src = make_declarations(seed)
        for text in (src, mutate(src, seed)):
            digest.update(_analysis_record(analyze_source("src/D.java", text)).encode())
    assert digest.hexdigest() == DECLARATIONS_DIGEST


_MEMBER_TOKENS = (
    "class B {", "interface C {", "enum E {", "@interface D {", "@A", "void m() {",
    "A(int x) {", "B() throws E {", "static <T> int n(T t) {", "int f", "(", ")",
    "{", "}", "}", "}", ";", ",", "<", ">", "=", "public", "new", "1", "\n",
)


def test_members_lie_within_their_parent_class():
    rng = random.Random(13)
    for _ in range(2000):
        body = " ".join(rng.choice(_MEMBER_TOKENS) for _ in range(rng.randrange(80)))
        try:
            elems = parse("class A {\n" + body + "\n}\n")
        except ElementCollisionError:
            continue
        classes = {c.fqn: c for c in by_kind(elems, "class")}
        for e in elems:
            if e.parent_fqn is not None:
                parent = classes[e.parent_fqn]
                assert parent.start_line <= e.start_line <= e.end_line <= parent.end_line


@pytest.mark.parametrize("src, fields, methods", [
    # a field's modifiers stop at '<': the run keeps its field
    ("class A { < a ; }", [((), 1)], []),
    # a method header stops at '@interface', so this is no constructor
    ("class A { < ( > @interface A ( ) throws ) {} }", [], []),
    ("class A { @a.B(1) public <T> A(final @C int x) throws E {} }", [], ["A.A(int)void"]),
])
def test_declaration_rule_edge_cases(src, fields, methods):
    elems = parse(src)
    cls = find(elems, "A")
    assert [(f.modifiers, f.declarators) for f in cls.fields] == fields
    assert [m.fqn for m in by_kind(elems, "method")] == methods
