import hashlib
import math

import pytest

from fixpair.analyzer import analyze_source
from fixpair.metrics import CLASS_COLUMNS, FILE_COLUMNS, METHOD_COLUMNS

from snippets import make_class, make_statements, mutate

STATEMENTS_DIGEST = "140130afc3063def2b5f828e0bd86c7c1cd2fd2c16a2c89e3d0c2bae837515d8"


def analyzed(src, path="src/A.java"):
    return analyze_source(path, src)


def method_vec(src, fqn_part):
    fa = analyzed(src)
    for (kind, fqn), vec in fa.vectors.items():
        if kind == "method" and fqn_part in fqn:
            return vec.values
    raise AssertionError(f"no method matching {fqn_part}")


def test_empty_method_conventions():
    v = method_vec("class A { void m(){} }", ".m()")
    assert v["LOC"] == 1
    assert v["NUMPAR"] == 0
    assert v["McCC"] == 1
    assert v["NOS"] == 0
    assert v["HPV"] == 0
    assert v["HVOL"] == 0


def test_hand_counted_method():
    v = method_vec("class A { int f(int a){ if(a>0) return a; return 0; } }", ".f(")
    assert v["McCC"] == 2
    assert v["NUMPAR"] == 1
    assert v["NOS"] == 3


def test_for_plus_logical_and_mccc():
    src = """class A {
    void g(int n) {
        for (int i = 0; i < n && n > 0; i++) {
            tick();
        }
    }
}
"""
    assert method_vec(src, ".g(")["McCC"] == 3


def test_halstead_hand_check():
    # body: if ( a > 0 ) return a ; return 0 ;
    v = method_vec("class A { int f(int a){ if(a>0) return a; return 0; } }", ".f(")
    assert v["HPL"] == 12  # 8 operators + 4 operands
    assert v["HPV"] == 8  # {if ( > ) return ;} + {a 0}
    assert v["HVOL"] == pytest.approx(12 * math.log2(8))
    assert v["HDIF"] == pytest.approx((6 / 2) * (4 / 2))
    assert v["HEFF"] == pytest.approx(v["HDIF"] * v["HVOL"])


def test_wmc_is_sum_of_member_mccc():
    src = """class A {
    void m1() { }
    int m2(int a) { if (a > 0) return a; return 0; }
    int m3(int n) { for (int i = 0; i < n && n > 0; i++) { n--; } return n; }
}
"""
    fa = analyzed(src)
    cls = fa.vectors[("class", "A")].values
    assert cls["WMC"] == 1 + 2 + 3
    assert cls["NM"] == 3


def test_public_private_method_counts():
    src = """class A {
    public void p1() { }
    public void p2() { }
    private void q() { }
}
"""
    cls = analyzed(src).vectors[("class", "A")].values
    assert cls["NPM"] == 2
    assert cls["NLM"] == 3
    assert cls["NM"] == 3


def test_empty_class_counts():
    cls = analyzed("class A { }").vectors[("class", "A")].values
    assert cls["NM"] == 0
    assert cls["WMC"] == 0
    assert cls["NOS"] == 0


def test_getter_setter_attribute_counts():
    src = """class A {
    private int size;
    public int fields, extra;
    public int getSize() { return size; }
    public boolean isEmpty() { return size == 0; }
    public void setSize(int s) { size = s; }
    public void work() { }
}
"""
    cls = analyzed(src).vectors[("class", "A")].values
    assert cls["NG"] == 2
    assert cls["NS"] == 1
    assert cls["NA"] == 3
    assert cls["NPA"] == 2
    assert cls["TNA"] == 3


def test_nested_class_totals():
    src = """class A {
    int a;
    void m() { }
    static class B {
        int b1, b2;
        void n1() { }
        void n2() { }
    }
}
"""
    fa = analyzed(src)
    outer = fa.vectors[("class", "A")].values
    assert outer["NM"] == 1
    assert outer["TNM"] == 3
    assert outer["NA"] == 1
    assert outer["TNA"] == 3
    # own lines exclude the nested class range
    assert outer["LOC"] < outer["TLOC"]


def test_file_metrics_blank_file():
    fa = analyzed("\n\n\n")
    f = fa.vectors[("file", "src/A.java")].values
    assert f["LLOC"] == 0
    assert f["CLOC"] == 0
    assert f["LOC"] == 3
    assert f["McCC"] == 1


def test_file_pda_pua():
    src = """package p;

/** Doc. */
public class A {
    /** Documented. */
    public void m1() { }
    public void m2() { }
    void hidden() { }
}
"""
    f = analyzed(src).vectors[("file", "src/A.java")].values
    assert f["PDA"] == 2  # class A + m1
    assert f["PUA"] == 1  # m2; package-private hidden() not counted


def test_file_lloc_additive_over_regions():
    region1 = "class A { void m() { int x = 1; } }\n"
    region2 = "class B { void n() { int y = 2; } }\n"
    both = region1 + region2
    a = analyzed(region1).vectors[("file", "src/A.java")].values["LLOC"]
    b = analyzed(region2).vectors[("file", "src/A.java")].values["LLOC"]
    combined = analyzed(both).vectors[("file", "src/A.java")].values["LLOC"]
    assert combined == a + b


def test_comment_metrics_and_density():
    src = """package p;
class A {
    /** Doc for m. */
    void m() {
        // inline note
        int x = 1;
    }
}
"""
    v = method_vec(src, ".m()")
    assert v["DLOC"] == 1
    assert v["CLOC"] == 1  # only the inline comment is inside the range
    assert v["TCLOC"] == 2  # plus the attached doc
    assert v["CD"] == pytest.approx(v["CLOC"] / (v["CLOC"] + v["LLOC"]))
    assert v["TCD"] == pytest.approx(v["TCLOC"] / (v["TCLOC"] + v["TLLOC"]))
    assert 0.0 <= v["CD"] <= 1.0


def test_nl_nle_else_if_chain():
    src = """class A {
    void m(int a) {
        if (a == 1) {
            tick();
        } else if (a == 2) {
            tock();
        } else if (a == 3) {
            tack();
        }
    }
    void n(int a) {
        if (a > 0) {
            if (a > 1) {
                tick();
            }
        }
    }
}
"""
    fa = analyzed(src)
    m = fa.vectors[("method", "A.m(int)void")].values
    n = fa.vectors[("method", "A.n(int)void")].values
    assert m["NLE"] == 1  # else-if chain stays flat
    assert m["NL"] == 3  # but counts as deepening for NL
    assert n["NL"] == 2 and n["NLE"] == 2


def test_do_while_counts():
    src = """class A {
    void m(int a) {
        do {
            a--;
        } while (a > 0);
    }
}
"""
    v = method_vec(src, ".m(")
    assert v["NOS"] == 2  # do-while + body statement
    assert v["McCC"] == 3  # token rule: do and while both count


def test_switch_statement_counting():
    src = """class A {
    int m(int a) {
        switch (a) {
            case 1:
                tick();
                break;
            case 2:
            default:
                return 9;
        }
        return 0;
    }
}
"""
    v = method_vec(src, ".m(")
    # switch(1) + tick(1) + break(1) + return 9(1) + return 0(1); labels free
    assert v["NOS"] == 5
    assert v["NL"] == 1
    assert v["McCC"] == 3  # 1 + two case labels


def test_try_catch_finally_counting():
    src = """class A {
    void m() {
        try {
            open();
        } catch (Exception e) {
            log(e);
        } finally {
            close();
        }
    }
}
"""
    v = method_vec(src, ".m(")
    assert v["NOS"] == 4  # try + the three calls; catch/finally are clauses
    assert v["NL"] == 1
    assert v["McCC"] == 2  # 1 + catch


def test_labeled_statement_does_not_swallow_loop():
    src = """class A {
    void m(int n) {
        outer:
        while (n > 0) {
            n--;
            if (n == 1) {
                break outer;
            }
        }
        done();
    }
}
"""
    v = method_vec(src, ".m(")
    # while + n-- + if + break + done
    assert v["NOS"] == 5
    assert v["NL"] == 2


def test_local_class_is_one_opaque_statement():
    src = """class A {
    void m() {
        class Helper { void go() { if (x) { y(); } } }
        new Helper().go();
    }
}
"""
    v = method_vec(src, ".m(")
    assert v["NOS"] == 2  # declaration + the call; the body is opaque to NOS
    assert v["NL"] == 0  # ...and to nesting
    assert v["McCC"] == 2  # but token-based McCC still sees the inner if


def test_anonymous_body_opaque_to_nos_but_not_tokens():
    src = """class A {
    void m() {
        Runnable r = new Runnable() {
            public void run() {
                if (ready()) {
                    go();
                }
            }
        };
        r.run();
    }
}
"""
    v = method_vec(src, ".m(")
    assert v["NOS"] == 2  # the assignment + the call
    assert v["McCC"] == 2  # the embedded if counts for the token rule


def test_mi_family_identities():
    src = "class A { int f(int a){ if(a>0) return a; return 0; } }"
    v = method_vec(src, ".f(")
    hvol, mccc, lloc, cd = v["HVOL"], v["McCC"], v["LLOC"], v["CD"]
    mi = 171 - 5.2 * math.log(hvol) - 0.23 * mccc - 16.2 * math.log(lloc)
    ct = 50 * math.sin(math.sqrt(2.4 * cd))
    assert v["MI"] == pytest.approx(mi, rel=1e-12)
    assert v["MIMS"] == pytest.approx(max(0.0, mi * 100 / 171), rel=1e-12)
    assert v["MISM"] == pytest.approx(mi + ct, rel=1e-12)
    expected_sei = (
        171 - 5.2 * math.log2(hvol) - 0.23 * mccc - 16.2 * math.log2(lloc) + ct
    )
    assert v["MISEI"] == pytest.approx(expected_sei, rel=1e-12)


def test_column_tables_cover_levels():
    fa = analyzed("package p; /** d */ public class A { public void m() { } }")
    for (kind, _), vec in fa.vectors.items():
        table = {
            "method": METHOD_COLUMNS,
            "class": CLASS_COLUMNS,
            "file": FILE_COLUMNS,
        }[kind]
        assert set(vec.values) <= set(table)
        # empty (reserved) columns never get values
        assert "NII" not in vec.values
        assert "CBO" not in vec.values


def test_monotonicity_appending_statement():
    base = "class A {{ void m() {{\n{body}    }} }}\n"
    body = "        int x = 1;\n"
    grown = body + "        x = x + 1;\n"
    v1 = method_vec(base.format(body=body), ".m()")
    v2 = method_vec(base.format(body=grown), ".m()")
    for metric in ("LOC", "LLOC", "NOS"):
        assert v2[metric] >= v1[metric]


# Unbalanced brackets: a mismatched opener ends at the code token before the
# closer that popped it, an unclosed one at the last code token (METRICS.md).
DEGRADED_CASES = [
    (
        "class A { void m() { f( { ) ; } }",
        [("file", "src/A.java", 1, 1), ("class", "A", 1, 1),
         ("method", "A.m()void", 1, 1)],
        {"A.m()void": (1, 1, 5)},
    ),
    (
        "class A { void m() { try { x( } y(); } }",
        [("file", "src/A.java", 1, 1), ("class", "A", 1, 1),
         ("method", "A.m()void", 1, 1)],
        {"A.m()void": (3, 1, 9)},
    ),
    (  # a deleted ')'
        "class A {\n  void m() {\n    if (a { b(); }\n  }\n"
        "  void n() { c(); }\n}\n",
        [("file", "src/A.java", 1, 6), ("class", "A", 1, 6),
         ("method", "A.m()void", 2, 4), ("method", "A.n()void", 5, 5)],
        {"A.m()void": (1, 2, 9), "A.n()void": (1, 1, 4)},
    ),
    (  # '(' swapped for '{': the stray ')' closes nothing, and the '{'
       # closes at line 4, so m() runs to the last '}' and holds n()
        "class A {\n  void m() {\n    g{ 1 ); h();\n  }\n"
        "  int n() { return 0; }\n}\n",
        [("file", "src/A.java", 1, 6), ("class", "A", 1, 6),
         ("method", "A.m()void", 2, 6)],
        {"A.m()void": (1, 1, 19)},
    ),
    (  # an inserted ')': it closes nothing, every range is as without it
        "class A {\n  void m() {\n    g(1)); h();\n  }\n"
        "  int n() { return 0; }\n}\n",
        [("file", "src/A.java", 1, 6), ("class", "A", 1, 6),
         ("method", "A.m()void", 2, 4), ("method", "A.n()int", 5, 5)],
        {"A.m()void": (2, 1, 10), "A.n()int": (1, 1, 3)},
    ),
]


@pytest.mark.parametrize("src,elements,methods", DEGRADED_CASES)
def test_degraded_input_ranges_and_metrics(src, elements, methods):
    fa = analyzed(src)
    assert fa.error is None
    assert [(e.kind, e.fqn, e.start_line, e.end_line) for e in fa.elements] == elements
    assert [e.degraded for e in fa.elements] == [True] + [False] * (len(elements) - 1)
    got = {
        fqn: tuple(vec.values[m] for m in ("NOS", "McCC", "HPL"))
        for (kind, fqn), vec in fa.vectors.items()
        if kind == "method"
    }
    assert got == methods


@pytest.mark.parametrize("seed", range(60))
def test_fuzzed_invariants(seed):
    src = make_class(seed)
    fa = analyze_source("src/Fuzz.java", src)
    assert fa.error is None, fa.error
    wmc_check = {}
    for (kind, fqn), vec in fa.vectors.items():
        v = vec.values
        if kind == "method":
            assert v["HVOL"] == pytest.approx(
                v["HPL"] * (math.log2(v["HPV"]) if v["HPV"] > 0 else 0.0), rel=1e-9
            )
            assert v["HEFF"] == pytest.approx(v["HDIF"] * v["HVOL"], rel=1e-9)
            assert v["HNDB"] == pytest.approx(v["HVOL"] / 3000.0, rel=1e-9)
            assert v["HTRP"] == pytest.approx(v["HEFF"] / 18.0, rel=1e-9)
            assert v["McCC"] >= 1
            assert v["NL"] >= v["NLE"]
            wmc_check.setdefault(vec.element.parent_fqn, 0.0)
            wmc_check[vec.element.parent_fqn] += v["McCC"]
        if kind in ("method", "class"):
            assert v["LLOC"] <= v["LOC"]
            assert v["TCLOC"] >= v["CLOC"]
            assert 0.0 <= v["CD"] <= 1.0
            assert 0.0 <= v["TCD"] <= 1.0
        for name, value in v.items():
            if not name.startswith("MI"):
                assert value >= 0, (name, value)
    for (kind, fqn), vec in fa.vectors.items():
        if kind == "class" and fqn in wmc_check:
            assert vec.values["WMC"] == wmc_check[fqn]


def test_statements_are_pinned():
    """Every metric vector of 600 generated statement-soup units and a
    one-character mutation of each, against a digest of the reference output
    (any change to a NOS/NL/NLE rule, even on malformed input, shows here)."""
    digest = hashlib.sha256()
    for seed in range(600):
        src = make_statements(seed)
        for text in (src, mutate(src, seed)):
            vectors = analyze_source("src/S.java", text).vectors
            for key in sorted(vectors):
                digest.update(repr((key, tuple(vectors[key].values.items()))).encode())
    assert digest.hexdigest() == STATEMENTS_DIGEST
