//! Frontend diagnostics: every class of semantic error must be rejected
//! with a useful message, and accepted programs must have the expected
//! shape.

use csc_frontend::{compile, MAX_DEPTH};

fn err(src: &str) -> String {
    compile(src).expect_err("must be rejected").to_string()
}

#[test]
fn unknown_type_in_field() {
    let e = err("class A { Missing f; } class Main { static void main() { } }");
    assert!(e.contains("unknown type `Missing`"), "{e}");
}

#[test]
fn unknown_superclass() {
    let e = err("class A extends Nope { } class Main { static void main() { } }");
    assert!(e.contains("unknown superclass"), "{e}");
}

#[test]
fn unknown_variable() {
    let e = err("class Main { static void main() { x = new Object(); } }");
    assert!(e.contains("unknown variable `x`"), "{e}");
}

#[test]
fn unknown_method() {
    let e = err("class Main { static void main() { Object o = new Object(); o.nope(); } }");
    assert!(e.contains("has no method `nope`"), "{e}");
}

#[test]
fn unknown_field() {
    let e = err("class Main { static void main() { Object o = new Object(); Object x = o.f; } }");
    assert!(e.contains("has no field `f`"), "{e}");
}

#[test]
fn arity_mismatch() {
    let e = err("class A { void m(Object x) { } } \
         class Main { static void main() { A a = new A(); a.m(); } }");
    assert!(e.contains("expected 1 argument(s), found 0"), "{e}");
}

#[test]
fn type_mismatch_on_assignment() {
    let e = err("class A { } class B { } \
         class Main { static void main() { A a = new B(); } }");
    assert!(e.contains("cannot assign `B` to `A`"), "{e}");
}

#[test]
fn int_to_reference_rejected() {
    let e = err("class Main { static void main() { Object o = 3; } }");
    assert!(e.contains("cannot assign `int` to `Object`"), "{e}");
}

#[test]
fn void_method_as_value() {
    let e = err("class A { void m() { } } \
         class Main { static void main() { A a = new A(); Object x = a.m(); } }");
    assert!(e.contains("void method `m` used as a value"), "{e}");
}

#[test]
fn missing_main() {
    let e = err("class A { void m() { } }");
    assert!(e.contains("no `static void main()`"), "{e}");
}

#[test]
fn multiple_mains_without_main_class() {
    let e = err("class A { static void main() { } } class B { static void main() { } }");
    assert!(e.contains("multiple `main`"), "{e}");
}

#[test]
fn multiple_mains_with_main_class_resolves() {
    let p = compile("class A { static void main() { } } class Main { static void main() { } }")
        .unwrap();
    assert_eq!(p.qualified_name(p.entry()), "Main.main");
}

#[test]
fn abstract_class_not_instantiable() {
    let e = err("abstract class A { } \
         class Main { static void main() { A a = new A(); } }");
    assert!(e.contains("cannot instantiate abstract class"), "{e}");
}

#[test]
fn super_outside_constructor() {
    let e = err("class A { } class B extends A { void m() { super(); } }
         class Main { static void main() { } }");
    assert!(e.contains("only allowed in constructors"), "{e}");
}

#[test]
fn this_in_static_method() {
    let e = err("class Main { static void main() { Object o = this; } }");
    assert!(e.contains("`this` used in a static method"), "{e}");
}

#[test]
fn duplicate_variable_in_scope() {
    let e = err("class Main { static void main() { int x; int x; } }");
    assert!(e.contains("duplicate variable `x`"), "{e}");
}

#[test]
fn shadowing_across_blocks_allowed() {
    let p = compile(
        "class Main { static void main() { int x = 1; if (x < 2) { int y = 2; } int y = 3; } }",
    );
    assert!(p.is_ok());
}

#[test]
fn condition_must_be_boolean() {
    let e = err("class Main { static void main() { if (1 + 2) { } } }");
    assert!(e.contains("condition must be boolean"), "{e}");
}

#[test]
fn mixed_eq_operands_rejected() {
    let e =
        err("class Main { static void main() { Object o = new Object(); boolean b = o == 1; } }");
    assert!(e.contains("`==`/`!=` require"), "{e}");
}

#[test]
fn implicit_this_field_access() {
    // `item = v;` and reading `item` without `this.` must resolve to the
    // field.
    let p = compile(
        r#"
        class Box {
            Object item;
            void set(Object v) { item = v; }
            Object get() { return item; }
        }
        class Main { static void main() { Box b = new Box(); b.set(new Object()); Object x = b.get(); } }
        "#,
    )
    .unwrap();
    assert_eq!(p.stores().len(), 1);
    assert_eq!(p.loads().len(), 1);
}

#[test]
fn static_call_qualified_and_unqualified() {
    let p = compile(
        r#"
        class Util { static Object id(Object o) { return o; } }
        class Main {
            static Object wrap(Object o) { Object r = Util.id(o); return r; }
            static void main() { Object x = wrap(new Object()); }
        }
        "#,
    )
    .unwrap();
    assert_eq!(p.call_sites().len(), 2);
    assert!(p
        .call_sites()
        .iter()
        .all(|c| c.kind() == csc_ir::CallKind::Static));
}

#[test]
fn deep_field_chains_lower_to_load_sequences() {
    let p = compile(
        r#"
        class A { B b; }
        class B { C c; }
        class C { Object o; }
        class Main {
            static void main() {
                A a = new A();
                Object x = a.b.c.o;
            }
        }
        "#,
    )
    .unwrap();
    assert_eq!(p.loads().len(), 3, "a.b, .c, .o");
}

#[test]
fn lexical_error_wins_over_earlier_syntax_error() {
    // Line 1 lacks a class name, but the `&` on line 2 is reported: the
    // whole file is lexed before any syntax error is.
    let e = err("class { }\nclass B { void m() { a & b; } }");
    assert_eq!(e, "2:24: unexpected character `&`");
}

#[test]
fn non_ascii_character_is_named_whole() {
    let e = err("class Main { static void main() { int café = 1; } }");
    assert_eq!(e, "1:42: unexpected character `é`");
}

#[test]
fn columns_count_characters_not_bytes() {
    let e = err("/* é */ &");
    assert_eq!(e, "1:9: unexpected character `&`");
}

#[test]
fn unterminated_comment_wins_over_earlier_syntax_error() {
    let e = err("class { }\nclass B { } /* never closed");
    assert_eq!(e, "2:13: unterminated block comment");
}

/// A program whose `main` runs `body`, with a class `N` to chain fields
/// and calls on.
fn with_main(body: &str) -> String {
    format!(
        "class N {{ N f; N g(N x) {{ return x; }} }}\n\
         class Main {{ static void main() {{ N a = new N(); boolean c = true; {body} }} }}"
    )
}

/// `n` nested parentheses around a literal.
fn parens(n: usize) -> String {
    with_main(&format!("int x = {}1{};", "(".repeat(n), ")".repeat(n)))
}

/// An `n`-term left-associative sum.
fn sum(n: usize) -> String {
    with_main(&format!("int x = 1{};", " + 1".repeat(n - 1)))
}

/// A field chain `a.f.f…` of `n` links.
fn field_chain(n: usize) -> String {
    with_main(&format!("N x = a{};", ".f".repeat(n)))
}

/// `n` nested `if (c) {` blocks.
fn nested_ifs(n: usize) -> String {
    with_main(&format!("{}{}", "if (c) { ".repeat(n), "}".repeat(n)))
}

/// `n` nested `while (c) {` blocks.
fn nested_whiles(n: usize) -> String {
    with_main(&format!("{}{}", "while (c) { ".repeat(n), "}".repeat(n)))
}

/// `n` calls nested as each other's argument, `a.g(a.g(…a…))`: three
/// recursive lowering calls per level, the deepest stack per level.
fn nested_calls(n: usize) -> String {
    with_main(&format!("N x = {}a{};", "a.g(".repeat(n), ")".repeat(n)))
}

/// A way to nest source deeply.
struct Shape {
    name: &'static str,
    /// The program nesting `n` times.
    src: fn(usize) -> String,
    /// A size that overflowed the stack before nesting was capped.
    huge: usize,
    /// The largest size that nests no deeper than [`MAX_DEPTH`]: `main`'s
    /// body is level 1, and a statement's expression starts at level 2.
    limit: usize,
}

/// The five shapes that overflowed the stack before nesting was capped,
/// at the sizes that did, and nested calls.
fn deep_shapes() -> [Shape; 6] {
    let max = MAX_DEPTH as usize;
    let shape = |name, src, huge, limit| Shape {
        name,
        src,
        huge,
        limit,
    };
    [
        shape(
            "parentheses",
            parens as fn(usize) -> String,
            10_000,
            max - 2,
        ),
        shape("sum", sum, 50_000, max - 1),
        shape("field chain", field_chain, 50_000, max - 2),
        shape("nested ifs", nested_ifs, 50_000, max - 1),
        shape("nested whiles", nested_whiles, 30_000, max - 1),
        shape("nested calls", nested_calls, 10_000, max - 2),
    ]
}

/// Deep nesting is a positioned error, not a stack overflow: each shape is
/// rejected at the huge size and one past its limit.
#[test]
fn nesting_past_the_limit_is_rejected() {
    let want = format!("nesting deeper than {MAX_DEPTH} levels");
    for s in deep_shapes() {
        for n in [s.huge, s.limit + 1] {
            let e = err(&(s.src)(n));
            assert!(
                e.starts_with("2:") && e.ends_with(&want),
                "{} x{n}: {e}",
                s.name
            );
        }
    }
}

/// Input exactly at the limit parses and lowers, on a test thread's
/// default 2 MiB stack in a debug build.
#[test]
fn nesting_at_the_limit_compiles() {
    for s in deep_shapes() {
        if let Err(e) = compile(&(s.src)(s.limit)) {
            panic!("{} x{}: {e}", s.name, s.limit);
        }
    }
}

/// One input per diagnostic the lexer, parser and lowering can report,
/// by template and by the call site that reports it, including every
/// token description (`identifier`, `integer`, `end of input`, a
/// punctuation or keyword token).
const MESSAGE_CASES: &[(&str, &str)] = &[
    // Lexer.
    ("lex-unterminated-comment", "class A { } /* never closed"),
    (
        "lex-lone-bang",
        "class A { void m() { boolean b = 1 ! 2; } }",
    ),
    (
        "lex-int-overflow",
        "class A { void m() { int x = 99999999999999999999; } }",
    ),
    ("lex-unexpected-char", "class A { # }"),
    ("lex-unexpected-non-ascii", "class A { int \u{e9}; }"),
    // Parser.
    ("parse-expect-found-ident", "class A B { }"),
    (
        "parse-expect-found-int",
        "class A { void m() { int x = 1 2; } }",
    ),
    ("parse-expect-found-eof", "class A"),
    (
        "parse-expect-found-keyword",
        "class A { void m() { return null class } }",
    ),
    ("parse-ident-found-punct", "class { }"),
    ("parse-ident-found-int", "class 3 { }"),
    (
        "parse-abstract-static",
        "class A { abstract static void m(); }",
    ),
    ("parse-field-modifiers", "class A { static int x; }"),
    ("parse-type-found-int", "class A { 5 x; }"),
    ("parse-type-found-eof", "class A { "),
    ("parse-invalid-target", "class A { void m() { 1 = 2; } }"),
    (
        "parse-expr-statement",
        "class A { void m(int x, int y) { x + y; } }",
    ),
    (
        "parse-expression-found-punct",
        "class A { void m() { int x = ; } }",
    ),
    (
        "parse-expression-found-eof",
        "class A { void m() { int x = ",
    ),
    // Declarations.
    ("duplicate-class", "class A { } class A { }"),
    ("duplicate-class-object", "class Object { }"),
    ("unknown-superclass", "class A extends Nope { }"),
    (
        "hierarchy-cycle",
        "class A extends B { } class B extends A { }",
    ),
    ("unknown-field-type", "class A { Missing f; }"),
    ("unknown-return-type", "class A { Missing m() { } }"),
    ("unknown-param-type", "class A { void m(Missing x) { } }"),
    ("void-field", "class A { void f; }"),
    ("void-param", "class A { void m(void x) { } }"),
    ("duplicate-field", "class A { int f; int f; }"),
    ("duplicate-method", "class A { void m() { } void m() { } }"),
    ("no-main", "class A { }"),
    (
        "no-main-wrong-shape",
        "class A { static int main() { return 0; } }",
    ),
    (
        "multiple-mains",
        "class A { static void main() { } } class B { static void main() { } }",
    ),
    // Statements.
    (
        "this-in-static",
        "class Main { static void main() { Object o = this; } }",
    ),
    (
        "type-mismatch",
        "class A { } class B { } class Main { static void main() { A a = new B(); } }",
    ),
    (
        "expected-object",
        "class Main { static void main() { int x = 1; x.f = 2; } }",
    ),
    (
        "duplicate-variable",
        "class Main { static void main() { int x; int x; } }",
    ),
    (
        "duplicate-parameter-local",
        "class A { void m(int x) { int x; } }",
    ),
    (
        "unknown-variable-target",
        "class Main { static void main() { x = new Object(); } }",
    ),
    (
        "unknown-variable-expr",
        "class Main { static void main() { Object o = y; } }",
    ),
    (
        "unknown-local-type",
        "class Main { static void main() { Missing m; } }",
    ),
    (
        "implicit-this-field-in-static",
        "class Main { Object f; static void main() { f = null; } }",
    ),
    (
        "no-field-target",
        "class Main { static void main() { Object o = new Object(); o.f = null; } }",
    ),
    (
        "no-field-load-into",
        "class Main { static void main() { Object o = new Object(); Object x = o.f; } }",
    ),
    (
        "no-field-load-temp",
        "class Main { static void main() { Object o = new Object(); boolean b = o.f == null; } }",
    ),
    (
        "if-condition",
        "class Main { static void main() { if (1 + 2) { } } }",
    ),
    (
        "while-condition",
        "class Main { static void main() { while (null) { } } }",
    ),
    ("missing-return-value", "class A { Object m() { return; } }"),
    ("void-returns-value", "class A { void m() { return 1; } }"),
    (
        "return-type-mismatch",
        "class A { int m() { return null; } }",
    ),
    (
        "super-outside-ctor",
        "class A { } class B extends A { void m() { super(); } }",
    ),
    (
        "super-without-ctor",
        "class A { } class B extends A { B() { super(); } }",
    ),
    (
        "super-arity",
        "class A { A(Object o) { } } class B extends A { B() { super(); } }",
    ),
    // Expressions.
    (
        "arity",
        "class A { void m(Object x) { } } \
         class Main { static void main() { A a = new A(); a.m(); } }",
    ),
    (
        "argument-type",
        "class A { void m(A x) { } } \
         class Main { static void main() { A a = new A(); a.m(new Object()); } }",
    ),
    (
        "unknown-cast-type-into",
        "class Main { static void main() { Object o = null; Object x = (Missing) o; } }",
    ),
    (
        "unknown-cast-type-temp",
        "class Main { static void main() { Object o = null; boolean b = (Missing) o == null; } }",
    ),
    (
        "primitive-cast-into",
        "class Main { static void main() { Object x = (Object) 1; } }",
    ),
    (
        "primitive-cast-temp",
        "class Main { static void main() { boolean b = (Object) 1 == null; } }",
    ),
    (
        "unknown-class-new",
        "class Main { static void main() { Object o = new Missing(); } }",
    ),
    (
        "abstract-new",
        "abstract class A { } class Main { static void main() { A a = new A(); } }",
    ),
    (
        "new-without-ctor",
        "class A { } class Main { static void main() { A a = new A(1); } }",
    ),
    (
        "mixed-operands",
        "class Main { static void main() { Object o = new Object(); boolean b = o == 1; } }",
    ),
    (
        "arithmetic-on-boolean",
        "class Main { static void main() { int x = true + 1; } }",
    ),
    (
        "unknown-variable-or-class",
        "class Main { static void main() { Nope.m(); } }",
    ),
    (
        "static-call-no-method",
        "class A { } class Main { static void main() { A.m(); } }",
    ),
    (
        "static-call-not-static",
        "class A { void m() { } } class Main { static void main() { A.m(); } }",
    ),
    (
        "virtual-call-no-method-var",
        "class A { } class Main { static void main() { A a = new A(); a.nope(); } }",
    ),
    (
        "virtual-call-static-var",
        "class A { static void s() { } } \
         class Main { static void main() { A a = new A(); a.s(); } }",
    ),
    (
        "virtual-call-no-method-expr",
        "class A { } class Main { static void main() { new A().nope(); } }",
    ),
    (
        "virtual-call-static-expr",
        "class A { static void s() { } } class Main { static void main() { new A().s(); } }",
    ),
    (
        "call-on-primitive",
        "class Main { static void main() { int x = 1; x.m(); } }",
    ),
    (
        "unknown-method",
        "class Main { static void main() { nope(); } }",
    ),
    (
        "implicit-this-call-in-static",
        "class Main { void m() { } static void main() { m(); } }",
    ),
    (
        "void-value-temp",
        "class A { void m() { } } \
         class Main { static void main() { A a = new A(); boolean b = a.m() == null; } }",
    ),
    (
        "void-value-into",
        "class A { void m() { } } \
         class Main { static void main() { A a = new A(); Object x = a.m(); } }",
    ),
    (
        "void-value-static",
        "class Main { static void v() { } static void main() { Object x = Main.v(); } }",
    ),
];

fn message_golden_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/diagnostics.txt")
}

/// Every diagnostic's full `line:col: message` text, one line per case
/// of [`MESSAGE_CASES`], against `golden/diagnostics.txt`. Bless with
/// `CSC_UPDATE_GOLDEN=1 cargo test -p csc-frontend --test diagnostics`,
/// only after a change to a message is intended.
#[test]
fn every_message_is_exact() {
    let mut got = String::new();
    for (name, src) in MESSAGE_CASES {
        got.push_str(&format!("{name}\t{}\n", err(src)));
    }
    let path = message_golden_path();
    if std::env::var("CSC_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing diagnostics golden {}: {e}", path.display()));
    let drift: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("    golden: {w}\n    got:    {g}"))
        .collect();
    assert!(
        want == got,
        "diagnostics drifted (golden {} lines, got {}):\n{}",
        want.lines().count(),
        got.lines().count(),
        drift.join("\n")
    );
}
