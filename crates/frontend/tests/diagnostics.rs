//! Frontend diagnostics: every class of semantic error must be rejected
//! with a useful message, and accepted programs must have the expected
//! shape.

use csc_frontend::compile;

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
fn unterminated_comment_wins_over_earlier_syntax_error() {
    let e = err("class { }\nclass B { } /* never closed");
    assert_eq!(e, "2:13: unterminated block comment");
}
