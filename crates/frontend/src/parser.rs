//! Recursive-descent parser for MiniJava.
//!
//! The parser pulls tokens from the [`Lexer`] on demand through a
//! four-token lookahead ring (the deepest look, `peek_at(3)`, is the cast
//! check in `unary_expr`), so the source is never materialized as a token
//! vector. Each token is moved out of the ring when consumed: an
//! identifier's `String` is allocated once, by the lexer, and moved into
//! the AST.
//!
//! Diagnostics are those of lexing the whole file first: a lexical error
//! anywhere in the source wins over a syntax error before it. On a syntax
//! error the parser lexes the rest of the source, and reports the first
//! lexical error there if it finds one ([`Lexer::finish`]).

use crate::ast::{
    ABinOp, AStmt, ClassDecl, Expr, FieldDecl, MethodDecl, SourceProgram, Target, TypeName,
};
use crate::error::{FrontendError, Pos, Result};
use crate::lexer::{Lexer, Tok, Token};

/// Parses MiniJava source text into an AST.
///
/// # Errors
///
/// Returns the first lexical error in the source if it has one, else the
/// first syntactic error.
pub fn parse(src: &str) -> Result<SourceProgram> {
    let mut lexer = Lexer::new(src);
    let ring = [
        lexer.next_token(),
        lexer.next_token(),
        lexer.next_token(),
        lexer.next_token(),
    ];
    let mut parser = Parser {
        lexer,
        ring,
        head: 0,
    };
    let program = parser.program();
    parser.lexer.finish(program)
}

/// Tokens of lookahead the parser keeps: the current one and three more.
const LOOKAHEAD: usize = 4;

struct Parser<'s> {
    lexer: Lexer<'s>,
    /// The next [`LOOKAHEAD`] tokens, the current one at `head`. Past the
    /// end of input they are all [`Tok::Eof`].
    ring: [Token; LOOKAHEAD],
    head: usize,
}

impl Parser<'_> {
    fn peek(&self) -> &Tok {
        &self.ring[self.head].tok
    }

    fn peek_at(&self, n: usize) -> &Tok {
        debug_assert!(n < LOOKAHEAD, "lookahead {n} beyond the ring");
        &self.ring[(self.head + n) % LOOKAHEAD].tok
    }

    fn pos(&self) -> Pos {
        self.ring[self.head].pos
    }

    /// Consumes the current token and refills the ring from the lexer.
    fn bump(&mut self) -> Token {
        let next = self.lexer.next_token();
        let t = std::mem::replace(&mut self.ring[self.head], next);
        self.head = (self.head + 1) % LOOKAHEAD;
        t
    }

    /// Consumes the current token, which the caller has matched as an
    /// identifier, and returns its name.
    fn bump_ident(&mut self) -> String {
        match self.bump().tok {
            Tok::Ident(s) => s,
            other => unreachable!("bump_ident on {other:?}"),
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<Token> {
        if self.peek() == &tok {
            Ok(self.bump())
        } else {
            Err(FrontendError::new(
                self.pos(),
                format!(
                    "expected {}, found {}",
                    tok.describe(),
                    self.peek().describe()
                ),
            ))
        }
    }

    fn ident(&mut self) -> Result<(String, Pos)> {
        let pos = self.pos();
        match self.peek() {
            Tok::Ident(_) => Ok((self.bump_ident(), pos)),
            other => Err(FrontendError::new(
                pos,
                format!("expected identifier, found {}", other.describe()),
            )),
        }
    }

    // ---- declarations ---------------------------------------------------

    fn program(&mut self) -> Result<SourceProgram> {
        let mut classes = Vec::new();
        while self.peek() != &Tok::Eof {
            classes.push(self.class_decl()?);
        }
        Ok(SourceProgram { classes })
    }

    fn class_decl(&mut self) -> Result<ClassDecl> {
        let pos = self.pos();
        let is_abstract = self.eat(&Tok::Abstract);
        self.expect(Tok::Class)?;
        let (name, _) = self.ident()?;
        let superclass = if self.eat(&Tok::Extends) {
            Some(self.ident()?.0)
        } else {
            None
        };
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while self.peek() != &Tok::RBrace {
            self.member(&name, &mut fields, &mut methods)?;
        }
        self.expect(Tok::RBrace)?;
        Ok(ClassDecl {
            name,
            superclass,
            is_abstract,
            fields,
            methods,
            pos,
        })
    }

    fn member(
        &mut self,
        class_name: &str,
        fields: &mut Vec<FieldDecl>,
        methods: &mut Vec<MethodDecl>,
    ) -> Result<()> {
        let pos = self.pos();

        // Constructor: `ClassName ( ... ) { ... }`
        if let Tok::Ident(n) = self.peek() {
            if n == class_name && self.peek_at(1) == &Tok::LParen {
                self.bump();
                let params = self.params()?;
                let body = self.block()?;
                methods.push(MethodDecl {
                    is_static: false,
                    is_abstract: false,
                    is_ctor: true,
                    ret: TypeName::Void,
                    name: "<init>".to_owned(),
                    params,
                    body: Some(body),
                    pos,
                });
                return Ok(());
            }
        }

        let is_abstract = self.eat(&Tok::Abstract);
        let is_static = self.eat(&Tok::Static);
        if is_abstract && is_static {
            return Err(FrontendError::new(
                pos,
                "a method cannot be abstract and static",
            ));
        }
        let ty = self.type_name()?;
        let (name, _) = self.ident()?;
        if self.peek() == &Tok::LParen {
            let params = self.params()?;
            let body = if is_abstract {
                self.expect(Tok::Semi)?;
                None
            } else {
                Some(self.block()?)
            };
            methods.push(MethodDecl {
                is_static,
                is_abstract,
                is_ctor: false,
                ret: ty,
                name,
                params,
                body,
                pos,
            });
        } else {
            if is_static || is_abstract {
                return Err(FrontendError::new(pos, "fields cannot have modifiers"));
            }
            self.expect(Tok::Semi)?;
            fields.push(FieldDecl { ty, name, pos });
        }
        Ok(())
    }

    fn params(&mut self) -> Result<Vec<(TypeName, String)>> {
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                let ty = self.type_name()?;
                let (name, _) = self.ident()?;
                params.push((ty, name));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok(params)
    }

    fn type_name(&mut self) -> Result<TypeName> {
        let pos = self.pos();
        match self.peek() {
            Tok::IntKw => {
                self.bump();
                Ok(TypeName::Int)
            }
            Tok::BooleanKw => {
                self.bump();
                Ok(TypeName::Boolean)
            }
            Tok::Void => {
                self.bump();
                Ok(TypeName::Void)
            }
            Tok::Ident(_) => Ok(TypeName::Named(self.bump_ident())),
            other => Err(FrontendError::new(
                pos,
                format!("expected a type, found {}", other.describe()),
            )),
        }
    }

    // ---- statements -----------------------------------------------------

    fn block(&mut self) -> Result<Vec<AStmt>> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace {
            stmts.push(self.stmt()?);
        }
        self.expect(Tok::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<AStmt> {
        let pos = self.pos();
        match self.peek() {
            Tok::If => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_branch = self.block()?;
                let else_branch = if self.eat(&Tok::Else) {
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(AStmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    pos,
                })
            }
            Tok::While => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                Ok(AStmt::While { cond, body, pos })
            }
            Tok::Return => {
                self.bump();
                let value = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                Ok(AStmt::Return { value, pos })
            }
            Tok::Super if self.peek_at(1) == &Tok::LParen => {
                self.bump();
                let args = self.args()?;
                self.expect(Tok::Semi)?;
                Ok(AStmt::SuperCall { args, pos })
            }
            Tok::IntKw | Tok::BooleanKw => self.decl_stmt(),
            Tok::Ident(_) if matches!(self.peek_at(1), Tok::Ident(_)) => self.decl_stmt(),
            _ => {
                let e = self.expr()?;
                if self.eat(&Tok::Assign) {
                    let target = match e {
                        Expr::Var(n, p) => Target::Var(n, p),
                        Expr::Field { base, name, pos } => Target::Field {
                            base: *base,
                            name,
                            pos,
                        },
                        other => {
                            return Err(FrontendError::new(
                                other.pos(),
                                "invalid assignment target",
                            ));
                        }
                    };
                    let value = self.expr()?;
                    self.expect(Tok::Semi)?;
                    Ok(AStmt::Assign { target, value, pos })
                } else {
                    self.expect(Tok::Semi)?;
                    match &e {
                        Expr::Call { .. } | Expr::New { .. } => Ok(AStmt::ExprStmt(e)),
                        other => Err(FrontendError::new(
                            other.pos(),
                            "only calls and allocations may be used as statements",
                        )),
                    }
                }
            }
        }
    }

    fn decl_stmt(&mut self) -> Result<AStmt> {
        let pos = self.pos();
        let ty = self.type_name()?;
        let (name, _) = self.ident()?;
        let init = if self.eat(&Tok::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(Tok::Semi)?;
        Ok(AStmt::Decl {
            ty,
            name,
            init,
            pos,
        })
    }

    // ---- expressions ----------------------------------------------------

    fn args(&mut self) -> Result<Vec<Expr>> {
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                args.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok(args)
    }

    fn expr(&mut self) -> Result<Expr> {
        let a = self.add_expr()?;
        let op = match self.peek() {
            Tok::EqEq => Some(ABinOp::Eq),
            Tok::NotEq => Some(ABinOp::Ne),
            Tok::Lt => Some(ABinOp::Lt),
            Tok::Le => Some(ABinOp::Le),
            _ => None,
        };
        if let Some(op) = op {
            let pos = self.pos();
            self.bump();
            let b = self.add_expr()?;
            Ok(Expr::Bin {
                op,
                a: Box::new(a),
                b: Box::new(b),
                pos,
            })
        } else {
            Ok(a)
        }
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut a = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => ABinOp::Add,
                Tok::Minus => ABinOp::Sub,
                _ => break,
            };
            let pos = self.pos();
            self.bump();
            let b = self.mul_expr()?;
            a = Expr::Bin {
                op,
                a: Box::new(a),
                b: Box::new(b),
                pos,
            };
        }
        Ok(a)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut a = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => ABinOp::Mul,
                Tok::Percent => ABinOp::Rem,
                _ => break,
            };
            let pos = self.pos();
            self.bump();
            let b = self.unary_expr()?;
            a = Expr::Bin {
                op,
                a: Box::new(a),
                b: Box::new(b),
                pos,
            };
        }
        Ok(a)
    }

    fn starts_expr(t: &Tok) -> bool {
        matches!(
            t,
            Tok::Ident(_)
                | Tok::This
                | Tok::New
                | Tok::Int(_)
                | Tok::True
                | Tok::False
                | Tok::Null
                | Tok::LParen
        )
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        // Cast: `( Ident ) <expr-start>` — binds to a whole unary expression,
        // as in Java: `(T) x.f()` casts the call result.
        if self.peek() == &Tok::LParen
            && matches!(self.peek_at(1), Tok::Ident(_))
            && self.peek_at(2) == &Tok::RParen
            && Self::starts_expr(self.peek_at(3))
        {
            let pos = self.pos();
            self.bump(); // (
            let ty = self.bump_ident();
            self.bump(); // )
            let expr = self.unary_expr()?;
            return Ok(Expr::Cast {
                ty,
                expr: Box::new(expr),
                pos,
            });
        }
        let mut e = self.primary()?;
        loop {
            if self.peek() == &Tok::Dot {
                self.bump();
                let (name, pos) = self.ident()?;
                if self.peek() == &Tok::LParen {
                    let args = self.args()?;
                    e = Expr::Call {
                        base: Some(Box::new(e)),
                        name,
                        args,
                        pos,
                    };
                } else {
                    e = Expr::Field {
                        base: Box::new(e),
                        name,
                        pos,
                    };
                }
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr> {
        let pos = self.pos();
        match self.peek() {
            Tok::This => {
                self.bump();
                Ok(Expr::This(pos))
            }
            Tok::Null => {
                self.bump();
                Ok(Expr::Null(pos))
            }
            Tok::True => {
                self.bump();
                Ok(Expr::Bool(true, pos))
            }
            Tok::False => {
                self.bump();
                Ok(Expr::Bool(false, pos))
            }
            &Tok::Int(v) => {
                self.bump();
                Ok(Expr::Int(v, pos))
            }
            Tok::New => {
                self.bump();
                let (class, _) = self.ident()?;
                let args = self.args()?;
                Ok(Expr::New { class, args, pos })
            }
            Tok::Ident(_) => {
                let n = self.bump_ident();
                if self.peek() == &Tok::LParen {
                    let args = self.args()?;
                    Ok(Expr::Call {
                        base: None,
                        name: n,
                        args,
                        pos,
                    })
                } else {
                    Ok(Expr::Var(n, pos))
                }
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            other => Err(FrontendError::new(
                pos,
                format!("expected an expression, found {}", other.describe()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_class_with_field_and_methods() {
        let src = r#"
            class Carton {
                Item item;
                void setItem(Item item) { this.item = item; }
                Item getItem() { Item r; r = this.item; return r; }
            }
            class Item { }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.classes.len(), 2);
        let carton = &p.classes[0];
        assert_eq!(carton.name, "Carton");
        assert_eq!(carton.fields.len(), 1);
        assert_eq!(carton.methods.len(), 2);
        assert_eq!(carton.methods[0].params.len(), 1);
    }

    #[test]
    fn parse_constructor() {
        let src = "class A { T f; A(T t) { this.f = t; } }";
        let p = parse(src).unwrap();
        let ctor = &p.classes[0].methods[0];
        assert!(ctor.is_ctor);
        assert_eq!(ctor.name, "<init>");
    }

    #[test]
    fn parse_abstract() {
        let src = "abstract class A { abstract void m(); } class B extends A { void m() { } }";
        let p = parse(src).unwrap();
        assert!(p.classes[0].is_abstract);
        assert!(p.classes[0].methods[0].is_abstract);
        assert!(p.classes[0].methods[0].body.is_none());
        assert_eq!(p.classes[1].superclass.as_deref(), Some("A"));
    }

    #[test]
    fn parse_cast_vs_paren() {
        let src = "class C { Object m(Object o) { Object x = (C) o; Object y = (x); return y; } }";
        let p = parse(src).unwrap();
        let body = p.classes[0].methods[0].body.as_ref().unwrap();
        match &body[0] {
            AStmt::Decl {
                init: Some(Expr::Cast { ty, .. }),
                ..
            } => assert_eq!(ty, "C"),
            other => panic!("expected cast decl, got {other:?}"),
        }
        match &body[1] {
            AStmt::Decl {
                init: Some(Expr::Var(n, _)),
                ..
            } => assert_eq!(n, "x"),
            other => panic!("expected paren var decl, got {other:?}"),
        }
    }

    #[test]
    fn parse_control_flow_and_arith() {
        let src = r#"
            class Main {
                static void main() {
                    int i = 0;
                    while (i < 10) {
                        if (i % 2 == 0) { i = i + 1; } else { i = i + 2; }
                    }
                }
            }
        "#;
        let p = parse(src).unwrap();
        let body = p.classes[0].methods[0].body.as_ref().unwrap();
        assert_eq!(body.len(), 2);
        assert!(matches!(&body[1], AStmt::While { .. }));
    }

    #[test]
    fn parse_calls_and_chains() {
        let src = "class C { void m(C c) { c.m(this); m(c); A.stat(c); Object x = c.f.g; } }";
        let p = parse(src).unwrap();
        let body = p.classes[0].methods[0].body.as_ref().unwrap();
        assert!(matches!(
            &body[0],
            AStmt::ExprStmt(Expr::Call { base: Some(_), .. })
        ));
        assert!(matches!(
            &body[1],
            AStmt::ExprStmt(Expr::Call { base: None, .. })
        ));
        // `A.stat(c)` parses as a call with base Var("A"); lowering decides
        // whether `A` is a variable or a class.
        match &body[2] {
            AStmt::ExprStmt(Expr::Call { base: Some(b), .. }) => {
                assert!(matches!(&**b, Expr::Var(n, _) if n == "A"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &body[3] {
            AStmt::Decl {
                init: Some(Expr::Field { base, .. }),
                ..
            } => {
                assert!(matches!(&**base, Expr::Field { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_super_call() {
        let src = "class B extends A { B(T t) { super(t); } }";
        let p = parse(src).unwrap();
        let body = p.classes[0].methods[0].body.as_ref().unwrap();
        assert!(matches!(&body[0], AStmt::SuperCall { args, .. } if args.len() == 1));
    }

    #[test]
    fn error_reports_position() {
        let err = parse("class { }").unwrap_err();
        assert_eq!(err.pos.line, 1);
        assert!(err.message.contains("identifier"));
    }

    #[test]
    fn assignment_target_validation() {
        assert!(parse("class C { void m() { 1 = 2; } }").is_err());
        assert!(parse("class C { void m() { x + y; } }").is_err());
    }
}
