//! Recursive-descent parser for MiniJava.
//!
//! The parser pulls tokens from the [`Lexer`] on demand through a
//! four-token lookahead ring (the deepest look, `peek_at(3)`, is the cast
//! check in `unary_expr`), so the source is never materialized as a token
//! vector. Tokens are `Copy`: an identifier is a [`Sym`] the lexer
//! interned, and the AST takes the symbol, not a copy of the name.
//!
//! It builds the flat AST of [`crate::ast`] as it goes: a node is pushed to
//! its arena once its children are, and the ids of an argument list or a
//! block are stacked while its elements are parsed, then moved to the
//! shared id vector as one run.
//!
//! Nesting is capped at [`MAX_DEPTH`] levels, so that neither this
//! recursive parser nor the recursive lowering can overflow the stack: a
//! deeper node is a positioned error, not an abort.
//!
//! Diagnostics are those of lexing the whole file first: a lexical error
//! anywhere in the source wins over a syntax error before it. On a syntax
//! error the parser lexes the rest of the source, and reports the first
//! lexical error there if it finds one ([`Lexer::finish`]).

use crate::ast::{
    ABinOp, AStmt, ClassDecl, Expr, ExprId, FieldDecl, List, MethodDecl, Names, Param,
    SourceProgram, StmtId, Sym, TypeName,
};
use crate::error::{FrontendError, Pos, Result};
use crate::lexer::{Lexer, Tok, Token};

/// The deepest nesting the parser accepts. A node's level counts the
/// blocks and parentheses around it and the expressions above it, itself
/// included: a method body's top-level statements are at level 1, the
/// expressions in them at level 2 and below, and each link of a
/// left-associative chain such as `a + b + c` or `a.f.g` is one level.
/// A node past this level is rejected with an error at its position.
pub const MAX_DEPTH: u32 = 128;

/// Parses MiniJava source text into an AST.
///
/// # Errors
///
/// Returns the first lexical error in the source if it has one, else the
/// first syntactic error, including nesting deeper than [`MAX_DEPTH`].
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
        ast: SourceProgram::default(),
        open: Vec::new(),
        depth: 0,
        heights: Vec::new(),
    };
    let parsed = parser.program();
    let names = parser.lexer.finish(parsed)?;
    Ok(SourceProgram {
        names,
        ..parser.ast
    })
}

/// Tokens of lookahead the parser keeps: the current one and three more.
const LOOKAHEAD: usize = 4;

struct Parser<'s> {
    lexer: Lexer<'s>,
    /// The next [`LOOKAHEAD`] tokens, the current one at `head`. Past the
    /// end of input they are all [`Tok::Eof`].
    ring: [Token; LOOKAHEAD],
    head: usize,
    /// The AST built so far. Its names stay with the lexer until the end.
    ast: SourceProgram,
    /// The ids of the argument lists and blocks being parsed, innermost
    /// last.
    open: Vec<u32>,
    /// The blocks, parentheses, casts and argument lists open around the
    /// current token.
    depth: u32,
    /// Per expression, the height of its tree: 1 for a leaf.
    heights: Vec<u32>,
}

fn too_deep(pos: Pos) -> FrontendError {
    FrontendError::new(pos, format!("nesting deeper than {MAX_DEPTH} levels"))
}

impl Parser<'_> {
    fn names(&self) -> &Names {
        self.lexer.names()
    }

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
        let t = self.ring[self.head];
        self.ring[self.head] = self.lexer.next_token();
        self.head = (self.head + 1) % LOOKAHEAD;
        t
    }

    /// Consumes the current token, which the caller has matched as an
    /// identifier, and returns its symbol.
    fn bump_ident(&mut self) -> Sym {
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
                    tok.describe(self.names()),
                    self.peek().describe(self.names())
                ),
            ))
        }
    }

    fn ident(&mut self) -> Result<(Sym, Pos)> {
        let pos = self.pos();
        match self.peek() {
            Tok::Ident(_) => Ok((self.bump_ident(), pos)),
            other => Err(FrontendError::new(
                pos,
                format!(
                    "expected identifier, found {}",
                    other.describe(self.names())
                ),
            )),
        }
    }

    // ---- nesting ----------------------------------------------------------

    /// Opens a block, parenthesis, cast or argument list at `pos`.
    fn enter(&mut self, pos: Pos) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(too_deep(pos));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Appends an expression whose children are in the arena already,
    /// checking the level of the deepest node of its tree.
    fn push_expr(&mut self, e: Expr) -> Result<ExprId> {
        let height = |id: ExprId| self.heights[id.index()];
        let list_height = |args: List| {
            self.ast.lists[args.range()]
                .iter()
                .map(|&i| self.heights[i as usize])
                .max()
                .unwrap_or(0)
        };
        let below = match e {
            Expr::This(_) | Expr::Var(..) | Expr::Int(..) | Expr::Bool(..) | Expr::Null(_) => 0,
            Expr::Field { base, .. } => height(base),
            Expr::Cast { expr, .. } => height(expr),
            Expr::Bin { a, b, .. } => height(a).max(height(b)),
            Expr::New { args, .. } => list_height(args),
            Expr::Call { base, args, .. } => base.map_or(0, height).max(list_height(args)),
        };
        if self.depth + below + 1 > MAX_DEPTH {
            return Err(too_deep(e.pos()));
        }
        self.heights.push(below + 1);
        Ok(self.ast.push_expr(e))
    }

    /// Moves the ids stacked since `mark` to the AST as one list.
    fn close_list(&mut self, mark: usize) -> List {
        self.ast.push_list(self.open.drain(mark..))
    }

    // ---- declarations ---------------------------------------------------

    fn program(&mut self) -> Result<()> {
        while self.peek() != &Tok::Eof {
            self.class_decl()?;
        }
        Ok(())
    }

    fn class_decl(&mut self) -> Result<()> {
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
        let fields = self.ast.fields.len();
        let methods = self.ast.methods.len();
        while self.peek() != &Tok::RBrace {
            self.member(name)?;
        }
        self.expect(Tok::RBrace)?;
        self.ast.classes.push(ClassDecl {
            name,
            superclass,
            is_abstract,
            fields: List::between(fields, self.ast.fields.len()),
            methods: List::between(methods, self.ast.methods.len()),
            pos,
        });
        Ok(())
    }

    fn member(&mut self, class_name: Sym) -> Result<()> {
        let pos = self.pos();

        // Constructor: `ClassName ( ... ) { ... }`
        if self.peek() == &Tok::Ident(class_name) && self.peek_at(1) == &Tok::LParen {
            self.bump();
            let params = self.params()?;
            let body = self.block()?;
            self.ast.methods.push(MethodDecl {
                is_static: false,
                is_abstract: false,
                is_ctor: true,
                ret: TypeName::Void,
                name: Sym::INIT,
                params,
                body: Some(body),
                pos,
            });
            return Ok(());
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
            self.ast.methods.push(MethodDecl {
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
            self.ast.fields.push(FieldDecl { ty, name, pos });
        }
        Ok(())
    }

    fn params(&mut self) -> Result<List> {
        self.expect(Tok::LParen)?;
        let start = self.ast.params.len();
        if self.peek() != &Tok::RParen {
            loop {
                let ty = self.type_name()?;
                let (name, _) = self.ident()?;
                self.ast.params.push(Param { ty, name });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok(List::between(start, self.ast.params.len()))
    }

    fn type_name(&mut self) -> Result<TypeName> {
        let pos = self.pos();
        let ty = match *self.peek() {
            Tok::IntKw => TypeName::Int,
            Tok::BooleanKw => TypeName::Boolean,
            Tok::Void => TypeName::Void,
            Tok::Ident(s) => TypeName::Named(s),
            other => {
                return Err(FrontendError::new(
                    pos,
                    format!("expected a type, found {}", other.describe(self.names())),
                ))
            }
        };
        self.bump();
        Ok(ty)
    }

    // ---- statements -----------------------------------------------------

    fn block(&mut self) -> Result<List> {
        let pos = self.pos();
        self.expect(Tok::LBrace)?;
        self.enter(pos)?;
        let mark = self.open.len();
        while self.peek() != &Tok::RBrace {
            let s = self.stmt()?;
            self.open.push(s.0);
        }
        self.expect(Tok::RBrace)?;
        self.leave();
        Ok(self.close_list(mark))
    }

    fn stmt(&mut self) -> Result<StmtId> {
        let pos = self.pos();
        let stmt = match *self.peek() {
            Tok::If => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_branch = self.block()?;
                let else_branch = if self.eat(&Tok::Else) {
                    self.block()?
                } else {
                    List::default()
                };
                AStmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    pos,
                }
            }
            Tok::While => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.block()?;
                AStmt::While { cond, body, pos }
            }
            Tok::Return => {
                self.bump();
                let value = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                AStmt::Return { value, pos }
            }
            Tok::Super if self.peek_at(1) == &Tok::LParen => {
                self.bump();
                let args = self.args()?;
                self.expect(Tok::Semi)?;
                AStmt::SuperCall { args, pos }
            }
            Tok::IntKw | Tok::BooleanKw => self.decl_stmt()?,
            Tok::Ident(_) if matches!(self.peek_at(1), Tok::Ident(_)) => self.decl_stmt()?,
            _ => {
                let e = self.expr()?;
                if self.eat(&Tok::Assign) {
                    let target = self.ast.expr(e);
                    if !matches!(target, Expr::Var(..) | Expr::Field { .. }) {
                        return Err(FrontendError::new(
                            target.pos(),
                            "invalid assignment target",
                        ));
                    }
                    let value = self.expr()?;
                    self.expect(Tok::Semi)?;
                    AStmt::Assign {
                        target: e,
                        value,
                        pos,
                    }
                } else {
                    self.expect(Tok::Semi)?;
                    match self.ast.expr(e) {
                        Expr::Call { .. } | Expr::New { .. } => AStmt::ExprStmt(e),
                        other => {
                            return Err(FrontendError::new(
                                other.pos(),
                                "only calls and allocations may be used as statements",
                            ))
                        }
                    }
                }
            }
        };
        Ok(self.ast.push_stmt(stmt))
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

    fn args(&mut self) -> Result<List> {
        let pos = self.pos();
        self.expect(Tok::LParen)?;
        self.enter(pos)?;
        let mark = self.open.len();
        if self.peek() != &Tok::RParen {
            loop {
                let e = self.expr()?;
                self.open.push(e.0);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        self.leave();
        Ok(self.close_list(mark))
    }

    fn expr(&mut self) -> Result<ExprId> {
        let a = self.add_expr()?;
        let op = match self.peek() {
            Tok::EqEq => ABinOp::Eq,
            Tok::NotEq => ABinOp::Ne,
            Tok::Lt => ABinOp::Lt,
            Tok::Le => ABinOp::Le,
            _ => return Ok(a),
        };
        let pos = self.pos();
        self.bump();
        let b = self.add_expr()?;
        self.push_expr(Expr::Bin { op, a, b, pos })
    }

    fn add_expr(&mut self) -> Result<ExprId> {
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
            a = self.push_expr(Expr::Bin { op, a, b, pos })?;
        }
        Ok(a)
    }

    fn mul_expr(&mut self) -> Result<ExprId> {
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
            a = self.push_expr(Expr::Bin { op, a, b, pos })?;
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

    fn unary_expr(&mut self) -> Result<ExprId> {
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
            self.enter(pos)?;
            let expr = self.unary_expr()?;
            self.leave();
            return self.push_expr(Expr::Cast { ty, expr, pos });
        }
        let mut e = self.primary()?;
        while self.peek() == &Tok::Dot {
            self.bump();
            let (name, pos) = self.ident()?;
            e = if self.peek() == &Tok::LParen {
                let args = self.args()?;
                self.push_expr(Expr::Call {
                    base: Some(e),
                    name,
                    args,
                    pos,
                })?
            } else {
                self.push_expr(Expr::Field { base: e, name, pos })?
            };
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<ExprId> {
        let pos = self.pos();
        let e = match *self.peek() {
            Tok::This => {
                self.bump();
                Expr::This(pos)
            }
            Tok::Null => {
                self.bump();
                Expr::Null(pos)
            }
            Tok::True => {
                self.bump();
                Expr::Bool(true, pos)
            }
            Tok::False => {
                self.bump();
                Expr::Bool(false, pos)
            }
            Tok::Int(v) => {
                self.bump();
                Expr::Int(v, pos)
            }
            Tok::New => {
                self.bump();
                let (class, _) = self.ident()?;
                let args = self.args()?;
                Expr::New { class, args, pos }
            }
            Tok::Ident(name) => {
                self.bump();
                if self.peek() == &Tok::LParen {
                    let args = self.args()?;
                    Expr::Call {
                        base: None,
                        name,
                        args,
                        pos,
                    }
                } else {
                    Expr::Var(name, pos)
                }
            }
            Tok::LParen => {
                self.bump();
                self.enter(pos)?;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                self.leave();
                return Ok(e);
            }
            other => {
                return Err(FrontendError::new(
                    pos,
                    format!(
                        "expected an expression, found {}",
                        other.describe(self.names())
                    ),
                ))
            }
        };
        self.push_expr(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The statements of the body of `class`'s `method`-th method.
    fn body(p: &SourceProgram, class: usize, method: usize) -> Vec<AStmt> {
        let m = p.methods_of(&p.classes[class])[method];
        p.block(m.body.expect("a body"))
            .map(|s| p.stmt(s))
            .collect()
    }

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
        assert_eq!(p.name(carton.name), "Carton");
        assert_eq!(p.fields_of(carton).len(), 1);
        assert_eq!(p.methods_of(carton).len(), 2);
        assert_eq!(p.params_of(&p.methods_of(carton)[0]).len(), 1);
        assert_eq!(body(&p, 0, 1).len(), 3);
        assert!(p.methods_of(&p.classes[1]).is_empty());
    }

    #[test]
    fn parse_constructor() {
        let src = "class A { T f; A(T t) { this.f = t; } }";
        let p = parse(src).unwrap();
        let ctor = &p.methods_of(&p.classes[0])[0];
        assert!(ctor.is_ctor);
        assert_eq!(ctor.name, Sym::INIT);
        assert_eq!(p.name(ctor.name), "<init>");
    }

    #[test]
    fn parse_abstract() {
        let src = "abstract class A { abstract void m(); } class B extends A { void m() { } }";
        let p = parse(src).unwrap();
        assert!(p.classes[0].is_abstract);
        let m = &p.methods_of(&p.classes[0])[0];
        assert!(m.is_abstract);
        assert!(m.body.is_none());
        assert_eq!(p.classes[1].superclass, Some(p.classes[0].name));
    }

    #[test]
    fn parse_cast_vs_paren() {
        let src = "class C { Object m(Object o) { Object x = (C) o; Object y = (x); return y; } }";
        let p = parse(src).unwrap();
        let body = body(&p, 0, 0);
        match body[0] {
            AStmt::Decl {
                init: Some(init), ..
            } => match p.expr(init) {
                Expr::Cast { ty, .. } => assert_eq!(ty, p.classes[0].name),
                other => panic!("expected a cast, got {other:?}"),
            },
            other => panic!("expected cast decl, got {other:?}"),
        }
        match body[1] {
            AStmt::Decl {
                init: Some(init), ..
            } => assert!(matches!(p.expr(init), Expr::Var(n, _) if p.name(n) == "x")),
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
        let body = body(&p, 0, 0);
        assert_eq!(body.len(), 2);
        let AStmt::While { body: inner, .. } = body[1] else {
            panic!("expected a loop, got {:?}", body[1]);
        };
        let inner: Vec<AStmt> = p.block(inner).map(|s| p.stmt(s)).collect();
        assert!(matches!(
            inner[..],
            [AStmt::If { then_branch, else_branch, .. }]
                if then_branch.len() == 1 && else_branch.len() == 1
        ));
    }

    #[test]
    fn parse_calls_and_chains() {
        let src = "class C { void m(C c) { c.m(this); m(c); A.stat(c); Object x = c.f.g; } }";
        let p = parse(src).unwrap();
        let body = body(&p, 0, 0);
        let call = |s: AStmt| match s {
            AStmt::ExprStmt(e) => p.expr(e),
            other => panic!("expected a call statement, got {other:?}"),
        };
        assert!(matches!(call(body[0]), Expr::Call { base: Some(_), .. }));
        assert!(matches!(call(body[1]), Expr::Call { base: None, .. }));
        // `A.stat(c)` parses as a call with base Var("A"); lowering decides
        // whether `A` is a variable or a class.
        match call(body[2]) {
            Expr::Call {
                base: Some(b),
                args,
                ..
            } => {
                assert!(matches!(p.expr(b), Expr::Var(n, _) if p.name(n) == "A"));
                assert_eq!(args.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match body[3] {
            AStmt::Decl {
                init: Some(init), ..
            } => match p.expr(init) {
                Expr::Field { base, name, .. } => {
                    assert_eq!(p.name(name), "g");
                    assert!(matches!(p.expr(base), Expr::Field { .. }));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_super_call() {
        let src = "class B extends A { B(T t) { super(t); } }";
        let p = parse(src).unwrap();
        let body = body(&p, 0, 0);
        assert!(matches!(body[0], AStmt::SuperCall { args, .. } if args.len() == 1));
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
