//! Abstract syntax tree for MiniJava: flat, with interned names.
//!
//! A [`SourceProgram`] keeps its nodes in a few arenas instead of a tree of
//! boxes:
//!
//! * every identifier is a [`Sym`], an index into the file's [`Names`],
//!   which hold each distinct name once;
//! * expressions and statements live in two vectors, addressed by
//!   [`ExprId`] and [`StmtId`];
//! * argument lists and blocks are [`List`]s, runs of one shared id
//!   vector; a class's fields and methods and a method's parameters are
//!   runs of their own vectors.
//!
//! Nodes are `Copy` and hold no `Box`, `Vec` or `String`. Building an AST
//! allocates per distinct name and per arena, not per token or node, and
//! dropping one frees a handful of vectors.

use std::ops::Range;

use crate::error::Pos;

/// An interned identifier: an index into its file's [`Names`]. Two symbols
/// of one file are equal exactly when their names are.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Sym(u32);

impl Sym {
    /// `<init>`, the name every constructor is declared under.
    pub const INIT: Sym = Sym(0);
    /// `Object`, the root class.
    pub const OBJECT: Sym = Sym(1);
    /// `main`, the entry point's name.
    pub const MAIN: Sym = Sym(2);
    /// `Main`, the class whose `main` wins when several classes have one.
    pub const MAIN_CLASS: Sym = Sym(3);

    /// The names every [`Names`] table starts with, in symbol order.
    pub const PREDEFINED: [(Sym, &'static str); 4] = [
        (Sym::INIT, "<init>"),
        (Sym::OBJECT, "Object"),
        (Sym::MAIN, "main"),
        (Sym::MAIN_CLASS, "Main"),
    ];

    /// The symbol's position in its [`Names`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The distinct names of one source file, each stored once: their texts
/// are concatenated in one `String`.
#[derive(Clone, Debug)]
pub(crate) struct Names {
    text: String,
    /// `ends[s]` is where name `s` ends in `text`; it starts where name
    /// `s - 1` ends.
    ends: Vec<u32>,
}

impl Default for Names {
    /// A table holding only [`Sym::PREDEFINED`].
    fn default() -> Self {
        let mut names = Names {
            text: String::new(),
            ends: Vec::new(),
        };
        for (sym, name) in Sym::PREDEFINED {
            let pushed = names.push(name);
            debug_assert_eq!(pushed, sym, "predefined names are in symbol order");
        }
        names
    }
}

impl Names {
    /// Appends a name the table does not hold yet and returns its symbol.
    pub fn push(&mut self, name: &str) -> Sym {
        self.text.push_str(name);
        self.ends.push(to_u32(self.text.len()));
        Sym(to_u32(self.ends.len() - 1))
    }

    /// The text of `s`.
    pub fn get(&self, s: Sym) -> &str {
        let i = s.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// How many names the table holds.
    pub fn len(&self) -> usize {
        self.ends.len()
    }
}

/// An index into the source's expression arena.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct ExprId(pub(crate) u32);

impl ExprId {
    /// The expression's position in its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An index into the source's statement arena.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct StmtId(pub(crate) u32);

/// A run of consecutive entries of one arena: a class's fields or methods,
/// a method's parameters, or the ids of an argument list or a block.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct List {
    start: u32,
    end: u32,
}

impl List {
    /// The entries from `start` up to `end`.
    pub fn between(start: usize, end: usize) -> Self {
        List {
            start: to_u32(start),
            end: to_u32(end),
        }
    }

    /// The run as an index range.
    pub fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    /// How many entries the run holds.
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }
}

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("source too large: an arena passed u32::MAX entries")
}

/// A parsed compilation unit, ready for [`crate::lower`].
///
/// Its nodes are private to the frontend.
#[derive(Clone, Debug, Default)]
pub struct SourceProgram {
    /// Every identifier of the source.
    pub(crate) names: Names,
    /// All class declarations, in source order.
    pub(crate) classes: Vec<ClassDecl>,
    /// Every class's fields, class by class.
    pub(crate) fields: Vec<FieldDecl>,
    /// Every class's methods, class by class.
    pub(crate) methods: Vec<MethodDecl>,
    /// Every method's parameters, method by method.
    pub(crate) params: Vec<Param>,
    /// The expression arena.
    pub(crate) exprs: Vec<Expr>,
    /// The statement arena.
    pub(crate) stmts: Vec<AStmt>,
    /// The ids of every argument list (expressions) and block (statements).
    pub(crate) lists: Vec<u32>,
}

impl SourceProgram {
    /// Appends an expression to the arena.
    pub(crate) fn push_expr(&mut self, e: Expr) -> ExprId {
        self.exprs.push(e);
        ExprId(to_u32(self.exprs.len() - 1))
    }

    /// Appends a statement to the arena.
    pub(crate) fn push_stmt(&mut self, s: AStmt) -> StmtId {
        self.stmts.push(s);
        StmtId(to_u32(self.stmts.len() - 1))
    }

    /// Appends ids to the id vector as one argument list or block.
    pub(crate) fn push_list(&mut self, ids: impl Iterator<Item = u32>) -> List {
        let start = self.lists.len();
        self.lists.extend(ids);
        List::between(start, self.lists.len())
    }

    pub(crate) fn expr(&self, e: ExprId) -> Expr {
        self.exprs[e.index()]
    }

    pub(crate) fn stmt(&self, s: StmtId) -> AStmt {
        self.stmts[s.0 as usize]
    }

    /// The expressions of an argument list.
    pub(crate) fn args(&self, args: List) -> impl Iterator<Item = ExprId> + '_ {
        self.lists[args.range()].iter().map(|&i| ExprId(i))
    }

    /// The statements of a block.
    pub(crate) fn block(&self, block: List) -> impl Iterator<Item = StmtId> + '_ {
        self.lists[block.range()].iter().map(|&i| StmtId(i))
    }

    pub(crate) fn fields_of(&self, class: &ClassDecl) -> &[FieldDecl] {
        &self.fields[class.fields.range()]
    }

    pub(crate) fn methods_of(&self, class: &ClassDecl) -> &[MethodDecl] {
        &self.methods[class.methods.range()]
    }

    pub(crate) fn params_of(&self, method: &MethodDecl) -> &[Param] {
        &self.params[method.params.range()]
    }

    /// The text of `s`.
    pub(crate) fn name(&self, s: Sym) -> &str {
        self.names.get(s)
    }
}

/// A class declaration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct ClassDecl {
    /// Class name.
    pub name: Sym,
    /// Superclass name (`None` means `Object`).
    pub superclass: Option<Sym>,
    /// Whether the class is abstract.
    pub is_abstract: bool,
    /// Declared fields, a run of [`SourceProgram::fields`].
    pub fields: List,
    /// Declared methods (including constructors), a run of
    /// [`SourceProgram::methods`].
    pub methods: List,
    /// Source position of the `class` keyword.
    pub pos: Pos,
}

/// A field declaration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct FieldDecl {
    /// Declared type.
    pub ty: TypeName,
    /// Field name.
    pub name: Sym,
    /// Source position.
    pub pos: Pos,
}

/// A method or constructor declaration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct MethodDecl {
    /// `static` modifier.
    pub is_static: bool,
    /// `abstract` modifier (no body).
    pub is_abstract: bool,
    /// Whether this is a constructor (name equals the class name).
    pub is_ctor: bool,
    /// Return type (constructors use `void`).
    pub ret: TypeName,
    /// Method name ([`Sym::INIT`] for constructors).
    pub name: Sym,
    /// Parameters, a run of [`SourceProgram::params`].
    pub params: List,
    /// Body block (absent for abstract methods).
    pub body: Option<List>,
    /// Source position.
    pub pos: Pos,
}

/// A method parameter.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Param {
    /// Declared type.
    pub ty: TypeName,
    /// Parameter name.
    pub name: Sym,
}

/// A syntactic type name.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum TypeName {
    /// `int`
    Int,
    /// `boolean`
    Boolean,
    /// `void`
    Void,
    /// A class name.
    Named(Sym),
}

/// A statement.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum AStmt {
    /// `T x;` or `T x = e;`
    Decl {
        /// Declared type.
        ty: TypeName,
        /// Variable name.
        name: Sym,
        /// Optional initializer.
        init: Option<ExprId>,
        /// Source position.
        pos: Pos,
    },
    /// `target = e;`
    Assign {
        /// Assignment target: an [`Expr::Var`] or an [`Expr::Field`].
        target: ExprId,
        /// Assigned expression.
        value: ExprId,
        /// Source position.
        pos: Pos,
    },
    /// A call or allocation evaluated for effect.
    ExprStmt(ExprId),
    /// `if (cond) { .. } else { .. }`
    If {
        /// Condition.
        cond: ExprId,
        /// Then block.
        then_branch: List,
        /// Else block (possibly empty).
        else_branch: List,
        /// Source position.
        pos: Pos,
    },
    /// `while (cond) { .. }`
    While {
        /// Condition.
        cond: ExprId,
        /// Loop body block.
        body: List,
        /// Source position.
        pos: Pos,
    },
    /// `return;` or `return e;`
    Return {
        /// Returned expression, if any.
        value: Option<ExprId>,
        /// Source position.
        pos: Pos,
    },
    /// `super(args);` — superclass constructor invocation.
    SuperCall {
        /// Argument list.
        args: List,
        /// Source position.
        pos: Pos,
    },
}

/// Binary operators at the AST level.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum ABinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// An expression.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Expr {
    /// `this`
    This(Pos),
    /// A name (local variable, or a class name when used as a static-call
    /// receiver — disambiguated during lowering).
    Var(Sym, Pos),
    /// Integer literal.
    Int(i64, Pos),
    /// Boolean literal.
    Bool(bool, Pos),
    /// `null`
    Null(Pos),
    /// `new C(args)`
    New {
        /// Class name.
        class: Sym,
        /// Constructor argument list.
        args: List,
        /// Source position.
        pos: Pos,
    },
    /// `base.name` (field read).
    Field {
        /// Base expression.
        base: ExprId,
        /// Field name.
        name: Sym,
        /// Source position.
        pos: Pos,
    },
    /// `base.name(args)`; a `None` base means an unqualified call (implicit
    /// `this` or a static method of the enclosing class).
    Call {
        /// Receiver expression (or `None` for unqualified calls).
        base: Option<ExprId>,
        /// Method name.
        name: Sym,
        /// Argument list.
        args: List,
        /// Source position.
        pos: Pos,
    },
    /// `(T) e`
    Cast {
        /// Target class name.
        ty: Sym,
        /// Casted expression.
        expr: ExprId,
        /// Source position.
        pos: Pos,
    },
    /// `a <op> b` over primitives.
    Bin {
        /// Operator.
        op: ABinOp,
        /// Left operand.
        a: ExprId,
        /// Right operand.
        b: ExprId,
        /// Source position.
        pos: Pos,
    },
}

impl Expr {
    /// The source position of the expression.
    pub fn pos(&self) -> Pos {
        match *self {
            Expr::This(p)
            | Expr::Var(_, p)
            | Expr::Int(_, p)
            | Expr::Bool(_, p)
            | Expr::Null(p) => p,
            Expr::New { pos, .. }
            | Expr::Field { pos, .. }
            | Expr::Call { pos, .. }
            | Expr::Cast { pos, .. }
            | Expr::Bin { pos, .. } => pos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_after_the_predefined_ones() {
        let mut names = Names::default();
        for (sym, name) in Sym::PREDEFINED {
            assert_eq!(names.get(sym), name);
        }
        assert_eq!(names.get(Sym::OBJECT), "Object");
        let a = names.push("alpha");
        let b = names.push("b");
        assert_eq!((names.get(a), names.get(b)), ("alpha", "b"));
        assert_eq!(names.len(), Sym::PREDEFINED.len() + 2);
    }

    #[test]
    fn nodes_are_small_and_copy() {
        fn copy<T: Copy>() {}
        copy::<Expr>();
        copy::<AStmt>();
        assert!(std::mem::size_of::<Expr>() <= 32);
        assert!(std::mem::size_of::<AStmt>() <= 32);
    }
}
