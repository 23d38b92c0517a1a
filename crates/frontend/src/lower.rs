//! Name resolution, type checking, and lowering from the MiniJava AST to the
//! `csc-ir` program representation.
//!
//! Lowering proceeds in four passes so that classes, fields, and methods may
//! reference each other freely regardless of declaration order:
//!
//! 1. declare all classes;
//! 2. resolve superclasses (with cycle detection);
//! 3. declare fields and method signatures;
//! 4. lower method bodies to three-address IR statements.
//!
//! Names resolve by [`Sym`], never by text: classes through a vector
//! indexed by symbol, each class's fields and methods through Fx maps,
//! and local variables through [`Scopes`], a per-symbol table with an
//! undo log, so entering and leaving a block allocates nothing. Text is
//! read only where the IR builder takes a name (a class, field, method or
//! variable, or the `Class@line` label of a `new`) and where an error
//! message is formatted.

use std::fmt::Write as _;

use csc_ir::fx::FxHashMap;
use csc_ir::{
    BinOp, CallKind, ClassId, FieldId, MethodBuilder, MethodId, MethodKind, Program,
    ProgramBuilder, Type, VarId,
};

use crate::ast::{ABinOp, AStmt, Expr, ExprId, List, Names, SourceProgram, StmtId, Sym, TypeName};
use crate::error::{FrontendError, Pos, Result};

/// Per-class symbol information.
struct ClassSym {
    id: ClassId,
    name: Sym,
    superclass: Option<usize>,
    is_abstract: bool,
    fields: FxHashMap<Sym, (FieldId, Type)>,
    methods: FxHashMap<Sym, MethodSym>,
}

impl ClassSym {
    fn new(id: ClassId, name: Sym, superclass: Option<usize>, is_abstract: bool) -> Self {
        ClassSym {
            id,
            name,
            superclass,
            is_abstract,
            fields: FxHashMap::default(),
            methods: FxHashMap::default(),
        }
    }
}

/// Per-method symbol information.
struct MethodSym {
    id: MethodId,
    is_static: bool,
    params: Vec<Type>,
    ret: Type,
}

struct SymTab<'a> {
    names: &'a Names,
    /// Indexed by [`ClassId`]: the builder numbers classes in declaration
    /// order, `Object` first, and so does this table.
    classes: Vec<ClassSym>,
    /// Indexed by [`Sym`]: the class of that name.
    by_name: Vec<Option<usize>>,
}

impl SymTab<'_> {
    fn class(&self, name: Sym) -> Option<usize> {
        self.by_name[name.index()]
    }

    fn class_name(&self, c: usize) -> &str {
        self.names.get(self.classes[c].name)
    }

    /// Inclusive ancestor chain indices, self first.
    fn ancestors(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(c), |&c| self.classes[c].superclass)
    }

    fn resolve_field(&self, class: usize, name: Sym) -> Option<(FieldId, Type)> {
        self.ancestors(class)
            .find_map(|c| self.classes[c].fields.get(&name).copied())
    }

    fn resolve_method(&self, class: usize, name: Sym) -> Option<&MethodSym> {
        self.ancestors(class)
            .find_map(|c| self.classes[c].methods.get(&name))
    }

    fn resolve_ty(&self, ty: TypeName, pos: Pos) -> Result<Type> {
        match ty {
            TypeName::Int => Ok(Type::Int),
            TypeName::Boolean => Ok(Type::Boolean),
            TypeName::Void => Ok(Type::Void),
            TypeName::Named(n) => self
                .class(n)
                .map(|i| Type::Class(self.classes[i].id))
                .ok_or_else(|| {
                    FrontendError::new(pos, format!("unknown type `{}`", self.names.get(n)))
                }),
        }
    }

    fn is_subclass(&self, sub: usize, sup: usize) -> bool {
        self.ancestors(sub).any(|c| c == sup)
    }

    fn is_subtype(&self, sub: Type, sup: Type) -> bool {
        match (sub, sup) {
            (Type::Null, t) => t.is_reference(),
            (Type::Class(a), Type::Class(b)) => {
                let (Some(ai), Some(bi)) = (self.idx_of(a), self.idx_of(b)) else {
                    return a == b;
                };
                self.is_subclass(ai, bi)
            }
            (a, b) => a == b,
        }
    }

    fn idx_of(&self, id: ClassId) -> Option<usize> {
        let i = id.index();
        (self.classes.get(i)?.id == id).then_some(i)
    }

    fn type_name_of(&self, ty: Type) -> String {
        match ty {
            Type::Int => "int".into(),
            Type::Boolean => "boolean".into(),
            Type::Void => "void".into(),
            Type::Null => "null".into(),
            Type::Class(id) => match self.idx_of(id) {
                Some(i) => self.class_name(i).to_owned(),
                None => format!("{id}"),
            },
        }
    }
}

/// The local variables in scope, by name: a table indexed by [`Sym`] with
/// an undo log. Blocks nest; a name declared in a block shadows the same
/// name outside it until the block closes.
struct Scopes {
    /// Per name: the variable it binds, and the block that bound it.
    bound: Vec<Option<(VarId, usize)>>,
    /// Per binding made in an open block, what it replaced, innermost last.
    undo: Vec<(Sym, Option<(VarId, usize)>)>,
    /// Per open block, where its bindings start in `undo`.
    marks: Vec<usize>,
}

impl Scopes {
    fn new(names: usize) -> Self {
        Scopes {
            bound: vec![None; names],
            undo: Vec::new(),
            marks: Vec::new(),
        }
    }

    fn open(&mut self) {
        self.marks.push(self.undo.len());
    }

    fn close(&mut self) {
        let mark = self.marks.pop().expect("a block is open");
        for (name, old) in self.undo.drain(mark..).rev() {
            self.bound[name.index()] = old;
        }
    }

    fn lookup(&self, name: Sym) -> Option<VarId> {
        self.bound[name.index()].map(|(v, _)| v)
    }

    /// Whether the innermost open block binds `name`.
    fn bound_here(&self, name: Sym) -> bool {
        self.bound[name.index()].is_some_and(|(_, block)| block == self.marks.len())
    }

    /// Binds `name` to `v` in the innermost open block.
    fn bind(&mut self, name: Sym, v: VarId) {
        let slot = &mut self.bound[name.index()];
        self.undo.push((name, *slot));
        *slot = Some((v, self.marks.len()));
    }
}

/// Compiles MiniJava source text all the way to an IR [`Program`].
///
/// # Errors
///
/// Returns the first lexical, syntactic, or semantic error.
///
/// # Examples
///
/// ```
/// let program = csc_frontend::compile(r#"
///     class Main {
///         static void main() {
///             Object o = new Object();
///         }
///     }
/// "#)?;
/// assert_eq!(program.objs().len(), 1);
/// # Ok::<(), csc_frontend::FrontendError>(())
/// ```
pub fn compile(src: &str) -> Result<Program> {
    let ast = crate::parser::parse(src)?;
    lower(&ast)
}

/// Lowers a parsed AST to an IR [`Program`].
///
/// # Errors
///
/// Returns the first semantic error (unknown names, type mismatches, missing
/// or ambiguous `main`, hierarchy cycles, …).
pub fn lower(ast: &SourceProgram) -> Result<Program> {
    let names = &ast.names;
    let mut pb = ProgramBuilder::new();
    let object = pb.object_class();

    // Pass 1: declare classes.
    let mut symtab = SymTab {
        names,
        classes: vec![ClassSym::new(object, Sym::OBJECT, None, false)],
        by_name: vec![None; names.len()],
    };
    symtab.by_name[Sym::OBJECT.index()] = Some(0);
    for decl in &ast.classes {
        let name = names.get(decl.name);
        if symtab.class(decl.name).is_some() {
            return Err(FrontendError::new(
                decl.pos,
                format!("duplicate class `{name}`"),
            ));
        }
        let id = if decl.is_abstract {
            pb.add_abstract_class(name, None)
        } else {
            pb.add_class(name, None)
        };
        debug_assert_eq!(
            id.index(),
            symtab.classes.len(),
            "class ids are table indices"
        );
        symtab.by_name[decl.name.index()] = Some(symtab.classes.len());
        symtab
            .classes
            .push(ClassSym::new(id, decl.name, Some(0), decl.is_abstract));
    }

    // Pass 2: superclasses + cycle detection.
    for decl in &ast.classes {
        let idx = symtab.class(decl.name).expect("declared in pass 1");
        if let Some(sup_name) = decl.superclass {
            let sup = symtab.class(sup_name).ok_or_else(|| {
                FrontendError::new(
                    decl.pos,
                    format!("unknown superclass `{}`", names.get(sup_name)),
                )
            })?;
            symtab.classes[idx].superclass = Some(sup);
            pb.set_superclass(symtab.classes[idx].id, symtab.classes[sup].id);
        }
    }
    for i in 0..symtab.classes.len() {
        let mut cur = i;
        let mut steps = 0;
        while let Some(sup) = symtab.classes[cur].superclass {
            cur = sup;
            steps += 1;
            if steps > symtab.classes.len() {
                return Err(FrontendError::new(
                    Pos::default(),
                    format!("class hierarchy cycle involving `{}`", symtab.class_name(i)),
                ));
            }
        }
    }

    // Pass 3: fields and method signatures.
    let mut bodies: Vec<(usize, MethodId, &crate::ast::MethodDecl)> = Vec::new();
    for decl in &ast.classes {
        let idx = symtab.class(decl.name).expect("declared");
        let class_id = symtab.classes[idx].id;
        for field in ast.fields_of(decl) {
            let ty = symtab.resolve_ty(field.ty, field.pos)?;
            if ty == Type::Void {
                return Err(FrontendError::new(
                    field.pos,
                    "fields cannot have type void",
                ));
            }
            if symtab.classes[idx].fields.contains_key(&field.name) {
                return Err(FrontendError::new(
                    field.pos,
                    format!("duplicate field `{}`", names.get(field.name)),
                ));
            }
            let fid = pb.add_field(class_id, names.get(field.name), ty);
            symtab.classes[idx].fields.insert(field.name, (fid, ty));
        }
        for method in ast.methods_of(decl) {
            let ret = symtab.resolve_ty(method.ret, method.pos)?;
            let mut param_tys = Vec::new();
            let mut params: Vec<(&str, Type)> = Vec::new();
            for param in ast.params_of(method) {
                let t = symtab.resolve_ty(param.ty, method.pos)?;
                if t == Type::Void {
                    return Err(FrontendError::new(method.pos, "parameters cannot be void"));
                }
                param_tys.push(t);
                params.push((names.get(param.name), t));
            }
            if symtab.classes[idx].methods.contains_key(&method.name) {
                return Err(FrontendError::new(
                    method.pos,
                    format!(
                        "duplicate method `{}` (overloading is not supported)",
                        names.get(method.name)
                    ),
                ));
            }
            let kind = if method.is_ctor {
                MethodKind::Constructor
            } else if method.is_static {
                MethodKind::Static
            } else {
                MethodKind::Instance
            };
            let name = names.get(method.name);
            let mid = if method.is_abstract {
                pb.add_abstract_method(class_id, name, &params, ret)
            } else {
                let mb = pb.begin_method(class_id, name, kind, &params, ret);
                mb.finish()
            };
            symtab.classes[idx].methods.insert(
                method.name,
                MethodSym {
                    id: mid,
                    is_static: method.is_static,
                    params: param_tys,
                    ret,
                },
            );
            if method.body.is_some() {
                bodies.push((idx, mid, method));
            }
        }
    }

    // Pass 4: bodies.
    let mut scopes = Scopes::new(names.len());
    for (class_idx, mid, method) in bodies {
        let mb = pb.resume_method(mid);
        let mut ctx = BodyCtx {
            ast,
            symtab: &symtab,
            class_idx,
            ret: symtab.resolve_ty(method.ret, method.pos)?,
            is_ctor: method.is_ctor,
            mb,
            scopes: &mut scopes,
            tmp_count: 0,
            tmp_name: String::new(),
        };
        ctx.scopes.open();
        for (i, param) in ast.params_of(method).iter().enumerate() {
            let v = ctx.mb.param(i);
            ctx.scopes.bind(param.name, v);
        }
        for stmt in ast.block(method.body.expect("collected only with body")) {
            ctx.stmt(stmt)?;
        }
        ctx.scopes.close();
        ctx.mb.finish();
    }

    // Entry point: prefer `Main.main`, else a unique `static void main()`.
    let mut mains: Vec<(usize, MethodId)> = Vec::new();
    for (i, class) in symtab.classes.iter().enumerate() {
        if let Some(m) = class.methods.get(&Sym::MAIN) {
            if m.is_static && m.params.is_empty() && m.ret == Type::Void {
                mains.push((i, m.id));
            }
        }
    }
    let entry = match mains.len() {
        0 => {
            return Err(FrontendError::new(
                Pos::default(),
                "no `static void main()` entry point found",
            ))
        }
        1 => mains[0].1,
        _ => mains
            .iter()
            .find(|&&(i, _)| symtab.classes[i].name == Sym::MAIN_CLASS)
            .map(|&(_, m)| m)
            .ok_or_else(|| {
                FrontendError::new(Pos::default(), "multiple `main` methods and none in `Main`")
            })?,
    };
    pb.set_entry(entry);

    pb.finish()
        .map_err(|e| FrontendError::new(Pos::default(), e.to_string()))
}

struct BodyCtx<'a, 'p> {
    ast: &'a SourceProgram,
    symtab: &'a SymTab<'a>,
    class_idx: usize,
    ret: Type,
    is_ctor: bool,
    mb: MethodBuilder<'p>,
    scopes: &'a mut Scopes,
    tmp_count: u32,
    /// The last temporary's name, reused for the next one.
    tmp_name: String,
}

impl<'a> BodyCtx<'a, '_> {
    fn name(&self, s: Sym) -> &str {
        self.ast.name(s)
    }

    fn fresh(&mut self, ty: Type) -> VarId {
        self.tmp_count += 1;
        self.tmp_name.clear();
        let _ = write!(self.tmp_name, "$t{}", self.tmp_count);
        self.mb.local(&self.tmp_name, ty)
    }

    fn this_var(&self, pos: Pos) -> Result<VarId> {
        self.mb
            .this()
            .ok_or_else(|| FrontendError::new(pos, "`this` used in a static method"))
    }

    fn check_assign(&self, dst: Type, src: Type, pos: Pos) -> Result<()> {
        if self.symtab.is_subtype(src, dst) {
            Ok(())
        } else {
            Err(FrontendError::new(
                pos,
                format!(
                    "type mismatch: cannot assign `{}` to `{}`",
                    self.symtab.type_name_of(src),
                    self.symtab.type_name_of(dst)
                ),
            ))
        }
    }

    fn class_of(&self, ty: Type, pos: Pos) -> Result<usize> {
        match ty {
            Type::Class(id) => self
                .symtab
                .idx_of(id)
                .ok_or_else(|| FrontendError::new(pos, "internal: unresolved class")),
            other => Err(FrontendError::new(
                pos,
                format!(
                    "expected an object, found `{}`",
                    self.symtab.type_name_of(other)
                ),
            )),
        }
    }

    /// The field `name` of class `class` or an ancestor.
    fn field_of(&self, class: usize, name: Sym, pos: Pos) -> Result<(FieldId, Type)> {
        self.symtab.resolve_field(class, name).ok_or_else(|| {
            FrontendError::new(
                pos,
                format!(
                    "class `{}` has no field `{}`",
                    self.symtab.class_name(class),
                    self.name(name)
                ),
            )
        })
    }

    // ---- statements -----------------------------------------------------

    /// Lowers the statements of a nested block in a scope of their own.
    fn block(&mut self, block: List) -> Result<()> {
        self.scopes.open();
        let ast = self.ast;
        for s in ast.block(block) {
            self.stmt(s)?;
        }
        self.scopes.close();
        Ok(())
    }

    fn stmt(&mut self, s: StmtId) -> Result<()> {
        match self.ast.stmt(s) {
            AStmt::Decl {
                ty,
                name,
                init,
                pos,
            } => {
                let ty = self.symtab.resolve_ty(ty, pos)?;
                if self.scopes.bound_here(name) {
                    return Err(FrontendError::new(
                        pos,
                        format!("duplicate variable `{}`", self.name(name)),
                    ));
                }
                let v = self.mb.local(self.ast.name(name), ty);
                self.scopes.bind(name, v);
                if let Some(init) = init {
                    self.expr_into(v, ty, init)?;
                }
                Ok(())
            }
            AStmt::Assign { target, value, pos } => match self.ast.expr(target) {
                Expr::Var(name, vpos) => {
                    if let Some(v) = self.scopes.lookup(name) {
                        self.expr_into(v, self.mb.var_ty(v), value)?;
                        Ok(())
                    } else if let Some((fid, fty)) = self.symtab.resolve_field(self.class_idx, name)
                    {
                        // Implicit `this.name = value`.
                        let this = self.this_var(vpos)?;
                        let (rv, rt) = self.expr(value)?;
                        self.check_assign(fty, rt, pos)?;
                        self.mb.store(this, fid, rv);
                        Ok(())
                    } else {
                        Err(FrontendError::new(
                            vpos,
                            format!("unknown variable `{}`", self.name(name)),
                        ))
                    }
                }
                Expr::Field { base, name, pos } => {
                    let (bv, bt) = self.expr(base)?;
                    let bclass = self.class_of(bt, pos)?;
                    let (fid, fty) = self.field_of(bclass, name, pos)?;
                    let (rv, rt) = self.expr(value)?;
                    self.check_assign(fty, rt, pos)?;
                    self.mb.store(bv, fid, rv);
                    Ok(())
                }
                other => unreachable!("the parser admits no assignment to {other:?}"),
            },
            AStmt::ExprStmt(e) => {
                match self.ast.expr(e) {
                    Expr::Call { .. } => {
                        self.call_expr(e, CallDst::Discard)?;
                    }
                    Expr::New { .. } => {
                        self.expr(e)?;
                    }
                    other => unreachable!("the parser admits no statement {other:?}"),
                }
                Ok(())
            }
            AStmt::If {
                cond,
                then_branch,
                else_branch,
                pos,
            } => {
                let (cv, ct) = self.expr(cond)?;
                if ct != Type::Boolean {
                    return Err(FrontendError::new(pos, "condition must be boolean"));
                }
                self.mb.push_block();
                self.block(then_branch)?;
                let then_stmts = self.mb.pop_block();
                self.mb.push_block();
                self.block(else_branch)?;
                let else_stmts = self.mb.pop_block();
                self.mb.emit_if(cv, then_stmts, else_stmts);
                Ok(())
            }
            AStmt::While { cond, body, pos } => {
                self.mb.push_block();
                let (cv, ct) = self.expr(cond)?;
                let cond_stmts = self.mb.pop_block();
                if ct != Type::Boolean {
                    return Err(FrontendError::new(pos, "condition must be boolean"));
                }
                self.mb.push_block();
                self.block(body)?;
                let body_stmts = self.mb.pop_block();
                self.mb.emit_while(cond_stmts, cv, body_stmts);
                Ok(())
            }
            AStmt::Return { value, pos } => {
                match (value, self.ret) {
                    (None, Type::Void) => self.mb.ret(None),
                    (None, _) => {
                        return Err(FrontendError::new(pos, "missing return value"));
                    }
                    (Some(_), Type::Void) => {
                        return Err(FrontendError::new(pos, "void method cannot return a value"));
                    }
                    (Some(e), ret) => {
                        let (v, t) = self.expr(e)?;
                        self.check_assign(ret, t, pos)?;
                        self.mb.ret(Some(v));
                    }
                }
                Ok(())
            }
            AStmt::SuperCall { args, pos } => {
                if !self.is_ctor {
                    return Err(FrontendError::new(
                        pos,
                        "`super(..)` is only allowed in constructors",
                    ));
                }
                let symtab = self.symtab;
                let sup = symtab.classes[self.class_idx]
                    .superclass
                    .ok_or_else(|| FrontendError::new(pos, "`Object` has no superclass"))?;
                let ctor = symtab.classes[sup].methods.get(&Sym::INIT).ok_or_else(|| {
                    FrontendError::new(
                        pos,
                        format!("superclass `{}` has no constructor", symtab.class_name(sup)),
                    )
                })?;
                let this = self.this_var(pos)?;
                let arg_vars = self.lower_args(&ctor.params, args, pos)?;
                self.mb
                    .call(CallKind::Special, None, Some(this), ctor.id, &arg_vars);
                Ok(())
            }
        }
    }

    fn lower_args(&mut self, param_tys: &[Type], args: List, pos: Pos) -> Result<Vec<VarId>> {
        if param_tys.len() != args.len() {
            return Err(FrontendError::new(
                pos,
                format!(
                    "expected {} argument(s), found {}",
                    param_tys.len(),
                    args.len()
                ),
            ));
        }
        let mut vars = Vec::with_capacity(args.len());
        let ast = self.ast;
        for (arg, &pt) in ast.args(args).zip(param_tys) {
            let (v, t) = self.expr(arg)?;
            self.check_assign(pt, t, ast.expr(arg).pos())?;
            vars.push(v);
        }
        Ok(vars)
    }

    // ---- expressions ----------------------------------------------------

    /// Lowers `e` directly *into* an existing destination variable, without
    /// a temporary, whenever the expression form allows it (field loads,
    /// calls, casts, literals, arithmetic). This mirrors Tai-e's IR — e.g.
    /// `r = this.f;` is a single load statement with `r` as its target —
    /// which is what the Cut-Shortcut pattern rules match on.
    fn expr_into(&mut self, dst: VarId, dst_ty: Type, e: ExprId) -> Result<()> {
        match self.ast.expr(e) {
            Expr::Field { base, name, pos } => {
                let (bv, bt) = self.expr(base)?;
                let bclass = self.class_of(bt, pos)?;
                let (fid, fty) = self.field_of(bclass, name, pos)?;
                self.check_assign(dst_ty, fty, pos)?;
                self.mb.load(dst, bv, fid);
                Ok(())
            }
            Expr::Call { pos, .. } => {
                let (_, rt) = self.call_expr(e, CallDst::Into(dst))?;
                self.check_assign(dst_ty, rt, pos)?;
                Ok(())
            }
            Expr::Cast { ty, expr, pos } => {
                let target = self.symtab.resolve_ty(TypeName::Named(ty), pos)?;
                let (v, t) = self.expr(expr)?;
                if !t.is_reference() {
                    return Err(FrontendError::new(pos, "only object casts are supported"));
                }
                self.check_assign(dst_ty, target, pos)?;
                self.mb.cast(dst, target, v);
                Ok(())
            }
            Expr::Int(v, pos) => {
                self.check_assign(dst_ty, Type::Int, pos)?;
                self.mb.const_int(dst, v);
                Ok(())
            }
            Expr::Bool(v, pos) => {
                self.check_assign(dst_ty, Type::Boolean, pos)?;
                self.mb.const_bool(dst, v);
                Ok(())
            }
            Expr::Null(pos) => {
                self.check_assign(dst_ty, Type::Null, pos)?;
                self.mb.const_null(dst);
                Ok(())
            }
            // Arithmetic produces a fresh temp anyway, so it folds into a
            // copy, as do `this`, variables, and `new` (whose constructor
            // arguments may mention the destination).
            other => {
                let (v, t) = self.expr(e)?;
                self.check_assign(dst_ty, t, other.pos())?;
                self.mb.assign(dst, v);
                Ok(())
            }
        }
    }

    fn expr(&mut self, e: ExprId) -> Result<(VarId, Type)> {
        match self.ast.expr(e) {
            Expr::This(pos) => {
                let v = self.this_var(pos)?;
                Ok((v, self.mb.var_ty(v)))
            }
            Expr::Var(name, pos) => {
                if let Some(v) = self.scopes.lookup(name) {
                    Ok((v, self.mb.var_ty(v)))
                } else if let Some((fid, fty)) = self.symtab.resolve_field(self.class_idx, name) {
                    // Implicit `this.name`.
                    let this = self.this_var(pos)?;
                    let t = self.fresh(fty);
                    self.mb.load(t, this, fid);
                    Ok((t, fty))
                } else {
                    Err(FrontendError::new(
                        pos,
                        format!("unknown variable `{}`", self.name(name)),
                    ))
                }
            }
            Expr::Int(v, _) => {
                let t = self.fresh(Type::Int);
                self.mb.const_int(t, v);
                Ok((t, Type::Int))
            }
            Expr::Bool(v, _) => {
                let t = self.fresh(Type::Boolean);
                self.mb.const_bool(t, v);
                Ok((t, Type::Boolean))
            }
            Expr::Null(_) => {
                let t = self.fresh(Type::Null);
                self.mb.const_null(t);
                Ok((t, Type::Null))
            }
            Expr::New { class, args, pos } => {
                let symtab = self.symtab;
                let idx = symtab.class(class).ok_or_else(|| {
                    FrontendError::new(pos, format!("unknown class `{}`", self.name(class)))
                })?;
                let sym = &symtab.classes[idx];
                if sym.is_abstract {
                    return Err(FrontendError::new(
                        pos,
                        format!("cannot instantiate abstract class `{}`", self.name(class)),
                    ));
                }
                let class_id = sym.id;
                let ty = Type::Class(class_id);
                let v = self.fresh(ty);
                let label = format!("{}@{}", self.ast.name(class), pos.line);
                self.mb.new_obj(v, class_id, &label);
                // Constructors are not inherited: resolve in the exact class.
                match sym.methods.get(&Sym::INIT) {
                    Some(ctor) => {
                        let arg_vars = self.lower_args(&ctor.params, args, pos)?;
                        self.mb
                            .call(CallKind::Special, None, Some(v), ctor.id, &arg_vars);
                    }
                    None if args.len() == 0 => {}
                    None => {
                        return Err(FrontendError::new(
                            pos,
                            format!("class `{}` has no constructor", self.name(class)),
                        ));
                    }
                }
                Ok((v, ty))
            }
            Expr::Field { base, name, pos } => {
                let (bv, bt) = self.expr(base)?;
                let bclass = self.class_of(bt, pos)?;
                let (fid, fty) = self.field_of(bclass, name, pos)?;
                let t = self.fresh(fty);
                self.mb.load(t, bv, fid);
                Ok((t, fty))
            }
            Expr::Call { .. } => {
                let (v, t) = self.call_expr(e, CallDst::Fresh)?;
                Ok((v.expect("value requested"), t))
            }
            Expr::Cast { ty, expr, pos } => {
                let target = self.symtab.resolve_ty(TypeName::Named(ty), pos)?;
                let (v, t) = self.expr(expr)?;
                if !t.is_reference() {
                    return Err(FrontendError::new(pos, "only object casts are supported"));
                }
                let dst = self.fresh(target);
                self.mb.cast(dst, target, v);
                Ok((dst, target))
            }
            Expr::Bin { op, a, b, pos } => {
                let (av, at) = self.expr(a)?;
                let (bv, bt) = self.expr(b)?;
                let both_int = at == Type::Int && bt == Type::Int;
                let both_ref = at.is_reference() && bt.is_reference();
                let (irop, result) = match op {
                    ABinOp::Add => (BinOp::Add, Type::Int),
                    ABinOp::Sub => (BinOp::Sub, Type::Int),
                    ABinOp::Mul => (BinOp::Mul, Type::Int),
                    ABinOp::Rem => (BinOp::Rem, Type::Int),
                    ABinOp::Lt => (BinOp::Lt, Type::Boolean),
                    ABinOp::Le => (BinOp::Le, Type::Boolean),
                    ABinOp::Eq if both_ref => (BinOp::EqRef, Type::Boolean),
                    ABinOp::Ne if both_ref => (BinOp::NeRef, Type::Boolean),
                    ABinOp::Eq => (BinOp::EqInt, Type::Boolean),
                    ABinOp::Ne => (BinOp::NeInt, Type::Boolean),
                };
                let ref_ok = both_ref && matches!(irop, BinOp::EqRef | BinOp::NeRef);
                if !both_int && !ref_ok {
                    return Err(FrontendError::new(
                        pos,
                        "arithmetic requires int operands; `==`/`!=` require two ints or two references",
                    ));
                }
                let t = self.fresh(result);
                self.mb.bin_op(t, irop, av, bv);
                Ok((t, result))
            }
        }
    }

    /// The method `name` of class `class` or an ancestor, which must not be
    /// static: the target of a virtual call.
    fn virtual_method(&self, class: usize, name: Sym, pos: Pos) -> Result<&'a MethodSym> {
        let symtab = self.symtab;
        let m = symtab.resolve_method(class, name).ok_or_else(|| {
            FrontendError::new(
                pos,
                format!(
                    "class `{}` has no method `{}`",
                    self.symtab.class_name(class),
                    self.name(name)
                ),
            )
        })?;
        if m.is_static {
            return Err(FrontendError::new(
                pos,
                format!("static method `{}` called on an instance", self.name(name)),
            ));
        }
        Ok(m)
    }

    /// Lowers a call expression into the requested destination.
    fn call_expr(&mut self, e: ExprId, dst: CallDst) -> Result<(Option<VarId>, Type)> {
        let Expr::Call {
            base,
            name,
            args,
            pos,
        } = self.ast.expr(e)
        else {
            unreachable!("call_expr invoked on non-call");
        };
        let symtab = self.symtab;

        // Resolve the callee: static vs virtual, explicit vs implicit recv.
        let (kind, recv, target): (CallKind, Option<VarId>, &MethodSym) = match base {
            Some(b) => match self.ast.expr(b) {
                // `Name.m(..)` where `Name` is not a variable is a static call.
                Expr::Var(n, npos)
                    if self.scopes.lookup(n).is_none()
                        && symtab.resolve_field(self.class_idx, n).is_none() =>
                {
                    let cidx = symtab.class(n).ok_or_else(|| {
                        FrontendError::new(
                            npos,
                            format!("unknown variable or class `{}`", self.name(n)),
                        )
                    })?;
                    let m = symtab.resolve_method(cidx, name).ok_or_else(|| {
                        FrontendError::new(
                            pos,
                            format!(
                                "class `{}` has no method `{}`",
                                self.name(n),
                                self.name(name)
                            ),
                        )
                    })?;
                    if !m.is_static {
                        return Err(FrontendError::new(
                            pos,
                            format!(
                                "method `{}.{}` is not static",
                                self.name(n),
                                self.name(name)
                            ),
                        ));
                    }
                    (CallKind::Static, None, m)
                }
                _ => {
                    let (bv, bt) = self.expr(b)?;
                    let bclass = self.class_of(bt, pos)?;
                    (
                        CallKind::Virtual,
                        Some(bv),
                        self.virtual_method(bclass, name, pos)?,
                    )
                }
            },
            None => {
                let m = symtab.resolve_method(self.class_idx, name).ok_or_else(|| {
                    FrontendError::new(pos, format!("unknown method `{}`", self.name(name)))
                })?;
                if m.is_static {
                    (CallKind::Static, None, m)
                } else {
                    let this = self.this_var(pos)?;
                    (CallKind::Virtual, Some(this), m)
                }
            }
        };

        let arg_vars = self.lower_args(&target.params, args, pos)?;
        let lhs = match dst {
            CallDst::Discard => None,
            CallDst::Fresh | CallDst::Into(_) if target.ret == Type::Void => {
                return Err(FrontendError::new(
                    pos,
                    format!("void method `{}` used as a value", self.name(name)),
                ));
            }
            CallDst::Fresh => Some(self.fresh(target.ret)),
            CallDst::Into(v) => Some(v),
        };
        self.mb.call(kind, lhs, recv, target.id, &arg_vars);
        Ok((lhs, target.ret))
    }
}

/// Where a call's return value goes.
#[derive(Copy, Clone, Debug)]
enum CallDst {
    /// No destination (`foo();` as a statement).
    Discard,
    /// A fresh temporary (call in expression position).
    Fresh,
    /// An existing variable (`x = foo();`).
    Into(VarId),
}
