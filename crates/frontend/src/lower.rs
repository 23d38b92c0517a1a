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

use std::collections::HashMap;

use csc_ir::{
    BinOp, CallKind, ClassId, FieldId, MethodBuilder, MethodId, MethodKind, Program,
    ProgramBuilder, Type, VarId,
};

use crate::ast::{ABinOp, AStmt, Expr, SourceProgram, Target, TypeName};
use crate::error::{FrontendError, Pos, Result};

/// Per-class symbol information.
struct ClassSym {
    id: ClassId,
    name: String,
    superclass: Option<usize>,
    is_abstract: bool,
    fields: HashMap<String, (FieldId, Type)>,
    methods: HashMap<String, MethodSym>,
}

/// Per-method symbol information.
struct MethodSym {
    id: MethodId,
    is_static: bool,
    params: Vec<Type>,
    ret: Type,
}

struct SymTab {
    /// Indexed by [`ClassId`]: the builder numbers classes in declaration
    /// order, `Object` first, and so does this table.
    classes: Vec<ClassSym>,
    by_name: HashMap<String, usize>,
}

impl SymTab {
    fn class(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Inclusive ancestor chain indices, self first.
    fn ancestors(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(c), |&c| self.classes[c].superclass)
    }

    fn resolve_field(&self, class: usize, name: &str) -> Option<(FieldId, Type)> {
        self.ancestors(class)
            .find_map(|c| self.classes[c].fields.get(name).copied())
    }

    fn resolve_method(&self, class: usize, name: &str) -> Option<&MethodSym> {
        self.ancestors(class)
            .find_map(|c| self.classes[c].methods.get(name))
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
                Some(i) => self.classes[i].name.clone(),
                None => format!("{id}"),
            },
        }
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
    let mut pb = ProgramBuilder::new();
    let object = pb.object_class();

    // Pass 1: declare classes.
    let mut symtab = SymTab {
        classes: vec![ClassSym {
            id: object,
            name: "Object".to_owned(),
            superclass: None,
            is_abstract: false,
            fields: HashMap::new(),
            methods: HashMap::new(),
        }],
        by_name: HashMap::from([("Object".to_owned(), 0usize)]),
    };
    for decl in &ast.classes {
        if symtab.by_name.contains_key(&decl.name) {
            return Err(FrontendError::new(
                decl.pos,
                format!("duplicate class `{}`", decl.name),
            ));
        }
        let id = if decl.is_abstract {
            pb.add_abstract_class(&decl.name, None)
        } else {
            pb.add_class(&decl.name, None)
        };
        debug_assert_eq!(
            id.index(),
            symtab.classes.len(),
            "class ids are table indices"
        );
        symtab
            .by_name
            .insert(decl.name.clone(), symtab.classes.len());
        symtab.classes.push(ClassSym {
            id,
            name: decl.name.clone(),
            superclass: Some(0),
            is_abstract: decl.is_abstract,
            fields: HashMap::new(),
            methods: HashMap::new(),
        });
    }

    // Pass 2: superclasses + cycle detection.
    for decl in &ast.classes {
        let idx = symtab.class(&decl.name).expect("declared in pass 1");
        if let Some(sup_name) = &decl.superclass {
            let sup = symtab.class(sup_name).ok_or_else(|| {
                FrontendError::new(decl.pos, format!("unknown superclass `{sup_name}`"))
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
                    format!(
                        "class hierarchy cycle involving `{}`",
                        symtab.classes[i].name
                    ),
                ));
            }
        }
    }

    let resolve_ty = |symtab: &SymTab, ty: &TypeName, pos: Pos| -> Result<Type> {
        match ty {
            TypeName::Int => Ok(Type::Int),
            TypeName::Boolean => Ok(Type::Boolean),
            TypeName::Void => Ok(Type::Void),
            TypeName::Named(n) => symtab
                .class(n)
                .map(|i| Type::Class(symtab.classes[i].id))
                .ok_or_else(|| FrontendError::new(pos, format!("unknown type `{n}`"))),
        }
    };

    // Pass 3: fields and method signatures.
    let mut bodies: Vec<(usize, MethodId, &crate::ast::MethodDecl)> = Vec::new();
    for decl in &ast.classes {
        let idx = symtab.class(&decl.name).expect("declared");
        let class_id = symtab.classes[idx].id;
        for field in &decl.fields {
            let ty = resolve_ty(&symtab, &field.ty, field.pos)?;
            if ty == Type::Void {
                return Err(FrontendError::new(
                    field.pos,
                    "fields cannot have type void",
                ));
            }
            if symtab.classes[idx].fields.contains_key(&field.name) {
                return Err(FrontendError::new(
                    field.pos,
                    format!("duplicate field `{}`", field.name),
                ));
            }
            let fid = pb.add_field(class_id, &field.name, ty);
            symtab.classes[idx]
                .fields
                .insert(field.name.clone(), (fid, ty));
        }
        for method in &decl.methods {
            let ret = resolve_ty(&symtab, &method.ret, method.pos)?;
            let mut param_tys = Vec::new();
            let mut params: Vec<(&str, Type)> = Vec::new();
            for (ty, name) in &method.params {
                let t = resolve_ty(&symtab, ty, method.pos)?;
                if t == Type::Void {
                    return Err(FrontendError::new(method.pos, "parameters cannot be void"));
                }
                param_tys.push(t);
                params.push((name.as_str(), t));
            }
            if symtab.classes[idx].methods.contains_key(&method.name) {
                return Err(FrontendError::new(
                    method.pos,
                    format!(
                        "duplicate method `{}` (overloading is not supported)",
                        method.name
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
            let mid = if method.is_abstract {
                pb.add_abstract_method(class_id, &method.name, &params, ret)
            } else {
                let mb = pb.begin_method(class_id, &method.name, kind, &params, ret);
                mb.finish()
            };
            symtab.classes[idx].methods.insert(
                method.name.clone(),
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
    for (class_idx, mid, method) in bodies {
        let mb = pb.resume_method(mid);
        let mut ctx = BodyCtx {
            symtab: &symtab,
            class_idx,
            ret: resolve_ty(&symtab, &method.ret, method.pos)?,
            is_ctor: method.is_ctor,
            mb,
            scopes: vec![HashMap::new()],
            tmp_count: 0,
        };
        for (i, (_, name)) in method.params.iter().enumerate() {
            let v = ctx.mb.param(i);
            ctx.scopes[0].insert(name.clone(), v);
        }
        let body = method.body.as_ref().expect("collected only with body");
        for stmt in body {
            ctx.stmt(stmt)?;
        }
        ctx.mb.finish();
    }

    // Entry point: prefer `Main.main`, else a unique `static void main()`.
    let mut mains: Vec<(usize, MethodId)> = Vec::new();
    for (i, class) in symtab.classes.iter().enumerate() {
        if let Some(m) = class.methods.get("main") {
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
            .find(|&&(i, _)| symtab.classes[i].name == "Main")
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
    symtab: &'a SymTab,
    class_idx: usize,
    ret: Type,
    is_ctor: bool,
    mb: MethodBuilder<'p>,
    scopes: Vec<HashMap<String, VarId>>,
    tmp_count: u32,
}

impl BodyCtx<'_, '_> {
    fn lookup(&self, name: &str) -> Option<VarId> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn fresh(&mut self, ty: Type) -> VarId {
        self.tmp_count += 1;
        self.mb.local(&format!("$t{}", self.tmp_count), ty)
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

    // ---- statements -----------------------------------------------------

    fn stmt(&mut self, s: &AStmt) -> Result<()> {
        match s {
            AStmt::Decl {
                ty,
                name,
                init,
                pos,
            } => {
                let ty = self.resolve_ty(ty, *pos)?;
                if self
                    .scopes
                    .last()
                    .expect("scope stack non-empty")
                    .contains_key(name)
                {
                    return Err(FrontendError::new(
                        *pos,
                        format!("duplicate variable `{name}`"),
                    ));
                }
                let v = self.mb.local(name, ty);
                self.scopes
                    .last_mut()
                    .expect("scope stack non-empty")
                    .insert(name.clone(), v);
                if let Some(init) = init {
                    self.expr_into(v, ty, init)?;
                }
                Ok(())
            }
            AStmt::Assign { target, value, pos } => match target {
                Target::Var(name, vpos) => {
                    if let Some(v) = self.lookup(name) {
                        self.expr_into(v, self.mb.var_ty(v), value)?;
                        Ok(())
                    } else if let Some((fid, fty)) = self.symtab.resolve_field(self.class_idx, name)
                    {
                        // Implicit `this.name = value`.
                        let this = self.this_var(*vpos)?;
                        let (rv, rt) = self.expr(value)?;
                        self.check_assign(fty, rt, *pos)?;
                        self.mb.store(this, fid, rv);
                        Ok(())
                    } else {
                        Err(FrontendError::new(
                            *vpos,
                            format!("unknown variable `{name}`"),
                        ))
                    }
                }
                Target::Field { base, name, pos } => {
                    let (bv, bt) = self.expr(base)?;
                    let bclass = self.class_of(bt, *pos)?;
                    let (fid, fty) = self.symtab.resolve_field(bclass, name).ok_or_else(|| {
                        FrontendError::new(
                            *pos,
                            format!(
                                "class `{}` has no field `{name}`",
                                self.symtab.classes[bclass].name
                            ),
                        )
                    })?;
                    let (rv, rt) = self.expr(value)?;
                    self.check_assign(fty, rt, *pos)?;
                    self.mb.store(bv, fid, rv);
                    Ok(())
                }
            },
            AStmt::ExprStmt(e) => {
                match e {
                    Expr::Call { .. } => {
                        self.call_expr(e, CallDst::Discard)?;
                    }
                    Expr::New { .. } => {
                        self.expr(e)?;
                    }
                    other => {
                        return Err(FrontendError::new(
                            other.pos(),
                            "only calls and allocations may be used as statements",
                        ))
                    }
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
                    return Err(FrontendError::new(*pos, "condition must be boolean"));
                }
                self.mb.push_block();
                self.scopes.push(HashMap::new());
                for s in then_branch {
                    self.stmt(s)?;
                }
                self.scopes.pop();
                let then_stmts = self.mb.pop_block();
                self.mb.push_block();
                self.scopes.push(HashMap::new());
                for s in else_branch {
                    self.stmt(s)?;
                }
                self.scopes.pop();
                let else_stmts = self.mb.pop_block();
                self.mb.emit_if(cv, then_stmts, else_stmts);
                Ok(())
            }
            AStmt::While { cond, body, pos } => {
                self.mb.push_block();
                let (cv, ct) = self.expr(cond)?;
                let cond_stmts = self.mb.pop_block();
                if ct != Type::Boolean {
                    return Err(FrontendError::new(*pos, "condition must be boolean"));
                }
                self.mb.push_block();
                self.scopes.push(HashMap::new());
                for s in body {
                    self.stmt(s)?;
                }
                self.scopes.pop();
                let body_stmts = self.mb.pop_block();
                self.mb.emit_while(cond_stmts, cv, body_stmts);
                Ok(())
            }
            AStmt::Return { value, pos } => {
                match (value, self.ret) {
                    (None, Type::Void) => self.mb.ret(None),
                    (None, _) => {
                        return Err(FrontendError::new(*pos, "missing return value"));
                    }
                    (Some(_), Type::Void) => {
                        return Err(FrontendError::new(
                            *pos,
                            "void method cannot return a value",
                        ));
                    }
                    (Some(e), ret) => {
                        let (v, t) = self.expr(e)?;
                        self.check_assign(ret, t, *pos)?;
                        self.mb.ret(Some(v));
                    }
                }
                Ok(())
            }
            AStmt::SuperCall { args, pos } => {
                if !self.is_ctor {
                    return Err(FrontendError::new(
                        *pos,
                        "`super(..)` is only allowed in constructors",
                    ));
                }
                let sup = self.symtab.classes[self.class_idx]
                    .superclass
                    .ok_or_else(|| FrontendError::new(*pos, "`Object` has no superclass"))?;
                let ctor = self.symtab.classes[sup]
                    .methods
                    .get("<init>")
                    .ok_or_else(|| {
                        FrontendError::new(
                            *pos,
                            format!(
                                "superclass `{}` has no constructor",
                                self.symtab.classes[sup].name
                            ),
                        )
                    })?;
                let this = self.this_var(*pos)?;
                let arg_vars = self.lower_args(&ctor.params, args, *pos)?;
                self.mb
                    .call(CallKind::Special, None, Some(this), ctor.id, &arg_vars);
                Ok(())
            }
        }
    }

    fn resolve_ty(&self, ty: &TypeName, pos: Pos) -> Result<Type> {
        match ty {
            TypeName::Int => Ok(Type::Int),
            TypeName::Boolean => Ok(Type::Boolean),
            TypeName::Void => Ok(Type::Void),
            TypeName::Named(n) => self
                .symtab
                .class(n)
                .map(|i| Type::Class(self.symtab.classes[i].id))
                .ok_or_else(|| FrontendError::new(pos, format!("unknown type `{n}`"))),
        }
    }

    fn lower_args(&mut self, param_tys: &[Type], args: &[Expr], pos: Pos) -> Result<Vec<VarId>> {
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
        for (arg, &pt) in args.iter().zip(param_tys) {
            let (v, t) = self.expr(arg)?;
            self.check_assign(pt, t, arg.pos())?;
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
    fn expr_into(&mut self, dst: VarId, dst_ty: Type, e: &Expr) -> Result<()> {
        match e {
            Expr::Field { base, name, pos } => {
                let (bv, bt) = self.expr(base)?;
                let bclass = self.class_of(bt, *pos)?;
                let (fid, fty) = self.symtab.resolve_field(bclass, name).ok_or_else(|| {
                    FrontendError::new(
                        *pos,
                        format!(
                            "class `{}` has no field `{name}`",
                            self.symtab.classes[bclass].name
                        ),
                    )
                })?;
                self.check_assign(dst_ty, fty, *pos)?;
                self.mb.load(dst, bv, fid);
                Ok(())
            }
            Expr::Call { pos, .. } => {
                let (_, rt) = self.call_expr(e, CallDst::Into(dst))?;
                self.check_assign(dst_ty, rt, *pos)?;
                Ok(())
            }
            Expr::Cast { ty, expr, pos } => {
                let target = self
                    .symtab
                    .class(ty)
                    .map(|i| Type::Class(self.symtab.classes[i].id))
                    .ok_or_else(|| FrontendError::new(*pos, format!("unknown type `{ty}`")))?;
                let (v, t) = self.expr(expr)?;
                if !t.is_reference() {
                    return Err(FrontendError::new(*pos, "only object casts are supported"));
                }
                self.check_assign(dst_ty, target, *pos)?;
                self.mb.cast(dst, target, v);
                Ok(())
            }
            Expr::Int(v, pos) => {
                self.check_assign(dst_ty, Type::Int, *pos)?;
                self.mb.const_int(dst, *v);
                Ok(())
            }
            Expr::Bool(v, pos) => {
                self.check_assign(dst_ty, Type::Boolean, *pos)?;
                self.mb.const_bool(dst, *v);
                Ok(())
            }
            Expr::Null(pos) => {
                self.check_assign(dst_ty, Type::Null, *pos)?;
                self.mb.const_null(dst);
                Ok(())
            }
            Expr::Bin { .. } => {
                let (v, t) = self.expr(e)?;
                // Arithmetic produces a fresh temp anyway; fold the copy.
                self.check_assign(dst_ty, t, e.pos())?;
                self.mb.assign(dst, v);
                Ok(())
            }
            // `this`, variables, and `new` (whose constructor arguments may
            // mention the destination) go through a plain copy.
            _ => {
                let (v, t) = self.expr(e)?;
                self.check_assign(dst_ty, t, e.pos())?;
                self.mb.assign(dst, v);
                Ok(())
            }
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<(VarId, Type)> {
        match e {
            Expr::This(pos) => {
                let v = self.this_var(*pos)?;
                Ok((v, self.mb.var_ty(v)))
            }
            Expr::Var(name, pos) => {
                if let Some(v) = self.lookup(name) {
                    Ok((v, self.mb.var_ty(v)))
                } else if let Some((fid, fty)) = self.symtab.resolve_field(self.class_idx, name) {
                    // Implicit `this.name`.
                    let this = self.this_var(*pos)?;
                    let t = self.fresh(fty);
                    self.mb.load(t, this, fid);
                    Ok((t, fty))
                } else {
                    Err(FrontendError::new(
                        *pos,
                        format!("unknown variable `{name}`"),
                    ))
                }
            }
            Expr::Int(v, _) => {
                let t = self.fresh(Type::Int);
                self.mb.const_int(t, *v);
                Ok((t, Type::Int))
            }
            Expr::Bool(v, _) => {
                let t = self.fresh(Type::Boolean);
                self.mb.const_bool(t, *v);
                Ok((t, Type::Boolean))
            }
            Expr::Null(_) => {
                let t = self.fresh(Type::Null);
                self.mb.const_null(t);
                Ok((t, Type::Null))
            }
            Expr::New { class, args, pos } => {
                let idx = self
                    .symtab
                    .class(class)
                    .ok_or_else(|| FrontendError::new(*pos, format!("unknown class `{class}`")))?;
                let sym = &self.symtab.classes[idx];
                if sym.is_abstract {
                    return Err(FrontendError::new(
                        *pos,
                        format!("cannot instantiate abstract class `{class}`"),
                    ));
                }
                let class_id = sym.id;
                let ty = Type::Class(class_id);
                let v = self.fresh(ty);
                self.mb
                    .new_obj(v, class_id, &format!("{class}@{}", pos.line));
                // Constructors are not inherited: resolve in the exact class.
                match self.symtab.classes[idx].methods.get("<init>") {
                    Some(ctor) => {
                        let arg_vars = self.lower_args(&ctor.params, args, *pos)?;
                        self.mb
                            .call(CallKind::Special, None, Some(v), ctor.id, &arg_vars);
                    }
                    None if args.is_empty() => {}
                    None => {
                        return Err(FrontendError::new(
                            *pos,
                            format!("class `{class}` has no constructor"),
                        ));
                    }
                }
                Ok((v, ty))
            }
            Expr::Field { base, name, pos } => {
                let (bv, bt) = self.expr(base)?;
                let bclass = self.class_of(bt, *pos)?;
                let (fid, fty) = self.symtab.resolve_field(bclass, name).ok_or_else(|| {
                    FrontendError::new(
                        *pos,
                        format!(
                            "class `{}` has no field `{name}`",
                            self.symtab.classes[bclass].name
                        ),
                    )
                })?;
                let t = self.fresh(fty);
                self.mb.load(t, bv, fid);
                Ok((t, fty))
            }
            Expr::Call { .. } => {
                let (v, t) = self.call_expr(e, CallDst::Fresh)?;
                Ok((v.expect("value requested"), t))
            }
            Expr::Cast { ty, expr, pos } => {
                let target = self
                    .symtab
                    .class(ty)
                    .map(|i| Type::Class(self.symtab.classes[i].id))
                    .ok_or_else(|| FrontendError::new(*pos, format!("unknown type `{ty}`")))?;
                let (v, t) = self.expr(expr)?;
                if !t.is_reference() {
                    return Err(FrontendError::new(*pos, "only object casts are supported"));
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
                        *pos,
                        "arithmetic requires int operands; `==`/`!=` require two ints or two references",
                    ));
                }
                let t = self.fresh(result);
                self.mb.bin_op(t, irop, av, bv);
                Ok((t, result))
            }
        }
    }

    /// Lowers a call expression into the requested destination.
    fn call_expr(&mut self, e: &Expr, dst: CallDst) -> Result<(Option<VarId>, Type)> {
        let Expr::Call {
            base,
            name,
            args,
            pos,
        } = e
        else {
            unreachable!("call_expr invoked on non-call");
        };

        // Resolve the callee: static vs virtual, explicit vs implicit recv.
        let (kind, recv, target): (CallKind, Option<VarId>, &MethodSym) = match base {
            Some(b) => {
                // `Name.m(..)` where `Name` is not a variable is a static call.
                if let Expr::Var(n, npos) = &**b {
                    if self.lookup(n).is_none()
                        && self.symtab.resolve_field(self.class_idx, n).is_none()
                    {
                        let cidx = self.symtab.class(n).ok_or_else(|| {
                            FrontendError::new(*npos, format!("unknown variable or class `{n}`"))
                        })?;
                        let m = self.symtab.resolve_method(cidx, name).ok_or_else(|| {
                            FrontendError::new(*pos, format!("class `{n}` has no method `{name}`"))
                        })?;
                        if !m.is_static {
                            return Err(FrontendError::new(
                                *pos,
                                format!("method `{n}.{name}` is not static"),
                            ));
                        }
                        (CallKind::Static, None, m)
                    } else {
                        let (bv, bt) = self.expr(b)?;
                        let bclass = self.class_of(bt, *pos)?;
                        let m = self.symtab.resolve_method(bclass, name).ok_or_else(|| {
                            FrontendError::new(
                                *pos,
                                format!(
                                    "class `{}` has no method `{name}`",
                                    self.symtab.classes[bclass].name
                                ),
                            )
                        })?;
                        if m.is_static {
                            return Err(FrontendError::new(
                                *pos,
                                format!("static method `{name}` called on an instance"),
                            ));
                        }
                        (CallKind::Virtual, Some(bv), m)
                    }
                } else {
                    let (bv, bt) = self.expr(b)?;
                    let bclass = self.class_of(bt, *pos)?;
                    let m = self.symtab.resolve_method(bclass, name).ok_or_else(|| {
                        FrontendError::new(
                            *pos,
                            format!(
                                "class `{}` has no method `{name}`",
                                self.symtab.classes[bclass].name
                            ),
                        )
                    })?;
                    if m.is_static {
                        return Err(FrontendError::new(
                            *pos,
                            format!("static method `{name}` called on an instance"),
                        ));
                    }
                    (CallKind::Virtual, Some(bv), m)
                }
            }
            None => {
                let m = self
                    .symtab
                    .resolve_method(self.class_idx, name)
                    .ok_or_else(|| FrontendError::new(*pos, format!("unknown method `{name}`")))?;
                if m.is_static {
                    (CallKind::Static, None, m)
                } else {
                    let this = self.this_var(*pos)?;
                    (CallKind::Virtual, Some(this), m)
                }
            }
        };

        let arg_vars = self.lower_args(&target.params, args, *pos)?;
        let lhs = match dst {
            CallDst::Discard => None,
            CallDst::Fresh => {
                if target.ret == Type::Void {
                    return Err(FrontendError::new(
                        *pos,
                        format!("void method `{name}` used as a value"),
                    ));
                }
                Some(self.fresh(target.ret))
            }
            CallDst::Into(v) => {
                if target.ret == Type::Void {
                    return Err(FrontendError::new(
                        *pos,
                        format!("void method `{name}` used as a value"),
                    ));
                }
                Some(v)
            }
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
