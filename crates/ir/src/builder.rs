//! Programmatic construction of [`Program`]s.
//!
//! [`ProgramBuilder`] owns all entity tables while the program is under
//! construction; [`MethodBuilder`] provides a structured-emission API for
//! method bodies (with `if`/`while` nesting handled by a block stack).
//!
//! Classes may be declared before their superclasses are known
//! ([`ProgramBuilder::set_superclass`]), which lets frontends resolve
//! forward references with a simple two-pass scheme.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use crate::ids::{CallSiteId, CastId, ClassId, FieldId, LoadId, MethodId, ObjId, StoreId, VarId};
use crate::program::{
    CallSite, CastSite, Class, Field, LoadSite, Method, MethodKind, ObjInfo, Program, SigId,
    StoreSite, VTable, VarInfo,
};
use crate::stmt::{BinOp, CallKind, Stmt};
use crate::ty::Type;

/// Error produced by [`ProgramBuilder::finish`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// No entry point was set.
    MissingEntry,
    /// The entry point must be a static method without parameters.
    InvalidEntry(String),
    /// The class hierarchy contains a cycle involving the named class.
    HierarchyCycle(String),
    /// Two methods with the same name in one class (overloading is not
    /// supported).
    DuplicateMethod(String, String),
    /// Two fields with the same name in one class.
    DuplicateField(String, String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::MissingEntry => write!(f, "no entry point was set"),
            BuildError::InvalidEntry(m) => {
                write!(f, "entry point `{m}` must be static with no parameters")
            }
            BuildError::HierarchyCycle(c) => {
                write!(f, "class hierarchy cycle involving `{c}`")
            }
            BuildError::DuplicateMethod(c, m) => {
                write!(f, "duplicate method `{m}` in class `{c}`")
            }
            BuildError::DuplicateField(c, fd) => {
                write!(f, "duplicate field `{fd}` in class `{c}`")
            }
        }
    }
}

impl Error for BuildError {}

/// Incrementally builds a [`Program`].
///
/// # Examples
///
/// ```
/// use csc_ir::{ProgramBuilder, MethodKind, Type};
///
/// let mut pb = ProgramBuilder::new();
/// let object = pb.object_class();
/// let main_class = pb.add_class("Main", None);
/// let mut mb = pb.begin_method(main_class, "main", MethodKind::Static, &[], Type::Void);
/// let v = mb.local("x", Type::Class(object));
/// mb.new_obj(v, object, "o1");
/// let main = mb.finish();
/// pb.set_entry(main);
/// let program = pb.finish()?;
/// assert_eq!(program.objs().len(), 1);
/// # Ok::<(), csc_ir::BuildError>(())
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    classes: Vec<Class>,
    fields: Vec<Field>,
    methods: Vec<Method>,
    vars: Vec<VarInfo>,
    objs: Vec<ObjInfo>,
    call_sites: Vec<CallSite>,
    loads: Vec<LoadSite>,
    stores: Vec<StoreSite>,
    casts: Vec<CastSite>,
    sigs: Vec<(String, Vec<Type>)>,
    /// Keyed by source text, so it keeps std's randomly keyed hasher: a
    /// fixed hash would let crafted names collide.
    sig_map: HashMap<(String, Vec<Type>), SigId>,
    object_class: ClassId,
    entry: Option<MethodId>,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// Creates a builder with the root `Object` class already declared.
    pub fn new() -> Self {
        let mut pb = ProgramBuilder {
            classes: Vec::new(),
            fields: Vec::new(),
            methods: Vec::new(),
            vars: Vec::new(),
            objs: Vec::new(),
            call_sites: Vec::new(),
            loads: Vec::new(),
            stores: Vec::new(),
            casts: Vec::new(),
            sigs: Vec::new(),
            sig_map: HashMap::new(),
            object_class: ClassId::new(0),
            entry: None,
        };
        let object = pb.push_class("Object", None, false);
        pb.object_class = object;
        pb
    }

    /// The root of the class hierarchy.
    pub fn object_class(&self) -> ClassId {
        self.object_class
    }

    fn push_class(
        &mut self,
        name: &str,
        superclass: Option<ClassId>,
        is_abstract: bool,
    ) -> ClassId {
        let id = ClassId::from_usize(self.classes.len());
        self.classes.push(Class {
            name: name.to_owned(),
            superclass,
            fields: Vec::new(),
            methods: Vec::new(),
            is_abstract,
        });
        id
    }

    /// Declares a class. A `None` superclass means `Object`.
    pub fn add_class(&mut self, name: &str, superclass: Option<ClassId>) -> ClassId {
        let sup = superclass.unwrap_or(self.object_class);
        self.push_class(name, Some(sup), false)
    }

    /// Declares an abstract class. A `None` superclass means `Object`.
    pub fn add_abstract_class(&mut self, name: &str, superclass: Option<ClassId>) -> ClassId {
        let sup = superclass.unwrap_or(self.object_class);
        self.push_class(name, Some(sup), true)
    }

    /// Re-points the superclass of a previously declared class (frontends
    /// use this to resolve forward references).
    pub fn set_superclass(&mut self, class: ClassId, superclass: ClassId) {
        self.classes[class.index()].superclass = Some(superclass);
    }

    /// Declares an instance field.
    pub fn add_field(&mut self, class: ClassId, name: &str, ty: Type) -> FieldId {
        let id = FieldId::from_usize(self.fields.len());
        self.fields.push(Field {
            name: name.to_owned(),
            class,
            ty,
        });
        self.classes[class.index()].fields.push(id);
        id
    }

    fn intern_sig(&mut self, name: &str, params: &[Type]) -> SigId {
        let key = (name.to_owned(), params.to_vec());
        if let Some(&s) = self.sig_map.get(&key) {
            return s;
        }
        let id = SigId(u32::try_from(self.sigs.len()).expect("too many signatures"));
        self.sigs.push(key.clone());
        self.sig_map.insert(key, id);
        id
    }

    fn new_var(&mut self, name: &str, method: MethodId, ty: Type) -> VarId {
        let id = VarId::from_usize(self.vars.len());
        self.vars.push(VarInfo {
            name: name.to_owned(),
            method,
            ty,
        });
        id
    }

    /// Starts a method and returns a [`MethodBuilder`] for its body.
    /// `this`, parameter, and return variables are created eagerly.
    pub fn begin_method(
        &mut self,
        class: ClassId,
        name: &str,
        kind: MethodKind,
        params: &[(&str, Type)],
        ret_ty: Type,
    ) -> MethodBuilder<'_> {
        let id = self.push_method(class, name, kind, params, ret_ty, false);
        MethodBuilder {
            pb: self,
            method: id,
            blocks: vec![Vec::new()],
        }
    }

    /// Declares an abstract instance method (no body).
    pub fn add_abstract_method(
        &mut self,
        class: ClassId,
        name: &str,
        params: &[(&str, Type)],
        ret_ty: Type,
    ) -> MethodId {
        self.push_method(class, name, MethodKind::Instance, params, ret_ty, true)
    }

    fn push_method(
        &mut self,
        class: ClassId,
        name: &str,
        kind: MethodKind,
        params: &[(&str, Type)],
        ret_ty: Type,
        is_abstract: bool,
    ) -> MethodId {
        let id = MethodId::from_usize(self.methods.len());
        let param_types: Vec<Type> = params.iter().map(|&(_, t)| t).collect();
        let sig = self.intern_sig(name, &param_types);
        let this_var = if kind == MethodKind::Static {
            None
        } else {
            Some(self.new_var("this", id, Type::Class(class)))
        };
        let param_vars: Vec<VarId> = params
            .iter()
            .map(|&(n, t)| self.new_var(n, id, t))
            .collect();
        let ret_var = if ret_ty == Type::Void {
            None
        } else {
            Some(self.new_var("@ret", id, ret_ty))
        };
        let mut vars: Vec<VarId> = Vec::new();
        vars.extend(this_var);
        vars.extend(param_vars.iter().copied());
        vars.extend(ret_var);
        self.methods.push(Method {
            name: name.to_owned(),
            class,
            kind,
            sig,
            param_types,
            ret_ty,
            this_var,
            params: param_vars,
            ret_var,
            vars,
            body: Vec::new(),
            is_abstract,
        });
        self.classes[class.index()].methods.push(id);
        id
    }

    /// Sets the program entry point.
    pub fn set_entry(&mut self, method: MethodId) {
        self.entry = Some(method);
    }

    /// Read access to a method under construction (frontends use this for
    /// parameter variables during lowering).
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// Read access to a class under construction.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Read access to a field under construction.
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.index()]
    }

    /// Read access to a variable.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.index()]
    }

    /// Number of classes declared so far.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Resumes body construction for an already-declared method. Frontends
    /// that declare all signatures first and lower bodies second use this.
    ///
    /// # Panics
    ///
    /// Panics if the method is abstract.
    pub fn resume_method(&mut self, id: MethodId) -> MethodBuilder<'_> {
        assert!(
            !self.methods[id.index()].is_abstract,
            "cannot build a body for an abstract method"
        );
        MethodBuilder {
            pb: self,
            method: id,
            blocks: vec![Vec::new()],
        }
    }

    /// Validates the program, computes dispatch tables and ancestor chains,
    /// and yields the immutable [`Program`].
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if the entry point is missing or invalid, if
    /// the hierarchy has a cycle, or if a class declares duplicate member
    /// names.
    pub fn finish(self) -> Result<Program, BuildError> {
        let entry = self.entry.ok_or(BuildError::MissingEntry)?;
        {
            let m = &self.methods[entry.index()];
            if m.kind != MethodKind::Static || !m.params.is_empty() {
                return Err(BuildError::InvalidEntry(m.name.clone()));
            }
        }

        // Ancestor chains + cycle detection.
        let n = self.classes.len();
        let mut ancestors: Vec<Vec<ClassId>> = Vec::with_capacity(n);
        for c in 0..n {
            let mut chain = Vec::new();
            let mut cur = Some(ClassId::from_usize(c));
            while let Some(id) = cur {
                if chain.len() > n {
                    return Err(BuildError::HierarchyCycle(self.classes[c].name.clone()));
                }
                chain.push(id);
                cur = self.classes[id.index()].superclass;
            }
            ancestors.push(chain);
        }

        // Duplicate-member checks.
        let mut seen: HashSet<&str> = HashSet::new();
        for class in &self.classes {
            seen.clear();
            for &m in &class.methods {
                let name = &self.methods[m.index()].name;
                if !seen.insert(name.as_str()) {
                    return Err(BuildError::DuplicateMethod(
                        class.name.clone(),
                        name.clone(),
                    ));
                }
            }
            seen.clear();
            for &f in &class.fields {
                let name = &self.fields[f.index()].name;
                if !seen.insert(name.as_str()) {
                    return Err(BuildError::DuplicateField(class.name.clone(), name.clone()));
                }
            }
        }

        // Dispatch tables, parents first (ancestor chains give a valid
        // topological handle: process by increasing chain length).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&c| ancestors[c].len());
        let mut vtables: Vec<VTable> = vec![VTable::default(); n];
        for &c in &order {
            let mut table = match self.classes[c].superclass {
                Some(sup) => vtables[sup.index()].clone(),
                None => VTable::default(),
            };
            for &m in &self.classes[c].methods {
                let method = &self.methods[m.index()];
                if method.kind != MethodKind::Static && !method.is_abstract {
                    table.insert(method.sig, m);
                }
            }
            vtables[c] = table;
        }

        Ok(Program {
            classes: self.classes,
            fields: self.fields,
            methods: self.methods,
            vars: self.vars,
            objs: self.objs,
            call_sites: self.call_sites,
            loads: self.loads,
            stores: self.stores,
            casts: self.casts,
            sigs: self.sigs,
            entry,
            object_class: self.object_class,
            vtables,
            ancestors,
        })
    }
}

/// Removes the unique `rv = x` assignment from a body (helper for the
/// single-return simplification in [`MethodBuilder::finish`]).
fn remove_ret_assign(body: &mut Vec<Stmt>, rv: VarId) {
    body.retain(|s| !matches!(s, Stmt::Assign { lhs, .. } if *lhs == rv));
    for s in body {
        match s {
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                remove_ret_assign(then_branch, rv);
                remove_ret_assign(else_branch, rv);
            }
            Stmt::While {
                cond_stmts, body, ..
            } => {
                remove_ret_assign(cond_stmts, rv);
                remove_ret_assign(body, rv);
            }
            _ => {}
        }
    }
}

/// Emits statements into one method's body.
///
/// Obtained from [`ProgramBuilder::begin_method`]. Dropping the builder
/// without calling [`MethodBuilder::finish`] discards the emitted body.
#[derive(Debug)]
pub struct MethodBuilder<'p> {
    pb: &'p mut ProgramBuilder,
    method: MethodId,
    blocks: Vec<Vec<Stmt>>,
}

impl MethodBuilder<'_> {
    /// The id of the method under construction.
    pub fn id(&self) -> MethodId {
        self.method
    }

    /// The `this` variable (absent for static methods).
    pub fn this(&self) -> Option<VarId> {
        self.pb.methods[self.method.index()].this_var
    }

    /// The `i`-th declared parameter (0-based, excluding `this`).
    pub fn param(&self, i: usize) -> VarId {
        self.pb.methods[self.method.index()].params[i]
    }

    /// The synthetic return variable (absent for `void`).
    pub fn ret_var(&self) -> Option<VarId> {
        self.pb.methods[self.method.index()].ret_var
    }

    /// The declared type of any variable created so far.
    pub fn var_ty(&self, v: VarId) -> Type {
        self.pb.vars[v.index()].ty
    }

    /// Declares a fresh local variable.
    pub fn local(&mut self, name: &str, ty: Type) -> VarId {
        let v = self.pb.new_var(name, self.method, ty);
        self.pb.methods[self.method.index()].vars.push(v);
        v
    }

    fn emit(&mut self, s: Stmt) {
        self.blocks
            .last_mut()
            .expect("block stack non-empty")
            .push(s);
    }

    /// Emits `lhs = new C()` and returns the allocation site.
    pub fn new_obj(&mut self, lhs: VarId, class: ClassId, label: &str) -> ObjId {
        let obj = ObjId::from_usize(self.pb.objs.len());
        self.pb.objs.push(ObjInfo {
            class,
            method: self.method,
            label: label.to_owned(),
        });
        self.emit(Stmt::New { lhs, obj });
        obj
    }

    /// Emits `lhs = rhs`.
    pub fn assign(&mut self, lhs: VarId, rhs: VarId) {
        self.emit(Stmt::Assign { lhs, rhs });
    }

    /// Emits `lhs = (ty) rhs` and returns the cast site.
    pub fn cast(&mut self, lhs: VarId, ty: Type, rhs: VarId) -> CastId {
        let id = CastId::from_usize(self.pb.casts.len());
        self.pb.casts.push(CastSite {
            method: self.method,
            lhs,
            rhs,
            ty,
        });
        self.emit(Stmt::Cast(id));
        id
    }

    /// Emits `lhs = base.field` and returns the load site.
    pub fn load(&mut self, lhs: VarId, base: VarId, field: FieldId) -> LoadId {
        let id = LoadId::from_usize(self.pb.loads.len());
        self.pb.loads.push(LoadSite {
            method: self.method,
            lhs,
            base,
            field,
        });
        self.emit(Stmt::Load(id));
        id
    }

    /// Emits `base.field = rhs` and returns the store site.
    pub fn store(&mut self, base: VarId, field: FieldId, rhs: VarId) -> StoreId {
        let id = StoreId::from_usize(self.pb.stores.len());
        self.pb.stores.push(StoreSite {
            method: self.method,
            base,
            field,
            rhs,
        });
        self.emit(Stmt::Store(id));
        id
    }

    /// Emits a call and returns the call site. `recv` must be `Some` exactly
    /// for non-static calls.
    pub fn call(
        &mut self,
        kind: CallKind,
        lhs: Option<VarId>,
        recv: Option<VarId>,
        target: MethodId,
        args: &[VarId],
    ) -> CallSiteId {
        debug_assert_eq!(
            recv.is_some(),
            kind != CallKind::Static,
            "receiver must be present iff the call is not static"
        );
        let id = CallSiteId::from_usize(self.pb.call_sites.len());
        self.pb.call_sites.push(CallSite {
            method: self.method,
            kind,
            lhs,
            recv,
            args: args.to_vec(),
            target,
        });
        self.emit(Stmt::Call(id));
        id
    }

    /// Emits `return v;` (lowered to an assignment to the return variable
    /// followed by a bare `Return`).
    pub fn ret(&mut self, v: Option<VarId>) {
        if let (Some(rv), Some(v)) = (self.ret_var(), v) {
            self.emit(Stmt::Assign { lhs: rv, rhs: v });
        }
        self.emit(Stmt::Return);
    }

    /// Emits `lhs = value` for an integer literal.
    pub fn const_int(&mut self, lhs: VarId, value: i64) {
        self.emit(Stmt::ConstInt { lhs, value });
    }

    /// Emits `lhs = value` for a boolean literal.
    pub fn const_bool(&mut self, lhs: VarId, value: bool) {
        self.emit(Stmt::ConstBool { lhs, value });
    }

    /// Emits `lhs = null`.
    pub fn const_null(&mut self, lhs: VarId) {
        self.emit(Stmt::ConstNull { lhs });
    }

    /// Emits `lhs = a <op> b`.
    pub fn bin_op(&mut self, lhs: VarId, op: BinOp, a: VarId, b: VarId) {
        self.emit(Stmt::BinOp { lhs, op, a, b });
    }

    /// Emits a structured `if`.
    pub fn if_else(
        &mut self,
        cond: VarId,
        then_f: impl FnOnce(&mut Self),
        else_f: impl FnOnce(&mut Self),
    ) {
        self.blocks.push(Vec::new());
        then_f(self);
        let then_branch = self.blocks.pop().expect("then block");
        self.blocks.push(Vec::new());
        else_f(self);
        let else_branch = self.blocks.pop().expect("else block");
        self.emit(Stmt::If {
            cond,
            then_branch,
            else_branch,
        });
    }

    /// Emits a structured `while`. `cond_f` emits the statements that
    /// (re)compute the condition before each check and returns the condition
    /// variable.
    pub fn while_loop(
        &mut self,
        cond_f: impl FnOnce(&mut Self) -> VarId,
        body_f: impl FnOnce(&mut Self),
    ) {
        self.blocks.push(Vec::new());
        let cond = cond_f(self);
        let cond_stmts = self.blocks.pop().expect("cond block");
        self.blocks.push(Vec::new());
        body_f(self);
        let body = self.blocks.pop().expect("body block");
        self.emit(Stmt::While {
            cond_stmts,
            cond,
            body,
        });
    }

    /// Opens a fresh nested block; statements emitted afterwards go into it
    /// until [`MethodBuilder::pop_block`]. Lower-level alternative to
    /// [`MethodBuilder::if_else`] / [`MethodBuilder::while_loop`] for
    /// recursive lowering code that cannot use closures.
    pub fn push_block(&mut self) {
        self.blocks.push(Vec::new());
    }

    /// Closes the innermost nested block and returns its statements.
    ///
    /// # Panics
    ///
    /// Panics when called without a matching [`MethodBuilder::push_block`].
    pub fn pop_block(&mut self) -> Vec<Stmt> {
        assert!(self.blocks.len() > 1, "pop_block without push_block");
        self.blocks.pop().expect("non-empty block stack")
    }

    /// Emits a structured `if` from pre-built branches.
    pub fn emit_if(&mut self, cond: VarId, then_branch: Vec<Stmt>, else_branch: Vec<Stmt>) {
        self.emit(Stmt::If {
            cond,
            then_branch,
            else_branch,
        });
    }

    /// Emits a structured `while` from pre-built condition and body blocks.
    pub fn emit_while(&mut self, cond_stmts: Vec<Stmt>, cond: VarId, body: Vec<Stmt>) {
        self.emit(Stmt::While {
            cond_stmts,
            cond,
            body,
        });
    }

    /// Installs the accumulated body into the method and returns its id.
    ///
    /// Methods with exactly one `return v;` statement are simplified: the
    /// synthetic `@ret` variable is dropped and `v` itself becomes the
    /// method's return variable. This mirrors the IR of the paper's Tai-e
    /// implementation, where `m_ret` *is* the returned variable — the
    /// Cut-Shortcut field-access and local-flow rules match on it directly.
    pub fn finish(mut self) -> MethodId {
        let mut body = self.blocks.pop().expect("root block");
        assert!(self.blocks.is_empty(), "unbalanced block stack");
        if let Some(rv) = self.pb.methods[self.method.index()].ret_var {
            let mut ret_assign_rhs: Vec<VarId> = Vec::new();
            crate::stmt::visit_all(&body, &mut |s| {
                if let Stmt::Assign { lhs, rhs } = s {
                    if *lhs == rv {
                        ret_assign_rhs.push(*rhs);
                    }
                }
            });
            if let [single] = ret_assign_rhs[..] {
                remove_ret_assign(&mut body, rv);
                self.pb.methods[self.method.index()].ret_var = Some(single);
            }
        }
        self.pb.methods[self.method.index()].body = body;
        self.method
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_minimal_program() {
        let mut pb = ProgramBuilder::new();
        let object = pb.object_class();
        let main_class = pb.add_class("Main", None);
        let mut mb = pb.begin_method(main_class, "main", MethodKind::Static, &[], Type::Void);
        let x = mb.local("x", Type::Class(object));
        mb.new_obj(x, object, "o@1");
        let main = mb.finish();
        pb.set_entry(main);
        let p = pb.finish().unwrap();
        assert_eq!(p.entry(), main);
        assert_eq!(p.objs().len(), 1);
        assert_eq!(p.obj(ObjId::new(0)).class(), object);
        assert_eq!(p.stmt_count(), 1);
    }

    #[test]
    fn missing_entry_is_an_error() {
        let pb = ProgramBuilder::new();
        assert_eq!(pb.finish().unwrap_err(), BuildError::MissingEntry);
    }

    #[test]
    fn entry_must_be_static_parameterless() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        let m = pb
            .begin_method(c, "run", MethodKind::Instance, &[], Type::Void)
            .finish();
        pb.set_entry(m);
        assert!(matches!(pb.finish(), Err(BuildError::InvalidEntry(_))));
    }

    #[test]
    fn dispatch_resolves_overrides() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A", None);
        let b = pb.add_class("B", Some(a));
        let c = pb.add_class("C", Some(b));
        let m_a = pb
            .begin_method(a, "m", MethodKind::Instance, &[], Type::Void)
            .finish();
        let m_b = pb
            .begin_method(b, "m", MethodKind::Instance, &[], Type::Void)
            .finish();
        let main_class = pb.add_class("Main", None);
        let main = pb
            .begin_method(main_class, "main", MethodKind::Static, &[], Type::Void)
            .finish();
        pb.set_entry(main);
        let p = pb.finish().unwrap();
        assert_eq!(p.dispatch(a, m_a), Some(m_a));
        assert_eq!(p.dispatch(b, m_a), Some(m_b));
        assert_eq!(p.dispatch(c, m_a), Some(m_b), "C inherits B.m");
        assert_eq!(p.dispatch(c, m_b), Some(m_b));
    }

    #[test]
    fn abstract_methods_are_not_dispatch_targets() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_abstract_class("A", None);
        let b = pb.add_class("B", Some(a));
        let m_a = pb.add_abstract_method(a, "m", &[], Type::Void);
        let m_b = pb
            .begin_method(b, "m", MethodKind::Instance, &[], Type::Void)
            .finish();
        let main_class = pb.add_class("Main", None);
        let main = pb
            .begin_method(main_class, "main", MethodKind::Static, &[], Type::Void)
            .finish();
        pb.set_entry(main);
        let p = pb.finish().unwrap();
        assert_eq!(p.dispatch(a, m_a), None, "A has no concrete m");
        assert_eq!(p.dispatch(b, m_a), Some(m_b));
    }

    #[test]
    fn subtyping_and_resolution() {
        let mut pb = ProgramBuilder::new();
        let object = pb.object_class();
        let a = pb.add_class("A", None);
        let b = pb.add_class("B", Some(a));
        let f = pb.add_field(a, "f", Type::Class(object));
        let main_class = pb.add_class("Main", None);
        let main = pb
            .begin_method(main_class, "main", MethodKind::Static, &[], Type::Void)
            .finish();
        pb.set_entry(main);
        let p = pb.finish().unwrap();
        assert!(p.is_subtype(Type::Class(b), Type::Class(a)));
        assert!(p.is_subtype(Type::Class(b), Type::Class(object)));
        assert!(!p.is_subtype(Type::Class(a), Type::Class(b)));
        assert!(p.is_subtype(Type::Null, Type::Class(a)));
        assert!(!p.is_subtype(Type::Int, Type::Class(a)));
        assert!(p.is_subtype(Type::Int, Type::Int));
        assert_eq!(p.resolve_field(b, "f"), Some(f), "fields are inherited");
        assert_eq!(p.resolve_field(b, "g"), None);
        assert_eq!(p.class_by_name("B"), Some(b));
        assert_eq!(p.method_by_qualified_name("Main.main"), Some(main));
    }

    #[test]
    fn duplicate_method_detected() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        pb.begin_method(c, "m", MethodKind::Instance, &[], Type::Void)
            .finish();
        pb.begin_method(
            c,
            "m",
            MethodKind::Instance,
            &[("x", Type::Int)],
            Type::Void,
        )
        .finish();
        let main_class = pb.add_class("Main", None);
        let main = pb
            .begin_method(main_class, "main", MethodKind::Static, &[], Type::Void)
            .finish();
        pb.set_entry(main);
        assert!(matches!(pb.finish(), Err(BuildError::DuplicateMethod(..))));
    }

    #[test]
    fn hierarchy_cycle_detected() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A", None);
        let b = pb.add_class("B", Some(a));
        pb.set_superclass(a, b);
        let main_class = pb.add_class("Main", None);
        let main = pb
            .begin_method(main_class, "main", MethodKind::Static, &[], Type::Void)
            .finish();
        pb.set_entry(main);
        assert!(matches!(pb.finish(), Err(BuildError::HierarchyCycle(_))));
    }

    #[test]
    fn nested_blocks_emit_structured_stmts() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("Main", None);
        let mut mb = pb.begin_method(c, "main", MethodKind::Static, &[], Type::Void);
        let i = mb.local("i", Type::Int);
        let cond = mb.local("c", Type::Boolean);
        let zero = mb.local("z", Type::Int);
        mb.const_int(i, 0);
        mb.const_int(zero, 10);
        mb.while_loop(
            |b| {
                b.bin_op(cond, BinOp::Lt, i, zero);
                cond
            },
            |b| {
                b.if_else(cond, |b| b.const_int(i, 1), |b| b.const_int(i, 2));
            },
        );
        let main = mb.finish();
        pb.set_entry(main);
        let p = pb.finish().unwrap();
        let mut kinds = Vec::new();
        p.method(main).visit_stmts(|s| {
            kinds.push(std::mem::discriminant(s));
        });
        // ConstInt, ConstInt, While, BinOp, If, ConstInt, ConstInt
        assert_eq!(kinds.len(), 7);
    }

    #[test]
    fn single_return_aliases_ret_var() {
        let mut pb = ProgramBuilder::new();
        let object = pb.object_class();
        let c = pb.add_class("C", None);
        let mut mb = pb.begin_method(
            c,
            "id",
            MethodKind::Instance,
            &[("x", Type::Class(object))],
            Type::Class(object),
        );
        let x = mb.param(0);
        mb.ret(Some(x));
        let id = mb.finish();
        let main_class = pb.add_class("Main", None);
        let main = pb
            .begin_method(main_class, "main", MethodKind::Static, &[], Type::Void)
            .finish();
        pb.set_entry(main);
        let p = pb.finish().unwrap();
        let m = p.method(id);
        // Single-return simplification: the returned variable becomes the
        // return variable and the copy disappears.
        assert_eq!(m.ret_var(), Some(x));
        let mut saw_assign = false;
        m.visit_stmts(|s| {
            if matches!(s, Stmt::Assign { .. }) {
                saw_assign = true;
            }
        });
        assert!(!saw_assign, "the @ret copy must be removed");
    }

    #[test]
    fn multiple_returns_keep_ret_var() {
        let mut pb = ProgramBuilder::new();
        let object = pb.object_class();
        let c = pb.add_class("C", None);
        let mut mb = pb.begin_method(
            c,
            "pick",
            MethodKind::Instance,
            &[("a", Type::Class(object)), ("b", Type::Class(object))],
            Type::Class(object),
        );
        let a = mb.param(0);
        let b = mb.param(1);
        let rv = mb.ret_var().unwrap();
        let cond = mb.local("c", Type::Boolean);
        mb.const_bool(cond, true);
        mb.if_else(cond, |m| m.ret(Some(a)), |m| m.ret(Some(b)));
        let pick = mb.finish();
        let main_class = pb.add_class("Main", None);
        let main = pb
            .begin_method(main_class, "main", MethodKind::Static, &[], Type::Void)
            .finish();
        pb.set_entry(main);
        let p = pb.finish().unwrap();
        let m = p.method(pick);
        assert_eq!(m.ret_var(), Some(rv), "two returns: @ret kept");
        let mut assigns = 0;
        m.visit_stmts(|s| {
            if matches!(s, Stmt::Assign { .. }) {
                assigns += 1;
            }
        });
        assert_eq!(assigns, 2);
    }
}
