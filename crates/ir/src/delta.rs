//! Program deltas: append-only entity growth plus statement removal.
//!
//! A [`ProgramDelta`] is a small edit script against a base [`Program`]:
//! add classes, methods, locals, and statements, or remove existing
//! top-level statements. [`ProgramDelta::apply`] produces the *patched*
//! program together with [`DeltaEffects`] describing exactly what changed
//! — the input the incremental solver needs to localize re-propagation.
//!
//! Design rules (what keeps incremental re-solve tractable):
//!
//! * **Entity ids are stable.** All additions append to the entity tables;
//!   nothing is renumbered. A `VarId`/`MethodId`/`ObjId` valid in the base
//!   program means the same thing in the patched program.
//! * **Additions are predictable.** Ids allocated by a delta are assigned
//!   in op order using the same allocation rules as
//!   [`crate::ProgramBuilder`] (method vars in `this`/params/`@ret` order,
//!   site-table entries appended), so a delta author can reference an
//!   entity added earlier in the *same* delta by its computed id.
//! * **Removal keeps site tables intact.** `RemoveStmt` deletes the
//!   statement from the method body only; orphaned site-table entries
//!   (loads/stores/calls/casts/objects) remain, unreferenced. Both the
//!   incremental and the from-scratch solver consume the same patched
//!   program, so the orphans are observationally irrelevant.
//!
//! The binary codec (`to_bytes`/`from_bytes`) is deliberately dumb: a
//! versioned magic header, little-endian fixed-width integers,
//! length-prefixed strings, one tag byte per enum variant. Every read is
//! bounds-checked, so truncated or corrupt input is a [`DecodeError`],
//! never a panic.

use std::fmt;

use crate::ids::{CallSiteId, CastId, ClassId, FieldId, LoadId, MethodId, ObjId, StoreId, VarId};
use crate::program::{
    CallSite, CastSite, Class, Field, LoadSite, Method, MethodKind, ObjInfo, Program, StoreSite,
    VarInfo,
};
use crate::stmt::{CallKind, Stmt};
use crate::ty::Type;

/// A statement to append to a method body. Mirrors the pointer-relevant
/// subset of [`Stmt`], with site payloads inline (the site-table entry is
/// allocated at apply time).
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaStmt {
    /// `lhs = new C()` — allocates a fresh object of `class`.
    New {
        /// Target variable.
        lhs: VarId,
        /// Class of the allocated object.
        class: ClassId,
    },
    /// `lhs = rhs`.
    Assign {
        /// Target variable.
        lhs: VarId,
        /// Source variable.
        rhs: VarId,
    },
    /// `lhs = (C) rhs`.
    Cast {
        /// Target variable.
        lhs: VarId,
        /// Source variable.
        rhs: VarId,
        /// Filter class.
        class: ClassId,
    },
    /// `lhs = base.field`.
    Load {
        /// Target variable.
        lhs: VarId,
        /// Base variable.
        base: VarId,
        /// Loaded field.
        field: FieldId,
    },
    /// `base.field = rhs`.
    Store {
        /// Base variable.
        base: VarId,
        /// Stored field.
        field: FieldId,
        /// Source variable.
        rhs: VarId,
    },
    /// A call. `recv = None` targets a static method; otherwise a virtual
    /// call dispatched on `recv`'s runtime class against `target`'s
    /// signature.
    Call {
        /// Result variable, if the result is used.
        lhs: Option<VarId>,
        /// Receiver (`None` for static calls).
        recv: Option<VarId>,
        /// Declared target method.
        target: MethodId,
        /// Arguments (excluding the receiver), one per declared parameter.
        args: Vec<VarId>,
    },
}

/// One edit operation. Ops apply in order; ids allocated by earlier ops are
/// valid in later ones.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaOp {
    /// Appends a class (optionally with reference-typed fields).
    AddClass {
        /// Class name (must be fresh).
        name: String,
        /// Superclass (defaults to `Object` at apply time when `None`).
        superclass: Option<ClassId>,
        /// Declared fields: `(name, type class)`.
        fields: Vec<(String, ClassId)>,
    },
    /// Appends an empty method; its body is filled by later `AddStmt` ops.
    AddMethod {
        /// Declaring class.
        class: ClassId,
        /// Method name (must be fresh within the class).
        name: String,
        /// Declared parameter type classes.
        params: Vec<ClassId>,
        /// Return type class (`None` = void).
        ret: Option<ClassId>,
        /// Whether the method is static (instance methods get a `this`
        /// variable and participate in dynamic dispatch).
        is_static: bool,
    },
    /// Appends a local variable to an existing method.
    AddLocal {
        /// Owning method.
        method: MethodId,
        /// Declared type class.
        class: ClassId,
    },
    /// Appends a statement to the end of a method body.
    AddStmt {
        /// Target method.
        method: MethodId,
        /// The statement.
        stmt: DeltaStmt,
    },
    /// Removes the `index`-th *top-level* statement of a method body
    /// (compound statements are removed with their whole subtree).
    RemoveStmt {
        /// Target method.
        method: MethodId,
        /// Top-level body index at the time this op applies.
        index: u32,
    },
}

/// An edit script against a base program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProgramDelta {
    /// The operations, applied in order.
    pub ops: Vec<DeltaOp>,
}

/// Entity-table sizes of a program — the "old domain" boundary between base
/// and patched entities.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EntityCounts {
    /// Number of classes.
    pub classes: usize,
    /// Number of fields.
    pub fields: usize,
    /// Number of methods.
    pub methods: usize,
    /// Number of variables.
    pub vars: usize,
    /// Number of allocation sites.
    pub objs: usize,
    /// Number of call sites.
    pub call_sites: usize,
    /// Number of load sites.
    pub loads: usize,
    /// Number of store sites.
    pub stores: usize,
    /// Number of cast sites.
    pub casts: usize,
}

impl EntityCounts {
    /// The sizes of `program`'s entity tables.
    pub fn of(program: &Program) -> Self {
        EntityCounts {
            classes: program.classes().len(),
            fields: program.fields().len(),
            methods: program.methods().len(),
            vars: program.vars().len(),
            objs: program.objs().len(),
            call_sites: program.call_sites().len(),
            loads: program.loads().len(),
            stores: program.stores().len(),
            casts: program.casts().len(),
        }
    }
}

/// What a delta actually did to the program — the incremental solver's
/// re-propagation frontier.
#[derive(Clone, Debug, Default)]
pub struct DeltaEffects {
    /// Entity counts of the *base* program (everything at an index below
    /// these counts predates the delta).
    pub base: EntityCounts,
    /// Lowered statements appended to existing or new method bodies, with
    /// their allocated site-table ids.
    pub added_stmts: Vec<(MethodId, Stmt)>,
    /// Statement trees removed from method bodies.
    pub removed_stmts: Vec<(MethodId, Stmt)>,
    /// Methods appended by the delta.
    pub added_methods: Vec<MethodId>,
    /// Classes appended by the delta.
    pub added_classes: Vec<ClassId>,
    /// Variables appended by the delta (new methods' vars and `AddLocal`s).
    pub added_vars: Vec<VarId>,
}

impl DeltaEffects {
    /// Whether the delta only added program elements (the monotone case:
    /// incremental re-solve never needs to retract facts).
    pub fn additions_only(&self) -> bool {
        self.removed_stmts.is_empty()
    }
}

/// Why a delta cannot apply to a base program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// An id referenced an entity that does not exist (entity kind, raw id).
    BadId(&'static str, u32),
    /// A statement referenced a variable not owned by the stated method.
    ForeignVar(MethodId, VarId),
    /// A class or member name collided with an existing one.
    DuplicateName(String),
    /// A call's argument count did not match the target's parameter count.
    ArityMismatch(MethodId),
    /// A call's receiver presence did not match the target's staticness.
    BadReceiver(MethodId),
    /// A load/store used a non-reference field.
    PrimitiveField(FieldId),
    /// `RemoveStmt` index out of bounds.
    BadRemoveIndex(MethodId, u32),
    /// A method body op targeted an abstract method.
    AbstractBody(MethodId),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::BadId(kind, id) => write!(f, "unknown {kind} id {id}"),
            DeltaError::ForeignVar(m, v) => {
                write!(f, "variable {} not owned by method {}", v.raw(), m.raw())
            }
            DeltaError::DuplicateName(n) => write!(f, "duplicate name {n:?}"),
            DeltaError::ArityMismatch(m) => {
                write!(f, "argument count mismatch for target {}", m.raw())
            }
            DeltaError::BadReceiver(m) => {
                write!(f, "receiver presence mismatch for target {}", m.raw())
            }
            DeltaError::PrimitiveField(id) => {
                write!(f, "field {} is not reference-typed", id.raw())
            }
            DeltaError::BadRemoveIndex(m, i) => {
                write!(f, "remove index {i} out of bounds in method {}", m.raw())
            }
            DeltaError::AbstractBody(m) => {
                write!(f, "method {} is abstract and has no body", m.raw())
            }
        }
    }
}

impl std::error::Error for DeltaError {}

impl ProgramDelta {
    /// Applies the delta to `base`, producing the patched program and the
    /// effect summary. `base` is not modified; entity ids stay stable (see
    /// the module docs).
    pub fn apply(&self, base: &Program) -> Result<(Program, DeltaEffects), DeltaError> {
        let mut p = base.clone();
        let mut fx = DeltaEffects {
            base: EntityCounts::of(base),
            ..DeltaEffects::default()
        };
        for op in &self.ops {
            apply_op(&mut p, op, &mut fx)?;
        }
        rebuild_vtables(&mut p);
        Ok((p, fx))
    }
}

fn check_class(p: &Program, c: ClassId) -> Result<(), DeltaError> {
    if c.index() >= p.classes().len() {
        return Err(DeltaError::BadId("class", c.raw()));
    }
    Ok(())
}

fn check_method(p: &Program, m: MethodId) -> Result<(), DeltaError> {
    if m.index() >= p.methods().len() {
        return Err(DeltaError::BadId("method", m.raw()));
    }
    Ok(())
}

fn check_method_var(p: &Program, m: MethodId, v: VarId) -> Result<(), DeltaError> {
    if v.index() >= p.vars().len() {
        return Err(DeltaError::BadId("var", v.raw()));
    }
    if p.var(v).method() != m {
        return Err(DeltaError::ForeignVar(m, v));
    }
    Ok(())
}

fn check_ref_field(p: &Program, f: FieldId) -> Result<(), DeltaError> {
    if f.index() >= p.fields().len() {
        return Err(DeltaError::BadId("field", f.raw()));
    }
    if !p.field(f).ty().is_reference() {
        return Err(DeltaError::PrimitiveField(f));
    }
    Ok(())
}

fn apply_op(p: &mut Program, op: &DeltaOp, fx: &mut DeltaEffects) -> Result<(), DeltaError> {
    match op {
        DeltaOp::AddClass {
            name,
            superclass,
            fields,
        } => {
            if p.class_by_name(name).is_some() {
                return Err(DeltaError::DuplicateName(name.clone()));
            }
            let superclass = match superclass {
                Some(s) => {
                    check_class(p, *s)?;
                    Some(*s)
                }
                None => Some(p.object_class()),
            };
            let id = ClassId::from_usize(p.classes.len());
            let mut field_ids = Vec::with_capacity(fields.len());
            let mut seen = std::collections::HashSet::new();
            for (fname, fclass) in fields {
                check_class(p, *fclass)?;
                if !seen.insert(fname.clone()) {
                    return Err(DeltaError::DuplicateName(fname.clone()));
                }
                let fid = FieldId::from_usize(p.fields.len());
                p.fields.push(Field {
                    name: fname.clone(),
                    class: id,
                    ty: Type::Class(*fclass),
                });
                field_ids.push(fid);
            }
            p.classes.push(Class {
                name: name.clone(),
                superclass,
                fields: field_ids,
                methods: Vec::new(),
                is_abstract: false,
            });
            // Ancestor chain: self first, then the (already valid) parent
            // chain. Old chains are unaffected — superclasses are immutable.
            let mut chain = vec![id];
            chain.extend(
                p.ancestors[superclass.expect("defaulted").index()]
                    .iter()
                    .copied(),
            );
            p.ancestors.push(chain);
            fx.added_classes.push(id);
        }
        DeltaOp::AddMethod {
            class,
            name,
            params,
            ret,
            is_static,
        } => {
            check_class(p, *class)?;
            for c in params {
                check_class(p, *c)?;
            }
            if let Some(r) = ret {
                check_class(p, *r)?;
            }
            if p.classes[class.index()]
                .methods
                .iter()
                .any(|&m| p.methods[m.index()].name == *name)
            {
                return Err(DeltaError::DuplicateName(name.clone()));
            }
            let id = MethodId::from_usize(p.methods.len());
            let param_types: Vec<Type> = params.iter().map(|&c| Type::Class(c)).collect();
            let ret_ty = ret.map_or(Type::Void, Type::Class);
            let sig = intern_sig(p, name, &param_types);
            // Variable allocation mirrors `ProgramBuilder::push_method`:
            // `this` (instance only), then parameters, then `@ret`.
            let mut new_var = |p: &mut Program, n: &str, ty: Type| {
                let v = VarId::from_usize(p.vars.len());
                p.vars.push(VarInfo {
                    name: n.to_owned(),
                    method: id,
                    ty,
                });
                fx.added_vars.push(v);
                v
            };
            let this_var = if *is_static {
                None
            } else {
                Some(new_var(p, "this", Type::Class(*class)))
            };
            let param_vars: Vec<VarId> = param_types
                .iter()
                .enumerate()
                .map(|(k, &t)| new_var(p, &format!("p{k}"), t))
                .collect();
            let ret_var = if ret_ty == Type::Void {
                None
            } else {
                Some(new_var(p, "@ret", ret_ty))
            };
            let mut vars: Vec<VarId> = Vec::new();
            vars.extend(this_var);
            vars.extend(param_vars.iter().copied());
            vars.extend(ret_var);
            p.methods.push(Method {
                name: name.clone(),
                class: *class,
                kind: if *is_static {
                    MethodKind::Static
                } else {
                    MethodKind::Instance
                },
                sig,
                param_types,
                ret_ty,
                this_var,
                params: param_vars,
                ret_var,
                vars,
                body: Vec::new(),
                is_abstract: false,
            });
            p.classes[class.index()].methods.push(id);
            fx.added_methods.push(id);
        }
        DeltaOp::AddLocal { method, class } => {
            check_method(p, *method)?;
            check_class(p, *class)?;
            let v = VarId::from_usize(p.vars.len());
            let n = p.methods[method.index()].vars.len();
            p.vars.push(VarInfo {
                name: format!("@d{n}"),
                method: *method,
                ty: Type::Class(*class),
            });
            p.methods[method.index()].vars.push(v);
            fx.added_vars.push(v);
        }
        DeltaOp::AddStmt { method, stmt } => {
            check_method(p, *method)?;
            if p.method(*method).is_abstract() {
                return Err(DeltaError::AbstractBody(*method));
            }
            let lowered = lower_stmt(p, *method, stmt)?;
            p.methods[method.index()].body.push(lowered.clone());
            fx.added_stmts.push((*method, lowered));
        }
        DeltaOp::RemoveStmt { method, index } => {
            check_method(p, *method)?;
            let body = &mut p.methods[method.index()].body;
            let i = *index as usize;
            if i >= body.len() {
                return Err(DeltaError::BadRemoveIndex(*method, *index));
            }
            let removed = body.remove(i);
            // Removing a statement this same delta appended is a net
            // no-op: cancel the `added_stmts` record instead of reporting
            // a removal, so effects describe base-relative change only.
            if let Some(k) = fx
                .added_stmts
                .iter()
                .rposition(|(m, s)| m == method && *s == removed)
            {
                fx.added_stmts.remove(k);
            } else {
                fx.removed_stmts.push((*method, removed));
            }
        }
    }
    Ok(())
}

fn lower_stmt(p: &mut Program, method: MethodId, stmt: &DeltaStmt) -> Result<Stmt, DeltaError> {
    Ok(match stmt {
        DeltaStmt::New { lhs, class } => {
            check_method_var(p, method, *lhs)?;
            check_class(p, *class)?;
            let obj = ObjId::from_usize(p.objs.len());
            p.objs.push(ObjInfo {
                class: *class,
                method,
                label: format!("{}@delta{}", p.classes[class.index()].name, obj.raw()),
            });
            Stmt::New { lhs: *lhs, obj }
        }
        DeltaStmt::Assign { lhs, rhs } => {
            check_method_var(p, method, *lhs)?;
            check_method_var(p, method, *rhs)?;
            Stmt::Assign {
                lhs: *lhs,
                rhs: *rhs,
            }
        }
        DeltaStmt::Cast { lhs, rhs, class } => {
            check_method_var(p, method, *lhs)?;
            check_method_var(p, method, *rhs)?;
            check_class(p, *class)?;
            let id = CastId::from_usize(p.casts.len());
            p.casts.push(CastSite {
                method,
                lhs: *lhs,
                rhs: *rhs,
                ty: Type::Class(*class),
            });
            Stmt::Cast(id)
        }
        DeltaStmt::Load { lhs, base, field } => {
            check_method_var(p, method, *lhs)?;
            check_method_var(p, method, *base)?;
            check_ref_field(p, *field)?;
            let id = LoadId::from_usize(p.loads.len());
            p.loads.push(LoadSite {
                method,
                lhs: *lhs,
                base: *base,
                field: *field,
            });
            Stmt::Load(id)
        }
        DeltaStmt::Store { base, field, rhs } => {
            check_method_var(p, method, *base)?;
            check_method_var(p, method, *rhs)?;
            check_ref_field(p, *field)?;
            let id = StoreId::from_usize(p.stores.len());
            p.stores.push(StoreSite {
                method,
                base: *base,
                field: *field,
                rhs: *rhs,
            });
            Stmt::Store(id)
        }
        DeltaStmt::Call {
            lhs,
            recv,
            target,
            args,
        } => {
            check_method(p, *target)?;
            let (is_static, nparams) = {
                let t = p.method(*target);
                (t.kind() == MethodKind::Static, t.params().len())
            };
            if is_static != recv.is_none() {
                return Err(DeltaError::BadReceiver(*target));
            }
            if args.len() != nparams {
                return Err(DeltaError::ArityMismatch(*target));
            }
            if let Some(l) = lhs {
                check_method_var(p, method, *l)?;
            }
            if let Some(r) = recv {
                check_method_var(p, method, *r)?;
            }
            for a in args {
                check_method_var(p, method, *a)?;
            }
            let id = CallSiteId::from_usize(p.call_sites.len());
            p.call_sites.push(CallSite {
                method,
                kind: if is_static {
                    CallKind::Static
                } else {
                    CallKind::Virtual
                },
                lhs: *lhs,
                recv: *recv,
                args: args.clone(),
                target: *target,
            });
            Stmt::Call(id)
        }
    })
}

fn intern_sig(p: &mut Program, name: &str, params: &[Type]) -> crate::program::SigId {
    for (i, (n, tys)) in p.sigs.iter().enumerate() {
        if n == name && tys == params {
            return crate::program::SigId(u32::try_from(i).expect("sig count fits u32"));
        }
    }
    let id = crate::program::SigId(u32::try_from(p.sigs.len()).expect("too many signatures"));
    p.sigs.push((name.to_owned(), params.to_vec()));
    id
}

/// Recomputes every class's dispatch table with the builder's algorithm
/// (parents first by ancestor-chain length, parent clone + own concrete
/// non-static methods). Additions can extend or override old entries; the
/// incremental solver compares old vs new tables to decide whether existing
/// dispatch decisions survived.
fn rebuild_vtables(p: &mut Program) {
    let n = p.classes.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&c| p.ancestors[c].len());
    let mut vtables: Vec<std::collections::HashMap<crate::program::SigId, MethodId>> =
        vec![std::collections::HashMap::new(); n];
    for &c in &order {
        let mut table = match p.classes[c].superclass {
            Some(sup) => vtables[sup.index()].clone(),
            None => std::collections::HashMap::new(),
        };
        for &m in &p.classes[c].methods {
            let method = &p.methods[m.index()];
            if method.kind != MethodKind::Static && !method.is_abstract {
                table.insert(method.sig, m);
            }
        }
        vtables[c] = table;
    }
    p.vtables = vtables;
}

// ---- codec ----------------------------------------------------------------

const MAGIC: &[u8; 6] = b"CSCDL\0";
const VERSION: u32 = 1;

/// Why a byte stream failed to decode as a [`ProgramDelta`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The magic header or format version did not match.
    BadHeader,
    /// The stream ended before the structure was complete.
    UnexpectedEof,
    /// An enum tag byte had no corresponding variant.
    BadTag(u8),
    /// A structurally invalid payload, such as a non-UTF-8 string.
    Corrupt(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadHeader => write!(f, "bad magic or unsupported format version"),
            DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            DecodeError::BadTag(t) => write!(f, "unknown enum tag {t}"),
            DecodeError::Corrupt(what) => write!(f, "corrupt delta encoding: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct W {
    buf: Vec<u8>,
}

impl W {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("length fits u32"));
    }
    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn opt32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
        }
    }
}

struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl R<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::UnexpectedEof)?;
        if end > self.buf.len() {
            return Err(DecodeError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn bounded_len(&mut self, min_elem: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.buf.len() - self.pos {
            return Err(DecodeError::UnexpectedEof);
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.bounded_len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Corrupt("non-UTF-8 string"))
    }
    fn opt32(&mut self) -> Result<Option<u32>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl ProgramDelta {
    /// Encodes the delta into the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = W {
            buf: Vec::with_capacity(256),
        };
        w.buf.extend_from_slice(MAGIC);
        w.u32(VERSION);
        w.len(self.ops.len());
        for op in &self.ops {
            match op {
                DeltaOp::AddClass {
                    name,
                    superclass,
                    fields,
                } => {
                    w.u8(0);
                    w.str(name);
                    w.opt32(superclass.map(|c| c.raw()));
                    w.len(fields.len());
                    for (n, c) in fields {
                        w.str(n);
                        w.u32(c.raw());
                    }
                }
                DeltaOp::AddMethod {
                    class,
                    name,
                    params,
                    ret,
                    is_static,
                } => {
                    w.u8(1);
                    w.u32(class.raw());
                    w.str(name);
                    w.len(params.len());
                    for c in params {
                        w.u32(c.raw());
                    }
                    w.opt32(ret.map(|c| c.raw()));
                    w.u8(u8::from(*is_static));
                }
                DeltaOp::AddLocal { method, class } => {
                    w.u8(2);
                    w.u32(method.raw());
                    w.u32(class.raw());
                }
                DeltaOp::AddStmt { method, stmt } => {
                    w.u8(3);
                    w.u32(method.raw());
                    match stmt {
                        DeltaStmt::New { lhs, class } => {
                            w.u8(0);
                            w.u32(lhs.raw());
                            w.u32(class.raw());
                        }
                        DeltaStmt::Assign { lhs, rhs } => {
                            w.u8(1);
                            w.u32(lhs.raw());
                            w.u32(rhs.raw());
                        }
                        DeltaStmt::Cast { lhs, rhs, class } => {
                            w.u8(2);
                            w.u32(lhs.raw());
                            w.u32(rhs.raw());
                            w.u32(class.raw());
                        }
                        DeltaStmt::Load { lhs, base, field } => {
                            w.u8(3);
                            w.u32(lhs.raw());
                            w.u32(base.raw());
                            w.u32(field.raw());
                        }
                        DeltaStmt::Store { base, field, rhs } => {
                            w.u8(4);
                            w.u32(base.raw());
                            w.u32(field.raw());
                            w.u32(rhs.raw());
                        }
                        DeltaStmt::Call {
                            lhs,
                            recv,
                            target,
                            args,
                        } => {
                            w.u8(5);
                            w.opt32(lhs.map(|v| v.raw()));
                            w.opt32(recv.map(|v| v.raw()));
                            w.u32(target.raw());
                            w.len(args.len());
                            for a in args {
                                w.u32(a.raw());
                            }
                        }
                    }
                }
                DeltaOp::RemoveStmt { method, index } => {
                    w.u8(4);
                    w.u32(method.raw());
                    w.u32(*index);
                }
            }
        }
        w.buf
    }

    /// Decodes a delta previously produced by [`ProgramDelta::to_bytes`].
    /// Every read is bounds-checked; truncated or corrupt input yields a
    /// [`DecodeError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ProgramDelta, DecodeError> {
        let mut r = R { buf: bytes, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC || r.u32()? != VERSION {
            return Err(DecodeError::BadHeader);
        }
        let n = r.bounded_len(5)?;
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(match r.u8()? {
                0 => {
                    let name = r.str()?;
                    let superclass = r.opt32()?.map(ClassId::new);
                    let nf = r.bounded_len(8)?;
                    let mut fields = Vec::with_capacity(nf);
                    for _ in 0..nf {
                        let fname = r.str()?;
                        fields.push((fname, ClassId::new(r.u32()?)));
                    }
                    DeltaOp::AddClass {
                        name,
                        superclass,
                        fields,
                    }
                }
                1 => {
                    let class = ClassId::new(r.u32()?);
                    let name = r.str()?;
                    let np = r.bounded_len(4)?;
                    let mut params = Vec::with_capacity(np);
                    for _ in 0..np {
                        params.push(ClassId::new(r.u32()?));
                    }
                    let ret = r.opt32()?.map(ClassId::new);
                    let is_static = r.u8()? != 0;
                    DeltaOp::AddMethod {
                        class,
                        name,
                        params,
                        ret,
                        is_static,
                    }
                }
                2 => DeltaOp::AddLocal {
                    method: MethodId::new(r.u32()?),
                    class: ClassId::new(r.u32()?),
                },
                3 => {
                    let method = MethodId::new(r.u32()?);
                    let stmt = match r.u8()? {
                        0 => DeltaStmt::New {
                            lhs: VarId::new(r.u32()?),
                            class: ClassId::new(r.u32()?),
                        },
                        1 => DeltaStmt::Assign {
                            lhs: VarId::new(r.u32()?),
                            rhs: VarId::new(r.u32()?),
                        },
                        2 => DeltaStmt::Cast {
                            lhs: VarId::new(r.u32()?),
                            rhs: VarId::new(r.u32()?),
                            class: ClassId::new(r.u32()?),
                        },
                        3 => DeltaStmt::Load {
                            lhs: VarId::new(r.u32()?),
                            base: VarId::new(r.u32()?),
                            field: FieldId::new(r.u32()?),
                        },
                        4 => DeltaStmt::Store {
                            base: VarId::new(r.u32()?),
                            field: FieldId::new(r.u32()?),
                            rhs: VarId::new(r.u32()?),
                        },
                        5 => {
                            let lhs = r.opt32()?.map(VarId::new);
                            let recv = r.opt32()?.map(VarId::new);
                            let target = MethodId::new(r.u32()?);
                            let na = r.bounded_len(4)?;
                            let mut args = Vec::with_capacity(na);
                            for _ in 0..na {
                                args.push(VarId::new(r.u32()?));
                            }
                            DeltaStmt::Call {
                                lhs,
                                recv,
                                target,
                                args,
                            }
                        }
                        t => return Err(DecodeError::BadTag(t)),
                    };
                    DeltaOp::AddStmt { method, stmt }
                }
                4 => DeltaOp::RemoveStmt {
                    method: MethodId::new(r.u32()?),
                    index: r.u32()?,
                },
                t => return Err(DecodeError::BadTag(t)),
            });
        }
        Ok(ProgramDelta { ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Program {
        csc_frontend_fixture()
    }

    // A tiny program assembled with the builder (the ir crate cannot depend
    // on the frontend).
    fn csc_frontend_fixture() -> Program {
        let mut b = crate::ProgramBuilder::new();
        let object = b.object_class();
        let item = b.add_class("Item", Some(object));
        let boxc = b.add_class("Box", Some(object));
        b.add_field(boxc, "f", Type::Class(item));
        let m = b.begin_method(boxc, "get", MethodKind::Instance, &[], Type::Class(item));
        m.finish();
        let mut main = b.begin_method(object, "main", MethodKind::Static, &[], Type::Void);
        let v = main.local("b", Type::Class(boxc));
        main.new_obj(v, boxc, "b1");
        let entry = main.finish();
        b.set_entry(entry);
        b.finish().unwrap()
    }

    #[test]
    fn apply_appends_entities_with_stable_ids() {
        let p = base();
        let counts = EntityCounts::of(&p);
        let main = p.entry();
        let bvar = p.method(main).vars()[0];
        let item = p.class_by_name("Item").unwrap();
        let delta = ProgramDelta {
            ops: vec![
                DeltaOp::AddLocal {
                    method: main,
                    class: item,
                },
                DeltaOp::AddStmt {
                    method: main,
                    stmt: DeltaStmt::New {
                        lhs: VarId::from_usize(counts.vars),
                        class: item,
                    },
                },
                DeltaOp::AddStmt {
                    method: main,
                    stmt: DeltaStmt::Assign {
                        lhs: bvar,
                        rhs: bvar,
                    },
                },
            ],
        };
        let (patched, fx) = delta.apply(&p).unwrap();
        assert_eq!(patched.vars().len(), counts.vars + 1);
        assert_eq!(patched.objs().len(), counts.objs + 1);
        assert_eq!(fx.added_stmts.len(), 2);
        assert!(fx.additions_only());
        // Base entities unchanged under the same ids.
        assert_eq!(patched.var(bvar).name(), p.var(bvar).name());
        assert_eq!(
            patched.method(main).body().len(),
            p.method(main).body().len() + 2
        );
    }

    #[test]
    fn remove_stmt_records_tree_and_keeps_sites() {
        let p = base();
        let main = p.entry();
        let delta = ProgramDelta {
            ops: vec![DeltaOp::RemoveStmt {
                method: main,
                index: 0,
            }],
        };
        let (patched, fx) = delta.apply(&p).unwrap();
        assert_eq!(
            patched.method(main).body().len(),
            p.method(main).body().len() - 1
        );
        assert_eq!(fx.removed_stmts.len(), 1);
        assert!(!fx.additions_only());
        // Site tables are append-only even under removal.
        assert_eq!(patched.objs().len(), p.objs().len());
    }

    #[test]
    fn add_method_and_override_updates_vtable() {
        let p = base();
        let boxc = p.class_by_name("Box").unwrap();
        let get = p.resolve_method(boxc, "get").unwrap();
        let sig = p.method(get).sig();
        let delta = ProgramDelta {
            ops: vec![
                DeltaOp::AddClass {
                    name: "SubBox".to_owned(),
                    superclass: Some(boxc),
                    fields: vec![],
                },
                DeltaOp::AddMethod {
                    class: ClassId::from_usize(p.classes().len()),
                    name: "get".to_owned(),
                    params: vec![],
                    ret: Some(p.class_by_name("Item").unwrap()),
                    is_static: false,
                },
            ],
        };
        let (patched, fx) = delta.apply(&p).unwrap();
        let sub = *fx.added_classes.first().unwrap();
        let m = *fx.added_methods.first().unwrap();
        assert_eq!(
            patched.method(m).sig(),
            sig,
            "same name+params interns the same sig"
        );
        assert_eq!(patched.dispatch(sub, get), Some(m));
        assert_eq!(
            patched.dispatch(boxc, get),
            Some(get),
            "old dispatch intact"
        );
        assert!(patched.is_subclass(sub, boxc));
    }

    #[test]
    fn validation_rejects_foreign_vars_and_bad_ids() {
        let p = base();
        let main = p.entry();
        let boxc = p.class_by_name("Box").unwrap();
        let get = p.resolve_method(boxc, "get").unwrap();
        let this = p.method(get).this_var().unwrap();
        let err = ProgramDelta {
            ops: vec![DeltaOp::AddStmt {
                method: main,
                stmt: DeltaStmt::Assign {
                    lhs: this,
                    rhs: this,
                },
            }],
        }
        .apply(&p)
        .unwrap_err();
        assert_eq!(err, DeltaError::ForeignVar(main, this));
        let err = ProgramDelta {
            ops: vec![DeltaOp::RemoveStmt {
                method: main,
                index: 99,
            }],
        }
        .apply(&p)
        .unwrap_err();
        assert_eq!(err, DeltaError::BadRemoveIndex(main, 99));
    }

    #[test]
    fn codec_roundtrips_and_rejects_corruption() {
        let p = base();
        let main = p.entry();
        let item = p.class_by_name("Item").unwrap();
        let delta = ProgramDelta {
            ops: vec![
                DeltaOp::AddClass {
                    name: "X".to_owned(),
                    superclass: None,
                    fields: vec![("g".to_owned(), item)],
                },
                DeltaOp::AddLocal {
                    method: main,
                    class: item,
                },
                DeltaOp::AddStmt {
                    method: main,
                    stmt: DeltaStmt::Call {
                        lhs: None,
                        recv: None,
                        target: main,
                        args: vec![],
                    },
                },
                DeltaOp::RemoveStmt {
                    method: main,
                    index: 0,
                },
            ],
        };
        let bytes = delta.to_bytes();
        assert_eq!(ProgramDelta::from_bytes(&bytes).unwrap(), delta);
        // Truncation and header corruption fail cleanly.
        assert!(ProgramDelta::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(ProgramDelta::from_bytes(&bad).is_err());
    }
}
