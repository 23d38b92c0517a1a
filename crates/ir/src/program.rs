//! The whole-program IR: entity tables, the class hierarchy, and
//! signature-based virtual dispatch.

use crate::fx::FxHashMap;
use crate::ids::{CallSiteId, CastId, ClassId, FieldId, LoadId, MethodId, ObjId, StoreId, VarId};
use crate::stmt::{CallKind, Stmt};
use crate::ty::Type;

/// Interned method signature: `(name, parameter types)`.
///
/// Two methods with equal signatures in related classes stand in an
/// overriding relationship; virtual dispatch resolves by signature.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SigId(pub(crate) u32);

/// One class's dispatch table: signature → concrete method.
pub(crate) type VTable = FxHashMap<SigId, MethodId>;

/// A class declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct Class {
    pub(crate) name: String,
    pub(crate) superclass: Option<ClassId>,
    pub(crate) fields: Vec<FieldId>,
    pub(crate) methods: Vec<MethodId>,
    pub(crate) is_abstract: bool,
}

impl Class {
    /// The class name.
    pub fn name(&self) -> &str {
        &self.name
    }
    /// The direct superclass (`None` only for `Object`).
    pub fn superclass(&self) -> Option<ClassId> {
        self.superclass
    }
    /// Fields declared directly in this class.
    pub fn fields(&self) -> &[FieldId] {
        &self.fields
    }
    /// Methods declared directly in this class.
    pub fn methods(&self) -> &[MethodId] {
        &self.methods
    }
    /// Whether the class is abstract (cannot be instantiated).
    pub fn is_abstract(&self) -> bool {
        self.is_abstract
    }
}

/// An instance field declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    pub(crate) name: String,
    pub(crate) class: ClassId,
    pub(crate) ty: Type,
}

impl Field {
    /// The field name.
    pub fn name(&self) -> &str {
        &self.name
    }
    /// The declaring class.
    pub fn class(&self) -> ClassId {
        self.class
    }
    /// The declared type.
    pub fn ty(&self) -> Type {
        self.ty
    }
}

/// Distinguishes the three method flavours of the language.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Ordinary instance method, virtually dispatched.
    Instance,
    /// Constructor (`<init>`), invoked with [`CallKind::Special`].
    Constructor,
    /// Static method (no `this`).
    Static,
}

/// A method declaration with its body.
#[derive(Clone, Debug, PartialEq)]
pub struct Method {
    pub(crate) name: String,
    pub(crate) class: ClassId,
    pub(crate) kind: MethodKind,
    pub(crate) sig: SigId,
    pub(crate) param_types: Vec<Type>,
    pub(crate) ret_ty: Type,
    pub(crate) this_var: Option<VarId>,
    pub(crate) params: Vec<VarId>,
    pub(crate) ret_var: Option<VarId>,
    pub(crate) vars: Vec<VarId>,
    pub(crate) body: Vec<Stmt>,
    pub(crate) is_abstract: bool,
}

impl Method {
    /// The method name (constructors are named `<init>`).
    pub fn name(&self) -> &str {
        &self.name
    }
    /// The declaring class.
    pub fn class(&self) -> ClassId {
        self.class
    }
    /// Static / instance / constructor.
    pub fn kind(&self) -> MethodKind {
        self.kind
    }
    /// The interned signature.
    pub fn sig(&self) -> SigId {
        self.sig
    }
    /// Declared parameter types, excluding `this`.
    pub fn param_types(&self) -> &[Type] {
        &self.param_types
    }
    /// Declared return type.
    pub fn ret_ty(&self) -> Type {
        self.ret_ty
    }
    /// The `this` variable, if the method is not static.
    pub fn this_var(&self) -> Option<VarId> {
        self.this_var
    }
    /// Parameter variables, excluding `this`.
    pub fn params(&self) -> &[VarId] {
        &self.params
    }
    /// The `k`-th formal parameter in the paper's numbering: `k == 0` is
    /// `this`, `k >= 1` are the declared parameters.
    pub fn param_k(&self, k: usize) -> Option<VarId> {
        if k == 0 {
            self.this_var
        } else {
            self.params.get(k - 1).copied()
        }
    }
    /// Exclusive upper bound for the paper's parameter numbering `k`
    /// (`k == 0` is `this`, `k == 1..=params.len()` are declared
    /// parameters). Iterate `0..param_k_bound()`; [`Method::param_k`]
    /// returns `None` for `k == 0` on static methods.
    pub fn param_k_bound(&self) -> usize {
        self.params.len() + 1
    }
    /// The synthetic return variable `m_ret` (present iff the return type is
    /// a reference type).
    pub fn ret_var(&self) -> Option<VarId> {
        self.ret_var
    }
    /// All local variables of the method (including `this`, parameters and
    /// the return variable).
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }
    /// The method body.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }
    /// Whether the method has no body (must be overridden).
    pub fn is_abstract(&self) -> bool {
        self.is_abstract
    }
    /// Visits every statement of the body, including statements nested in
    /// `if` / `while` blocks.
    pub fn visit_stmts<'a>(&'a self, mut f: impl FnMut(&'a Stmt)) {
        crate::stmt::visit_all(&self.body, &mut f);
    }
}

/// Metadata for a local variable.
#[derive(Clone, Debug, PartialEq)]
pub struct VarInfo {
    pub(crate) name: String,
    pub(crate) method: MethodId,
    pub(crate) ty: Type,
}

impl VarInfo {
    /// Source-level name.
    pub fn name(&self) -> &str {
        &self.name
    }
    /// The method the variable is local to.
    pub fn method(&self) -> MethodId {
        self.method
    }
    /// Declared type.
    pub fn ty(&self) -> Type {
        self.ty
    }
}

/// Metadata for an allocation site.
#[derive(Clone, Debug, PartialEq)]
pub struct ObjInfo {
    pub(crate) class: ClassId,
    pub(crate) method: MethodId,
    pub(crate) label: String,
}

impl ObjInfo {
    /// The allocated class.
    pub fn class(&self) -> ClassId {
        self.class
    }
    /// The method containing the allocation site.
    pub fn method(&self) -> MethodId {
        self.method
    }
    /// A human-readable label (used by the pretty printer and tests).
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// A method invocation site.
#[derive(Clone, Debug, PartialEq)]
pub struct CallSite {
    pub(crate) method: MethodId,
    pub(crate) kind: CallKind,
    pub(crate) lhs: Option<VarId>,
    pub(crate) recv: Option<VarId>,
    pub(crate) args: Vec<VarId>,
    pub(crate) target: MethodId,
}

impl CallSite {
    /// The method containing the call site.
    pub fn method(&self) -> MethodId {
        self.method
    }
    /// Virtual / special / static.
    pub fn kind(&self) -> CallKind {
        self.kind
    }
    /// The left-hand-side variable receiving the return value, if any.
    pub fn lhs(&self) -> Option<VarId> {
        self.lhs
    }
    /// The receiver variable (`None` for static calls).
    pub fn recv(&self) -> Option<VarId> {
        self.recv
    }
    /// Argument variables, excluding the receiver.
    pub fn args(&self) -> &[VarId] {
        &self.args
    }
    /// The `k`-th argument in the paper's numbering: `k == 0` is the
    /// receiver, `k >= 1` are the ordinary arguments.
    pub fn arg_k(&self, k: usize) -> Option<VarId> {
        if k == 0 {
            self.recv
        } else {
            self.args.get(k - 1).copied()
        }
    }
    /// The statically declared target method.
    pub fn target(&self) -> MethodId {
        self.target
    }
}

/// An instance-field load site `lhs = base.field`.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadSite {
    pub(crate) method: MethodId,
    pub(crate) lhs: VarId,
    pub(crate) base: VarId,
    pub(crate) field: FieldId,
}

impl LoadSite {
    /// The containing method.
    pub fn method(&self) -> MethodId {
        self.method
    }
    /// Destination variable.
    pub fn lhs(&self) -> VarId {
        self.lhs
    }
    /// Base (receiver) variable.
    pub fn base(&self) -> VarId {
        self.base
    }
    /// Accessed field.
    pub fn field(&self) -> FieldId {
        self.field
    }
}

/// An instance-field store site `base.field = rhs`.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreSite {
    pub(crate) method: MethodId,
    pub(crate) base: VarId,
    pub(crate) field: FieldId,
    pub(crate) rhs: VarId,
}

impl StoreSite {
    /// The containing method.
    pub fn method(&self) -> MethodId {
        self.method
    }
    /// Base (receiver) variable.
    pub fn base(&self) -> VarId {
        self.base
    }
    /// Accessed field.
    pub fn field(&self) -> FieldId {
        self.field
    }
    /// Stored variable.
    pub fn rhs(&self) -> VarId {
        self.rhs
    }
}

/// A reference cast site `lhs = (ty) rhs`.
#[derive(Clone, Debug, PartialEq)]
pub struct CastSite {
    pub(crate) method: MethodId,
    pub(crate) lhs: VarId,
    pub(crate) rhs: VarId,
    pub(crate) ty: Type,
}

impl CastSite {
    /// The containing method.
    pub fn method(&self) -> MethodId {
        self.method
    }
    /// Destination variable.
    pub fn lhs(&self) -> VarId {
        self.lhs
    }
    /// Source variable.
    pub fn rhs(&self) -> VarId {
        self.rhs
    }
    /// Cast target type.
    pub fn ty(&self) -> Type {
        self.ty
    }
}

/// A complete program: entity tables plus the resolved class hierarchy.
///
/// Construct with [`crate::ProgramBuilder`] or via the `csc-frontend` parser.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    pub(crate) classes: Vec<Class>,
    pub(crate) fields: Vec<Field>,
    pub(crate) methods: Vec<Method>,
    pub(crate) vars: Vec<VarInfo>,
    pub(crate) objs: Vec<ObjInfo>,
    pub(crate) call_sites: Vec<CallSite>,
    pub(crate) loads: Vec<LoadSite>,
    pub(crate) stores: Vec<StoreSite>,
    pub(crate) casts: Vec<CastSite>,
    pub(crate) sigs: Vec<(String, Vec<Type>)>,
    pub(crate) entry: MethodId,
    pub(crate) object_class: ClassId,
    /// Per class: full (inherited + declared) dispatch table, signature →
    /// concrete method.
    pub(crate) vtables: Vec<VTable>,
    /// Per class: inclusive ancestor chain, self first, `Object` last.
    pub(crate) ancestors: Vec<Vec<ClassId>>,
}

impl Program {
    // ---- table access -------------------------------------------------

    /// The class table.
    pub fn classes(&self) -> &[Class] {
        &self.classes
    }
    /// Looks up a class.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }
    /// The field table.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }
    /// Looks up a field.
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.index()]
    }
    /// The method table.
    pub fn methods(&self) -> &[Method] {
        &self.methods
    }
    /// Looks up a method.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }
    /// The variable table.
    pub fn vars(&self) -> &[VarInfo] {
        &self.vars
    }
    /// Looks up a variable.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.index()]
    }
    /// The allocation-site table.
    pub fn objs(&self) -> &[ObjInfo] {
        &self.objs
    }
    /// Looks up an allocation site.
    pub fn obj(&self, id: ObjId) -> &ObjInfo {
        &self.objs[id.index()]
    }
    /// The call-site table.
    pub fn call_sites(&self) -> &[CallSite] {
        &self.call_sites
    }
    /// Looks up a call site.
    pub fn call_site(&self, id: CallSiteId) -> &CallSite {
        &self.call_sites[id.index()]
    }
    /// The load-site table.
    pub fn loads(&self) -> &[LoadSite] {
        &self.loads
    }
    /// Looks up a load site.
    pub fn load(&self, id: LoadId) -> &LoadSite {
        &self.loads[id.index()]
    }
    /// The store-site table.
    pub fn stores(&self) -> &[StoreSite] {
        &self.stores
    }
    /// Looks up a store site.
    pub fn store(&self, id: StoreId) -> &StoreSite {
        &self.stores[id.index()]
    }
    /// The cast-site table.
    pub fn casts(&self) -> &[CastSite] {
        &self.casts
    }
    /// Looks up a cast site.
    pub fn cast(&self, id: CastId) -> &CastSite {
        &self.casts[id.index()]
    }
    /// The program entry point (a static, parameterless method).
    pub fn entry(&self) -> MethodId {
        self.entry
    }
    /// The root of the class hierarchy.
    pub fn object_class(&self) -> ClassId {
        self.object_class
    }
    /// The human-readable form of a signature.
    pub fn sig_name(&self, sig: SigId) -> &str {
        &self.sigs[sig.0 as usize].0
    }

    // ---- hierarchy queries ---------------------------------------------

    /// Whether `sub` is `sup` or a (transitive) subclass of it.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.ancestors[sub.index()].contains(&sup)
    }

    /// Subtype test following Java's rules for this language: `null` is a
    /// subtype of every reference type; class subtyping follows the
    /// hierarchy; primitives are subtypes only of themselves.
    pub fn is_subtype(&self, sub: Type, sup: Type) -> bool {
        match (sub, sup) {
            (Type::Null, t) => t.is_reference(),
            (Type::Class(a), Type::Class(b)) => self.is_subclass(a, b),
            (a, b) => a == b,
        }
    }

    /// The inclusive ancestor chain of `class` (self first, `Object` last).
    pub fn ancestors(&self, class: ClassId) -> &[ClassId] {
        &self.ancestors[class.index()]
    }

    /// Resolves virtual dispatch: the concrete method invoked when a call
    /// whose declared target is `target` executes on a receiver of dynamic
    /// class `recv_class`. Returns `None` when the class does not (even
    /// transitively) provide a concrete implementation — which cannot happen
    /// for well-typed programs and non-abstract receivers.
    pub fn dispatch(&self, recv_class: ClassId, target: MethodId) -> Option<MethodId> {
        let sig = self.methods[target.index()].sig;
        self.vtables[recv_class.index()].get(&sig).copied()
    }

    /// Resolves virtual dispatch directly by signature: the concrete method
    /// a receiver of dynamic class `class` binds for `sig`, if any. Exposed
    /// for the incremental re-solve's dispatch-stability check, which
    /// compares base and patched vtables over the base entity domain.
    pub fn dispatch_by_sig(&self, class: ClassId, sig: SigId) -> Option<MethodId> {
        self.vtables[class.index()].get(&sig).copied()
    }

    /// Number of interned method signatures. Signature ids are allocated
    /// append-only (both by the builder and by [`crate::ProgramDelta`]), so
    /// a base program's signatures are a stable prefix of any patched
    /// program's.
    pub fn sig_count(&self) -> usize {
        self.sigs.len()
    }

    /// Whether `patched` (an append-only extension of `self` produced by
    /// [`crate::ProgramDelta::apply`]) preserves every virtual-dispatch
    /// decision over `self`'s class × signature domain: no existing
    /// `(class, signature) → method` binding changes, and no binding
    /// appears for an existing class × existing signature that was
    /// previously unbound (e.g. a delta-added override of an inherited
    /// method). New classes and new signatures may bind freely. This is the
    /// monotonicity precondition of the incremental re-solve's
    /// additions-replay path.
    pub fn dispatch_stable_under(&self, patched: &Program) -> bool {
        let old_sigs = self.sigs.len();
        for (c, old_table) in self.vtables.iter().enumerate() {
            let new_table = &patched.vtables[c];
            for (s, m) in old_table {
                if new_table.get(s) != Some(m) {
                    return false;
                }
            }
            for (s, m) in new_table {
                if (s.0 as usize) < old_sigs && old_table.get(s) != Some(m) {
                    return false;
                }
            }
        }
        true
    }

    /// Finds a field by name, searching `class` and then its ancestors.
    pub fn resolve_field(&self, class: ClassId, name: &str) -> Option<FieldId> {
        for &c in &self.ancestors[class.index()] {
            for &f in &self.classes[c.index()].fields {
                if self.fields[f.index()].name == name {
                    return Some(f);
                }
            }
        }
        None
    }

    /// Finds a method by name, searching `class` and then its ancestors.
    /// The language forbids overloading, so the name is unambiguous.
    pub fn resolve_method(&self, class: ClassId, name: &str) -> Option<MethodId> {
        for &c in &self.ancestors[class.index()] {
            for &m in &self.classes[c.index()].methods {
                if self.methods[m.index()].name == name {
                    return Some(m);
                }
            }
        }
        None
    }

    /// Finds a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(ClassId::from_usize)
    }

    /// Finds a method by `Class.method` qualified name.
    pub fn method_by_qualified_name(&self, qualified: &str) -> Option<MethodId> {
        let (cname, mname) = qualified.split_once('.')?;
        let class = self.class_by_name(cname)?;
        self.classes[class.index()]
            .methods
            .iter()
            .copied()
            .find(|&m| self.methods[m.index()].name == mname)
    }

    /// Fully qualified `Class.method` name of a method.
    pub fn qualified_name(&self, m: MethodId) -> String {
        let method = &self.methods[m.index()];
        format!(
            "{}.{}",
            self.classes[method.class.index()].name,
            method.name
        )
    }

    /// Total number of statements in all method bodies (incl. nested).
    pub fn stmt_count(&self) -> usize {
        let mut n = 0;
        for m in &self.methods {
            m.visit_stmts(|_| n += 1);
        }
        n
    }
}
