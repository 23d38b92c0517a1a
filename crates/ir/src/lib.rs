//! # csc-ir — typed Java-like IR for the cut-shortcut pointer analysis
//!
//! This crate defines the intermediate representation consumed by the
//! `csc-core` pointer analyses, the `csc-interp` concrete interpreter, and
//! produced by the `csc-frontend` MiniJava compiler.
//!
//! The IR mirrors the domain of the Cut-Shortcut paper's formalism
//! (PLDI 2023, Fig. 6): programs are sets of methods whose bodies contain
//! allocation (`New`), copy (`Assign`), cast (`Cast`), instance-field access
//! (`Load`/`Store`), invocation (`Call`), and return statements, plus just
//! enough integer/boolean arithmetic and structured control flow to make the
//! workloads concretely executable for the recall experiment.
//!
//! ## Example
//!
//! ```
//! use csc_ir::{ProgramBuilder, MethodKind, Type, CallKind};
//!
//! // class Box { Object f; void set(Object v) { this.f = v; } }
//! let mut pb = ProgramBuilder::new();
//! let object = pb.object_class();
//! let bx = pb.add_class("Box", None);
//! let f = pb.add_field(bx, "f", Type::Class(object));
//! let mut set = pb.begin_method(
//!     bx, "set", MethodKind::Instance,
//!     &[("v", Type::Class(object))], Type::Void);
//! let this = set.this().unwrap();
//! let v = set.param(0);
//! set.store(this, f, v);
//! let set = set.finish();
//!
//! let main_class = pb.add_class("Main", None);
//! let mut mb = pb.begin_method(main_class, "main", MethodKind::Static, &[], Type::Void);
//! let b = mb.local("b", Type::Class(bx));
//! let o = mb.local("o", Type::Class(object));
//! mb.new_obj(b, bx, "box@1");
//! mb.new_obj(o, object, "obj@2");
//! mb.call(CallKind::Virtual, None, Some(b), set, &[o]);
//! let main = mb.finish();
//! pb.set_entry(main);
//!
//! let program = pb.finish()?;
//! assert_eq!(program.call_sites().len(), 1);
//! # Ok::<(), csc_ir::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod delta;
mod display;
mod ids;
mod program;
mod stmt;
mod ty;

pub use builder::{BuildError, MethodBuilder, ProgramBuilder};
pub use delta::{
    DecodeError, DeltaEffects, DeltaError, DeltaOp, DeltaStmt, EntityCounts, ProgramDelta,
};
pub use ids::{CallSiteId, CastId, ClassId, FieldId, LoadId, MethodId, ObjId, StoreId, VarId};
pub use program::{
    CallSite, CastSite, Class, Field, LoadSite, Method, MethodKind, ObjInfo, Program, SigId,
    StoreSite, VarInfo,
};
pub use stmt::{visit_all, BinOp, CallKind, Stmt};
pub use ty::Type;
