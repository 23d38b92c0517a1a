//! # csc-frontend — MiniJava frontend for the cut-shortcut pointer analysis
//!
//! Compiles MiniJava — a Java-like source language with classes, single
//! inheritance, constructors, instance fields, virtual/static dispatch,
//! reference casts, and just enough integer arithmetic and structured control
//! flow to make programs executable — into the `csc-ir` program
//! representation analysed by `csc-core` and executed by `csc-interp`.
//!
//! This crate substitutes for the Java bytecode frontend used by the paper's
//! Tai-e/Doop implementations (see DESIGN.md §2): the produced IR matches
//! the paper's formalism domain statement-for-statement.
//!
//! ## Example
//!
//! ```
//! let program = csc_frontend::compile(r#"
//!     class Carton {
//!         Item item;
//!         void setItem(Item item) { this.item = item; }
//!         Item getItem() { Item r; r = this.item; return r; }
//!     }
//!     class Item { }
//!     class Main {
//!         static void main() {
//!             Carton c1 = new Carton();
//!             Item item1 = new Item();
//!             c1.setItem(item1);
//!             Item result1 = c1.getItem();
//!         }
//!     }
//! "#)?;
//! assert_eq!(program.classes().len(), 4); // Object + 3
//! # Ok::<(), csc_frontend::FrontendError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod error;
mod lexer;
mod lower;
mod parser;

pub use ast::SourceProgram;
pub use error::{FrontendError, Pos, Result};
pub use lower::{compile, lower};
pub use parser::{parse, MAX_DEPTH};
