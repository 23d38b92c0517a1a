//! # csc-workloads — mini-JDK and benchmark programs for the Cut-Shortcut
//! evaluation
//!
//! Provides:
//!
//! * [`jdk::MINI_JDK`] — the container library (linked-node `ArrayList`,
//!   `LinkedList`, `HashSet`, `HashMap` with key/value views and iterators)
//!   that substitutes for the JDK in the paper's evaluation;
//! * [`examples`] — the paper's Figures 1, 3, 4, 5 as MiniJava programs;
//! * [`gen`] — a seeded synthetic benchmark generator mixing the paper's
//!   imprecision patterns at configurable scale;
//! * [`mod@suite`] — the ten-program evaluation suite named after the paper's
//!   subjects.
//!
//! ```
//! let bench = csc_workloads::by_name("hsqldb").unwrap();
//! let program = bench.compile();
//! assert!(program.methods().len() > 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta_gen;
pub mod examples;
pub mod gen;
pub mod jdk;
pub mod suite;

pub use delta_gen::{generate_delta, DeltaGenConfig};
pub use gen::{generate, GenConfig};
pub use jdk::MINI_JDK;
pub use suite::{by_name, compiled, suite, xl, Benchmark};
