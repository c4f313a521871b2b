#![deny(missing_docs)]
//! # bamboo-analysis
//!
//! The retire-point program analysis of paper §3.3, on a transaction IR.
//!
//! The paper inserts `LockRetire()` calls into stored procedures after the
//! *last* write to each tuple, using control/data-flow analysis to hoist
//! key computations and synthesize runtime retire conditions (Listings
//! 1–2), and loop fission with a `can_retire` scan for fixed-trip-count
//! loops (Listings 3–4). This crate reproduces that pipeline:
//!
//! * [`ir`] — the mini-language (expressions, lets, ifs, `for`, accesses);
//! * [`analyze`] — [`analyze::insert_retire_points`]: the transformation;
//! * [`interp`] — an interpreter that runs (analysed) programs inside an
//!   open [`bamboo_core::Txn`] through its `read` / `update` / `retire`
//!   calls, retiring exactly where the analysis said to.
//!
//! ```
//! use bamboo_analysis::ir::{AccessMode, Expr, Program, Stmt};
//! use bamboo_analysis::analyze::{insert_retire_points, Decision};
//! use bamboo_storage::TableId;
//!
//! // A sole write: safe to retire immediately after the access.
//! let p = Program {
//!     params: 0,
//!     stmts: vec![Stmt::Access {
//!         id: 0,
//!         table: TableId(0),
//!         key: Expr::Const(7),
//!         mode: AccessMode::Write,
//!     }],
//! };
//! let analysed = insert_retire_points(&p);
//! assert_eq!(analysed.report[0].decision, Decision::Immediate);
//! ```

pub mod analyze;
pub mod interp;
pub mod ir;

pub use analyze::{insert_retire_points, Analysis, Decision, SiteReport};
pub use interp::{run_program, RunStats};
