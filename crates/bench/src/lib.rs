//! # bamboo_bench
//!
//! The figure-reproduction harness: one function per experiment of the
//! paper's §5, each regenerating the corresponding table/figure series
//! (who wins, by what factor, where crossovers fall — see EXPERIMENTS.md
//! for paper-vs-measured records), plus the per-operation probes the repo
//! benchmark lacks ([`micro`]).
//!
//! Run via the `repro` binary:
//!
//! ```text
//! cargo run -p bamboo_bench --release --bin repro -- fig6
//! cargo run -p bamboo_bench --release --bin repro -- micro
//! cargo run -p bamboo_bench --release --bin repro -- all --duration-ms 1000
//! ```

pub mod figures;
pub mod harness;
pub mod micro;

pub use harness::{RunOpts, Series};
