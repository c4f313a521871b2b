//! The Bamboo lock table (paper §3.2, Figure 2 and Algorithm 2).
//!
//! Each tuple owns one [`LockState`] with the paper's three lists —
//! `owners`, `waiters` and Bamboo's new `retired` list — stored as one
//! vector, `concat(retired, owners, waiters)`, whose granted prefix is the
//! `concat(retired, owners)` the algorithms scan; each retired writer's
//! entry carries the uncommitted ("dirty") row version it published. The
//! whole 2PL family (Bamboo, Wound-Wait, Wait-Die, No-Wait) is implemented
//! here behind a [`LockPolicy`], because the paper frames them as one lock
//! manager with features toggled: *"If \[LockRetire\] is never called for all
//! transactions, then Bamboo degenerates to Wound-Wait"* (§3.2.2).

mod entry;

pub use entry::{
    Acquired, CancelOutcome, CommitInstall, LockPolicy, LockState, LockVariant, ReleaseOutcome,
};
