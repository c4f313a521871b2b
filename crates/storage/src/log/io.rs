//! How a storage fault is classified and surfaced to the commit pipeline.

use std::fmt;
use std::io;

/// How a storage fault should be handled by the durable commit pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoClass {
    /// Worth retrying in place: interrupted syscalls, would-block,
    /// timeouts. Bounded retry-with-backoff before escalating.
    Transient,
    /// Not retryable: a full disk, a vanished file, corruption, or an
    /// exhausted retry budget. The owning partition degrades to read-only
    /// until healed.
    Permanent,
}

/// Classifies a raw I/O error for the retry policy. Everything that is not
/// a known-transient syscall outcome is treated as permanent — `ENOSPC`,
/// permission errors, and corruption never get better by retrying.
pub fn classify_io_error(e: &io::Error) -> IoClass {
    match e.kind() {
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            IoClass::Transient
        }
        _ => IoClass::Permanent,
    }
}

/// A classified storage failure surfaced by the durable log path instead of
/// a panic. Carries the operation that failed so degraded-mode diagnostics
/// and test assertions can name the fault site.
#[derive(Debug)]
pub struct IoFailure {
    /// Transient (retryable) or permanent (degrade).
    pub class: IoClass,
    /// The failing operation, e.g. `"wal append"` or `"wal fsync"`.
    pub op: &'static str,
    /// The underlying error.
    pub error: io::Error,
}

impl IoFailure {
    /// Wraps `error`, classifying it by [`classify_io_error`].
    pub fn new(op: &'static str, error: io::Error) -> Self {
        IoFailure {
            class: classify_io_error(&error),
            op,
            error,
        }
    }

    /// Wraps `error` with a forced classification (retry exhaustion turns a
    /// transient error permanent; a degraded partition fails permanently
    /// without touching the disk at all).
    pub fn with_class(class: IoClass, op: &'static str, error: io::Error) -> Self {
        IoFailure { class, op, error }
    }

    /// True when the failure is worth retrying.
    pub fn is_transient(&self) -> bool {
        self.class == IoClass::Transient
    }
}

impl fmt::Display for IoFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} I/O failure during {}: {}",
            self.class, self.op, self.error
        )
    }
}

impl std::error::Error for IoFailure {}
