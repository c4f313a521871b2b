//! Repo-specific contract lints ("bamboo_check").
//!
//! The commit pipeline's safety rests on conventions rustc cannot see:
//! which module owns the atomics, which layer may call the protocol
//! directly, how partitioned lookups must route. This crate enforces them
//! token-level over the workspace source — hand-rolled (no registry deps),
//! masking comments/strings and exempting test code, so the rules bind
//! production code without outlawing test scaffolding.
//!
//! The rules (each has a fixture test below proving it fires):
//!
//! 1. **std-sync** — `std::sync::{Mutex, RwLock, atomic}` appear only in
//!    the `bamboo_core::sync` façade (and `vendor/`, which is not
//!    scanned). Everything else goes through `crate::sync::atomic` /
//!    `parking_lot`, which is what lets `cfg(bamboo_model)` swap in the
//!    model-checker types.
//! 2. **protocol-calls** — no direct call of a `Protocol` method on a
//!    `proto*` receiver outside `crates/core/src/session.rs`: the
//!    Session/Txn RAII layer is the only entry to the protocol. The
//!    lifecycle calls (`begin`, `commit`, `abort`) appear nowhere else; the
//!    per-access ones (`read`, `update`, `lock_insert`, `scan`, `retire`,
//!    `piece_begin`, `piece_end`) also under `crates/core/src/protocol/`,
//!    where one protocol method builds on another (`scan_rows` reads each
//!    key). A caller that went around `Txn` would skip its round trip, its
//!    snapshot guard and its abort prologue.
//! 3. **table-routing** — protocol-layer code resolves tuples with
//!    `Database::table_for`, never `db.table(`: on a partitioned database
//!    `table(` returns the *local* shard regardless of key ownership (the
//!    exact bug class PR 5 fixed).
//! 4. **ordering-justification** — every `Ordering::SeqCst` and `fence(`
//!    in non-test code carries an adjacent `// ordering:` comment tying it
//!    to the memory-ordering contract in the `db` module docs.
//! 5. **diag-seam** — `parking_lot::diag` is reached only through the
//!    `thread_lock_acquisitions` seam in `bamboo_core::sync`, keeping the
//!    vendored shim swappable (see ROADMAP).
//! 6. **file-io** — `std::fs` appears in `bamboo_core`/`bamboo_storage`
//!    production code only inside the durability module
//!    (`crates/storage/src/log/`). Everything else stays in-memory or
//!    goes through the `WalHandle`/checkpoint seams, so a recovery test
//!    can enumerate every byte that could survive a crash. The rule also
//!    bans `unwrap()`/`expect(` in the WAL modules' production code
//!    (`log/`, `wal.rs`): a storage error there must flow through the
//!    `IoFailure` taxonomy — transient → retry, permanent → degrade the
//!    partition — never panic the commit pipeline.
//! 7. **commit-tail** — `try_commit_point(`, `revoke_commit(` and
//!    `log_commit(` are called only from `crates/core/src/protocol/mod.rs`,
//!    where `commit_tail` spells the commit-point → log → revoke-or-install
//!    order once (their definitions in `txn.rs` are not calls). A new
//!    protocol calls the shared tail; it cannot re-grow a private copy.
//! 8. **wait-seam** — under `crates/core/src/protocol/` nothing parks,
//!    yields, spins, sleeps or charges a phase timer by hand: no
//!    `park_brief(`, `yield_now(`, `spin_loop(`, `.wait_for(`,
//!    `thread::sleep(`, `timers.lock_wait +=` or `timers.commit_wait +=`.
//!    A transaction blocks through `TxnCtx::wait` (`txn.rs`), the one copy
//!    of the abort check, the liveness deadline, the spin-then-park pause
//!    and the timer accounting; an interactive client's round trip is
//!    slept by the session (`Txn::round_trip`), not by a protocol. A
//!    pause that is not a transaction wait (Silo's TID-word spins) says so
//!    in an adjacent `// wait-seam:` comment, like rule 4's `// ordering:`.
//! 9. **one-database** — there is one kind of database and one place that
//!    builds it: a `Database { .. }` struct literal or a `topology:`
//!    initialiser appears only in `crates/core/src/partition.rs`
//!    (`Database::builder()` is a shell over it), and under
//!    `crates/core/src` only `session.rs` holds a `WalBuffer` (`wal.rs`
//!    defines it): the in-memory ring is the session's, a `WalHandle` is
//!    only ever a partition's segment file. Borrowing the ring
//!    (`&Mutex<WalBuffer>` in a signature) is not holding one.
//! 10. **keyed-hash** — in `crates/{core,storage}/src` production code a
//!     `HashMap` / `HashSet` keyed by `u64`, `u32`, `TableId` or a tuple
//!     of those names `BuildKeyHasher` as its hasher: those keys are
//!     engine-generated, and std's SipHash was a measured share of every
//!     point access (see `bamboo_storage::index`). The type may span lines
//!     or be a turbofish. A `let` that builds a std-hashed map
//!     (`HashMap::new(`, `::with_capacity(`, `::default(`) without a type
//!     annotation is flagged too: its key type is inferred where the rule
//!     cannot see it.
//! 11. **unsafe-confined** — the workspace has exactly one `unsafe`: the
//!     block around the prefetch instruction in `bamboo_storage::table`'s
//!     prefetch helper (`prefetch_allocation`), with an adjacent
//!     `// SAFETY:` comment. Any other `unsafe` — a block, `unsafe fn`,
//!     `unsafe impl`, test code included, or a second block in the helper —
//!     is flagged.
//! 12. **session-owns-snapshots** — the protocol plug is concurrency
//!     control and nothing else. Production code under
//!     `crates/core/src/protocol/` names no `.snapshot` field, no
//!     `SnapshotCtx`, `begin_snapshot` or `forbid_snapshot_write`, calls
//!     no `snapshot_read(`, `commit_snapshot(`, `end_snapshot(` or
//!     `inserts.push(`, and defines no `fn insert(`: `Txn` (`session.rs`)
//!     serves snapshot transactions and buffers inserts, once for every
//!     protocol, and a protocol's say in an insert is `lock_insert`.
//! 13. **one-trim-site** — a version chain is trimmed in one place, its
//!     install (`VersionChain::install_at_with`), for every protocol.
//!     Production code outside `crates/storage/src/version.rs` calls no
//!     `.gc(` and names no identifier that starts with `trim_` and
//!     mentions `version`: a second trim site, such as a writer's trim
//!     of the tuple's chain before its lock request, pays the chain's
//!     write latch on every write to reclaim what the next install
//!     reclaims anyway.

use std::fmt;
use std::path::Path;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Rule slug (e.g. `std-sync`).
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// Scans every workspace source file under `root` (crates/, src/,
/// examples/ — not vendor/, target/ or tests/, which are exempt from
/// every rule).
pub fn check_workspace(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    for top in ["crates", "src", "examples"] {
        collect_rs(&root.join(top), &mut files);
    }
    files.sort();
    let mut findings = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        if let Ok(src) = std::fs::read_to_string(f) {
            findings.extend(scan_source(&rel, &src));
        }
    }
    findings
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" || name == "vendor" {
            continue;
        }
        if p.is_dir() {
            collect_rs(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

/// Applies every rule to one file. `rel_path` selects the per-rule scope;
/// exposed so tests can lint fixture strings under any pretend path.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let masked = Masked::new(source);
    let test_lines = test_regions(&masked);
    let mut findings = Vec::new();
    let is_sync_facade = rel_path == "crates/core/src/sync.rs";
    let in_protocol_layer = rel_path.starts_with("crates/core/src/protocol/")
        || rel_path.starts_with("crates/analysis/src/");

    for (i, line) in masked.code.lines().enumerate() {
        let lineno = i + 1;
        let in_test = test_lines.contains(&i);
        let mut push = |rule: &'static str, msg: String| {
            findings.push(Finding {
                path: rel_path.to_string(),
                line: lineno,
                rule,
                msg,
            });
        };

        // Rule 1: std::sync primitives only inside the façade.
        if !is_sync_facade && !in_test {
            for banned in ["std::sync::Mutex", "std::sync::RwLock", "std::sync::atomic"] {
                if line.contains(banned) {
                    push(
                        "std-sync",
                        format!("`{banned}` outside bamboo_core::sync — use the `crate::sync` façade (model-checker swap point)"),
                    );
                }
            }
        }

        // Rule 2: protocol calls only from session.rs (per-access ones
        // also inside the protocol layer).
        if rel_path != "crates/core/src/session.rs" && !in_test {
            let in_protocols = rel_path.starts_with("crates/core/src/protocol/");
            let lifecycle = ["begin", "commit", "abort"];
            let per_access = [
                "read",
                "update",
                "lock_insert",
                "scan",
                "retire",
                "piece_begin",
                "piece_end",
            ];
            let checked: &[&str] = if in_protocols { &[] } else { &per_access };
            for method in lifecycle.iter().chain(checked) {
                if has_proto_call(line, method) {
                    push(
                        "protocol-calls",
                        format!("direct `Protocol::{method}` call outside session.rs — go through Session/Txn"),
                    );
                }
            }
        }

        // Rule 3: protocol-layer lookups route through table_for.
        if in_protocol_layer && !in_test && has_db_table_call(line) {
            push(
                "table-routing",
                "`db.table(` in protocol-layer code — use `Database::table_for(table, key)` so partitioned lookups route to the owning shard".to_string(),
            );
        }

        // Rule 4: SeqCst / fence sites carry an `// ordering:` note.
        if !is_sync_facade && !in_test {
            let has_seqcst = line.contains("Ordering::SeqCst");
            let has_fence = has_call(line, "fence(");
            if (has_seqcst || has_fence) && !justified(&masked, i, "ordering:") {
                let what = if has_seqcst {
                    "Ordering::SeqCst"
                } else {
                    "fence("
                };
                push(
                    "ordering-justification",
                    format!("`{what}` without an adjacent `// ordering:` justification comment"),
                );
            }
        }

        // Rule 6: file I/O only inside the durability module.
        let in_log_module = rel_path.starts_with("crates/storage/src/log/");
        if (rel_path.starts_with("crates/core/src/") || rel_path.starts_with("crates/storage/src/"))
            && !in_log_module
            && !in_test
            && line.contains("std::fs")
        {
            push(
                "file-io",
                "`std::fs` outside crates/storage/src/log/ — all durable bytes go through the WAL/checkpoint seams so recovery can account for them".to_string(),
            );
        }

        // Rule 6 (continued): the WAL modules never panic on an I/O
        // result — every storage error flows through `IoFailure`.
        if (in_log_module || rel_path == "crates/core/src/wal.rs")
            && !in_test
            && (line.contains(".unwrap()") || line.contains(".expect("))
        {
            push(
                "file-io",
                "`unwrap()`/`expect(` in a WAL module — classify via `IoFailure` (transient → retry, permanent → degrade); the durable commit pipeline must never panic on I/O".to_string(),
            );
        }

        // Rule 7: the commit-tail primitives only inside the shared tail.
        if rel_path != "crates/core/src/protocol/mod.rs" && !in_test {
            for call in ["try_commit_point(", "revoke_commit(", "log_commit("] {
                if has_call(line, call) {
                    push(
                        "commit-tail",
                        format!("`{call}` outside crates/core/src/protocol/mod.rs — commit through `protocol::commit_tail`, the one copy of the commit-point → log → revoke-or-install order"),
                    );
                }
            }
        }

        // Rule 8: protocols block through the wait seam only.
        if rel_path.starts_with("crates/core/src/protocol/") && !in_test {
            let pause = [
                "park_brief(",
                "yield_now(",
                "spin_loop(",
                "wait_for(",
                "thread::sleep(",
            ]
            .into_iter()
            .find(|call| has_call(line, call));
            let charge = ["timers.lock_wait +=", "timers.commit_wait +="]
                .into_iter()
                .find(|charge| line.contains(charge));
            if let Some(what) = pause.or(charge) {
                if !justified(&masked, i, "wait-seam:") {
                    push(
                        "wait-seam",
                        format!("`{what}` in protocol code — block through `TxnCtx::wait`, the one copy of the abort check, deadline, spin-then-park pause and timer accounting; a client delay belongs to the session (or justify a non-transaction pause with `// wait-seam:`)"),
                    );
                }
            }
        }

        // Rule 12: the session owns snapshot mode and insert buffering.
        if rel_path.starts_with("crates/core/src/protocol/") && !in_test {
            // A whole word; `.snapshot` only as a field.
            let named = |w: &str| match w.strip_prefix('.') {
                Some(field) => word_sites(line, field)
                    .into_iter()
                    .any(|(_, at)| line[..at].ends_with('.')),
                None => !word_sites(line, w).is_empty(),
            };
            let calls = [
                "snapshot_read(",
                "commit_snapshot(",
                "end_snapshot(",
                "inserts.push(",
            ];
            let what = [
                ".snapshot",
                "SnapshotCtx",
                "begin_snapshot",
                "forbid_snapshot_write",
            ]
            .into_iter()
            .find(|w| named(w))
            .or_else(|| calls.into_iter().find(|c| has_call(line, c)))
            .or_else(|| line.contains("fn insert(").then_some("fn insert("));
            if let Some(what) = what {
                push(
                    "session-owns-snapshots",
                    format!("`{what}` in protocol code — `Txn` (session.rs) owns snapshot mode and insert buffering for every protocol; a protocol implements concurrency control only (`Protocol::lock_insert` for an insert)"),
                );
            }
        }

        // Rule 13: the install is the one code that trims a chain.
        if rel_path != "crates/storage/src/version.rs" && !in_test {
            let ident = |c: char| c.is_alphanumeric() || c == '_';
            let what = if line.contains(".gc(") {
                Some(".gc(")
            } else {
                line.split(|c: char| !ident(c))
                    .find(|w| w.starts_with("trim_") && w.contains("version"))
            };
            if let Some(what) = what {
                push(
                    "one-trim-site",
                    format!("`{what}` outside crates/storage/src/version.rs — a version chain is trimmed only by its install (`VersionChain::install_at_with`)"),
                );
            }
        }

        // Rule 9: one database literal, one owner of the ring.
        if rel_path.starts_with("crates/") && !in_test {
            if rel_path != "crates/core/src/partition.rs" {
                let literal = has_struct_literal(line, "Database");
                // `pub(crate) topology: Topology,` declares the field.
                let init = line.contains("topology:") && !line.trim_start().starts_with("pub");
                if literal || init {
                    push(
                        "one-database",
                        "a `Database` is built only in crates/core/src/partition.rs — go through `PartitionedDb::builder` (or its one-partition shell `Database::builder`)".to_string(),
                    );
                }
            }
            if rel_path.starts_with("crates/core/src/")
                && !rel_path.ends_with("/session.rs")
                && !rel_path.ends_with("/wal.rs")
                && holds_type(line, "WalBuffer")
            {
                push(
                    "one-database",
                    "a `WalBuffer` held outside session.rs — the in-memory ring belongs to the `Session`; a partition's log is a `WalHandle` over a segment file".to_string(),
                );
            }
        }

        // Rule 5: parking_lot::diag only behind the seam.
        if !is_sync_facade && line.contains("parking_lot::diag") {
            push(
                "diag-seam",
                "`parking_lot::diag` outside bamboo_core::sync — use `thread_lock_acquisitions()` (the single swappable seam)".to_string(),
            );
        }
    }

    // Rule 10: over the whole file, because a map type may span lines.
    if rel_path.starts_with("crates/core/src/") || rel_path.starts_with("crates/storage/src/") {
        for (line, msg) in std_hashed_int_maps(&masked.code) {
            if !test_lines.contains(&line) {
                findings.push(Finding {
                    path: rel_path.to_string(),
                    line: line + 1,
                    rule: "keyed-hash",
                    msg,
                });
            }
        }
    }

    // Rule 11: one `unsafe`, in the table's prefetch helper.
    let mut home_free = rel_path == UNSAFE_HOME.0;
    for (line, at) in word_sites(&masked.code, "unsafe") {
        let block = masked.code[at + "unsafe".len()..]
            .trim_start()
            .starts_with('{');
        let in_home = home_free && block && enclosing_fn(&masked.code, at) == Some(UNSAFE_HOME.1);
        let msg = if !in_home {
            format!("`unsafe` outside `{}` in {} — the one sanctioned `unsafe` is the prefetch hint's block there", UNSAFE_HOME.1, UNSAFE_HOME.0)
        } else if !justified(&masked, line, "SAFETY:") {
            "the prefetch helper's `unsafe` block without an adjacent `// SAFETY:` comment"
                .to_string()
        } else {
            home_free = false;
            continue;
        };
        findings.push(Finding {
            path: rel_path.to_string(),
            line: line + 1,
            rule: "unsafe-confined",
            msg,
        });
    }
    findings
}

/// Rule 11's one sanctioned site: (file, enclosing function).
const UNSAFE_HOME: (&str, &str) = ("crates/storage/src/table.rs", "prefetch_allocation");

/// Every occurrence of the whole word `word` in `code` (masked): 0-based
/// line and byte offset.
fn word_sites(code: &str, word: &str) -> Vec<(usize, usize)> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(word)
        .filter(|&(at, _)| {
            !code[..at].chars().last().is_some_and(ident)
                && !code[at + word.len()..].starts_with(ident)
        })
        .map(|(at, _)| (code[..at].matches('\n').count(), at))
        .collect()
}

/// The name of the innermost `fn` whose body contains byte `pos` of `code`
/// (masked).
fn enclosing_fn(code: &str, pos: usize) -> Option<&str> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut found = None;
    for (_, at) in word_sites(code, "fn") {
        if at > pos {
            break;
        }
        // A declaration without a body (`fn f();`) owns no brace.
        let Some(open) = code[at..].find(['{', ';']).map(|o| at + o) else {
            continue;
        };
        if code.as_bytes()[open] == b'{' && open < pos && pos < matching_close(code, open) {
            let name = code[at + 2..].trim_start();
            found = name.split(|c: char| !ident(c)).next();
        }
    }
    found
}

/// The byte offset of the `}` matching the `{` at `open` (the end of
/// `code` when unbalanced).
fn matching_close(code: &str, open: usize) -> usize {
    let mut depth = 0usize;
    for (off, ch) in code[open..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return open + off;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// Rule 10's sites in `code` (masked): 0-based line and message for each
/// integer-keyed `HashMap` / `HashSet` type that does not name
/// `BuildKeyHasher`, and each unannotated `let` that builds a std-hashed
/// map.
fn std_hashed_int_maps(code: &str) -> Vec<(usize, String)> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    for name in ["HashMap", "HashSet"] {
        let mut from = 0;
        while let Some(pos) = code[from..].find(name) {
            let at = from + pos;
            from = at + name.len();
            if code[..at].chars().last().is_some_and(ident) {
                continue;
            }
            let rest = &code[from..];
            let line = code[..at].matches('\n').count();
            let generics = rest.strip_prefix('<').or_else(|| rest.strip_prefix("::<"));
            if let Some(generics) = generics {
                let args = generic_args(generics);
                let named = args[1..]
                    .iter()
                    .any(|a| a.trim().rsplit("::").next() == Some("BuildKeyHasher"));
                if !named && is_int_key(&args[0]) {
                    out.push((line, format!("`{name}<{}, …>` hashes engine-generated integer keys with std's SipHash — name `bamboo_storage::BuildKeyHasher` as its hasher", args[0].trim())));
                }
                continue;
            }
            let std_ctor = ["::new(", "::with_capacity(", "::default("]
                .iter()
                .any(|c| rest.starts_with(c));
            let line_code = code.lines().nth(line).unwrap_or("").trim_start();
            let unannotated = line_code
                .strip_prefix("let ")
                .and_then(|l| l.split_once('='))
                .is_some_and(|(binding, _)| !binding.contains(':'));
            if std_ctor && unannotated {
                out.push((line, format!("a `let` builds a std-hashed `{name}` without a type annotation — annotate it so the key type is visible (and name `BuildKeyHasher` if the key is an integer)")));
            }
        }
    }
    out.sort();
    out
}

/// The top-level arguments of a generic list, given the text after its
/// `<` (stops at the matching `>`; `->` inside is not a bracket).
fn generic_args(s: &str) -> Vec<String> {
    let mut args = vec![String::new()];
    let mut depth = 0usize;
    let mut prev = ' ';
    for c in s.chars() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' if prev == '-' => {}
            '>' | ')' | ']' => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            ',' if depth == 0 => {
                args.push(String::new());
                prev = c;
                continue;
            }
            _ => {}
        }
        args.last_mut().expect("never empty").push(c);
        prev = c;
    }
    args
}

/// `u64`, `u32`, `TableId` (path-qualified or not), or a tuple of them.
fn is_int_key(ty: &str) -> bool {
    let ty = ty.trim();
    let scalar = |t: &str| {
        let last = t.trim().rsplit("::").next().unwrap_or("");
        matches!(last, "u64" | "u32" | "TableId")
    };
    match ty.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
        Some(inner) => {
            !inner.trim().is_empty()
                && generic_args(inner)
                    .iter()
                    .map(|e| e.trim())
                    .filter(|e| !e.is_empty())
                    .all(scalar)
        }
        None => scalar(ty),
    }
}

/// `proto.begin(` / `protocol.commit(` / `self.proto.abort(` — an
/// identifier beginning with `proto` receiving a lifecycle call.
fn has_proto_call(line: &str, method: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(&format!(".{method}")) {
        let at = from + pos;
        let after = at + 1 + method.len();
        from = at + 1;
        // Must be a call, not a field or a longer identifier.
        if bytes.get(after).copied() != Some(b'(') {
            continue;
        }
        // Receiver: the identifier ending right before the dot.
        let recv_end = at;
        let recv_start = line[..recv_end]
            .rfind(|c: char| !c.is_alphanumeric() && c != '_')
            .map(|p| p + 1)
            .unwrap_or(0);
        if line[recv_start..recv_end].starts_with("proto") {
            return true;
        }
    }
    false
}

/// `db.table(` with any receiver identifier ending in `db` (`db`,
/// `self.db`, `part_db`).
fn has_db_table_call(line: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(".table(") {
        let at = from + pos;
        from = at + 1;
        let recv_start = line[..at]
            .rfind(|c: char| !c.is_alphanumeric() && c != '_')
            .map(|p| p + 1)
            .unwrap_or(0);
        if line[recv_start..at].ends_with("db") {
            return true;
        }
    }
    false
}

/// `Name {` opening a struct literal — not `struct Name {`, `impl Name {`,
/// `impl Trait for Name {`, a function body after `-> &Name` or a longer
/// identifier ending in `Name`.
fn has_struct_literal(line: &str, name: &str) -> bool {
    let pat = format!("{name} {{");
    let mut from = 0;
    while let Some(pos) = line[from..].find(&pat) {
        let at = from + pos;
        from = at + 1;
        let before = &line[..at];
        if before
            .chars()
            .last()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            continue;
        }
        let before = before.trim_end();
        // `-> &Name {` opens a function body after a return type.
        if ["struct", "impl", "for"]
            .iter()
            .any(|kw| before.ends_with(kw))
            || before.contains("->")
        {
            continue;
        }
        return true;
    }
    false
}

/// `name` constructed (`Name::new(..)`) or named by value in a type — a
/// field, a binding, a by-value parameter or a return type. A `use` line
/// and a type behind a reference (`&Mutex<Name>`, `&mut Name`) do not
/// hold one.
fn holds_type(line: &str, name: &str) -> bool {
    if line.trim_start().starts_with("use ") {
        return false;
    }
    let mut from = 0;
    while let Some(pos) = line[from..].find(name) {
        let at = from + pos;
        from = at + name.len();
        let ident = |c: char| c.is_alphanumeric() || c == '_';
        if line[..at].chars().last().is_some_and(ident) || line[from..].starts_with(ident) {
            continue;
        }
        if line[from..].starts_with("::") {
            return true;
        }
        // Walk back over the wrappers (`Mutex<`, `parking_lot::Mutex<`,
        // `Option<Box<`) to the start of the type expression.
        let start = line[..at]
            .trim_end_matches(|c: char| ident(c) || c == '<' || c == ':')
            .trim_end();
        let borrowed = start.rsplit_once('&').is_some_and(|(_, rest)| {
            rest.is_empty()
                || rest == "mut"
                || (rest.starts_with('\'') && rest[1..].chars().all(ident))
        });
        if !borrowed {
            return true;
        }
    }
    false
}

/// A *call* of `name` (given with its opening paren, e.g. `fence(`) —
/// standalone, path-qualified or a method call — not a definition like
/// `pub fn fence(` and not the tail of a longer identifier.
fn has_call(line: &str, name: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(name) {
        let at = from + pos;
        from = at + 1;
        let before = &line[..at];
        if before
            .chars()
            .last()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            continue;
        }
        if before.trim_end().ends_with("fn") {
            continue;
        }
        return true;
    }
    false
}

/// The site line, or the contiguous block of comment-only and attribute
/// lines immediately above it, carries `tag` (`ordering:`, `wait-seam:`)
/// in a comment.
fn justified(masked: &Masked, line_idx: usize, tag: &str) -> bool {
    let has = |l: usize| masked.comments.get(l).is_some_and(|c| c.contains(tag));
    if has(line_idx) {
        return true;
    }
    // Walk up through the justification block: comment-only lines (the
    // note routinely runs longer than a couple of lines) and attribute
    // lines (a `#[cfg(...)]` gate may sit between the comment and the
    // operation). Any other line ends the block.
    let code_lines: Vec<&str> = masked.code.lines().collect();
    let mut l = line_idx;
    while l > 0 {
        l -= 1;
        if has(l) {
            return true;
        }
        let code = code_lines.get(l).map_or("", |s| s.trim());
        let comment_only = code.is_empty() && masked.comments.get(l).is_some_and(|c| !c.is_empty());
        let attribute = code.starts_with("#[");
        if !(comment_only || attribute) {
            return false;
        }
    }
    false
}

/// Source with comments and string/char literals blanked out (newlines
/// kept, so line numbers survive), plus the comment text per line.
struct Masked {
    code: String,
    comments: Vec<String>,
}

impl Masked {
    fn new(src: &str) -> Self {
        let n_lines = src.lines().count() + 1;
        let mut comments = vec![String::new(); n_lines];
        let mut code = String::with_capacity(src.len());
        let b: Vec<char> = src.chars().collect();
        let mut i = 0;
        let mut line = 0;
        let emit = |code: &mut String, c: char, line: &mut usize| {
            code.push(c);
            if c == '\n' {
                *line += 1;
            }
        };
        while i < b.len() {
            let c = b[i];
            let next = b.get(i + 1).copied();
            if c == '/' && next == Some('/') {
                // Line comment: record text, blank it.
                let mut j = i;
                while j < b.len() && b[j] != '\n' {
                    comments[line].push(b[j]);
                    code.push(' ');
                    j += 1;
                }
                i = j;
            } else if c == '/' && next == Some('*') {
                let mut depth = 1;
                code.push_str("  ");
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == '/' && b.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 1;
                        code.push(' ');
                    } else if b[j] == '*' && b.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 1;
                        code.push(' ');
                    }
                    if b[j] == '\n' {
                        emit(&mut code, '\n', &mut line);
                    } else {
                        comments[line].push(b[j]);
                        code.push(' ');
                    }
                    j += 1;
                }
                i = j;
            } else if c == '"' || (c == 'r' && matches!(next, Some('"') | Some('#'))) {
                // (Raw) string literal: blank the contents.
                let mut hashes = 0;
                let mut j = i;
                if c == 'r' {
                    j += 1;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) != Some(&'"') {
                        // `r#ident` (raw identifier), not a string.
                        emit(&mut code, c, &mut line);
                        i += 1;
                        continue;
                    }
                    // Blank the `r` and the opening hashes.
                    for _ in 0..=hashes {
                        code.push(' ');
                    }
                }
                code.push(' ');
                j += 1;
                while let Some(&ch) = b.get(j) {
                    if ch == '\\' && hashes == 0 {
                        code.push_str("  ");
                        j += 2;
                        continue;
                    }
                    if ch == '"' {
                        let close = (1..=hashes).all(|k| b.get(j + k) == Some(&'#'));
                        if close {
                            for _ in 0..=hashes {
                                code.push(' ');
                            }
                            j += 1 + hashes;
                            break;
                        }
                    }
                    if ch == '\n' {
                        emit(&mut code, '\n', &mut line);
                    } else {
                        code.push(' ');
                    }
                    j += 1;
                }
                i = j;
            } else if c == '\'' {
                // Char literal vs. lifetime: a literal closes within a few
                // chars (`'x'`, `'\n'`, `'\u{..}'`).
                let mut j = i + 1;
                let mut is_char = false;
                if b.get(j) == Some(&'\\') {
                    while j < b.len() && b[j] != '\'' && b[j] != '\n' {
                        j += 1;
                    }
                    is_char = b.get(j) == Some(&'\'');
                } else if b.get(j + 1) == Some(&'\'') {
                    is_char = true;
                    j += 1;
                }
                if is_char {
                    for _ in i..=j {
                        code.push(' ');
                    }
                    i = j + 1;
                } else {
                    emit(&mut code, c, &mut line);
                    i += 1;
                }
            } else {
                emit(&mut code, c, &mut line);
                i += 1;
            }
        }
        Masked { code, comments }
    }
}

/// 0-based line indexes covered by `#[cfg(test)] mod … { … }` regions (and
/// `#[cfg(all(test, …))]`).
fn test_regions(masked: &Masked) -> std::collections::HashSet<usize> {
    let mut out = std::collections::HashSet::new();
    let code = &masked.code;
    let line_of = |pos: usize| code[..pos].matches('\n').count();
    let mut from = 0;
    while let Some(p) = code[from..].find("#[cfg(") {
        let at = from + p;
        from = at + 1;
        let attr_body = &code[at + 6..];
        let trimmed = attr_body.trim_start();
        if !(trimmed.starts_with("test)") || trimmed.starts_with("all(test")) {
            continue;
        }
        // Find the block the attribute gates: the first `{` after the
        // attribute, brace-matched to its close.
        let Some(open_rel) = code[at..].find('{') else {
            continue;
        };
        let close = matching_close(code, at + open_rel);
        for l in line_of(at)..=line_of(close) {
            out.insert(l);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(path: &str, src: &str) -> Vec<&'static str> {
        scan_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    // --- rule 1: std-sync ---------------------------------------------

    #[test]
    fn std_sync_fires_outside_facade() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n";
        assert_eq!(rules("crates/core/src/db.rs", src), vec!["std-sync"]);
        let src = "let m = std::sync::Mutex::new(0);\nlet l = std::sync::RwLock::new(0);\n";
        assert_eq!(
            rules("crates/workload/src/lib.rs", src),
            vec!["std-sync", "std-sync"]
        );
    }

    #[test]
    fn std_sync_exempts_facade_tests_and_arc() {
        let src = "pub use std::sync::atomic::AtomicU64;\n";
        assert!(rules("crates/core/src/sync.rs", src).is_empty());
        let src =
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicU64;\n}\n";
        assert!(rules("crates/core/src/db.rs", src).is_empty());
        // Arc and mpsc are not part of the façade contract.
        let src = "use std::sync::Arc;\nuse std::sync::mpsc;\n";
        assert!(rules("crates/core/src/db.rs", src).is_empty());
        // Comments and strings do not count.
        let src = "// std::sync::Mutex is banned here\nlet s = \"std::sync::atomic\";\n";
        assert!(rules("crates/core/src/db.rs", src).is_empty());
    }

    // --- rule 2: protocol-calls ---------------------------------------

    #[test]
    fn protocol_calls_fire_outside_session() {
        let src = "let ctx = proto.begin(&db);\n";
        assert_eq!(
            rules("crates/core/src/executor.rs", src),
            vec!["protocol-calls"]
        );
        let src = "self.protocol.commit(&db, &mut ctx, &wal)?;\n";
        assert_eq!(rules("crates/core/src/txn.rs", src), vec!["protocol-calls"]);
        // The §3.3 interpreter's old side door past `Txn`.
        let src = "let row = proto.read(db, ctx, *table, k)?;\n";
        assert_eq!(
            rules("crates/analysis/src/interp.rs", src),
            vec!["protocol-calls"]
        );
        let src = "proto.retire(db, ctx, table, key);\nproto.piece_end(db, ctx)?;\n";
        assert_eq!(
            rules("crates/bench/src/figures.rs", src),
            vec!["protocol-calls", "protocol-calls"]
        );
        // Inside the protocol layer only the lifecycle calls fire.
        let src = "let ctx = proto.begin(&db, &opts);\n";
        assert_eq!(
            rules("crates/core/src/protocol/ic3/mod.rs", src),
            vec!["protocol-calls"]
        );
    }

    #[test]
    fn protocol_calls_exempt_session_tests_and_txn_api() {
        let src = "let ctx = self.proto.begin(&self.db);\nproto.abort(&db, &mut ctx);\n";
        assert!(rules("crates/core/src/session.rs", src).is_empty());
        // The Txn RAII API is the *sanctioned* path.
        let src = "txn.commit().unwrap();\nsession.begin();\n";
        assert!(rules("crates/core/src/executor.rs", src).is_empty());
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(proto: &P) { proto.commit(&db, &mut c, &w); }\n}\n";
        assert!(rules("crates/core/src/protocol/locking.rs", src).is_empty());
        // A protocol method building on another (`scan_rows`).
        let src = ".map(|key| proto.read(db, ctx, table, key).cloned())\n";
        assert!(rules("crates/core/src/protocol/mod.rs", src).is_empty());
        // The interpreter on `Txn`, and longer method names.
        let src = "txn.retire(*table, k);\nlet ks = proto.scan_keys(t);\n";
        assert!(rules("crates/analysis/src/interp.rs", src).is_empty());
    }

    // --- rule 3: table-routing ----------------------------------------

    #[test]
    fn table_routing_fires_in_protocol_layer() {
        let src = "let t = db.table(table).get(key);\n";
        assert_eq!(
            rules("crates/core/src/protocol/silo.rs", src),
            vec!["table-routing"]
        );
        assert_eq!(
            rules("crates/analysis/src/interp.rs", src),
            vec!["table-routing"]
        );
    }

    #[test]
    fn table_routing_exempts_table_for_and_other_layers() {
        let src = "let t = db.table_for(table, key).get(key);\n";
        assert!(rules("crates/core/src/protocol/silo.rs", src).is_empty());
        // Outside the protocol layer `table(` is legitimate (loaders etc.).
        let src = "let t = db.table(table).insert(k, row);\n";
        assert!(rules("crates/workload/src/tpcc/mod.rs", src).is_empty());
        // Non-db receivers (catalog.table) are routing-aware call sites.
        let src = "let t = cat.table(table);\n";
        assert!(rules("crates/core/src/protocol/silo.rs", src).is_empty());
    }

    // --- rule 4: ordering-justification -------------------------------

    #[test]
    fn seqcst_requires_justification() {
        let src = "let v = x.load(Ordering::SeqCst);\n";
        assert_eq!(
            rules("crates/core/src/db.rs", src),
            vec!["ordering-justification"]
        );
        let src = "crate::sync::fence(Ordering::SeqCst);\n";
        // Both the fence and the SeqCst token are on the same line: one
        // finding, not two.
        assert_eq!(
            rules("crates/core/src/db.rs", src),
            vec!["ordering-justification"]
        );
    }

    #[test]
    fn justified_seqcst_is_clean() {
        let src = "// ordering: totally orders finishers (see module docs).\nlet v = x.load(Ordering::SeqCst);\ncrate::sync::fence(Ordering::SeqCst); // ordering: drains the store buffer\n";
        assert!(rules("crates/core/src/db.rs", src).is_empty());
        // A definition of a function *named* fence is not a call site.
        let src = "pub fn fence(order: Ordering) {}\n";
        assert!(rules("crates/core/src/sync2.rs", src).is_empty());
        // Relaxed/Acquire/Release need no note.
        let src = "let v = x.load(Ordering::Acquire);\nx.store(1, Ordering::Relaxed);\n";
        assert!(rules("crates/core/src/db.rs", src).is_empty());
    }

    #[test]
    fn justification_block_spans_comments_and_attributes() {
        // A long justification plus a `#[cfg]` gate between the comment
        // and the operation: the whole contiguous block counts.
        let src = "// ordering: SeqCst fence — totally orders finishers.\n// Second line of the note.\n// Third line of the note.\n// Fourth line of the note.\n// Fifth line of the note.\n// Sixth line of the note.\n// Seventh line of the note.\n#[cfg(not(bamboo_model_no_fence))]\ncrate::sync::fence(Ordering::SeqCst);\n";
        assert!(rules("crates/core/src/db.rs", src).is_empty());
        // Code between the comment and the site ends the block.
        let src = "// ordering: justifies only the line below.\nlet a = 1;\nlet v = x.load(Ordering::SeqCst);\n";
        assert_eq!(
            rules("crates/core/src/db.rs", src),
            vec!["ordering-justification"]
        );
    }

    // --- rule 5: diag-seam --------------------------------------------

    #[test]
    fn diag_seam_fires_outside_sync() {
        let src = "let n = parking_lot::diag::thread_acquisitions();\n";
        assert_eq!(rules("crates/core/src/executor.rs", src), vec!["diag-seam"]);
        assert!(rules("crates/core/src/sync.rs", src).is_empty());
    }

    // --- rule 6: file-io ----------------------------------------------

    #[test]
    fn file_io_fires_outside_the_durability_module() {
        let src = "let bytes = std::fs::read(path)?;\n";
        assert_eq!(rules("crates/core/src/db.rs", src), vec!["file-io"]);
        assert_eq!(rules("crates/storage/src/table.rs", src), vec!["file-io"]);
        let src = "use std::fs::File;\n";
        assert_eq!(rules("crates/core/src/wal.rs", src), vec!["file-io"]);
        // The module is the `log/` directory, not every path that starts
        // with its name.
        assert_eq!(rules("crates/storage/src/logging.rs", src), vec!["file-io"]);
    }

    #[test]
    fn file_io_allowed_in_the_log_module_tests_and_other_crates() {
        let src = "let f = std::fs::File::create(&path)?;\n";
        assert!(rules("crates/storage/src/log/segment.rs", src).is_empty());
        assert!(rules("crates/storage/src/log/backend.rs", src).is_empty());
        // Bench/workload crates are out of scope (they write result files).
        assert!(rules("crates/bench/src/bin/durability.rs", src).is_empty());
        // Test scaffolding may touch the filesystem.
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { std::fs::remove_dir_all(&d).unwrap(); }\n}\n";
        assert!(rules("crates/core/src/durability.rs", src).is_empty());
    }

    #[test]
    fn unwrap_on_io_fires_in_the_wal_modules() {
        let src = "let len = file.metadata().unwrap().len();\n";
        assert_eq!(
            rules("crates/storage/src/log/backend.rs", src),
            vec!["file-io"]
        );
        let src = "let rec = decode_record(payload).unwrap();\n";
        assert_eq!(
            rules("crates/storage/src/log/codec.rs", src),
            vec!["file-io"]
        );
        let src = "writer.sync().expect(\"fsync\");\n";
        assert_eq!(rules("crates/core/src/wal.rs", src), vec!["file-io"]);
    }

    #[test]
    fn unwrap_allowed_in_wal_tests_and_elsewhere() {
        // Test scaffolding in the WAL modules may unwrap freely.
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { w.sync().unwrap(); }\n}\n";
        assert!(rules("crates/storage/src/log/segment.rs", src).is_empty());
        assert!(rules("crates/core/src/wal.rs", src).is_empty());
        // Other modules are out of this rule's scope.
        let src = "let v = map.get(&k).unwrap();\n";
        assert!(rules("crates/core/src/db.rs", src).is_empty());
        // Comments and strings do not count.
        let src = "// never .unwrap() an io::Result here\n";
        assert!(rules("crates/core/src/wal.rs", src).is_empty());
    }

    // --- rule 7: commit-tail ------------------------------------------

    #[test]
    fn commit_tail_primitives_fire_outside_protocol_mod() {
        // A fourth protocol re-growing a private commit tail.
        let src = "if !ctx.shared.try_commit_point() { return Err(e); }\nmatch log_commit(db, ctx, wal) {\n    Err(_) => { ctx.shared.revoke_commit(reason); }\n}\n";
        assert_eq!(
            rules("crates/core/src/protocol/fourth.rs", src),
            vec!["commit-tail", "commit-tail", "commit-tail"]
        );
        let src = "crate::protocol::log_commit(db, ctx, wal)?;\n";
        assert_eq!(
            rules("crates/core/src/session.rs", src),
            vec!["commit-tail"]
        );
    }

    #[test]
    fn commit_tail_exempts_the_shared_tail_definitions_and_tests() {
        let src = "if !ctx.shared.try_commit_point() {}\nlog_commit(db, ctx, wal)?;\nctx.shared.revoke_commit(r);\n";
        assert!(rules("crates/core/src/protocol/mod.rs", src).is_empty());
        // Definitions are not calls.
        let src = "pub fn try_commit_point(&self) -> bool { true }\npub fn revoke_commit(&self, reason: AbortReason) -> bool { true }\n";
        assert!(rules("crates/core/src/txn.rs", src).is_empty());
        // Calling the shared tail is the sanctioned path.
        let src = "commit_tail(db, ctx, wal, |_| {}, |ctx| {})\n";
        assert!(rules("crates/core/src/protocol/silo.rs", src).is_empty());
        // Unit tests may drive the primitives directly.
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { assert!(t.try_commit_point()); }\n}\n";
        assert!(rules("crates/core/src/lock/entry.rs", src).is_empty());
    }

    // --- rule 8: wait-seam --------------------------------------------

    #[test]
    fn private_wait_loops_fire_in_protocol_code() {
        // A fourth protocol re-growing a private wait loop.
        let src = "let t0 = Instant::now();\nloop {\n    if ready() { break; }\n    ctx.shared.park_brief();\n    std::thread::yield_now();\n    cond.wait_for(&mut guard, TICK);\n}\nctx.timers.lock_wait += t0.elapsed();\nctx.timers.commit_wait += t0.elapsed();\n";
        assert_eq!(
            rules("crates/core/src/protocol/fourth.rs", src),
            vec!["wait-seam"; 5]
        );
        assert_eq!(
            rules(
                "crates/core/src/protocol/ic3/mod.rs",
                "std::thread::yield_now();\n"
            ),
            vec!["wait-seam"]
        );
        // The pre-park spin lives in the seam, once: a protocol spinning on
        // a tuple's lock state would slow the holder it waits for.
        let src = "while !granted(tuple) {\n    std::hint::spin_loop();\n}\n";
        assert_eq!(
            rules("crates/core/src/protocol/locking.rs", src),
            vec!["wait-seam"]
        );
        // A protocol charging a client's round trip: interactive mode is
        // the session's, slept once in `Txn::round_trip`.
        let src = "fn read(&self) {\n    std::thread::sleep(self.rpc);\n}\n";
        assert_eq!(
            rules("crates/core/src/protocol/interactive.rs", src),
            vec!["wait-seam"]
        );
    }

    #[test]
    fn wait_seam_exempts_the_seam_other_layers_tests_and_justified_pauses() {
        // Blocking through the seam, and reading the timers, is the
        // sanctioned path.
        let src = "ctx.wait(LOCK_WAIT, |ctx| tuple.meta.lock.lock().check_granted(tuple, &ctx.shared))?;\nlet w = ctx.timers.lock_wait + ctx.timers.commit_wait;\n";
        assert!(rules("crates/core/src/protocol/locking.rs", src).is_empty());
        // The seam itself, and pauses outside the protocol layer (retry
        // backoff, the group-commit coordinator), are out of scope.
        let src = "shared.cond.wait_for(&mut guard, PARK_TIMEOUT);\nstd::thread::yield_now();\nstd::hint::spin_loop();\n*timer += t0.elapsed();\n";
        assert!(rules("crates/core/src/txn.rs", src).is_empty());
        assert!(rules("crates/core/src/session.rs", src).is_empty());
        assert!(rules("crates/core/src/wal.rs", src).is_empty());
        // A pause that is not a transaction wait carries its reason.
        let src =
            "// wait-seam: TID-word spin, not a transaction wait.\nstd::thread::yield_now();\n";
        assert!(rules("crates/core/src/protocol/silo.rs", src).is_empty());
        let src = "// wait-seam: bounded TID-word spin.\nstd::hint::spin_loop();\n";
        assert!(rules("crates/core/src/protocol/silo.rs", src).is_empty());
        // The session sleeps the round trip; unit tests may pace
        // themselves.
        let src = "std::thread::sleep(rpc);\n";
        assert!(rules("crates/core/src/session.rs", src).is_empty());
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { std::thread::yield_now(); std::thread::sleep(D); }\n}\n";
        assert!(rules("crates/core/src/protocol/locking.rs", src).is_empty());
    }

    // --- rule 12: session-owns-snapshots --------------------------------

    #[test]
    fn snapshot_and_insert_buffering_fire_in_protocol_code() {
        // A protocol re-growing snapshot mode and its own insert buffer.
        let src = "if ctx.snapshot.is_some() {\n    return snapshot_read(db, ctx, table, key);\n}\nctx.forbid_snapshot_write(\"update\");\nlet s: Option<SnapshotCtx> = None;\nreturn crate::protocol::commit_snapshot(db, ctx);\nctx.end_snapshot(db);\nctx.inserts.push(PendingInsert { table, key, row, secondary });\nfn begin_snapshot(&self, db: &Database) -> TxnCtx {}\nfn insert(\n";
        assert_eq!(
            rules("crates/core/src/protocol/fourth.rs", src),
            vec!["session-owns-snapshots"; 9]
        );
        assert_eq!(
            rules(
                "crates/core/src/protocol/ic3/mod.rs",
                "ctx.inserts.push(ins);\n"
            ),
            vec!["session-owns-snapshots"]
        );
    }

    #[test]
    fn session_owns_snapshots_exempts_the_session_other_names_and_tests() {
        // The session is where they live.
        let src = "if self.ctx.snapshot.is_some() {\n    return self.snapshot_read(table, key);\n}\nself.ctx.inserts.push(PendingInsert { table, key, row, secondary });\n";
        assert!(rules("crates/core/src/session.rs", src).is_empty());
        // Other names: the registry, a timestamp, the insert hook, a
        // comment, the commit tail draining the buffer.
        let src = "db.snapshots.active_count();\nlet ts = txn.snapshot_ts();\nfn lock_insert(&self) {}\n// ctx.snapshot is the session's\nfor ins in ctx.inserts.drain(..) {}\n";
        assert!(rules("crates/core/src/protocol/mod.rs", src).is_empty());
        // Unit tests may drive a snapshot through a session.
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { let s = session.snapshot(); assert!(txn.ctx().snapshot.is_none()); }\n}\n";
        assert!(rules("crates/core/src/protocol/locking.rs", src).is_empty());
    }

    // --- rule 13: one-trim-site ----------------------------------------

    #[test]
    fn a_second_trim_site_fires_outside_the_chain() {
        // A writer's trim before its lock request, and a direct chain GC.
        let src = "fn acquire_ex(&self) {\n    tuple.trim_old_versions(db.gc_watermark());\n}\n";
        assert_eq!(
            rules("crates/core/src/protocol/locking.rs", src),
            vec!["one-trim-site"]
        );
        let src = "pub fn trim_version_chain(&self, watermark: u64) {\n    self.data.write().gc(watermark);\n}\n";
        assert_eq!(
            rules("crates/storage/src/table.rs", src),
            vec!["one-trim-site", "one-trim-site"]
        );
        assert_eq!(
            rules("crates/core/src/protocol/silo.rs", "chain.gc(wm);\n"),
            vec!["one-trim-site"]
        );
    }

    #[test]
    fn one_trim_site_exempts_the_chain_tests_and_other_names() {
        // The install's own trim.
        let src = "if !self.older.is_empty() {\n    self.gc(watermark);\n}\n";
        assert!(rules("crates/storage/src/version.rs", src).is_empty());
        // Reading the watermark, the trim threshold, comments and strings.
        let src = "let wm = db.gc_watermark();\nlet t = db.trim_threshold();\nlet v = trim_segment(version);\n// tuple.trim_old_versions(wm) is gone\nlet s = \"c.gc(1)\";\n";
        assert!(rules("crates/core/src/protocol/locking.rs", src).is_empty());
        // Unit tests may drive a chain directly.
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { c.gc(15); }\n}\n";
        assert!(rules("crates/core/src/db.rs", src).is_empty());
    }

    // --- rule 9: one-database -----------------------------------------

    #[test]
    fn second_database_literal_or_ring_owner_fires() {
        // A second construction path: a builder with a literal of its own.
        let src = "Arc::new(Database {\n    catalog,\n    topology: None,\n})\n";
        assert_eq!(
            rules("crates/core/src/db.rs", src),
            vec!["one-database", "one-database"]
        );
        let src = "let db = Database { topology: Topology { me, ..t }, ..other };\n";
        assert_eq!(
            rules("crates/workload/src/ycsb.rs", src),
            vec!["one-database"]
        );
        // A ring behind a partition handle, or built by a protocol.
        let src = "struct WalSink {\n    ring: Mutex<WalBuffer>,\n}\n";
        assert_eq!(
            rules("crates/core/src/partition.rs", src),
            vec!["one-database"]
        );
        let src =
            "let mut ring = WalBuffer::new();\nfn spare() -> Option<Box<WalBuffer>> { None }\n";
        assert_eq!(
            rules("crates/core/src/protocol/silo.rs", src),
            vec!["one-database", "one-database"]
        );
    }

    #[test]
    fn one_database_exempts_the_builder_the_session_borrows_and_tests() {
        // The one construction path, and the session's ring.
        let src = "db: Arc::new(Database {\n    topology: Topology { me },\n}),\n";
        assert!(rules("crates/core/src/partition.rs", src).is_empty());
        let src = "ring: Mutex<WalBuffer>,\nring: Mutex::new(WalBuffer::new()),\n";
        assert!(rules("crates/core/src/session.rs", src).is_empty());
        assert!(rules("crates/core/src/wal.rs", src).is_empty());
        // Definitions and impls are not literals; the field declaration is
        // not an initialiser.
        let src = "pub struct Database {\n    pub(crate) topology: Topology,\n}\nimpl Database {\n}\nimpl Drop for Database {\n}\npub fn db(&self) -> &Database {\n}\nArc::new(PartitionedDatabase { parts })\n";
        assert!(rules("crates/core/src/db.rs", src).is_empty());
        // Protocols borrow the ring to log one commit; they never hold it.
        let src = "use crate::wal::{DurabilityTicket, WalBuffer, WalWrite};\nfn commit(&self, ring: &Mutex<WalBuffer>) {}\nfn log(ring: &parking_lot::Mutex<WalBuffer>, b: &mut WalBuffer, c: &'a WalBuffer) {}\n";
        assert!(rules("crates/core/src/protocol/mod.rs", src).is_empty());
        // Probes outside crates/core/src time a bare ring; tests build
        // scratch ones.
        let src = "let mut ring = WalBuffer::new();\n";
        assert!(rules("crates/bench/src/micro.rs", src).is_empty());
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { let w = Mutex::new(WalBuffer::for_tests()); let d = Database { topology: t }; }\n}\n";
        assert!(rules("crates/core/src/protocol/locking.rs", src).is_empty());
    }

    // --- rule 10: keyed-hash ------------------------------------------

    #[test]
    fn std_hashed_integer_maps_fire_in_core_and_storage() {
        // The access set and the recovery map as they were.
        let src = "struct TxnCtx {\n    index: HashMap<(u32, u64), usize>,\n}\nlet mut groups: HashMap<u64, TxnGroup> = HashMap::new();\n";
        assert_eq!(
            rules("crates/core/src/txn.rs", src),
            vec!["keyed-hash", "keyed-hash"]
        );
        // A type rustfmt broke over lines, a set, a turbofish, a path.
        let src = "shards: Box<[RwLock<HashMap<\n    u64,\n    Vec<u64>,\n>>]>,\nlet s: std::collections::HashSet<bamboo_storage::TableId> = x;\nlet m = HashMap::<u32, u8>::new();\n";
        let found = scan_source("crates/storage/src/index.rs", src);
        let lines: Vec<_> = found.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(
            lines,
            vec![("keyed-hash", 1), ("keyed-hash", 5), ("keyed-hash", 6)]
        );
        // A map whose key type is inferred: the rule cannot see it.
        let src = "let mut seen = HashSet::with_capacity(16);\nlet mut m = std::collections::HashMap::default();\n";
        assert_eq!(
            rules("crates/core/src/durability.rs", src),
            vec!["keyed-hash", "keyed-hash"]
        );
    }

    #[test]
    fn keyed_hash_exempts_the_mixer_other_keys_other_crates_and_tests() {
        let src = "index: HashMap<(u32, u64), usize, BuildKeyHasher>,\nlet mut groups: HashMap<u64, TxnGroup, BuildKeyHasher> = HashMap::default();\ntype S = RwLock<HashSet<u64, bamboo_storage::BuildKeyHasher>>;\n";
        assert!(rules("crates/core/src/txn.rs", src).is_empty());
        // Keys that are not engine-generated integers, and a field
        // initialiser (its type is declared, and checked, on the field).
        let src = "ops: Mutex<HashMap<String, u64>>,\nops: Mutex::new(HashMap::new()),\nlet m: HashMap<Vec<u64>, u8> = HashMap::new();\nlet b: BTreeMap<u64, u8> = BTreeMap::new();\nuse std::collections::HashMap;\n";
        assert!(rules("crates/storage/src/log/fault.rs", src).is_empty());
        // Other crates, test code, comments and strings.
        let src = "let m: HashMap<u64, u8> = HashMap::new();\n";
        assert!(rules("crates/workload/src/ycsb.rs", src).is_empty());
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { let mut names = std::collections::HashSet::new(); let m: HashMap<u64, u8> = HashMap::new(); }\n}\n";
        assert!(rules("crates/core/src/txn.rs", src).is_empty());
        let src = "// a HashMap<u64, V> on SipHash\nlet s = \"HashMap<u64, u8>\";\n";
        assert!(rules("crates/core/src/db.rs", src).is_empty());
    }

    // --- rule 11: unsafe-confined -------------------------------------

    const PREFETCH_HELPER: &str = "fn prefetch_allocation<T>(arc: &Arc<T>) {\n    for i in 0..lines {\n        // SAFETY: a prefetch never faults.\n        unsafe { _mm_prefetch::<_MM_HINT_T0>(p) };\n    }\n}\n";

    #[test]
    fn unsafe_fires_outside_the_prefetch_helper() {
        // The helper's block anywhere else, and every other kind of unsafe.
        assert_eq!(
            rules("crates/storage/src/index.rs", PREFETCH_HELPER),
            vec!["unsafe-confined"]
        );
        let src = "fn get(&self) -> &T {\n    // SAFETY: trust me.\n    unsafe { &*self.ptr }\n}\nunsafe impl Send for Slot {}\npub unsafe fn raw() {}\n";
        let found = scan_source("crates/storage/src/table.rs", src);
        let lines: Vec<_> = found.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(
            lines,
            vec![
                ("unsafe-confined", 3),
                ("unsafe-confined", 5),
                ("unsafe-confined", 6)
            ]
        );
        // Test code is not exempt, and neither is a second block in the
        // helper or one without its SAFETY note.
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { unsafe { h() } }\n}\n";
        assert_eq!(rules("crates/core/src/db.rs", src), vec!["unsafe-confined"]);
        let twice = PREFETCH_HELPER.replace("    }\n}", "        unsafe { g() };\n    }\n}");
        let found = scan_source(UNSAFE_HOME.0, &twice);
        assert_eq!(found.len(), 1);
        assert_eq!((found[0].rule, found[0].line), ("unsafe-confined", 5));
        let bare = PREFETCH_HELPER.replace("        // SAFETY: a prefetch never faults.\n", "");
        assert_eq!(rules(UNSAFE_HOME.0, &bare), vec!["unsafe-confined"]);
    }

    #[test]
    fn unsafe_confined_allows_the_helper_comments_and_strings() {
        assert!(rules(UNSAFE_HOME.0, PREFETCH_HELPER).is_empty());
        // Inside the helper's file, next to other functions, with a SAFETY
        // note above a `#[cfg]` gate.
        let src = format!(
            "/// `unsafe` in a doc comment.\nfn contains() -> bool {{ true }}\n{}fn after() {{ let s = \"unsafe {{ }}\"; }}\n",
            PREFETCH_HELPER.replace("        unsafe", "        #[cfg(target_arch = \"x86_64\")]\n        unsafe")
        );
        assert!(rules(UNSAFE_HOME.0, &src).is_empty());
        // Identifiers that merely contain the word.
        let src = "let unsafe_count = 0;\nfn is_unsafe() {}\n";
        assert!(rules("crates/core/src/db.rs", src).is_empty());
    }

    // --- masking / regions machinery ----------------------------------

    #[test]
    fn masking_preserves_line_numbers() {
        let src = "let a = 1; /* std::sync::Mutex\nstd::sync::Mutex */ let b = std::sync::Mutex::new(0);\n";
        let fs = scan_source("crates/core/src/db.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].line, 2);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nmod real {\n    use std::sync::atomic::AtomicU64;\n}\n";
        assert_eq!(rules("crates/core/src/db.rs", src), vec!["std-sync"]);
    }

    #[test]
    fn cfg_all_test_is_a_test_region() {
        let src = "#[cfg(all(test, bamboo_model))]\nmod model_check {\n    use std::sync::atomic::AtomicU64;\n}\n";
        assert!(rules("crates/core/src/db.rs", src).is_empty());
    }

    #[test]
    fn char_literals_and_lifetimes_survive_masking() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = '\"'; let d = '\\n'; c }\nlet m = std::sync::Mutex::new(0);\n";
        let fs = scan_source("crates/core/src/db.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].line, 2);
    }
}
