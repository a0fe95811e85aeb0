//! `stmlint` — the workspace protocol-conformance lint pass.
//!
//! The SpecTM reproduction is built on hand-rolled protocols whose
//! correctness arguments live outside the type system: epoch-deferred
//! reclamation with a value-word ownership contract, per-chain spinlocks in
//! stat-word bit 0, atomics whose orderings pair across modules.  The
//! invariants are written down (DESIGN.md, `SAFETY:` comments) but the
//! offline stable-only toolchain cannot run Miri or TSan, so nothing
//! machine-checked them.  This crate encodes the repo's contracts as five
//! source-level rules and enforces them three ways: as a `#[test]` (tier-1
//! `cargo test` runs the whole pass over the real tree), as a dedicated CI
//! step, and as a local binary (`cargo run -p stmlint`).  The bit layouts
//! (tags packed into pointer-alignment slack) are not among them: `const`
//! asserts next to their definitions make the compiler their one checker.
//!
//! The rules (see [`RULES`] for the full explanations):
//!
//! | rule              | contract                                              |
//! |-------------------|-------------------------------------------------------|
//! | `safety-comment`  | every `unsafe` is justified by an adjacent `SAFETY:`  |
//! | `unsafe-ratchet`  | per-file unsafe counts only grow via a manifest edit  |
//! | `ordering-comment`| atomic orderings outside core carry `ORDERING:`       |
//! | `reclamation`     | leak/forget/transmute/dealloc only in audited modules |
//! | `manifest-hygiene`| `stmlint.toml` stays sorted, deduped, non-stale       |
//!
//! Everything is dependency-free: a hand-rolled lexer ([`lexer`]) and a
//! minimal TOML reader ([`config`]) — no `syn`, no `toml`, no network.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod checks;
pub mod config;
pub mod lexer;

use checks::FileScan;
use config::Config;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl Finding {
    pub fn new(rule: &'static str, file: &str, line: u32, message: String) -> Self {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A rule's name and documentation, surfaced by `--list` / `--explain`.
pub struct RuleInfo {
    pub name: &'static str,
    pub summary: &'static str,
    pub explain: &'static str,
}

/// The rule registry.  Each rule can be disabled in `stmlint.toml` under
/// `[rules]`, whose keys must name a rule here; all default to enabled.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "safety-comment",
        summary: "every unsafe block/fn/impl carries an adjacent `// SAFETY:` comment",
        explain: "\
Every `unsafe` keyword — block, fn, impl, or trait — must be justified by a
`// SAFETY:` comment in the contiguous comment run directly above it (blank
lines and #[attribute] lines may intervene; any other code breaks
adjacency), or by a comment starting on the same line.  An `unsafe fn` may
instead document its contract with a `/// # Safety` doc section, the
convention rustdoc renders for callers.

The rule is the repo-local twin of `clippy::undocumented_unsafe_blocks`
(also denied workspace-wide): clippy checks blocks, stmlint additionally
covers unsafe fns, impls, and traits, and runs without a full compile.
Write the comment to say which protocol invariant makes the operation
sound — 'the epoch pin is held', 'the committed transaction owns the
displaced word' — not merely that it is.",
    },
    RuleInfo {
        name: "unsafe-ratchet",
        summary: "per-file unsafe counts may only grow through a reviewed stmlint.toml edit",
        explain: "\
stmlint.toml's [unsafe] table lists, per file, the number of `unsafe`
keywords the file is allowed to contain.  A file whose actual count exceeds
its entry — or any unsafe in a file with no entry — fails the lint.  Counts
below the manifest are fine (shrinking the unsafe surface needs no
ceremony), so the manifest acts as a ratchet: growth is always a conscious,
reviewed diff to stmlint.toml, never an accident.

To legitimately add unsafe code: write it (with its SAFETY: comment), run
`cargo run -p stmlint -- --write-manifest` to regenerate the table in
stmlint.toml, and let the reviewer see both hunks together.",
    },
    RuleInfo {
        name: "ordering-comment",
        summary: "atomic Ordering uses outside core modules carry `// ORDERING:` justifications",
        explain: "\
Every `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` use outside the
[ordering] allow-listed core modules (the STM engine, the epoch collector,
the lock-free baselines — where the memory-model reasoning is the module's
whole subject) must carry an adjacent `// ORDERING:` comment: directly
above the line or trailing on it.  One comment covers every ordering on its
line, so a compare_exchange's success/failure pair needs a single
justification.

The comment should name the pairing that makes the ordering sufficient
('Acquire pairs with the Release store in publish') or state why Relaxed is
enough ('counter only read after join').  std::cmp::Ordering never
triggers the rule; its variants differ.",
    },
    RuleInfo {
        name: "reclamation",
        summary: "leak/forget/transmute/dealloc are confined to the audited reclamation modules",
        explain: "\
Calls to `Box::leak`, `mem::forget`, `transmute`/`transmute_copy`, and raw
`dealloc` are forbidden outside the [reclamation] allow-listed modules
(value.rs, map.rs, the epoch collector, the lock-free internals).  Memory
that leaves the normal Drop discipline must flow through the epoch
collector's audited ownership contracts; a stray mem::forget elsewhere is
either a leak or the start of an un-reviewed reclamation scheme.

Only call positions are flagged (`use std::mem::forget;` is inert), and
method syntax on other types (`string.leak()`, `guard.forget()`) is not
confused with the free functions.",
    },
    RuleInfo {
        name: "manifest-hygiene",
        summary: "stmlint.toml's [unsafe] table stays sorted, deduped, and free of stale paths",
        explain: "\
The [unsafe] table must be sorted by path (byte order), contain no
duplicate entries, and name only files that exist; entries for files whose
actual count is far below their ceiling still pass (the ratchet tightens
lazily), but a deleted file's entry must go.  Sorted order keeps manifest
diffs one-hunk reviewable: an insertion shows up exactly where the new
file's unsafe budget was granted.",
    },
];

/// Locates the repo root: walks upward from `start` to the first directory
/// containing `stmlint.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("stmlint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collects every `.rs` file under `root` (repo-relative, `/`-separated,
/// sorted), skipping `.git`/`target` and the configured excludes.
pub fn collect_files(root: &Path, cfg: &Config) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let rel = rel_path(root, &path);
            if path.is_dir() {
                if name == ".git" || name == "target" || name.starts_with('.') {
                    continue;
                }
                if is_excluded(&rel, cfg) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") && !is_excluded(&rel, cfg) {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let s = rel.to_string_lossy().replace('\\', "/");
    s.to_string()
}

fn is_excluded(rel: &str, cfg: &Config) -> bool {
    cfg.exclude.iter().any(|p| {
        rel == p || rel.starts_with(&format!("{p}/")) || p.ends_with('/') && rel.starts_with(p)
    })
}

fn path_allowed(rel: &str, allow: &[String]) -> bool {
    allow
        .iter()
        .any(|p| rel == p || rel.starts_with(&format!("{p}/")))
}

/// Runs every enabled rule over the tree at `root` with the given config.
/// IO errors (unreadable files) surface as findings on the offending file,
/// not process aborts: CI must report them, not vanish.
pub fn run(root: &Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    let files = collect_files(root, cfg)?;
    let mut findings = Vec::new();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();

    for rel in &files {
        let src = match std::fs::read_to_string(root.join(rel)) {
            Ok(s) => s,
            Err(e) => {
                findings.push(Finding::new(
                    "manifest-hygiene",
                    rel,
                    0,
                    format!("unreadable file: {e}"),
                ));
                continue;
            }
        };
        let scan = FileScan::new(rel, &src);
        if cfg.rule_enabled("safety-comment") {
            checks::check_safety_comments(&scan, &mut findings);
        }
        if cfg.rule_enabled("ordering-comment") && !path_allowed(rel, &cfg.ordering_allow) {
            checks::check_ordering_comments(&scan, &mut findings);
        }
        if cfg.rule_enabled("reclamation") && !path_allowed(rel, &cfg.reclamation_allow) {
            checks::check_reclamation(&scan, &mut findings);
        }
        counts.insert(rel.clone(), checks::count_unsafe(&scan));
    }

    if cfg.rule_enabled("unsafe-ratchet") {
        check_ratchet(&counts, cfg, &mut findings);
    }
    if cfg.rule_enabled("manifest-hygiene") {
        check_manifest_hygiene(root, cfg, &mut findings);
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

/// Convenience entry: load `root/stmlint.toml` and run.
pub fn run_repo(root: &Path) -> Result<Vec<Finding>, String> {
    let manifest = std::fs::read_to_string(root.join("stmlint.toml"))
        .map_err(|e| format!("cannot read {}/stmlint.toml: {e}", root.display()))?;
    let cfg = config::parse(&manifest)?;
    run(root, &cfg).map_err(|e| format!("scan failed: {e}"))
}

fn check_ratchet(counts: &BTreeMap<String, usize>, cfg: &Config, out: &mut Vec<Finding>) {
    for (rel, &count) in counts {
        let allowed = cfg.allowed_unsafe(rel);
        match allowed {
            Some(limit) if count > limit => out.push(Finding::new(
                "unsafe-ratchet",
                rel,
                0,
                format!(
                    "{count} unsafe keyword(s), manifest allows {limit}: growing the unsafe \
                     surface requires a reviewed stmlint.toml edit (regenerate with \
                     `cargo run -p stmlint -- --write-manifest`)"
                ),
            )),
            None if count > 0 => out.push(Finding::new(
                "unsafe-ratchet",
                rel,
                0,
                format!(
                    "{count} unsafe keyword(s) in a file with no [unsafe] manifest entry: \
                     add one to stmlint.toml to consciously expand the unsafe surface"
                ),
            )),
            _ => {}
        }
    }
}

fn check_manifest_hygiene(root: &Path, cfg: &Config, out: &mut Vec<Finding>) {
    let mut prev: Option<&str> = None;
    for (path, _) in &cfg.unsafe_counts {
        if let Some(p) = prev {
            if path.as_str() == p {
                out.push(Finding::new(
                    "manifest-hygiene",
                    "stmlint.toml",
                    0,
                    format!("duplicate [unsafe] entry `{path}`"),
                ));
            } else if path.as_str() < p {
                out.push(Finding::new(
                    "manifest-hygiene",
                    "stmlint.toml",
                    0,
                    format!("[unsafe] entries out of order: `{path}` after `{p}` (keep sorted)"),
                ));
            }
        }
        if !root.join(path).is_file() {
            out.push(Finding::new(
                "manifest-hygiene",
                "stmlint.toml",
                0,
                format!("[unsafe] entry `{path}` names a file that does not exist"),
            ));
        }
        prev = Some(path);
    }
}

/// Renders the `[unsafe]` table for the current tree (the
/// `--write-manifest` output): sorted, deduped, zero-count files omitted.
pub fn render_unsafe_table(root: &Path, cfg: &Config) -> std::io::Result<String> {
    let files = collect_files(root, cfg)?;
    let mut s = String::from("[unsafe]\n");
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let scan = FileScan::new(&rel, &src);
        let n = checks::count_unsafe(&scan);
        if n > 0 {
            s.push_str(&format!("\"{rel}\" = {n}\n"));
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_are_documented_and_named_consistently() {
        assert_eq!(RULES.len(), 5);
        for r in RULES {
            assert!(!r.summary.is_empty());
            assert!(r.explain.len() > 100, "{} needs a real explanation", r.name);
            assert_eq!(r.name, r.name.to_lowercase());
        }
    }

    #[test]
    fn hygiene_flags_unsorted_and_duplicate_entries() {
        let cfg = Config {
            unsafe_counts: vec![
                ("b.rs".into(), 1),
                ("a.rs".into(), 1),
                ("a.rs".into(), 2),
                ("ghost.rs".into(), 1),
            ],
            ..Config::default()
        };
        let mut out = Vec::new();
        check_manifest_hygiene(Path::new("/nonexistent"), &cfg, &mut out);
        let msgs: Vec<&str> = out.iter().map(|f| f.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("out of order")));
        assert!(msgs.iter().any(|m| m.contains("duplicate")));
        assert!(msgs.iter().any(|m| m.contains("does not exist")));
    }

    #[test]
    fn ratchet_allows_shrinkage_flags_growth() {
        let cfg = Config {
            unsafe_counts: vec![("a.rs".into(), 5), ("b.rs".into(), 1)],
            ..Config::default()
        };
        let counts: BTreeMap<String, usize> = [
            ("a.rs".to_string(), 3), // below ceiling: fine
            ("b.rs".to_string(), 2), // above ceiling: fires
            ("c.rs".to_string(), 1), // unlisted: fires
            ("d.rs".to_string(), 0), // unlisted, no unsafe: fine
        ]
        .into_iter()
        .collect();
        let mut out = Vec::new();
        check_ratchet(&counts, &cfg, &mut out);
        let files: Vec<&str> = out.iter().map(|f| f.file.as_str()).collect();
        assert_eq!(files, ["b.rs", "c.rs"]);
    }
}
