//! Fixture-corpus tests: every rule fires on its bad fixture, stays silent
//! on the good one, and the binary's exit-code contract (0 clean / 1
//! findings / 2 config error) holds end to end over temp repos.

use std::path::{Path, PathBuf};
use std::process::Command;

use stmlint::checks::{self, FileScan};
use stmlint::Finding;

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn scan_with(name: &str, check: fn(&FileScan, &mut Vec<Finding>)) -> Vec<Finding> {
    let src = fixture(name);
    let scan = FileScan::new(name, &src);
    let mut out = Vec::new();
    check(&scan, &mut out);
    out
}

// ---------------------------------------------------------------------
// Per-rule checks over the fixture sources
// ---------------------------------------------------------------------

#[test]
fn safety_rule_fires_on_every_undocumented_form() {
    let bad = scan_with("bad_safety.rs", checks::check_safety_comments);
    // An undocumented block, an undocumented unsafe fn (plus its inner
    // block), and an undocumented unsafe impl.
    assert_eq!(bad.len(), 4, "{bad:?}");
    assert!(bad.iter().all(|f| f.rule == "safety-comment"));
}

#[test]
fn safety_rule_accepts_every_justified_form() {
    let good = scan_with("good_safety.rs", checks::check_safety_comments);
    assert_eq!(good, Vec::<Finding>::new());
}

#[test]
fn ordering_rule_fires_only_on_unjustified_atomics() {
    let bad = scan_with("bad_ordering.rs", checks::check_ordering_comments);
    assert_eq!(bad.len(), 2, "{bad:?}");
    assert!(bad.iter().all(|f| f.rule == "ordering-comment"));

    let good = scan_with("good_ordering.rs", checks::check_ordering_comments);
    assert_eq!(good, Vec::<Finding>::new());
}

#[test]
fn reclamation_rule_fires_only_on_the_raw_primitives() {
    let bad = scan_with("bad_reclamation.rs", checks::check_reclamation);
    // forget, Box::leak, transmute, dealloc.
    assert_eq!(bad.len(), 4, "{bad:?}");
    assert!(bad.iter().all(|f| f.rule == "reclamation"));

    let good = scan_with("good_reclamation.rs", checks::check_reclamation);
    assert_eq!(good, Vec::<Finding>::new());
}

#[test]
fn layout_rule_fires_on_each_bad_side() {
    let good_w = fixture("good_word.rs");
    let good_m = fixture("good_map.rs");

    let mut out = Vec::new();
    stmlint::layout::check_bit_layout("word.rs", &good_w, "map.rs", &good_m, &mut out);
    assert_eq!(out, Vec::<Finding>::new());

    let mut out = Vec::new();
    stmlint::layout::check_bit_layout(
        "word.rs",
        &fixture("bad_word.rs"),
        "map.rs",
        &good_m,
        &mut out,
    );
    assert!(out.iter().any(|f| f.message.contains("overlap")), "{out:?}");

    let mut out = Vec::new();
    stmlint::layout::check_bit_layout(
        "word.rs",
        &good_w,
        "map.rs",
        &fixture("bad_map.rs"),
        &mut out,
    );
    assert!(
        out.iter().any(|f| f.message.contains("below ADDRESS_BITS")),
        "{out:?}"
    );
}

// ---------------------------------------------------------------------
// End-to-end: the binary's exit codes over small temp repos
// ---------------------------------------------------------------------

/// The manifest used by the temp repos: everything on, no allowlists, the
/// layout files named `word.rs` / `map.rs` at the root.
const BASE_MANIFEST: &str = "\
[layout]
word = \"word.rs\"
map = \"map.rs\"

[unsafe]
";

/// Creates a fresh temp repo containing `stmlint.toml` plus the given
/// (dest-name, fixture-name) files.  `word.rs`/`map.rs` default to the
/// good layout fixtures unless overridden.
fn temp_repo(name: &str, files: &[(&str, &str)], manifest: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stmlint-corpus-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("stmlint.toml"), manifest).unwrap();
    if !files.iter().any(|(d, _)| *d == "word.rs") {
        std::fs::write(dir.join("word.rs"), fixture("good_word.rs")).unwrap();
    }
    if !files.iter().any(|(d, _)| *d == "map.rs") {
        std::fs::write(dir.join("map.rs"), fixture("good_map.rs")).unwrap();
    }
    for (dest, fx) in files {
        std::fs::write(dir.join(dest), fixture(fx)).unwrap();
    }
    dir
}

fn run_lint(root: &Path, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_stmlint"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("spawn stmlint");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Regenerates the repo's [unsafe] table, then lints: the per-class repos
/// must fail for exactly the reason under test, not a stale ratchet.
fn write_manifest_then_lint(root: &Path) -> (i32, String, String) {
    let (code, _, err) = run_lint(root, &["--write-manifest"]);
    assert_eq!(code, 0, "--write-manifest failed: {err}");
    run_lint(root, &[])
}

#[test]
fn binary_is_clean_on_a_clean_tree() {
    let root = temp_repo(
        "clean",
        &[
            ("good_safety.rs", "good_safety.rs"),
            ("good_ordering.rs", "good_ordering.rs"),
            ("good_reclamation.rs", "good_reclamation.rs"),
        ],
        BASE_MANIFEST,
    );
    let (code, out, _) = write_manifest_then_lint(&root);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("clean"), "{out}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn binary_fails_per_violation_class() {
    for (class, dest, fx, rule) in [
        ("safety", "bad_safety.rs", "bad_safety.rs", "safety-comment"),
        (
            "ordering",
            "bad_ordering.rs",
            "bad_ordering.rs",
            "ordering-comment",
        ),
        (
            "reclamation",
            "bad_reclamation.rs",
            "bad_reclamation.rs",
            "reclamation",
        ),
        ("layout-word", "word.rs", "bad_word.rs", "bit-layout"),
        ("layout-map", "map.rs", "bad_map.rs", "bit-layout"),
    ] {
        let root = temp_repo(class, &[(dest, fx)], BASE_MANIFEST);
        let (code, out, _) = write_manifest_then_lint(&root);
        assert_eq!(code, 1, "class {class}: {out}");
        assert!(out.contains(rule), "class {class} must name {rule}: {out}");
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn binary_fails_on_ratchet_growth() {
    // good_safety.rs contains (documented) unsafe, but the manifest grants
    // it no budget: only the ratchet may fire.
    let root = temp_repo(
        "ratchet",
        &[("good_safety.rs", "good_safety.rs")],
        BASE_MANIFEST,
    );
    let (code, out, _) = run_lint(&root, &[]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("unsafe-ratchet"), "{out}");
    assert!(!out.contains("safety-comment"), "{out}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn binary_fails_on_manifest_disorder() {
    let manifest = format!("{BASE_MANIFEST}\"word.rs\" = 9\n\"map.rs\" = 9\n");
    let root = temp_repo("hygiene", &[], &manifest);
    let (code, out, _) = run_lint(&root, &[]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("manifest-hygiene"), "{out}");
    assert!(out.contains("out of order"), "{out}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn binary_reports_config_errors_distinctly() {
    let root = temp_repo("config-error", &[], "[rules]\nsafety-comment = maybe\n");
    let (code, _, err) = run_lint(&root, &[]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("error"), "{err}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn binary_warns_on_unknown_flags_instead_of_ignoring() {
    let root = temp_repo("unknown-flag", &[], BASE_MANIFEST);
    let (code, _, err) = write_manifest_then_lint(&root);
    assert_eq!(code, 0);
    let (_, _, err2) = run_lint(&root, &["--expalin"]);
    assert!(
        err2.contains("warning") && err2.contains("--expalin"),
        "{err2}"
    );
    drop(err);
    let _ = std::fs::remove_dir_all(&root);
}
