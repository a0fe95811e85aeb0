//! The `stmlint` binary: run the full pass locally or in CI.
//!
//! ```text
//! cargo run -p stmlint                      # lint the whole tree
//! cargo run -p stmlint -- --list            # one line per rule
//! cargo run -p stmlint -- --explain <rule>  # the full contract of one rule
//! cargo run -p stmlint -- --write-manifest  # regenerate the [unsafe] table
//! cargo run -p stmlint -- --root <path>     # lint a different tree
//! ```
//!
//! Exit status: 0 clean, 1 findings, 2 usage or configuration error.  An
//! unknown argument, or `--explain`/`--root` without its value, is a usage
//! error: a typo like `--write-manfest` must not turn into a plain lint
//! pass that exits 0 and leaves the manifest as it was.

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command-line options.
#[derive(Default)]
struct Opts {
    root: Option<PathBuf>,
    explain: Option<String>,
    list: bool,
    write_manifest: bool,
}

/// Parses flags: an unknown argument, or a flag without its value, is an
/// error.
fn opts_from_args(args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let args: Vec<String> = args.collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => opts.list = true,
            "--write-manifest" => opts.write_manifest = true,
            "--explain" => {
                i += 1;
                let rule = args.get(i).ok_or("`--explain` expects a rule name")?;
                opts.explain = Some(rule.clone());
            }
            "--root" => {
                i += 1;
                let path = args.get(i).ok_or("`--root` expects a path")?;
                opts.root = Some(PathBuf::from(path));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match opts_from_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!(
                "error: {e} (usage: stmlint [--list | --explain <rule> | --write-manifest] \
                 [--root <path>])"
            );
            return ExitCode::from(2);
        }
    };

    if opts.list {
        for r in stmlint::RULES {
            println!("{:<18} {}", r.name, r.summary);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(rule) = &opts.explain {
        return match stmlint::RULES.iter().find(|r| r.name == rule) {
            Some(r) => {
                println!("{} — {}\n\n{}", r.name, r.summary, r.explain);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("error: unknown rule `{rule}` (run `stmlint --list` for the rule names)");
                ExitCode::from(2)
            }
        };
    }

    let root = match &opts.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match stmlint::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "error: no stmlint.toml found above {} (run from inside the repo \
                         or pass --root)",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let manifest = match std::fs::read_to_string(root.join("stmlint.toml")) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: cannot read {}/stmlint.toml: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let cfg = match stmlint::config::parse(&manifest) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.write_manifest {
        return match stmlint::render_unsafe_table(&root, &cfg) {
            Ok(table) => {
                // The [unsafe] table is by convention the last section of
                // stmlint.toml; splice the regenerated one over it (or
                // append it) so everything above — including comments that
                // merely mention "[unsafe]" — survives.  Only a section
                // header at the start of a line counts.
                let header_pos = if manifest.starts_with("[unsafe]") {
                    Some(0)
                } else {
                    manifest.find("\n[unsafe]").map(|p| p + 1)
                };
                let head = match header_pos {
                    Some(pos) => &manifest[..pos],
                    None => manifest.as_str(),
                };
                let sep = if head.is_empty() || head.ends_with('\n') {
                    ""
                } else {
                    "\n"
                };
                let path = root.join("stmlint.toml");
                match std::fs::write(&path, format!("{head}{sep}{table}")) {
                    Ok(()) => {
                        println!("stmlint: rewrote the [unsafe] table in {}", path.display());
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("error: cannot write {}: {e}", path.display());
                        ExitCode::from(2)
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    match stmlint::run(&root, &cfg) {
        Ok(findings) if findings.is_empty() => {
            println!("stmlint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!(
                "stmlint: {} finding(s); run `cargo run -p stmlint -- --explain <rule>` \
                 for any rule's contract",
                findings.len()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
