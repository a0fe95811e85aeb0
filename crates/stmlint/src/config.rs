//! `stmlint.toml` — the lint configuration and unsafe-surface manifest.
//!
//! The file is parsed with a hand-rolled reader covering exactly the TOML
//! subset the manifest uses (the offline toolchain has no `toml` crate):
//!
//! * `[section]` headers (`[scan]`, `[ordering]`, `[reclamation]`,
//!   `[unsafe]`; any other section is an error, so no rule can be switched
//!   off here);
//! * `key = 123` integers;
//! * `key = ["a", "b"]` string arrays, single-line or spread over several
//!   lines;
//! * bare or `"quoted"` keys (file paths are quoted);
//! * `#` comments and blank lines.
//!
//! Anything outside that subset is a hard error: the manifest is a reviewed
//! contract, and a typo that silently parsed as "no constraint" would defeat
//! the ratchet.

/// Parsed `stmlint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// `[scan] exclude`: path prefixes (repo-relative, `/`-separated) that
    /// are never scanned — fixtures, vendored code.
    pub exclude: Vec<String>,
    /// `[ordering] allow`: path prefixes whose `Ordering::*` uses need no
    /// `// ORDERING:` justification (the core concurrency modules).
    pub ordering_allow: Vec<String>,
    /// `[reclamation] allow`: path prefixes allowed to use `Box::leak`,
    /// `mem::forget`, `transmute`, and raw `dealloc`.
    pub reclamation_allow: Vec<String>,
    /// `[unsafe]`: per-file allowed `unsafe`-keyword counts, in file order
    /// (the manifest-hygiene rule checks the order itself).
    pub unsafe_counts: Vec<(String, usize)>,
}

impl Config {
    /// The allowed unsafe count for `path`, if listed.
    pub fn allowed_unsafe(&self, path: &str) -> Option<usize> {
        self.unsafe_counts
            .iter()
            .find(|(p, _)| p == path)
            .map(|&(_, n)| n)
    }
}

/// Parses the manifest text.  Errors name the offending line.
pub fn parse(text: &str) -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("stmlint.toml:{lineno}: unclosed section header"))?;
            section = name.trim().to_string();
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("stmlint.toml:{lineno}: expected `key = value`"))?;
        let key = unquote(key.trim())
            .ok_or_else(|| format!("stmlint.toml:{lineno}: malformed key `{}`", key.trim()))?;
        let mut value = value.trim().to_string();
        // A `[` value may continue over following lines until the closing
        // bracket.
        if value.starts_with('[') && !value.ends_with(']') {
            for (_, cont) in lines.by_ref() {
                let cont = strip_comment(cont).trim().to_string();
                value.push_str(&cont);
                if cont.ends_with(']') {
                    break;
                }
            }
            if !value.ends_with(']') {
                return Err(format!("stmlint.toml:{lineno}: unclosed array for `{key}`"));
            }
        }
        apply(&mut cfg, &section, &key, &value)
            .map_err(|e| format!("stmlint.toml:{lineno}: {e}"))?;
    }
    Ok(cfg)
}

fn apply(cfg: &mut Config, section: &str, key: &str, value: &str) -> Result<(), String> {
    match section {
        "scan" if key == "exclude" => cfg.exclude = parse_string_array(value)?,
        "ordering" if key == "allow" => cfg.ordering_allow = parse_string_array(value)?,
        "reclamation" if key == "allow" => cfg.reclamation_allow = parse_string_array(value)?,
        "unsafe" => {
            let n: usize = value
                .parse()
                .map_err(|_| format!("`{key}`: expected an integer count, got `{value}`"))?;
            cfg.unsafe_counts.push((key.to_string(), n));
        }
        _ => {
            return Err(format!(
                "unknown entry `{key}` in section `[{section}]` (sections: scan, ordering, \
                 reclamation, unsafe)"
            ));
        }
    }
    Ok(())
}

/// Strips a `#` comment, honouring `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Removes surrounding quotes if present; bare tokens pass through.
/// Returns `None` for unbalanced quotes or embedded quotes.
fn unquote(s: &str) -> Option<String> {
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner.strip_suffix('"')?;
        if inner.contains('"') {
            return None;
        }
        Some(inner.to_string())
    } else if s.contains('"') {
        None
    } else {
        Some(s.to_string())
    }
}

fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("expected a [\"...\"] array, got `{value}`"))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue; // trailing comma
        }
        out.push(
            unquote(item)
                .filter(|_| item.starts_with('"'))
                .ok_or_else(|| format!("expected a quoted string, got `{item}`"))?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[scan]
exclude = [
    "vendor",      # inline comment
    "target",
]

[ordering]
allow = ["crates/spectm/src"]

[unsafe]
"crates/a.rs" = 3
"crates/b.rs" = 0
"#;

    #[test]
    fn parses_sample() {
        let cfg = parse(SAMPLE).unwrap();
        assert_eq!(cfg.exclude, ["vendor", "target"]);
        assert_eq!(cfg.ordering_allow, ["crates/spectm/src"]);
        assert_eq!(cfg.allowed_unsafe("crates/a.rs"), Some(3));
        assert_eq!(cfg.allowed_unsafe("crates/b.rs"), Some(0));
        assert_eq!(cfg.allowed_unsafe("crates/c.rs"), None);
    }

    #[test]
    fn rejects_typos_loudly() {
        // Rules cannot be switched off: a `[rules]` table is an unknown
        // section.
        assert!(parse("[rules]\nsafety-comment = false\n").is_err());
        assert!(parse("[rules]\nsafety-comment = true\n").is_err());
        assert!(parse("[layout]\nmap = \"map.rs\"\n").is_err());
        assert!(parse("[unknown]\nx = 1\n").is_err());
        assert!(parse("[unsafe]\n\"a.rs\" = lots\n").is_err());
        assert!(parse("[scan]\nexclude = [\"a\"\n").is_err());
        assert!(parse("just some text\n").is_err());
    }

    #[test]
    fn hash_inside_quoted_path_is_not_a_comment() {
        let cfg = parse("[unsafe]\n\"crates/a#weird.rs\" = 1\n").unwrap();
        assert_eq!(cfg.allowed_unsafe("crates/a#weird.rs"), Some(1));
    }
}
