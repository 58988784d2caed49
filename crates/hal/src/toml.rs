//! A minimal TOML-subset parser for device manifests.
//!
//! The build environment vendors no TOML crate, and manifests only need
//! a small, regular slice of the language: bare-key `key = value` pairs,
//! `[table]` headers (dotted paths allowed), `[[array-of-tables]]`
//! headers, and scalar values (integers, floats, strings, booleans).
//! Comments (`#`) and blank lines are allowed anywhere. Anything else is
//! a parse error carrying the 1-based line number, which the manifest
//! loader surfaces as a schema error on the `(syntax)` pseudo-field.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer (`42`, `1_000`).
    Int(i64),
    /// A float (`1.25`).
    Float(f64),
    /// A quoted string (`"agilio-cx"`).
    Str(String),
    /// A boolean (`true` / `false`).
    Bool(bool),
    /// A table (`[section]`, or the document root).
    Table(Table),
    /// An array of tables (`[[entry]]` repeated).
    Array(Vec<Value>),
}

impl Value {
    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
            Value::Table(_) => "table",
            Value::Array(_) => "array",
        }
    }
}

/// A TOML table: key → value, iterated in sorted key order.
pub type Table = BTreeMap<String, Value>;

/// A TOML-level syntax error (as opposed to a schema violation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, detail: impl Into<String>) -> ParseError {
    ParseError {
        line,
        detail: detail.into(),
    }
}

fn is_bare_key(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Walks `path` from `root`, creating intermediate tables and descending
/// into the last element of arrays-of-tables.
fn navigate<'a>(
    root: &'a mut Table,
    path: &[String],
    line: usize,
) -> Result<&'a mut Table, ParseError> {
    let mut cur = root;
    for seg in path {
        let entry = cur
            .entry(seg.clone())
            .or_insert_with(|| Value::Table(Table::new()));
        cur = match entry {
            Value::Table(t) => t,
            Value::Array(a) => match a.last_mut() {
                Some(Value::Table(t)) => t,
                _ => return Err(err(line, format!("`{seg}` is not a table of tables"))),
            },
            other => {
                return Err(err(
                    line,
                    format!("`{seg}` is a {}, not a table", other.type_name()),
                ))
            }
        };
    }
    Ok(cur)
}

fn parse_header_path(inner: &str, line: usize) -> Result<Vec<String>, ParseError> {
    let segs: Vec<String> = inner.split('.').map(|s| s.trim().to_string()).collect();
    for s in &segs {
        if !is_bare_key(s) {
            return Err(err(line, format!("invalid table name segment `{s}`")));
        }
    }
    Ok(segs)
}

fn parse_scalar(raw: &str, line: usize) -> Result<Value, ParseError> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        // Quoted string: scan for the closing quote, honouring \" and \\.
        let mut out = String::new();
        let mut chars = rest.chars();
        loop {
            match chars.next() {
                None => return Err(err(line, "unterminated string")),
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    other => {
                        return Err(err(
                            line,
                            format!("unsupported string escape `\\{other:?}`"),
                        ))
                    }
                },
                Some(c) => out.push(c),
            }
        }
        let tail = chars.as_str().trim();
        if !tail.is_empty() && !tail.starts_with('#') {
            return Err(err(
                line,
                format!("trailing characters after string: `{tail}`"),
            ));
        }
        return Ok(Value::Str(out));
    }
    // Everything else has no embedded '#': strip inline comments.
    let raw = raw.split('#').next().unwrap_or("").trim();
    match raw {
        "" => return Err(err(line, "missing value")),
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let digits: String = raw.chars().filter(|&c| c != '_').collect();
    if let Ok(i) = digits.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = digits.parse::<f64>() {
        if f.is_finite() {
            return Ok(Value::Float(f));
        }
        return Err(err(line, format!("non-finite number `{raw}`")));
    }
    Err(err(line, format!("unparseable value `{raw}`")))
}

/// Parses a manifest document into its root table.
///
/// # Errors
///
/// Returns [`ParseError`] (with a 1-based line number) on any construct
/// outside the supported subset.
pub fn parse(text: &str) -> Result<Table, ParseError> {
    let mut root = Table::new();
    let mut current: Vec<String> = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw_line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(inner) = trimmed.strip_prefix("[[") {
            let inner = inner
                .split('#')
                .next()
                .unwrap_or("")
                .trim()
                .strip_suffix("]]")
                .ok_or_else(|| err(line, "malformed `[[table]]` header"))?;
            let segs = parse_header_path(inner.trim(), line)?;
            let (last, parent) = segs.split_last().expect("non-empty header path");
            let parent_tbl = navigate(&mut root, parent, line)?;
            let entry = parent_tbl
                .entry(last.clone())
                .or_insert_with(|| Value::Array(Vec::new()));
            match entry {
                Value::Array(a) => a.push(Value::Table(Table::new())),
                other => {
                    return Err(err(
                        line,
                        format!(
                            "`{last}` is a {}, not an array of tables",
                            other.type_name()
                        ),
                    ))
                }
            }
            current = segs;
        } else if let Some(inner) = trimmed.strip_prefix('[') {
            let inner = inner
                .split('#')
                .next()
                .unwrap_or("")
                .trim()
                .strip_suffix(']')
                .ok_or_else(|| err(line, "malformed `[table]` header"))?;
            let segs = parse_header_path(inner.trim(), line)?;
            navigate(&mut root, &segs, line)?;
            current = segs;
        } else {
            let (key, value) = trimmed
                .split_once('=')
                .ok_or_else(|| err(line, format!("expected `key = value`, got `{trimmed}`")))?;
            let key = key.trim();
            if !is_bare_key(key) {
                return Err(err(line, format!("invalid key `{key}`")));
            }
            let value = parse_scalar(value, line)?;
            let tbl = navigate(&mut root, &current, line)?;
            if tbl.insert(key.to_string(), value).is_some() {
                return Err(err(line, format!("duplicate key `{key}`")));
            }
        }
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_arrays_and_scalars() {
        let doc = r#"
# top comment
schema_version = 1
name = "dev" # inline comment
flag = true

[cores]
count = 1_000
freq_ghz = 1.25

[[port]]
id = 0

[[port]]
id = 1
"#;
        let t = parse(doc).expect("parses");
        assert_eq!(t["schema_version"], Value::Int(1));
        assert_eq!(t["name"], Value::Str("dev".into()));
        assert_eq!(t["flag"], Value::Bool(true));
        let Value::Table(cores) = &t["cores"] else {
            panic!("cores is a table")
        };
        assert_eq!(cores["count"], Value::Int(1000));
        assert_eq!(cores["freq_ghz"], Value::Float(1.25));
        let Value::Array(ports) = &t["port"] else {
            panic!("port is an array")
        };
        assert_eq!(ports.len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("a = 1\nb =\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse("a = 1\na = 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.detail.contains("duplicate"), "{e}");
        let e = parse("x = \"open\n").unwrap_err();
        assert!(e.detail.contains("unterminated"), "{e}");
    }

    #[test]
    fn dotted_headers_nest() {
        let t = parse("[a.b]\nc = 2\n").expect("parses");
        let Value::Table(a) = &t["a"] else { panic!() };
        let Value::Table(b) = &a["b"] else { panic!() };
        assert_eq!(b["c"], Value::Int(2));
    }
}
