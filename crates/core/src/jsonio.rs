//! Minimal zero-dependency JSON support shared by the crash-safe
//! [`crate::journal`] and the service protocol ([`crate::proto`]).
//!
//! Both modules speak JSON-lines: one self-contained JSON value per
//! line, hand-rolled on the write side (mirroring
//! [`crate::engine::RunReport::to_json`]) and parsed on the read side by
//! the recursive-descent reader here. The grammar is full JSON (nested
//! objects, arrays, strings, numbers, booleans, null) minus only the
//! exotica neither format uses (no `\uXXXX` surrogate pairs); anything
//! trailing the top-level value is rejected so a torn line fused with
//! the next write can never parse silently.
//!
//! The parser sits on the network boundary (every `nanopowerd` request
//! line goes through it), so hostile input must come back as a typed
//! error, never a panic or a crash: nesting is capped at
//! [`MAX_DEPTH`] (bounded recursion — a `[[[[…` flood cannot overflow
//! the stack), numbers that overflow `f64` are rejected instead of
//! becoming `inf`, and unescaped control bytes (including NUL) inside
//! strings are rejected the way the JSON grammar demands.

use std::collections::HashMap;

/// Maximum container nesting the parser accepts. Both line formats top
/// out at three levels; 64 leaves slack for future schemas while keeping
/// the recursion bounded against adversarial `[[[[…` input.
pub(crate) const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(HashMap<String, Json>),
}

impl Json {
    /// The string payload, if this is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.is_finite() && *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub(crate) fn as_obj(&self) -> Option<&HashMap<String, Json>> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub(crate) fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|fields| fields.get(key))
    }
}

/// Parses one complete JSON value from `line`, rejecting trailing bytes.
pub(crate) fn parse(line: &str) -> Result<Json, String> {
    let mut chars = line.char_indices().peekable();
    skip_ws(&mut chars);
    let value = parse_value(&mut chars, 0)?;
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing bytes after the JSON value".into());
    }
    Ok(value)
}

type Chars<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

fn skip_ws(chars: &mut Chars<'_>) {
    while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn expect(chars: &mut Chars<'_>, want: char) -> Result<(), String> {
    match chars.next() {
        Some((_, c)) if c == want => Ok(()),
        other => Err(format!("expected `{want}`, got {other:?}")),
    }
}

fn parse_value(chars: &mut Chars<'_>, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    skip_ws(chars);
    match chars.peek() {
        Some((_, '"')) => Ok(Json::Str(parse_string(chars)?)),
        Some((_, '{')) => parse_object(chars, depth),
        Some((_, '[')) => parse_array(chars, depth),
        Some((_, 't' | 'f' | 'n')) => {
            let word: String = std::iter::from_fn(|| {
                matches!(chars.peek(), Some((_, c)) if c.is_ascii_alphabetic())
                    .then(|| chars.next().map(|(_, c)| c))
                    .flatten()
            })
            .collect();
            match word.as_str() {
                "true" => Ok(Json::Bool(true)),
                "false" => Ok(Json::Bool(false)),
                "null" => Ok(Json::Null),
                other => Err(format!("unknown literal `{other}`")),
            }
        }
        Some((_, c)) if *c == '-' || c.is_ascii_digit() => {
            let token: String = std::iter::from_fn(|| {
                matches!(
                    chars.peek(),
                    Some((_, c)) if c.is_ascii_digit() || "+-.eE".contains(*c)
                )
                .then(|| chars.next().map(|(_, c)| c))
                .flatten()
            })
            .collect();
            match token.parse::<f64>() {
                // `1e999` parses to infinity; neither line format writes
                // non-finite numbers, so they can only be garbage.
                Ok(n) if n.is_finite() => Ok(Json::Num(n)),
                Ok(_) => Err(format!("number out of range `{token}`")),
                Err(_) => Err(format!("bad number `{token}`")),
            }
        }
        other => Err(format!("unexpected value start {other:?}")),
    }
}

fn parse_object(chars: &mut Chars<'_>, depth: usize) -> Result<Json, String> {
    expect(chars, '{')?;
    let mut fields = HashMap::new();
    skip_ws(chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(chars);
        let key = parse_string(chars)?;
        skip_ws(chars);
        expect(chars, ':')?;
        let value = parse_value(chars, depth + 1)?;
        fields.insert(key, value);
        skip_ws(chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            _ => return Err("expected `,` or `}` after value".into()),
        }
    }
    Ok(Json::Obj(fields))
}

fn parse_array(chars: &mut Chars<'_>, depth: usize) -> Result<Json, String> {
    expect(chars, '[')?;
    let mut items = Vec::new();
    skip_ws(chars);
    if matches!(chars.peek(), Some((_, ']'))) {
        chars.next();
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(chars, depth + 1)?);
        skip_ws(chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, ']')) => break,
            _ => return Err("expected `,` or `]` in array".into()),
        }
    }
    Ok(Json::Arr(items))
}

fn parse_string(chars: &mut Chars<'_>) -> Result<String, String> {
    expect(chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'u')) => {
                    let hex: String = (0..4)
                        .filter_map(|_| chars.next().map(|(_, c)| c))
                        .collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                    out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            // Raw control bytes (NUL included) must arrive escaped; a
            // bare one is framing garbage, not content.
            Some((_, c)) if (c as u32) < 0x20 => {
                return Err(format!("unescaped control character 0x{:02x}", c as u32))
            }
            Some((_, c)) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

/// Escapes a string as a JSON string literal (quotes included) — the
/// one escaper behind the journal, protocol and run-report writers.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"run": {"names": ["a", "b"], "csv": false, "deadline_ms": 250}}"#)
            .expect("parses");
        let run = v.get("run").expect("run field");
        let names = run.get("names").and_then(Json::as_arr).expect("names");
        assert_eq!(names.len(), 2);
        assert_eq!(names[0].as_str(), Some("a"));
        assert_eq!(run.get("csv").and_then(Json::as_bool), Some(false));
        assert_eq!(run.get("deadline_ms").and_then(Json::as_u64), Some(250));
    }

    #[test]
    fn rejects_trailing_bytes() {
        assert!(parse(r#"{"a": 1} extra"#).is_err());
        assert!(parse(r#"{"a": 1}{"b": 2}"#).is_err());
    }

    #[test]
    fn round_trips_escapes() {
        let nasty = "quote\" slash\\ newline\n tab\t ctrl\u{1}";
        let v = parse(&format!("{{\"k\": {}}}", escape(nasty))).expect("parses");
        assert_eq!(v.get("k").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn scalars_and_null() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(parse("[]").unwrap(), Json::Arr(Vec::new()));
        assert!(parse("{").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        // One past the cap fails with the typed message…
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let line = format!(
                "{}1{}",
                open.repeat(MAX_DEPTH + 1),
                close.repeat(MAX_DEPTH + 1)
            );
            let err = parse(&line).unwrap_err();
            assert!(err.contains("nesting deeper"), "{err}");
        }
        // …while the cap itself parses.
        let line = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&line).is_ok());
        // A pathological flood (far past the cap, unclosed) fails fast
        // instead of recursing 100k frames deep.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn huge_numbers_are_rejected_not_infinite() {
        assert!(parse("1e999").unwrap_err().contains("out of range"));
        assert!(parse("-1e999").unwrap_err().contains("out of range"));
        assert_eq!(parse("1e308").unwrap().as_f64(), Some(1e308));
        // Malformed exponent soup stays a typed error.
        assert!(parse("1e+e+e").is_err());
        assert!(parse("--5").is_err());
    }

    #[test]
    fn truncated_and_bad_escapes_are_typed_errors() {
        for line in [
            "\"\\u12",     // \u escape cut mid-hex by a torn line
            "\"\\u12zz\"", // non-hex \u payload
            "\"\\q\"",     // unknown escape
            "\"\\",        // escape cut at the backslash
            "\"\\ud800\"", // lone surrogate is not a char
        ] {
            assert!(parse(line).is_err(), "`{line}` must not parse");
        }
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn raw_control_bytes_in_strings_are_rejected() {
        assert!(parse("\"nul\u{0}byte\"")
            .unwrap_err()
            .contains("control character"));
        assert!(parse("\"tab\there\"").is_err());
        // The escaped forms stay legal — that is what `escape` emits.
        assert_eq!(parse("\"\\u0000\"").unwrap().as_str(), Some("\u{0}"));
        assert_eq!(
            parse(&escape("tab\there").to_string()).unwrap().as_str(),
            Some("tab\there")
        );
    }

    #[test]
    fn garbage_lines_never_panic() {
        // A cheap deterministic fuzz sweep: structured prefixes crossed
        // with hostile suffixes; every combination must return, not
        // panic (the no_panic_props suite re-checks this through the
        // public protocol entry points).
        let prefixes = ["", "{", "[", "{\"k\":", "\"", "-", "1e", "tru", "[1,"];
        let suffixes = [
            "",
            "}",
            "]",
            "\u{0}",
            "\\",
            "\"",
            "9999999999999999999999",
            "1e99999",
            "nul",
            "\u{7f}",
            "{{{{{{",
            "\"\\u",
            ",,",
        ];
        for p in prefixes {
            for s in suffixes {
                let _ = parse(&format!("{p}{s}"));
            }
        }
    }

    #[test]
    fn u64_accessor_rejects_negatives_and_non_numbers() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("\"3\"").unwrap().as_u64(), None);
    }
}
