//! A minimal JSON object writer for the harness's one-line results.

/// An ordered JSON object under construction.
#[derive(Debug, Default, Clone)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a number, printed with all its digits (non-finite becomes
    /// `null`).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        let text = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".into()
        };
        self.fields.push((key.into(), text));
        self
    }

    /// Adds a whole number.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.into(), value.to_string()));
        self
    }

    /// Adds a string.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields.push((key.into(), escape(value)));
        self
    }

    /// Adds a nested object.
    pub fn obj(mut self, key: &str, value: Obj) -> Self {
        self.fields.push((key.into(), value.render()));
        self
    }

    /// Renders the object on one line.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", escape(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
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
    fn renders_one_line_json() {
        let o = Obj::new()
            .num("a", 1.5)
            .int("b", 2)
            .str("c", "x\"y")
            .obj("d", Obj::new().int("e", 3));
        assert_eq!(
            o.render(),
            r#"{"a": 1.5, "b": 2, "c": "x\"y", "d": {"e": 3}}"#
        );
    }
}
