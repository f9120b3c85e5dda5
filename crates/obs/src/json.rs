//! A minimal JSON reader — just enough for the golden tests to validate
//! exported Chrome traces and registry dumps without a crates.io parser.
//!
//! Supports the full JSON value grammar (objects keep key order, numbers
//! are f64). Not a validator of exotic corners (surrogate pairs are passed
//! through unpaired); good enough for machine-generated input.

/// A parsed JSON value. Objects preserve key order; all numbers are `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, with escapes decoded.
    String(String),
    /// `[...]`.
    Array(Vec<Value>),
    /// `{...}`, keys in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The number, if this is a [`Value::Number`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is a [`Value::String`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is a [`Value::Array`].
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The key/value pairs, if this is a [`Value::Object`].
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Escapes `s` for embedding inside a JSON string literal. Handles the
/// two mandatory characters (`"`, `\`), the common whitespace escapes
/// (`\n`, `\r`, `\t`) and every remaining control character in
/// `\u{0000}`–`\u{001F}` as `\uXXXX` — anything less produces invalid
/// JSON the moment a control character lands in a metric key or label.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut r = Reader::new(text);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// A cursor over JSON text. [`parse`] builds a [`Value`] tree with it; a
/// decoder that knows the shape of its document — megabytes of numeric
/// rows, say — drives it directly and never materialises the tree. Every
/// method skips leading whitespace.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// The next byte after any whitespace.
    fn token(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
        self.peek()
    }

    /// Consumes the byte `b`, or fails naming what stood there instead.
    pub fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.token() {
            Some(found) if found == b => {
                self.pos += 1;
                Ok(())
            }
            found => Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                found.map(|c| c as char)
            )),
        }
    }

    /// Succeeds when only whitespace is left.
    pub fn finish(&mut self) -> Result<(), String> {
        match self.token() {
            None => Ok(()),
            Some(_) => Err(format!("trailing garbage at byte {}", self.pos)),
        }
    }

    /// Reads any JSON value as a tree.
    pub fn value(&mut self) -> Result<Value, String> {
        match self.token() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|r, key| {
                    fields.push((key, r.value()?));
                    Ok(())
                })?;
                Ok(Value::Object(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r, _| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Reads an object, calling `field` with each key in source order;
    /// `field` must consume the key's value.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        let mut more = self.token() != Some(b'}');
        while more {
            let key = self.string()?;
            self.expect(b':')?;
            field(self, key)?;
            more = self.token() == Some(b',');
            self.pos += more as usize;
        }
        self.expect(b'}')
    }

    /// Reads an array, calling `item` with each element's index; `item`
    /// must consume the element.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self, usize) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'[')?;
        let mut more = self.token() != Some(b']');
        let mut index = 0;
        while more {
            item(self, index)?;
            index += 1;
            more = self.token() == Some(b',');
            self.pos += more as usize;
        }
        self.expect(b']')
    }

    /// Reads a number written as plain decimal digits, exactly: no sign,
    /// fraction or exponent, and no rounding through `f64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        self.token();
        let start = self.pos;
        let mut v = 0u64;
        while let Some(d) = self.bytes.get(self.pos).filter(|b| b.is_ascii_digit()) {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add((d - b'0') as u64))
                .ok_or_else(|| format!("number at byte {start} exceeds 64 bits"))?;
            self.pos += 1;
        }
        let stray = self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'.' | b'e' | b'E' | b'-' | b'+'));
        if self.pos == start || stray {
            return Err(format!("expected a non-negative integer at byte {start}"));
        }
        Ok(v)
    }

    /// Reads a string, decoding its escapes.
    pub fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("unescaped control character 0x{b:02x} in string"));
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Multi-byte UTF-8 scalar (input is a &str, so `pos`
                    // always lands on a boundary and the tail decodes).
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or("truncated UTF-8 sequence")?;
                    let s = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn object_preserves_key_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<_> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn strings_need_escaped_control_characters() {
        assert!(parse("\"a\tb\"").is_err());
        let escaped = format!("\"{}\"", escape("a\tb\u{1}"));
        assert_eq!(parse(&escaped).unwrap().as_str(), Some("a\tb\u{1}"));
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#""Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(vec![]));
    }
}
