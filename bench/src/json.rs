//! Reading JSON back: `snb_obs::Json` renders documents but the workspace
//! has no parser, and `compare` must read result files and BENCHMARK.json.

use snb_obs::Json;

/// Parse one JSON document; `Err` says where and why it stopped.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

/// Field `key` of an object.
pub fn get<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Any JSON number as `f64`.
pub fn as_f64(value: &Json) -> Option<f64> {
    match *value {
        Json::U64(v) => Some(v as f64),
        Json::I64(v) => Some(v as f64),
        Json::F64(v) => Some(v),
        _ => None,
    }
}

/// Equality that reads numbers as numbers: the renderer writes `12.0` as
/// `12`, which parses back as an integer.
pub fn same(a: &Json, b: &Json) -> bool {
    match (as_f64(a), as_f64(b)) {
        (Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(fields));
                    }
                    if !fields.is_empty() && !self.eat(",") {
                        return Err(self.error("expected ',' or '}'"));
                    }
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.error("expected ':'"));
                    }
                    fields.push((key, self.value()?));
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(self.error("expected ',' or ']'"));
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or_else(|| self.error("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8")),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            out.extend(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                }
                _ => out.push(b),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII by construction");
        if let Ok(v) = text.parse::<u64>() {
            Ok(Json::U64(v))
        } else if let Ok(v) = text.parse::<i64>() {
            Ok(Json::I64(v))
        } else {
            text.parse::<f64>().map(Json::F64).map_err(|_| self.error("expected a value"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_what_the_renderer_writes() {
        let doc = Json::obj([
            ("name", Json::from("mix.inproc \"quoted\"\n")),
            ("count", Json::from(42u64)),
            ("delta", Json::from(-7i64)),
            ("rate", Json::from(70662.125)),
            ("tiny", Json::from(1.5e-7)),
            ("flags", Json::arr([Json::Bool(true), Json::Bool(false), Json::Null])),
            (
                "nested",
                Json::obj([("empty_obj", Json::Obj(vec![])), ("empty_arr", Json::Arr(vec![]))]),
            ),
        ]);
        assert_eq!(parse(&doc.render()).unwrap(), doc);
        assert_eq!(parse(&doc.render_pretty(2)).unwrap(), doc);
    }

    #[test]
    fn accessors_read_fields_and_numbers() {
        let doc = parse(r#"{"a": {"b": 3}, "c": 2.5, "d": -1, "e": "µs"}"#).unwrap();
        assert_eq!(get(&doc, "a").and_then(|a| get(a, "b")).and_then(as_f64), Some(3.0));
        assert_eq!(get(&doc, "c").and_then(as_f64), Some(2.5));
        assert_eq!(get(&doc, "d").and_then(as_f64), Some(-1.0));
        assert_eq!(get(&doc, "e"), Some(&Json::Str("µs".into())));
        assert_eq!(get(&doc, "missing"), None);
        assert_eq!(as_f64(&Json::Null), None);
    }

    #[test]
    fn a_float_header_field_equals_its_own_rendering_read_back() {
        let written = Json::from(12.0);
        let read = parse(&written.render()).unwrap();
        assert_ne!(written, read, "12.0 renders as 12 and reads back as an integer");
        assert!(same(&written, &read));
        assert!(!same(&Json::from(12.0), &Json::from(13u64)));
        assert!(same(&Json::from("a"), &Json::from("a")) && !same(&Json::from("a"), &Json::Null));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in
            ["", "{", "[1 2]", "{\"a\" 1}", "{\"a\": }", "\"open", "tru", "1 2", "{\"a\":1,}"]
        {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
