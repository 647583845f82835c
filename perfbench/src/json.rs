//! A small JSON reader for the answers the benchmark checks.
//!
//! The benchmark reads answers of several hundred kilobytes (`rank`,
//! `mc` and `eval` of the 4096-node cases). It parses them here, in
//! linear time, into the same `serde::Value` the service builds, with
//! floats read by `str::parse::<f64>` so `to_bits` comparisons are
//! exact.

use serde::Value;

pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Reader { b: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.b.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.b.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.b.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let mut float = false;
        while let Some(&c) = self.b.get(self.pos) {
            match c {
                b'0'..=b'9' | b'-' => {}
                b'.' | b'e' | b'E' | b'+' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).map_err(|_| self.err("number"))?;
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
        }
        text.parse::<f64>().map(Value::F64).map_err(|_| self.err("number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.b.get(self.pos), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.b[start..self.pos]).map_err(|_| self.err("utf-8"))?,
            );
            match self.b.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = *self.b.get(self.pos + 1).ok_or_else(|| self.err("escape"))?;
                    self.pos += 2;
                    out.push(match escaped {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{08}',
                        b'f' => '\u{0C}',
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("\\u"))?;
                            self.pos += 4;
                            let cp =
                                u32::from_str_radix(std::str::from_utf8(hex).unwrap_or("x"), 16)
                                    .map_err(|_| self.err("\\u"))?;
                            char::from_u32(cp).unwrap_or('\u{FFFD}')
                        }
                        _ => return Err(self.err("escape")),
                    });
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }
}
