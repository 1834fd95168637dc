//! A small JSON reader for responses, kept apart from the program's
//! own parser so that a parser fault cannot hide a wrong answer.

#[derive(Debug, Clone, PartialEq)]
pub enum J {
    Null,
    Bool(bool),
    /// Integers only: every number the service renders is one.
    Num(u64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn parse(text: &str) -> Result<J, String> {
        let mut p = Reader {
            b: text.as_bytes(),
            at: 0,
        };
        let v = p.value(0)?;
        p.ws();
        if p.at != p.b.len() {
            return Err(format!("trailing bytes at {}", p.at));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&J> {
        match self {
            J::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            J::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            J::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<J>> {
        match self {
            J::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(J::as_u64)
    }
}

struct Reader<'a> {
    b: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while self.at < self.b.len() && self.b[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.ws();
        if self.b.get(self.at) == Some(&byte) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<J, String> {
        if depth > 64 {
            return Err("nested too deep".into());
        }
        self.ws();
        let rest = &self.b[self.at..];
        match rest.first() {
            Some(b'{') => {
                self.at += 1;
                let mut entries = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.ws();
                        let key = self.string()?;
                        if !self.eat(b':') {
                            return Err(format!("expected ':' at {}", self.at));
                        }
                        entries.push((key, self.value(depth + 1)?));
                        if self.eat(b'}') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(format!("expected ',' or '}}' at {}", self.at));
                        }
                    }
                }
                Ok(J::Obj(entries))
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value(depth + 1)?);
                        if self.eat(b']') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(format!("expected ',' or ']' at {}", self.at));
                        }
                    }
                }
                Ok(J::Arr(items))
            }
            Some(b'"') => Ok(J::Str(self.string()?)),
            Some(b't') if rest.starts_with(b"true") => {
                self.at += 4;
                Ok(J::Bool(true))
            }
            Some(b'f') if rest.starts_with(b"false") => {
                self.at += 5;
                Ok(J::Bool(false))
            }
            Some(b'n') if rest.starts_with(b"null") => {
                self.at += 4;
                Ok(J::Null)
            }
            Some(b'0'..=b'9') => {
                let digits = rest.iter().take_while(|c| c.is_ascii_digit()).count();
                if matches!(rest.get(digits), Some(b'.' | b'e' | b'E')) {
                    return Err(format!("non-integer number at {}", self.at));
                }
                let text = std::str::from_utf8(&rest[..digits]).expect("ASCII digits");
                self.at += digits;
                text.parse()
                    .map(J::Num)
                    .map_err(|e| format!("number at {}: {e}", self.at))
            }
            _ => Err(format!("unexpected byte at {}", self.at)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.at) != Some(&b'"') {
            return Err(format!("expected a string at {}", self.at));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.b.get(self.at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.b.get(self.at + 1).ok_or("unterminated escape")?;
                    out.push(match esc {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        b'"' | b'\\' | b'/' => esc,
                        _ => return Err(format!("unsupported escape at {}", self.at)),
                    });
                    self.at += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_response() {
        let v = J::parse(r#"{"a":[1,2,{"b":"x\"y"}],"c":true,"d":null}"#).unwrap();
        assert_eq!(v.get("a").and_then(J::as_array).map(Vec::len), Some(3));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].get("b"),
            Some(&J::Str("x\"y".into()))
        );
        assert!(J::parse("{\"a\":1.5}").is_err());
        assert!(J::parse("[1,2] x").is_err());
    }
}
