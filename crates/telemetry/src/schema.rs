//! The versioned event schema and a self-contained JSON reader.
//!
//! Every emitted line is one JSON object carrying the preamble keys
//! `schema` (version number), `ts` (epoch milliseconds), `run_id`
//! (correlation id) and `event` (kind). Each event kind then requires
//! the fields listed in [`REQUIRED_FIELDS`]. [`validate_line`] checks
//! all of it and is what the golden test and the `check_telemetry`
//! binary run over real streams.
//!
//! The reader is a small recursive-descent parser (the container has
//! no serde); it accepts exactly the JSON this crate's builder
//! produces plus ordinary whitespace, which is all a validator needs.

/// Version stamped into every line; bump when the event table or
/// preamble changes shape. v3 added the `session` field to
/// `run_start`/`run_end`/`error` (fleet attribution) and the
/// `fleet_health` kind.
pub const SCHEMA_VERSION: u64 = 3;

/// Required non-preamble fields per event kind. Unknown event kinds
/// are rejected; extra fields on known kinds are allowed (consumers
/// must ignore what they don't know).
pub const REQUIRED_FIELDS: [(&str, &[&str]); 9] = [
    ("run_start", &["design", "config", "session"]),
    ("run_end", &["instants", "wall_ns", "session"]),
    ("span", &["from", "to", "window_ns"]),
    ("verdict", &["monitor", "verdict"]),
    ("error", &["msg", "session"]),
    ("events_lost", &["total"]),
    ("fault_injected", &["site"]),
    ("degraded", &["site"]),
    ("fleet_health", &["sessions", "pressure"]),
];

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (kept as f64; counters up to 2^53 round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (`None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Parse one JSON value from `s` (the whole string must be consumed).
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let s = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let cp = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(cp).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte at offset {}", self.pos))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at offset {start}"))
    }
}

/// Validate one emitted line against the schema: it must parse as an
/// object, carry the preamble (`schema` == [`SCHEMA_VERSION`], numeric
/// `ts`, string `run_id`, string `event`), name a known event kind,
/// and carry that kind's required fields.
pub fn validate_line(line: &str) -> Result<(), String> {
    let obj = parse(line)?;
    if !matches!(obj, Json::Obj(_)) {
        return Err("line is not a JSON object".to_string());
    }
    match obj.get("schema").and_then(Json::as_u64) {
        Some(SCHEMA_VERSION) => {}
        Some(v) => return Err(format!("schema version {v}, expected {SCHEMA_VERSION}")),
        None => return Err("missing numeric 'schema'".to_string()),
    }
    if obj.get("ts").and_then(Json::as_f64).is_none() {
        return Err("missing numeric 'ts'".to_string());
    }
    if obj.get("run_id").and_then(Json::as_str).is_none() {
        return Err("missing string 'run_id'".to_string());
    }
    let event = obj
        .get("event")
        .and_then(Json::as_str)
        .ok_or("missing string 'event'")?;
    let required = REQUIRED_FIELDS
        .iter()
        .find(|(name, _)| *name == event)
        .map(|(_, fields)| *fields)
        .ok_or_else(|| format!("unknown event kind '{event}'"))?;
    for field in required {
        if obj.get(field).is_none() {
            return Err(format!("event '{event}' missing required field '{field}'"));
        }
    }
    Ok(())
}

/// Checks, line by line in stream order, that session-stamped lines
/// are attributed to their own session's run: while a session's run
/// is open (from its `run_start` to its `run_end`), every line
/// carrying that non-zero `session` must carry the `run_id` its
/// `run_start` did. Lines of sessions with no open run (e.g. an
/// admission refusal) are not checked.
#[derive(Debug, Default)]
pub struct SessionAttribution {
    /// Session id → the run id of its open `run_start`.
    open: std::collections::HashMap<u64, String>,
}

impl SessionAttribution {
    /// A checker with no run open.
    pub fn new() -> SessionAttribution {
        SessionAttribution::default()
    }

    /// Check one parsed line (in stream order).
    pub fn check(&mut self, line: &Json) -> Result<(), String> {
        let Some(session) = line.get("session").and_then(Json::as_u64) else {
            return Ok(());
        };
        let (Some(run_id), Some(event)) = (
            line.get("run_id").and_then(Json::as_str),
            line.get("event").and_then(Json::as_str),
        ) else {
            return Ok(());
        };
        if session == 0 {
            return Ok(());
        }
        if event == "run_start" {
            self.open.insert(session, run_id.to_string());
            return Ok(());
        }
        if let Some(owner) = self.open.get(&session) {
            if owner != run_id {
                return Err(format!(
                    "session {session}: '{event}' line carries run_id {run_id}, \
                     but the session's run_start carried {owner}"
                ));
            }
        }
        if event == "run_end" {
            self.open.remove(&session);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_rejects_another_sessions_run_id() {
        let lines = [
            r#"{"run_id":"r-1","event":"run_start","session":1}"#,
            r#"{"run_id":"r-2","event":"run_start","session":2}"#,
            r#"{"run_id":"r-1","event":"span","session":1}"#,
            r#"{"run_id":"r-0","event":"events_lost","session":9}"#,
            r#"{"run_id":"r-2","event":"run_end","session":2}"#,
        ];
        let mut a = SessionAttribution::new();
        for l in lines {
            a.check(&parse(l).unwrap()).unwrap();
        }
        // Session 1 is still open: a line stamped with another run's
        // id (or the idle id) is misattributed.
        for bad in [
            r#"{"run_id":"r-2","event":"verdict","session":1}"#,
            r#"{"run_id":"r-0","event":"error","session":1}"#,
        ] {
            assert!(a.check(&parse(bad).unwrap()).is_err(), "{bad}");
        }
        // Session 2 closed: its id may be reused by a later run.
        a.check(&parse(r#"{"run_id":"r-3","event":"run_start","session":2}"#).unwrap())
            .unwrap();
        a.check(&parse(r#"{"run_id":"r-3","event":"span","session":2}"#).unwrap())
            .unwrap();
    }

    #[test]
    fn parses_nested_values() {
        let v = parse(r#"{"a":1,"b":[true,null,"x\n"],"c":{"d":-2.5}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        match v.get("b") {
            Some(Json::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[0], Json::Bool(true));
                assert_eq!(items[1], Json::Null);
                assert_eq!(items[2], Json::Str("x\n".to_string()));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")).and_then(Json::as_f64),
            Some(-2.5)
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse(r#"{"a":1} extra"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn validates_preamble_and_required_fields() {
        let good =
            r#"{"schema":3,"ts":1.0,"run_id":"r1-1","event":"error","msg":"boom","session":0}"#;
        validate_line(good).unwrap();
        // Missing required field (v3: errors must carry a session).
        let bad = r#"{"schema":3,"ts":1.0,"run_id":"r1-1","event":"error","msg":"boom"}"#;
        assert!(validate_line(bad).is_err());
        // Unknown kind.
        let unk = r#"{"schema":3,"ts":1.0,"run_id":"r1-1","event":"nope"}"#;
        assert!(validate_line(unk).is_err());
        // Wrong schema version.
        let ver = r#"{"schema":99,"ts":1.0,"run_id":"r1-1","event":"error","msg":"m","session":0}"#;
        assert!(validate_line(ver).is_err());
        // The fault kinds landed with schema v2.
        let fi = r#"{"schema":3,"ts":1.0,"run_id":"r1-1","event":"fault_injected","site":"drop_external","a":3,"b":7}"#;
        validate_line(fi).unwrap();
        let dg = r#"{"schema":3,"ts":1.0,"run_id":"r1-1","event":"degraded","site":"vm","kind":"pred","index":0}"#;
        validate_line(dg).unwrap();
        // The fleet-health snapshot kind landed with schema v3.
        let fh = r#"{"schema":3,"ts":1.0,"run_id":"r1-1","event":"fleet_health","sessions":8,"pressure":1,"running":6,"failed":1}"#;
        validate_line(fh).unwrap();
        // Extra fields on a known kind are fine.
        let extra = r#"{"schema":3,"ts":1.0,"run_id":"r1-1","event":"span","from":0,"to":1024,"window_ns":5,"p50_ns":1}"#;
        validate_line(extra).unwrap();
    }
}
