//! The workspace's one JSON reader and string writer.
//!
//! [`parse`] reads the daemon's untrusted `/audit` and `/mitigate`
//! request bodies, `fb-trace`'s telemetry trails and `fb-lint`'s
//! baselines; [`push_str_lit`] is the matching write side that every
//! hand-rolled JSON renderer (telemetry events, wire responses, lint
//! reports) quotes strings with. There is no external dependency.
//!
//! The reader is a recursive-descent parser over the full JSON grammar
//! (objects, arrays, strings with escapes, numbers, booleans, null),
//! with numbers read as `f64`. It is linear in the input size: a string
//! is copied one run at a time, up to the next `"` or `\`, and is never
//! re-scanned. Arrays and objects nest at most [`MAX_DEPTH`] levels, so
//! a nesting bomb is an `Err`, not a stack overflow. A number of the
//! form `-?digits(.digits)?` with at most 15 digits is read exactly as
//! `mantissa / 10^k` (both operands exact `f64`s, so the one division is
//! correctly rounded); every other token goes through
//! `str::parse::<f64>`, which gives the same bits.

use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`parse`] accepts. The wire
/// format nests 4 levels; trails and lint baselines nest fewer.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (read as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, preserving member order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as an integer, when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

/// Parses a JSON-lines document: one value per non-empty line.
pub fn parse_lines(input: &str) -> Result<Vec<Value>, String> {
    input
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Appends `s` as a JSON string literal: quote, backslash, newline,
/// carriage return and tab get their short escapes, other control
/// characters `\u00XX`, and everything else is copied as is.
pub fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an `f64` as a JSON number (`{x}` formatting), or `null` when
/// it is not finite.
pub fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// `10^k` for every `k` the exact number path divides by; each is an
/// exact `f64`.
const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// The exact value of a `-?digits(.digits)?` token with at most 15
/// digits and no leading zero, or `None` for any other token. The
/// mantissa is below `2^53` and `10^k` is exact, so the one IEEE
/// division is correctly rounded: the same bits as `str::parse::<f64>`.
fn exact_decimal(token: &[u8]) -> Option<f64> {
    let (negative, digits) = match token.strip_prefix(b"-") {
        Some(rest) => (true, rest),
        None => (false, token),
    };
    let (int, frac) = match digits.iter().position(|&b| b == b'.') {
        Some(dot) => (&digits[..dot], &digits[dot + 1..]),
        None => (digits, &[][..]),
    };
    let bad_int = int.is_empty() || (int.len() > 1 && int.starts_with(b"0"));
    let bad_frac = frac.is_empty() && int.len() != digits.len();
    if bad_int || bad_frac || int.len() + frac.len() > 15 {
        return None;
    }
    let mut mantissa = 0u64;
    for &b in int.iter().chain(frac) {
        if !b.is_ascii_digit() {
            return None;
        }
        mantissa = mantissa * 10 + u64::from(b - b'0');
    }
    let x = mantissa as f64 / POW10[frac.len()];
    Some(if negative { -x } else { x })
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Runs `container` one nesting level down, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, String>,
    ) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\`. Both are ASCII, so
            // the run ends on a char boundary of the `&str` input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            let end = self.pos + run;
            out.push_str(
                self.input
                    .get(self.pos..end)
                    .ok_or_else(|| format!("string run off a char boundary at byte {end}"))?,
            );
            self.pos = end;
            match self.peek() {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uXXXX` with a low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect_byte(b'u')?;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| "invalid \\u escape".to_owned())?);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| "truncated \\u escape".to_owned())?;
        let s = std::str::from_utf8(digits).map_err(|e| e.to_string())?;
        let code = u32::from_str_radix(s, 16).map_err(|e| e.to_string())?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let token = &self.bytes[start..self.pos];
        if let Some(x) = exact_decimal(token) {
            return Ok(Value::Num(x));
        }
        let s = std::str::from_utf8(token).map_err(|e| e.to_string())?;
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number `{s}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a":1,"b":[true,null,-2.5e2],"c":"x"}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        let arr = v.get("b").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Value::Null);
        assert_eq!(arr[2].as_f64(), Some(-250.0));
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
    }

    #[test]
    fn parses_escapes() {
        let v = parse(r#""a\"b\\c\nAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA\u{e9}"));
    }

    #[test]
    fn parses_surrogate_pairs() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"open", "nul", "{\"a\" 1}", "1 2", "{'a':1}"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// splitmix64: `obs` has no dependencies, so the property tests
    /// carry their own seeded generator.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn digits(&mut self, n: usize) -> String {
            (0..n)
                .map(|_| char::from(b'0' + self.below(10) as u8))
                .collect()
        }
    }

    /// One numeric token from the mix the number path must agree on.
    fn numeric_token(rng: &mut SplitMix) -> String {
        const FIXED: [&str; 16] = [
            "-0", "0", "0.0", "-0.0", "1e5", "1E-3", "01", "-.5", "1.", "-", "00", "1.2.3", "1e",
            "-01.5", "1-2", "2.5e+3",
        ];
        let sign = if rng.below(2) == 0 { "" } else { "-" };
        match rng.below(6) {
            0 => FIXED[rng.below(FIXED.len() as u64) as usize].to_owned(),
            // Integers of 1..=20 digits, without a leading zero.
            1 => {
                let n = 1 + rng.below(20) as usize;
                let lead = char::from(b'1' + rng.below(9) as u8);
                format!("{sign}{lead}{}", rng.digits(n - 1))
            }
            // Cents-style decimals, as the benchmark's feature columns.
            2 => format!("{sign}{}.{}", rng.below(100_000), rng.digits(2)),
            // 15-, 16- and 17-digit mantissas with the point anywhere.
            3 => {
                let n = 15 + rng.below(3) as usize;
                let m = format!("{}{}", 1 + rng.below(9), rng.digits(n - 1));
                let dot = 1 + rng.below(n as u64 - 1) as usize;
                format!("{sign}{}.{}", &m[..dot], &m[dot..])
            }
            // Small fractions: leading zeros after the point.
            4 => format!(
                "{sign}0.{}{}",
                "0".repeat(rng.below(8) as usize),
                rng.digits(6)
            ),
            // Anything the number scanner would consume.
            _ => {
                const ALPHABET: &[u8] = b"0123456789.eE+-";
                let n = 1 + rng.below(12) as usize;
                let mut t = String::from(sign);
                t.push(char::from(b'0' + rng.below(10) as u8));
                for _ in 1..n {
                    t.push(char::from(
                        ALPHABET[rng.below(ALPHABET.len() as u64) as usize],
                    ));
                }
                t
            }
        }
    }

    #[test]
    fn numbers_match_str_parse_bit_for_bit() {
        let mut rng = SplitMix(0x5EED_0013);
        let mut fast = 0;
        for _ in 0..100_000 {
            let token = numeric_token(&mut rng);
            let ours = parse(&token).map(|v| v.as_f64().map(f64::to_bits));
            let std = token.parse::<f64>().map(|x| Some(x.to_bits()));
            assert_eq!(
                ours.is_ok(),
                std.is_ok(),
                "accept/reject differs on {token:?}"
            );
            if let (Ok(a), Ok(b)) = (&ours, &std) {
                assert_eq!(a, b, "bits differ on {token:?}");
            }
            fast += usize::from(exact_decimal(token.as_bytes()).is_some());
        }
        // The mix exercises both the exact path and the fallback.
        assert!(fast > 30_000 && fast < 90_000, "exact path took {fast}");
    }

    #[test]
    fn exact_path_declines_what_it_cannot_read_exactly() {
        for token in [
            "1e5",
            "1E-3",
            "01",
            "-.5",
            "1.",
            "-",
            "1234567890123456",
            "0.1234567890123456",
        ] {
            assert_eq!(exact_decimal(token.as_bytes()), None, "{token}");
        }
        assert_eq!(
            exact_decimal(b"-0").map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(
            exact_decimal(b"123456789012345"),
            Some(123_456_789_012_345.0)
        );
        assert_eq!(exact_decimal(b"12.34"), Some(12.34));
    }

    #[test]
    fn string_runs_split_at_escapes_and_multibyte_chars() {
        let v = parse(r#""aé\"b""#).unwrap();
        assert_eq!(v.as_str(), Some("a\u{e9}\"b"));
        let v = parse(r#""x\ud83d\ude00y""#).unwrap();
        assert_eq!(v.as_str(), Some("x\u{1F600}y"));
        let v = parse(r#""日本\n語""#).unwrap();
        assert_eq!(v.as_str(), Some("日本\n語"));
        assert_eq!(parse(r#""""#).unwrap().as_str(), Some(""));
        for bad in ["\"abc", "\"a\u{e9}", "\"ab\\\"", "\"ab\\", "\"\\ud83d"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        let deep =
            |n: usize, open: &str, close: &str| format!("{}{}", open.repeat(n), close.repeat(n));
        assert!(parse(&deep(MAX_DEPTH, "[", "]")).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1, "[", "]")).is_err());
        assert!(parse(&deep(MAX_DEPTH, "{\"a\":", "}").replace(":}", ":1}")).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1, "{\"a\":", "}").replace(":}", ":1}")).is_err());
        // A nesting bomb is an error, not a stack overflow.
        let bomb = format!("{{\"dataset\":{}", "[".repeat(1_000_000));
        let err = parse(&bomb).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn push_str_lit_escapes_quotes_backslashes_and_controls() {
        let mut out = String::new();
        push_str_lit(&mut out, "a\"b\\c\nd\re\tf\u{1}g\u{e9}");
        assert_eq!(out, r#""a\"b\\c\nd\re\tf\u0001gé""#);
        assert_eq!(
            parse(&out).unwrap().as_str(),
            Some("a\"b\\c\nd\re\tf\u{1}g\u{e9}")
        );
    }

    #[test]
    fn round_trips_an_event() {
        use crate::event::{Event, EventKind, FairnessEvent};
        let e = Event {
            t_ns: 7,
            thread: 0,
            span: None,
            parent: None,
            kind: EventKind::Fairness(FairnessEvent::AuditStarted {
                rows: 100,
                protected: vec!["sex".into(), "age band".into()],
                use_labels: true,
            }),
        };
        let v = parse(&e.to_json()).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("audit_started"));
        assert_eq!(v.get("rows").and_then(Value::as_u64), Some(100));
        assert_eq!(v.get("span"), Some(&Value::Null));
        let protected = v.get("protected").and_then(Value::as_arr).unwrap();
        assert_eq!(protected[1].as_str(), Some("age band"));
    }

    #[test]
    fn parse_lines_skips_blank_lines_and_reports_position() {
        let lines = parse_lines("{\"a\":1}\n\n{\"b\":2}\n").unwrap();
        assert_eq!(lines.len(), 2);
        let err = parse_lines("{\"a\":1}\nnot json\n").unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
    }
}
