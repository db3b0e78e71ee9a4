//! The workspace's one JSON reader and string writer.
//!
//! [`Lexer`] is the reader: a pull lexer that reads scalars, walks
//! arrays and objects through callbacks and skips any value, so a reader
//! that knows its document's shape decodes straight into its own types.
//! The daemon's `/audit` and `/mitigate` bodies are read that way
//! (`fairbridge_serve::wire`). [`parse`] builds a [`Value`] tree over the
//! same lexer, for `fb-trace`'s telemetry trails and `fb-lint`'s
//! baselines. [`push_str_lit`] is the matching write side that every
//! hand-rolled JSON renderer (telemetry events, wire responses, lint
//! reports) quotes strings with. There is no external dependency.
//!
//! The lexer covers the full JSON grammar (objects, arrays, strings with
//! escapes, numbers, booleans, null), with numbers read as `f64`. It is
//! linear in the input size: a string is copied one run at a time, up to
//! the next `"` or `\`, and is never re-scanned; a string with no escape
//! is borrowed from the input. Arrays and objects nest at most
//! [`MAX_DEPTH`] levels, so a nesting bomb is an `Err`, not a stack
//! overflow. A number of the form `-?digits(.digits)?` with at most 15
//! digits is read exactly as `mantissa / 10^k` (both operands exact
//! `f64`s, so the one division is correctly rounded); every other token
//! goes through `str::parse::<f64>`, which gives the same bits.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`Lexer`] (and so [`parse`])
/// accepts. The wire format nests 5 levels; trails and lint baselines
/// nest fewer.
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
            // The cast truncates and saturates, so it round-trips exactly
            // when `x` is a non-negative integer (`-0` reads as 0); no
            // `fract`, which is a libm call on baseline x86-64.
            Value::Num(x) if *x <= 2f64.powi(53) && (*x as u64) as f64 == *x => Some(*x as u64),
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
    let mut lx = Lexer::new(input);
    let v = value(&mut lx)?;
    lx.finish()?;
    Ok(v)
}

/// The tree builder over [`Lexer`]: one [`Value`] per lexed value.
fn value(lx: &mut Lexer<'_>) -> Result<Value, String> {
    match lx.peek() {
        Some(b'[') => {
            let mut items = Vec::new();
            lx.array(|lx| value(lx).map(|v| items.push(v)))?;
            Ok(Value::Arr(items))
        }
        Some(b'{') => {
            let mut members = Vec::new();
            lx.object(|lx, key| value(lx).map(|v| members.push((key.into_owned(), v))))?;
            Ok(Value::Obj(members))
        }
        _ => lx.scalar().map(Value::from),
    }
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
    let (negative, digits) = match token.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, token),
    };
    // 15 digits and a point at most, so the mantissa cannot overflow.
    if digits.len() > 16 {
        return None;
    }
    let mut mantissa = 0u64;
    let mut dot = None;
    for (i, &b) in digits.iter().enumerate() {
        match b {
            b'0'..=b'9' => mantissa = mantissa * 10 + u64::from(b - b'0'),
            b'.' if dot.is_none() => dot = Some(i),
            _ => return None,
        }
    }
    let int = dot.unwrap_or(digits.len());
    let frac = digits.len() - dot.map_or(int, |d| d + 1);
    let bad_int = int == 0 || (int > 1 && digits.first() == Some(&b'0'));
    if bad_int || (dot.is_some() && frac == 0) || int + frac > 15 {
        return None;
    }
    // Dividing by 10^0 = 1 is exact, so an integer skips the division.
    let x = match frac {
        0 => mantissa as f64,
        k => mantissa as f64 / POW10[k],
    };
    Some(if negative { -x } else { x })
}

/// A JSON scalar: everything but an array or an object.
#[derive(Debug, Clone)]
pub enum Scalar<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (read as `f64`).
    Num(f64),
    /// A string; borrowed from the input when it holds no escape.
    Str(Cow<'a, str>),
}

impl From<Scalar<'_>> for Value {
    fn from(s: Scalar<'_>) -> Value {
        match s {
            Scalar::Null => Value::Null,
            Scalar::Bool(b) => Value::Bool(b),
            Scalar::Num(x) => Value::Num(x),
            Scalar::Str(s) => Value::Str(s.into_owned()),
        }
    }
}

/// A pull lexer over one JSON document, for readers that know the
/// document's shape and want no [`Value`] tree.
///
/// Every method skips the whitespace in front of the value it reads.
/// [`Lexer::array`] and [`Lexer::object`] walk a container and hand each
/// element (and member key) to a callback, which must read or
/// [`Lexer::skip_value`] exactly one value; containers nest at most
/// [`MAX_DEPTH`] levels. A clone is an independent cursor at the same
/// position, so a reader can come back to a value it skipped.
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub fn new(input: &'a str) -> Lexer<'a> {
        Lexer {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The first byte of the next value, after whitespace (`None` at the
    /// end of the input).
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    /// Checks that only whitespace is left.
    pub fn finish(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing content at byte {}", self.pos)),
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    /// Reads the next value, which must be a scalar.
    pub fn scalar(&mut self) -> Result<Scalar<'a>, String> {
        match self.peek() {
            Some(b'n') => self.literal(b"null", Scalar::Null),
            Some(b't') => self.literal(b"true", Scalar::Bool(true)),
            Some(b'f') => self.literal(b"false", Scalar::Bool(false)),
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b'-' | b'0'..=b'9') => self.number().map(Scalar::Num),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Reads and discards the next value, checking its syntax.
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'[') => self.array(Self::skip_value),
            Some(b'{') => self.object(|lx, _| lx.skip_value()),
            _ => self.scalar().map(drop),
        }
    }

    /// Reads an array, calling `item` once per element.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'[')?;
        let mut first = true;
        while !self.at_close(b']', &mut first)? {
            item(self)?;
        }
        Ok(())
    }

    /// Reads an object, calling `member` once per member with its key,
    /// in input order (duplicates included).
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'{')?;
        let mut first = true;
        while !self.at_close(b'}', &mut first)? {
            let key = self.string()?;
            self.expect_byte(b':')?;
            member(self, key)?;
        }
        Ok(())
    }

    /// Consumes `open` one nesting level down, refusing to go past
    /// [`MAX_DEPTH`].
    fn open(&mut self, open: u8) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.expect_byte(open)?;
        self.depth += 1;
        Ok(())
    }

    /// Before each element of an open container: `true` once `close`
    /// ends it (consumed, one level up), otherwise `false` with the `,`
    /// in front of every element but the first consumed.
    fn at_close(&mut self, close: u8, first: &mut bool) -> Result<bool, String> {
        let next = self.peek();
        if next == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(true);
        }
        if !std::mem::replace(first, false) {
            if next != Some(b',') {
                let close = char::from(close);
                return Err(format!("expected `,` or `{close}` at byte {}", self.pos));
            }
            self.pos += 1;
        }
        Ok(false)
    }

    fn literal<const N: usize>(
        &mut self,
        lit: &[u8; N],
        v: Scalar<'a>,
    ) -> Result<Scalar<'a>, String> {
        if self.bytes.get(self.pos..self.pos + N) == Some(lit) {
            self.pos += N;
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect_byte(b'"')?;
        let mut out = Cow::Borrowed("");
        loop {
            // Copy the run up to the next `"` or `\`. Both are ASCII, so
            // the run ends on a char boundary of the `&str` input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            let end = self.pos + run;
            let text = self
                .input
                .get(self.pos..end)
                .ok_or_else(|| format!("string run off a char boundary at byte {end}"))?;
            if out.is_empty() {
                out = Cow::Borrowed(text);
            } else {
                out.to_mut().push_str(text);
            }
            self.pos = end;
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    out.to_mut().push(c);
                }
                _ => return Err("unterminated string".to_owned()),
            }
        }
    }

    /// The character of the escape after a `\`.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.bytes.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let code = self.hex4()?;
                // Surrogate pairs: a high surrogate must be followed by
                // `\uXXXX` with a low surrogate.
                let c = if (0xD800..0xDC00).contains(&code) {
                    if self.bytes.get(self.pos) == Some(&b'\\') {
                        self.pos += 1;
                        if self.bytes.get(self.pos) != Some(&b'u') {
                            return Err(format!("expected `u` at byte {}", self.pos));
                        }
                        self.pos += 1;
                        let low = self.hex4()?;
                        let combined =
                            0x10000 + ((code - 0xD800) << 10) + (low.wrapping_sub(0xDC00) & 0x3FF);
                        char::from_u32(combined)
                    } else {
                        None
                    }
                } else {
                    char::from_u32(code)
                };
                // hex4 already advanced past the digits.
                return c.ok_or_else(|| "invalid \\u escape".to_owned());
            }
            _ => return Err(format!("invalid escape at byte {}", self.pos)),
        };
        self.pos += 1;
        Ok(c)
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

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        let rest = &self.bytes[start..];
        let len = rest
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(rest.len());
        self.pos += len;
        let token = &rest[..len];
        if let Some(x) = exact_decimal(token) {
            return Ok(x);
        }
        let s = std::str::from_utf8(token).map_err(|e| e.to_string())?;
        s.parse::<f64>()
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
    fn as_u64_takes_the_non_negative_integers_up_to_2_pow_53() {
        let by_definition =
            |x: f64| (x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53)).then_some(x as u64);
        let p53 = 2f64.powi(53);
        for x in [
            0.0,
            -0.0,
            1.0,
            0.5,
            -0.5,
            -1.0,
            1.5,
            4294967295.0,
            4294967296.0,
            1e15,
            1e300,
            p53,
            p53 - 1.0,
            p53 + 2.0,
            2f64.powi(64),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            0.999_999_999_999_999_9,
        ] {
            assert_eq!(Value::Num(x).as_u64(), by_definition(x), "{x}");
        }
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
