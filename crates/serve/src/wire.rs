//! The daemon's JSON wire format: request parsing and deterministic
//! response rendering.
//!
//! Request bodies are decoded straight into columns: a decoder for the
//! fixed request shape pulls tokens from [`fairbridge_obs::json::Lexer`]
//! and writes codes, booleans and numbers into the `Vec`s the
//! [`Dataset`] builder takes, with no [`Value`] tree in between. It
//! reads a body exactly as `obs::json::parse` followed by
//! [`parse_dataset`] would (the oracle suite in `tests/wire_oracle.rs`
//! holds the two to the same accept/reject verdict and the same
//! dataset, bit for bit):
//!
//! - members may come in any order, and the first of a duplicate key
//!   wins, as with [`Value::get`];
//! - unknown members are skipped, syntax-checked and depth-bounded;
//! - an array met before its column's `"type"` is read once the type is
//!   known, from a cursor saved at it;
//! - a member of the wrong type is an error, except the optional
//!   scalars (`use_labels`, `tolerance`, `min_group_size`,
//!   `subgroup_depth`, `technique`, a column's `role`), which fall back
//!   to their defaults;
//! - a syntax error anywhere in the body is the error reported.
//!
//! One refusal comes earlier than the builder's: a column longer than
//! the first column stops at its first extra row, before the rest of
//! its array is materialised.
//!
//! Responses are rendered by hand with a **fixed field order**,
//! `BTreeMap`-ordered maps and the same finite-float policy as the
//! telemetry renderer (`{x}` formatting, `null` for non-finite), so a
//! given audit result always renders to the same bytes — the daemon's
//! byte-identical-response contract rests on this module plus the
//! engine's thread-count invariance.
//!
//! ## Dataset encoding
//!
//! ```json
//! {
//!   "dataset": { "columns": [
//!     {"name": "gender", "type": "categorical", "role": "protected",
//!      "levels": ["m", "f"], "codes": [0, 1, 0]},
//!     {"name": "hired", "type": "boolean", "role": "label",
//!      "values": [true, false, true]},
//!     {"name": "score", "type": "numeric", "role": "feature",
//!      "values": [0.3, 0.9, 0.5]}
//!   ]},
//!   "protected": ["gender"],
//!   "use_labels": true,
//!   "tolerance": 0.05
//! }
//! ```

use fairbridge_engine::{AuditSpec, Engine};
use fairbridge_obs::json::{push_f64, push_str_lit, Lexer, Scalar, Value};
use fairbridge_obs::Telemetry;
use fairbridge_tabular::{Dataset, DatasetBuilder, Role};
use std::fmt::Write as _;

use crate::http::Payload;

/// The deterministic error payload: `{"error": "<msg>"}`.
pub fn error_payload(status: u16, msg: &str) -> Payload {
    let mut body = String::with_capacity(msg.len() + 12);
    body.push_str("{\"error\":");
    push_str_lit(&mut body, msg);
    body.push('}');
    Payload::json(status, body)
}

fn parse_role(s: &str) -> Result<Role, String> {
    match s {
        "protected" => Ok(Role::Protected),
        "label" => Ok(Role::Label),
        "prediction" => Ok(Role::Prediction),
        "feature" => Ok(Role::Feature),
        "weight" => Ok(Role::Weight),
        "ignored" => Ok(Role::Ignored),
        other => Err(format!("unknown column role {other:?}")),
    }
}

fn str_field<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{what}: missing string field {key:?}"))
}

fn arr_field<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{what}: missing array field {key:?}"))
}

/// Builds a [`Dataset`] from the wire encoding's `dataset` member, read
/// as a [`Value`] tree. No request path calls it: the request decoder
/// reads bodies without a tree. It is the decoder's oracle in the test
/// suite and the benchmark's dataset-build probe.
pub fn parse_dataset(v: &Value) -> Result<Dataset, String> {
    let columns = arr_field(v, "columns", "dataset")?;
    if columns.is_empty() {
        return Err("dataset: columns must be non-empty".to_owned());
    }
    let mut builder = Dataset::builder();
    for col in columns {
        let name = str_field(col, "name", "column")?;
        let kind = str_field(col, "type", "column")?;
        let role = parse_role(col.get("role").and_then(Value::as_str).unwrap_or("feature"))?;
        match kind {
            "categorical" => {
                let levels: Vec<String> = arr_field(col, "levels", "categorical column")?
                    .iter()
                    .map(|l| {
                        l.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| format!("column {name:?}: levels must be strings"))
                    })
                    .collect::<Result<_, _>>()?;
                let codes: Vec<u32> = arr_field(col, "codes", "categorical column")?
                    .iter()
                    .map(|c| {
                        c.as_u64()
                            .and_then(|u| u32::try_from(u).ok())
                            .ok_or_else(|| format!("column {name:?}: codes must be small ints"))
                    })
                    .collect::<Result<_, _>>()?;
                builder = builder.categorical_with_role(name, levels, codes, role);
            }
            "boolean" => {
                let values: Vec<bool> = arr_field(col, "values", "boolean column")?
                    .iter()
                    .map(|b| {
                        b.as_bool()
                            .ok_or_else(|| format!("column {name:?}: values must be booleans"))
                    })
                    .collect::<Result<_, _>>()?;
                builder = builder.boolean_with_role(name, values, role);
            }
            "numeric" => {
                let values: Vec<f64> = arr_field(col, "values", "numeric column")?
                    .iter()
                    .map(|x| {
                        x.as_f64()
                            .ok_or_else(|| format!("column {name:?}: values must be numbers"))
                    })
                    .collect::<Result<_, _>>()?;
                builder = builder.numeric_with_role(name, values, role);
            }
            other => return Err(format!("column {name:?}: unknown type {other:?}")),
        }
    }
    builder.build().map_err(|e| e.to_string())
}

/// A parsed `POST /audit` request.
pub struct AuditRequest {
    /// The dataset to audit.
    pub dataset: Dataset,
    /// What to audit (protected columns, outcome binding, thresholds).
    pub spec: AuditSpec,
}

/// Parses a `POST /audit` body.
pub fn parse_audit_request(body: &[u8]) -> Result<AuditRequest, String> {
    let Body {
        dataset,
        protected,
        options,
    } = decode_body(body)?;
    let use_labels = options
        .get("use_labels")
        .and_then(Value::as_bool)
        .unwrap_or(true);
    let refs: Vec<&str> = protected.iter().map(String::as_str).collect();
    let mut spec = AuditSpec::new(&refs, use_labels);
    if let Some(t) = options.get("tolerance").and_then(Value::as_f64) {
        spec.config.tolerance = t;
    }
    if let Some(m) = options.get("min_group_size").and_then(Value::as_u64) {
        spec.config.min_group_size = m as usize;
    }
    if let Some(d) = options.get("subgroup_depth").and_then(Value::as_u64) {
        spec.config.subgroup_depth = d as usize;
    }
    Ok(AuditRequest { dataset, spec })
}

/// A parsed `POST /mitigate` request.
pub struct MitigateRequest {
    /// The dataset to mitigate.
    pub dataset: Dataset,
    /// Protected columns the technique conditions on.
    pub protected: Vec<String>,
    /// Technique name (`reweigh` is the one currently served).
    pub technique: String,
}

/// Parses a `POST /mitigate` body.
pub fn parse_mitigate_request(body: &[u8]) -> Result<MitigateRequest, String> {
    let Body {
        dataset,
        protected,
        options,
    } = decode_body(body)?;
    let technique = options
        .get("technique")
        .and_then(Value::as_str)
        .unwrap_or("reweigh")
        .to_owned();
    Ok(MitigateRequest {
        dataset,
        protected,
        technique,
    })
}

/// The request members read as plain scalars; an array or object among
/// them reads as `null`, so its default applies.
const OPTIONS: [&str; 5] = [
    "use_labels",
    "tolerance",
    "min_group_size",
    "subgroup_depth",
    "technique",
];

/// A decoded request body: the dataset, the protected columns, and the
/// first occurrence of each [`OPTIONS`] member as a flat object of
/// scalars, read with the same `Value` accessors as a parsed tree.
struct Body {
    dataset: Dataset,
    protected: Vec<String>,
    options: Value,
}

/// Decodes a request body in one pass. A syntax error anywhere in the
/// body is the error reported, even when the decoder stopped earlier at
/// a member of the wrong shape.
fn decode_body(body: &[u8]) -> Result<Body, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    decode_request(&mut Lexer::new(text)).map_err(|e| {
        let mut lx = Lexer::new(text);
        lx.skip_value()
            .and_then(|()| lx.finish())
            .err()
            .unwrap_or(e)
    })
}

fn decode_request(lx: &mut Lexer<'_>) -> Result<Body, String> {
    let missing_dataset = || "request: missing dataset".to_owned();
    if lx.peek() != Some(b'{') {
        return Err(missing_dataset());
    }
    let mut dataset = None;
    let mut protected = None;
    let mut options = Vec::new();
    lx.object(|lx, key| {
        match &*key {
            "dataset" if dataset.is_none() => dataset = Some(decode_dataset(lx)?),
            "protected" if protected.is_none() => {
                let err = || "request: protected must be an array of strings".to_owned();
                protected = Some(decode_strings(lx, err)?);
            }
            k if OPTIONS.contains(&k) && !options.iter().any(|(o, _)| o == k) => {
                options.push((k.to_owned(), Value::from(scalar_or_skip(lx)?)));
            }
            _ => lx.skip_value()?,
        }
        Ok(())
    })?;
    lx.finish()?;
    let dataset = dataset.ok_or_else(missing_dataset)?;
    let protected = protected.ok_or("request: missing array field \"protected\"")?;
    if protected.is_empty() {
        return Err("request: protected must be non-empty".to_owned());
    }
    Ok(Body {
        dataset,
        protected,
        options: Value::Obj(options),
    })
}

/// The `dataset` object: its first `columns` array, each column added
/// to one builder as it ends.
fn decode_dataset(lx: &mut Lexer<'_>) -> Result<Dataset, String> {
    let missing = || "dataset: missing array field \"columns\"".to_owned();
    if lx.peek() != Some(b'{') {
        return Err(missing());
    }
    let mut dataset = None;
    lx.object(|lx, key| {
        if key != "columns" || dataset.is_some() {
            return lx.skip_value();
        }
        if lx.peek() != Some(b'[') {
            return Err(missing());
        }
        let mut builder = Dataset::builder();
        // Set by the first column's rows; every decoded column has rows.
        let mut first_len = None;
        lx.array(|lx| {
            builder = decode_column(lx, std::mem::take(&mut builder), &mut first_len)?;
            Ok(())
        })?;
        if first_len.is_none() {
            return Err("dataset: columns must be non-empty".to_owned());
        }
        dataset = Some(builder.build().map_err(|e| e.to_string())?);
        Ok(())
    })?;
    dataset.ok_or_else(missing)
}

/// A column's `type`.
#[derive(Clone, Copy)]
enum Kind {
    Categorical,
    Boolean,
    Numeric,
}

impl Kind {
    /// The member holding this kind's rows.
    fn rows_key(self) -> &'static str {
        match self {
            Kind::Categorical => "codes",
            Kind::Boolean | Kind::Numeric => "values",
        }
    }

    /// Whether a column of this kind reads member `key`.
    fn uses(self, key: &str) -> bool {
        key == self.rows_key() || (key == "levels" && matches!(self, Kind::Categorical))
    }
}

/// One column's rows.
enum Rows {
    Codes(Vec<u32>),
    Bools(Vec<bool>),
    Nums(Vec<f64>),
}

/// The first occurrence of each member of one column object.
#[derive(Default)]
struct ColumnFields {
    name: Option<String>,
    kind: Option<Kind>,
    role: Option<Role>,
    levels: Option<Vec<String>>,
    rows: Option<Rows>,
}

impl ColumnFields {
    /// Reads array member `key`, one that `kind` [uses](Kind::uses).
    fn read(
        &mut self,
        lx: &mut Lexer<'_>,
        kind: Kind,
        key: &str,
        first_len: &mut Option<usize>,
    ) -> Result<(), String> {
        let name = self.name.as_deref().unwrap_or_default();
        if key == "levels" {
            let err = || format!("column {name:?}: levels must be an array of strings");
            self.levels = Some(decode_strings(lx, err)?);
            return Ok(());
        }
        self.rows = Some(match kind {
            Kind::Categorical => {
                Rows::Codes(decode_rows(lx, name, first_len, "codes", |s| match s {
                    Scalar::Num(x) => Value::Num(x).as_u64().and_then(|u| u32::try_from(u).ok()),
                    _ => None,
                })?)
            }
            Kind::Boolean => {
                Rows::Bools(decode_rows(lx, name, first_len, "booleans", |s| match s {
                    Scalar::Bool(b) => Some(b),
                    _ => None,
                })?)
            }
            Kind::Numeric => {
                Rows::Nums(decode_rows(lx, name, first_len, "numbers", |s| match s {
                    Scalar::Num(x) => Some(x),
                    _ => None,
                })?)
            }
        });
        Ok(())
    }
}

/// One column object, added to `builder`. Its rows stop past
/// `first_len`, which the first column's rows set. An array member met
/// before `type` is skipped, and read from a cursor saved at it once the
/// type says the column uses it.
fn decode_column(
    lx: &mut Lexer<'_>,
    builder: DatasetBuilder,
    first_len: &mut Option<usize>,
) -> Result<DatasetBuilder, String> {
    let missing = |key: &str| format!("column: missing string field {key:?}");
    if lx.peek() != Some(b'{') {
        return Err(missing("name"));
    }
    let mut f = ColumnFields::default();
    let mut seen = Vec::new();
    let mut deferred = Vec::new();
    lx.object(|lx, key| {
        match &*key {
            "name" if f.name.is_none() => match lx.scalar() {
                Ok(Scalar::Str(s)) => f.name = Some(s.into_owned()),
                _ => return Err(missing("name")),
            },
            "type" if f.kind.is_none() => {
                f.kind = Some(match lx.scalar() {
                    Ok(Scalar::Str(s)) if s == "categorical" => Kind::Categorical,
                    Ok(Scalar::Str(s)) if s == "boolean" => Kind::Boolean,
                    Ok(Scalar::Str(s)) if s == "numeric" => Kind::Numeric,
                    Ok(Scalar::Str(s)) => return Err(format!("column: unknown type {s:?}")),
                    _ => return Err(missing("type")),
                });
            }
            "role" if f.role.is_none() => {
                f.role = Some(match scalar_or_skip(lx)? {
                    Scalar::Str(s) => parse_role(&s)?,
                    _ => Role::Feature,
                });
            }
            "levels" | "codes" | "values" if !seen.contains(&key) => {
                seen.push(key.clone());
                match f.kind {
                    Some(kind) if kind.uses(&key) => f.read(lx, kind, &key, first_len)?,
                    Some(_) => lx.skip_value()?,
                    None => {
                        deferred.push((key.clone(), lx.clone()));
                        lx.skip_value()?;
                    }
                }
            }
            _ => lx.skip_value()?,
        }
        Ok(())
    })?;
    if f.name.is_none() {
        return Err(missing("name"));
    }
    let kind = f.kind.ok_or_else(|| missing("type"))?;
    for (key, mut at) in deferred {
        if kind.uses(&key) {
            f.read(&mut at, kind, &key, first_len)?;
        }
    }
    let name = f.name.unwrap_or_default();
    let role = f.role.unwrap_or(Role::Feature);
    let missing_array = |key: &str| format!("column {name:?}: missing array field {key:?}");
    Ok(match f.rows {
        Some(Rows::Codes(codes)) => {
            let levels = f.levels.ok_or_else(|| missing_array("levels"))?;
            builder.categorical_with_role(&name, levels, codes, role)
        }
        Some(Rows::Bools(v)) => builder.boolean_with_role(&name, v, role),
        Some(Rows::Nums(v)) => builder.numeric_with_role(&name, v, role),
        None => return Err(missing_array(kind.rows_key())),
    })
}

/// The next value when it is a scalar; an array or object is skipped
/// and reads as `null`.
fn scalar_or_skip<'a>(lx: &mut Lexer<'a>) -> Result<Scalar<'a>, String> {
    match lx.peek() {
        Some(b'[' | b'{') => lx.skip_value().map(|()| Scalar::Null),
        _ => lx.scalar(),
    }
}

/// An array of strings; any other value is the error `err()`.
fn decode_strings(lx: &mut Lexer<'_>, err: impl Fn() -> String) -> Result<Vec<String>, String> {
    if lx.peek() != Some(b'[') {
        return Err(err());
    }
    let mut out = Vec::new();
    lx.array(|lx| match lx.scalar() {
        Ok(Scalar::Str(s)) => {
            out.push(s.into_owned());
            Ok(())
        }
        _ => Err(err()),
    })?;
    Ok(out)
}

/// An array of the `what` that `convert` accepts. The first such array
/// sets `first_len`; a later one stops past that length, with the
/// length mismatch `DatasetBuilder::build` would report, before the
/// rest of it is read.
fn decode_rows<T>(
    lx: &mut Lexer<'_>,
    name: &str,
    first_len: &mut Option<usize>,
    what: &str,
    convert: impl Fn(Scalar<'_>) -> Option<T>,
) -> Result<Vec<T>, String> {
    let err = || format!("column {name:?}: rows must be an array of {what}");
    if lx.peek() != Some(b'[') {
        return Err(err());
    }
    let max = first_len.unwrap_or(usize::MAX);
    let mut out = Vec::new();
    lx.array(|lx| {
        if out.len() == max {
            return Err(format!(
                "column `{name}` has more than {max} rows, expected {max}"
            ));
        }
        match lx.scalar().ok().and_then(&convert) {
            Some(v) => {
                out.push(v);
                Ok(())
            }
            None => Err(err()),
        }
    })?;
    first_len.get_or_insert(out.len());
    Ok(out)
}

/// Executes a `POST /audit` body against the shared engine and renders
/// the response payload. Parse failures are 400, execution failures 422.
/// The parse and render phases run under `serve.parse` / `serve.serialize`
/// spans so the trace analyzer can separate wire cost from engine cost.
pub fn handle_audit(engine: &Engine, body: &[u8], telemetry: &Telemetry) -> Payload {
    let req = {
        let _parse = telemetry.span("serve.parse");
        match parse_audit_request(body) {
            Ok(r) => r,
            Err(e) => return error_payload(400, &e),
        }
    };
    let report = match engine.audit(&req.dataset, &req.spec) {
        Ok(r) => r,
        Err(e) => return error_payload(422, &e.to_string()),
    };

    let _serialize = telemetry.span("serve.serialize");
    let t_render = telemetry.now_ns();
    let mut s = String::with_capacity(512);
    s.push_str("{\"endpoint\":\"/audit\"");
    let _ = write!(s, ",\"rows\":{}", req.dataset.n_rows());
    s.push_str(",\"protected\":[");
    for (i, p) in req.spec.protected.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str_lit(&mut s, p);
    }
    let _ = write!(s, "],\"use_labels\":{}", req.spec.use_labels);
    s.push_str(",\"metrics\":[");
    for (i, line) in report.metrics.lines.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"metric\":");
        push_str_lit(&mut s, line.definition.name());
        s.push_str(",\"gap\":");
        push_f64(&mut s, line.gap);
        s.push_str(",\"fair\":");
        match line.fair {
            Some(b) => {
                let _ = write!(s, "{b}");
            }
            None => s.push_str("null"),
        }
        s.push_str(",\"detail\":");
        push_str_lit(&mut s, &line.detail);
        s.push('}');
    }
    s.push_str("],\"tolerance\":");
    push_f64(&mut s, report.metrics.tolerance);
    s.push_str(",\"impact_ratio\":");
    push_f64(&mut s, report.metrics.impact_ratio);
    let _ = write!(
        s,
        ",\"four_fifths_passes\":{}",
        report.metrics.four_fifths_passes
    );
    s.push_str(",\"flagged_proxies\":[");
    for (i, p) in report.flagged_proxies.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str_lit(&mut s, p);
    }
    s.push_str("],\"subgroups\":[");
    for (i, g) in report.subgroups.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"subgroup\":");
        push_str_lit(&mut s, &g.describe());
        let _ = write!(s, ",\"size\":{},\"gap\":", g.size);
        push_f64(&mut s, g.gap);
        s.push_str(",\"p_value\":");
        push_f64(&mut s, g.p_value);
        s.push('}');
    }
    let _ = write!(s, "],\"has_concerns\":{}}}", report.has_concerns());
    telemetry
        .histogram("serve.serialize_ns")
        .record(telemetry.now_ns().saturating_sub(t_render));
    Payload::json(200, s)
}

/// Executes a `POST /mitigate` body and renders the response payload.
pub fn handle_mitigate(body: &[u8], telemetry: &Telemetry) -> Payload {
    let req = {
        let _parse = telemetry.span("serve.parse");
        match parse_mitigate_request(body) {
            Ok(r) => r,
            Err(e) => return error_payload(400, &e),
        }
    };
    if req.technique != "reweigh" {
        return error_payload(
            422,
            &format!(
                "unsupported technique {:?} (serve offers: reweigh)",
                req.technique
            ),
        );
    }
    let refs: Vec<&str> = req.protected.iter().map(String::as_str).collect();
    let result = match fairbridge_mitigate::reweigh(&req.dataset, &refs) {
        Ok(r) => r,
        Err(e) => return error_payload(422, &e),
    };

    let _serialize = telemetry.span("serve.serialize");
    let t_render = telemetry.now_ns();
    let mut s = String::with_capacity(256);
    s.push_str("{\"endpoint\":\"/mitigate\",\"technique\":\"reweigh\"");
    let _ = write!(s, ",\"rows\":{}", req.dataset.n_rows());
    s.push_str(",\"protected\":[");
    for (i, p) in req.protected.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str_lit(&mut s, p);
    }
    s.push_str("],\"cell_weights\":[");
    for (i, (group, label, weight)) in result.cell_weights.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"group\":{group},\"label\":{label},\"weight\":");
        push_f64(&mut s, *weight);
        s.push('}');
    }
    s.push_str("],\"weights\":[");
    for (i, w) in result.dataset.weights().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_f64(&mut s, *w);
    }
    s.push_str("]}");
    telemetry
        .histogram("serve.serialize_ns")
        .record(telemetry.now_ns().saturating_sub(t_render));
    Payload::json(200, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_engine::EngineConfig;

    fn audit_body() -> String {
        concat!(
            "{\"dataset\":{\"columns\":[",
            "{\"name\":\"gender\",\"type\":\"categorical\",\"role\":\"protected\",",
            "\"levels\":[\"m\",\"f\"],\"codes\":[0,0,0,0,1,1,1,1]},",
            "{\"name\":\"hired\",\"type\":\"boolean\",\"role\":\"label\",",
            "\"values\":[true,true,true,false,true,false,false,false]}",
            "]},\"protected\":[\"gender\"],\"use_labels\":true}"
        )
        .to_owned()
    }

    #[test]
    fn audit_round_trip_renders_deterministically() {
        let engine = Engine::new(EngineConfig::default());
        let a = handle_audit(&engine, audit_body().as_bytes(), &Telemetry::off());
        let b = handle_audit(&engine, audit_body().as_bytes(), &Telemetry::off());
        assert_eq!(a.status, 200);
        assert_eq!(a, b, "identical requests must render identical payloads");
        let text = String::from_utf8(a.body).unwrap();
        assert!(text.contains("\"endpoint\":\"/audit\""));
        assert!(text.contains("\"rows\":8"));
        assert!(text.contains("\"metrics\":["));
    }

    #[test]
    fn audit_response_is_identical_across_engine_thread_counts() {
        let body = audit_body();
        let base = handle_audit(
            &Engine::new(EngineConfig::with_threads(1)),
            body.as_bytes(),
            &Telemetry::off(),
        );
        for threads in [2, 8] {
            let other = handle_audit(
                &Engine::new(EngineConfig::with_threads(threads)),
                body.as_bytes(),
                &Telemetry::off(),
            );
            assert_eq!(base, other, "{threads} engine threads drifted");
        }
    }

    /// 96 rows over two protected columns, the label skewed against one
    /// intersection, audited with `"subgroup_depth":<depth>`.
    fn two_column_body(depth: &str) -> String {
        let rows = 0..96u32;
        let join = |f: &dyn Fn(u32) -> String| rows.clone().map(f).collect::<Vec<_>>().join(",");
        format!(
            concat!(
                "{{\"dataset\":{{\"columns\":[",
                "{{\"name\":\"sex\",\"type\":\"categorical\",\"role\":\"protected\",",
                "\"levels\":[\"m\",\"f\"],\"codes\":[{}]}},",
                "{{\"name\":\"age\",\"type\":\"categorical\",\"role\":\"protected\",",
                "\"levels\":[\"young\",\"old\",\"mid\"],\"codes\":[{}]}},",
                "{{\"name\":\"hired\",\"type\":\"boolean\",\"role\":\"label\",\"values\":[{}]}}",
                "]}},\"protected\":[\"sex\",\"age\"],\"min_group_size\":8,\"subgroup_depth\":{}}}"
            ),
            join(&|r| (r % 2).to_string()),
            join(&|r| (r / 2 % 3).to_string()),
            join(&|r| (r % 2 == 0 || r / 2 % 3 != 1 || r % 5 == 0).to_string()),
            depth
        )
    }

    #[test]
    fn subgroup_depth_past_the_column_count_is_the_column_count() {
        let engine = Engine::new(EngineConfig::default());
        let audit = |depth: &str| {
            let p = handle_audit(
                &engine,
                two_column_body(depth).as_bytes(),
                &Telemetry::off(),
            );
            assert_eq!(p.status, 200, "{}", String::from_utf8_lossy(&p.body));
            p
        };
        let at_column_count = audit("2");
        let text = String::from_utf8_lossy(&at_column_count.body).into_owned();
        assert!(text.contains("\"subgroup\":\"sex=f ∧ age=old\""), "{text}");
        // Used to ask the lattice for 10¹² - 1 scratch masks per seed,
        // and abort the process.
        assert_eq!(audit("1000000000000"), at_column_count);
        assert_eq!(audit("64"), at_column_count);
    }

    /// An empty depth-2 subgroup (no row is `sex=f ∧ age=mid`) under
    /// `"min_group_size":0` is not tested, so the audit answers 200, the
    /// same as under bound 1.
    #[test]
    fn min_group_size_zero_with_an_empty_intersection_is_200() {
        let body = |min_group_size: u32| {
            format!(
                concat!(
                    "{{\"dataset\":{{\"columns\":[",
                    "{{\"name\":\"sex\",\"type\":\"categorical\",\"role\":\"protected\",",
                    "\"levels\":[\"m\",\"f\"],\"codes\":[0,0,0,0,1,1,1,1]}},",
                    "{{\"name\":\"age\",\"type\":\"categorical\",\"role\":\"protected\",",
                    "\"levels\":[\"young\",\"old\",\"mid\"],\"codes\":[0,1,2,0,0,1,1,0]}},",
                    "{{\"name\":\"hired\",\"type\":\"boolean\",\"role\":\"label\",",
                    "\"values\":[true,true,true,false,true,false,false,false]}}",
                    "]}},\"protected\":[\"sex\",\"age\"],\"use_labels\":true,",
                    "\"min_group_size\":{},\"subgroup_depth\":2}}"
                ),
                min_group_size
            )
        };
        let engine = Engine::new(EngineConfig::default());
        let zero = handle_audit(&engine, body(0).as_bytes(), &Telemetry::off());
        assert_eq!(zero.status, 200, "{}", String::from_utf8_lossy(&zero.body));
        assert_eq!(
            zero,
            handle_audit(&engine, body(1).as_bytes(), &Telemetry::off())
        );
    }

    /// 60 rows whose protected column `g` is spelled `g_column` (its
    /// type and row fields), with a proxy feature `uni` that mostly
    /// follows `g` and a label skewed against `g = true`.
    fn boolean_protected_body(g_column: &str) -> String {
        let join = |f: &dyn Fn(u32) -> String| (0..60u32).map(f).collect::<Vec<_>>().join(",");
        format!(
            concat!(
                "{{\"dataset\":{{\"columns\":[",
                "{{\"name\":\"g\",\"role\":\"protected\",{}}},",
                "{{\"name\":\"uni\",\"type\":\"categorical\",\"role\":\"feature\",",
                "\"levels\":[\"a\",\"b\"],\"codes\":[{}]}},",
                "{{\"name\":\"hired\",\"type\":\"boolean\",\"role\":\"label\",\"values\":[{}]}}",
                "]}},\"protected\":[\"g\"],\"min_group_size\":5}}"
            ),
            g_column,
            join(&|r| u32::from((r % 2 == 1) != (r % 7 == 0)).to_string()),
            join(&|r| (r % 2 == 0 || r % 3 == 0).to_string()),
        )
    }

    #[test]
    fn boolean_protected_column_audits_like_its_categorical_spelling() {
        let g = |r: u32| r % 2 == 1;
        let values = (0..60).map(|r| g(r).to_string()).collect::<Vec<_>>();
        let codes = (0..60)
            .map(|r| u32::from(g(r)).to_string())
            .collect::<Vec<_>>();
        let boolean = boolean_protected_body(&format!(
            "\"type\":\"boolean\",\"values\":[{}]",
            values.join(",")
        ));
        let categorical = boolean_protected_body(&format!(
            "\"type\":\"categorical\",\"levels\":[\"false\",\"true\"],\"codes\":[{}]",
            codes.join(",")
        ));
        let engine = Engine::new(EngineConfig::default());
        let audit = |body: &str| handle_audit(&engine, body.as_bytes(), &Telemetry::off());
        let expected = audit(&categorical);
        assert_eq!(expected.status, 200);
        let text = String::from_utf8_lossy(&expected.body).into_owned();
        assert!(text.contains("\"flagged_proxies\":[\"uni\"]"), "{text}");
        let got = audit(&boolean);
        assert_eq!(got.status, 200, "{}", String::from_utf8_lossy(&got.body));
        assert_eq!(got, expected);
    }

    #[test]
    fn mitigate_round_trip() {
        let body = concat!(
            "{\"dataset\":{\"columns\":[",
            "{\"name\":\"sex\",\"type\":\"categorical\",\"role\":\"protected\",",
            "\"levels\":[\"m\",\"f\"],\"codes\":[0,0,0,0,1,1,1,1]},",
            "{\"name\":\"hired\",\"type\":\"boolean\",\"role\":\"label\",",
            "\"values\":[true,true,true,false,true,false,false,false]}",
            "]},\"protected\":[\"sex\"],\"technique\":\"reweigh\"}"
        );
        let p = handle_mitigate(body.as_bytes(), &Telemetry::off());
        assert_eq!(p.status, 200, "{}", String::from_utf8_lossy(&p.body));
        let text = String::from_utf8(p.body).unwrap();
        assert!(text.contains("\"technique\":\"reweigh\""));
        assert!(text.contains("\"cell_weights\":["));
        assert!(text.contains("\"weights\":["));
    }

    #[test]
    fn parse_failures_are_400_with_error_body() {
        let engine = Engine::new(EngineConfig::default());
        let p = handle_audit(&engine, b"not json", &Telemetry::off());
        assert_eq!(p.status, 400);
        assert!(String::from_utf8(p.body)
            .unwrap()
            .starts_with("{\"error\":"));

        let p = handle_audit(&engine, b"{\"protected\":[\"a\"]}", &Telemetry::off());
        assert_eq!(p.status, 400);
    }

    #[test]
    fn unknown_technique_is_422() {
        let body = concat!(
            "{\"dataset\":{\"columns\":[",
            "{\"name\":\"sex\",\"type\":\"categorical\",\"role\":\"protected\",",
            "\"levels\":[\"m\"],\"codes\":[0,0]},",
            "{\"name\":\"y\",\"type\":\"boolean\",\"role\":\"label\",\"values\":[true,false]}",
            "]},\"protected\":[\"sex\"],\"technique\":\"wish\"}"
        );
        assert_eq!(
            handle_mitigate(body.as_bytes(), &Telemetry::off()).status,
            422
        );
    }
}
