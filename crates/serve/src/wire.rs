//! The daemon's JSON wire format: request parsing and deterministic
//! response rendering.
//!
//! Request bodies are parsed with the in-tree [`fairbridge_obs::json`]
//! parser (the same zero-dependency machinery the telemetry checker
//! uses). Responses are rendered by hand with a **fixed field order**,
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
use fairbridge_obs::json::{parse, push_f64, push_str_lit, Value};
use fairbridge_obs::Telemetry;
use fairbridge_tabular::{Dataset, Role};
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

/// Builds a [`Dataset`] from the wire encoding.
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

fn parse_protected(v: &Value) -> Result<Vec<String>, String> {
    let protected: Vec<String> = arr_field(v, "protected", "request")?
        .iter()
        .map(|p| {
            p.as_str()
                .map(str::to_owned)
                .ok_or_else(|| "protected entries must be strings".to_owned())
        })
        .collect::<Result<_, _>>()?;
    if protected.is_empty() {
        return Err("request: protected must be non-empty".to_owned());
    }
    Ok(protected)
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
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let v = parse(text)?;
    let dataset = parse_dataset(
        v.get("dataset")
            .ok_or_else(|| "request: missing dataset".to_owned())?,
    )?;
    let protected = parse_protected(&v)?;
    let use_labels = v.get("use_labels").and_then(Value::as_bool).unwrap_or(true);
    let refs: Vec<&str> = protected.iter().map(String::as_str).collect();
    let mut spec = AuditSpec::new(&refs, use_labels);
    if let Some(t) = v.get("tolerance").and_then(Value::as_f64) {
        spec.config.tolerance = t;
    }
    if let Some(m) = v.get("min_group_size").and_then(Value::as_u64) {
        spec.config.min_group_size = m as usize;
    }
    if let Some(d) = v.get("subgroup_depth").and_then(Value::as_u64) {
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
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let v = parse(text)?;
    let dataset = parse_dataset(
        v.get("dataset")
            .ok_or_else(|| "request: missing dataset".to_owned())?,
    )?;
    let protected = parse_protected(&v)?;
    let technique = v
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
