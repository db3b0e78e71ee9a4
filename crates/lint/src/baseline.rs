//! The committed-debt baseline and its ratchet.
//!
//! Existing violations are grandfathered in `lint_baseline.json`
//! (per-file, per-rule counts). A lint run fails only on *new* debt:
//! any (file, rule) cell whose current count exceeds its baseline count,
//! or a current total above the baseline total. `--update-baseline`
//! rewrites the file from the current tree but refuses to *grow* the
//! total unless `--allow-growth` is passed — so absent a deliberate,
//! visible override, the committed number can only go down.
//!
//! The file is ordinary JSON with sorted keys, so diffs in review show
//! exactly which file/rule cell moved.
//!
//! Schema v2 (this version) differs from v1 in two enforced ways: the
//! `version` field is required and must equal 2 (a v1 file is rejected
//! with a regeneration hint, so a stale or tampered-schema baseline
//! cannot silently load), and C-family rules (C1/C2/C3) may not appear
//! in `counts` at all — concurrency hazards carry zero grandfathered
//! debt by policy ([`Rule::baselineable`]).

use crate::rules::{Finding, Rule, ALL_RULES};
use fairbridge_obs::json::{self, push_str_lit, Value};
use std::collections::BTreeMap;

/// Grandfathered violation counts: file → rule → count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Per-file, per-rule grandfathered counts.
    pub counts: BTreeMap<String, BTreeMap<Rule, usize>>,
}

impl Baseline {
    /// Total grandfathered violations.
    pub fn total(&self) -> usize {
        self.counts.values().flat_map(|m| m.values()).sum()
    }

    /// Per-rule totals, in rule order.
    pub fn rule_totals(&self) -> BTreeMap<Rule, usize> {
        let mut totals: BTreeMap<Rule, usize> = BTreeMap::new();
        for per_file in self.counts.values() {
            for (rule, n) in per_file {
                *totals.entry(*rule).or_insert(0) += n;
            }
        }
        totals
    }

    /// The grandfathered count for one (file, rule) cell.
    pub fn count(&self, file: &str, rule: Rule) -> usize {
        self.counts
            .get(file)
            .and_then(|m| m.get(&rule))
            .copied()
            .unwrap_or(0)
    }

    /// Builds a baseline from a finding list.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut counts: BTreeMap<String, BTreeMap<Rule, usize>> = BTreeMap::new();
        for f in findings {
            *counts
                .entry(f.file.clone())
                .or_default()
                .entry(f.rule)
                .or_insert(0) += 1;
        }
        Baseline { counts }
    }

    /// Renders the canonical JSON form (sorted keys, one file per line).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"version\": 2,\n");
        out.push_str(&format!("  \"total\": {},\n", self.total()));
        out.push_str("  \"counts\": {");
        let mut first_file = true;
        for (file, per_rule) in &self.counts {
            if per_rule.is_empty() {
                continue;
            }
            if !first_file {
                out.push(',');
            }
            first_file = false;
            out.push_str("\n    ");
            push_str_lit(&mut out, file);
            out.push_str(": {");
            let mut first_rule = true;
            for (rule, n) in per_rule {
                if !first_rule {
                    out.push_str(", ");
                }
                first_rule = false;
                out.push_str(&format!("\"{}\": {n}", rule.id()));
            }
            out.push('}');
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses the JSON form. Tolerates a missing file (`None` input) by
    /// returning an empty baseline.
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let value = json::parse(text).map_err(|e| format!("baseline: {e}"))?;
        let version = value
            .get("version")
            .and_then(Value::as_u64)
            .ok_or_else(|| "baseline: missing numeric `version`".to_owned())?;
        if version != 2 {
            return Err(format!(
                "baseline: schema version {version} (expected 2) — regenerate with \
                 `fb-lint --update-baseline`"
            ));
        }
        let declared_total = value
            .get("total")
            .and_then(Value::as_u64)
            .ok_or_else(|| "baseline: missing numeric `total`".to_owned())?;
        let Some(Value::Obj(files)) = value.get("counts") else {
            return Err("baseline: missing `counts` object".to_owned());
        };
        let mut counts: BTreeMap<String, BTreeMap<Rule, usize>> = BTreeMap::new();
        for (file, per_rule) in files {
            let Value::Obj(rules) = per_rule else {
                return Err(format!("baseline: `{file}` is not an object"));
            };
            let mut m = BTreeMap::new();
            for (rule_id, n) in rules {
                let rule = Rule::parse(rule_id)
                    .ok_or_else(|| format!("baseline: unknown rule `{rule_id}`"))?;
                if !rule.baselineable() {
                    return Err(format!(
                        "baseline: rule `{rule_id}` (in `{file}`) cannot be grandfathered — \
                         C-family debt must be zero; fix the findings instead"
                    ));
                }
                let n = n
                    .as_u64()
                    .ok_or_else(|| format!("baseline: `{file}`/`{rule_id}` is not a count"))?;
                m.insert(rule, n as usize);
            }
            counts.insert(file.clone(), m);
        }
        let baseline = Baseline { counts };
        // Internal consistency: a hand-edited total is how a ratchet gets
        // quietly loosened; refuse to load one.
        if baseline.total() as u64 != declared_total {
            return Err(format!(
                "baseline: declared total {declared_total} != sum of counts {}",
                baseline.total()
            ));
        }
        Ok(baseline)
    }
}

/// The comparison of a scan against the baseline.
#[derive(Debug, Clone, Default)]
pub struct Diff {
    /// Findings in (file, rule) cells over their grandfathered count —
    /// every finding in the offending cell is listed, with the cell's
    /// `current > baseline` counts, since lines may have shifted.
    pub new_cells: Vec<(String, Rule, usize, usize, Vec<Finding>)>,
    /// Cells now *below* their grandfathered count (ratchet opportunity).
    pub improved_cells: Vec<(String, Rule, usize, usize)>,
}

impl Diff {
    /// Whether the scan introduces debt the baseline does not cover.
    pub fn clean(&self) -> bool {
        self.new_cells.is_empty()
    }

    /// Findings fixed relative to the baseline.
    pub fn fixed(&self) -> usize {
        self.improved_cells
            .iter()
            .map(|(_, _, cur, base)| base - cur)
            .sum()
    }
}

/// Compares current findings against the baseline.
pub fn diff(findings: &[Finding], baseline: &Baseline) -> Diff {
    let current = Baseline::from_findings(findings);
    let mut out = Diff::default();
    // Cells present now: over / under baseline.
    for (file, per_rule) in &current.counts {
        for (rule, &cur) in per_rule {
            let base = baseline.count(file, *rule);
            if cur > base {
                let cell_findings: Vec<Finding> = findings
                    .iter()
                    .filter(|f| &f.file == file && f.rule == *rule)
                    .cloned()
                    .collect();
                out.new_cells
                    .push((file.clone(), *rule, cur, base, cell_findings));
            } else if cur < base {
                out.improved_cells.push((file.clone(), *rule, cur, base));
            }
        }
    }
    // Cells that vanished entirely.
    for (file, per_rule) in &baseline.counts {
        for (rule, &base) in per_rule {
            if base > 0 && current.count(file, *rule) == 0 {
                out.improved_cells.push((file.clone(), *rule, 0, base));
            }
        }
    }
    out.new_cells.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    out.improved_cells
        .sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    out.improved_cells.dedup();
    out
}

/// Renders a full machine-readable report: findings, per-rule counts,
/// per-family counts, baseline comparison. Stable (bytewise) ordering
/// throughout.
///
/// Schema v2: a leading `"version":2`, then every v1 field in its v1
/// order (`files_scanned`, `total`, `baseline_total`, `new`, `fixed`,
/// `suppressed`, `rules`, `findings` — so v1 consumers that look fields
/// up by name keep working), with one addition: a `families` object
/// (per-family totals, keys sorted) between `rules` and `findings`.
pub fn report_json(
    files_scanned: usize,
    findings: &[Finding],
    suppressed: &[Finding],
    baseline: &Baseline,
    d: &Diff,
) -> String {
    let current = Baseline::from_findings(findings);
    let rule_totals = current.rule_totals();
    let mut out = String::new();
    out.push('{');
    out.push_str("\"version\":2,");
    out.push_str(&format!("\"files_scanned\":{files_scanned},"));
    out.push_str(&format!("\"total\":{},", findings.len()));
    out.push_str(&format!("\"baseline_total\":{},", baseline.total()));
    out.push_str(&format!(
        "\"new\":{},",
        d.new_cells
            .iter()
            .map(|(_, _, cur, base, _)| cur - base)
            .sum::<usize>()
    ));
    out.push_str(&format!("\"fixed\":{},", d.fixed()));
    out.push_str(&format!("\"suppressed\":{},", suppressed.len()));
    out.push_str("\"rules\":{");
    let mut first = true;
    for rule in ALL_RULES {
        if !first {
            out.push(',');
        }
        first = false;
        let n = rule_totals.get(rule).copied().unwrap_or(0);
        out.push_str(&format!("\"{}\":{n}", rule.id()));
    }
    out.push_str("},\"families\":{");
    let mut family_totals: BTreeMap<char, usize> = BTreeMap::new();
    for rule in ALL_RULES {
        *family_totals.entry(rule.family()).or_insert(0) +=
            rule_totals.get(rule).copied().unwrap_or(0);
    }
    let mut first = true;
    for (family, n) in &family_totals {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{family}\":{n}"));
    }
    out.push_str("},\"findings\":[");
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    let mut first = true;
    for f in sorted {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"file\":");
        push_str_lit(&mut out, &f.file);
        out.push_str(&format!(
            ",\"line\":{},\"rule\":\"{}\",\"message\":",
            f.line,
            f.rule.id()
        ));
        push_str_lit(&mut out, &f.message);
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(file: &str, rule: Rule, line: u32) -> Finding {
        Finding {
            rule,
            file: file.to_owned(),
            line,
            message: "m".to_owned(),
        }
    }

    #[test]
    fn roundtrip_json() {
        let b = Baseline::from_findings(&[
            f("crates/a/src/x.rs", Rule::P1, 3),
            f("crates/a/src/x.rs", Rule::P1, 9),
            f("crates/b/src/y.rs", Rule::D1, 1),
        ]);
        let text = b.to_json();
        let back = Baseline::from_json(&text).expect("parse");
        assert_eq!(b, back);
        assert_eq!(back.total(), 3);
        assert_eq!(back.count("crates/a/src/x.rs", Rule::P1), 2);
    }

    #[test]
    fn tampered_total_is_rejected() {
        let b = Baseline::from_findings(&[f("crates/a/src/x.rs", Rule::P1, 3)]);
        let text = b.to_json().replace("\"total\": 1", "\"total\": 7");
        assert!(Baseline::from_json(&text).is_err());
    }

    #[test]
    fn diff_flags_only_growth() {
        let base = Baseline::from_findings(&[
            f("crates/a/src/x.rs", Rule::P1, 3),
            f("crates/a/src/x.rs", Rule::P1, 9),
        ]);
        // Same count, different lines: clean (shifted, not new).
        let moved = [
            f("crates/a/src/x.rs", Rule::P1, 4),
            f("crates/a/src/x.rs", Rule::P1, 10),
        ];
        assert!(diff(&moved, &base).clean());
        // One extra: fails, listing the whole cell.
        let grown = [
            f("crates/a/src/x.rs", Rule::P1, 4),
            f("crates/a/src/x.rs", Rule::P1, 10),
            f("crates/a/src/x.rs", Rule::P1, 20),
        ];
        let d = diff(&grown, &base);
        assert!(!d.clean());
        assert_eq!(d.new_cells.len(), 1);
        // One fewer: clean, improvement recorded.
        let shrunk = [f("crates/a/src/x.rs", Rule::P1, 4)];
        let d = diff(&shrunk, &base);
        assert!(d.clean());
        assert_eq!(d.fixed(), 1);
        // Cell gone entirely: counted once.
        let d = diff(&[], &base);
        assert!(d.clean());
        assert_eq!(d.fixed(), 2);
    }

    #[test]
    fn empty_baseline_makes_everything_new() {
        let d = diff(&[f("crates/a/src/x.rs", Rule::D2, 1)], &Baseline::default());
        assert!(!d.clean());
    }
}
