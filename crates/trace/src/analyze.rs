//! Request extraction and latency decomposition.
//!
//! A served request leaves two footprints in the trail: a
//! `serve.request` span tree (possibly spanning three threads) and a
//! `request_completed` event emitted on the connection thread while
//! that span was current. The analyzer joins the two — the event
//! carries identity (tenant, endpoint, status, coalesced) and the
//! authoritative wall time; the span tree carries where that time
//! went.
//!
//! The decomposition buckets are the daemon's own stage spans:
//!
//! * `queue_ns` — `serve.queue_wait`, the job's residency in the
//!   bounded queue (recorded retroactively by the worker that popped it);
//! * `coalesce_ns` — `serve.coalesce_wait`, a follower parked on the
//!   leader's in-flight computation;
//! * `parse_ns` — `serve.parse`, request-body parsing on the worker;
//! * `scan_ns` — the `engine.audit` subtree: partition, scan, merge,
//!   finalize;
//! * `serialize_ns` — `serve.serialize`, rendering the response body;
//! * `other_ns` — the residual: admission bookkeeping, the coalescer
//!   claim, response publication, scheduler gaps. Computed as wall minus
//!   the rest, so the six buckets always sum to the wall time exactly.
//!
//! Stage spans are disjoint by construction (sequential stages of one
//! request), so summing them never double-counts; the walk also stops
//! at a matched stage so nested engine spans are not counted twice.

use crate::reader::RawEvent;
use crate::tree::Forest;
use fairbridge_obs::json::Value;

/// Where one request's wall time went, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Residency in the bounded queue (`serve.queue_wait`).
    pub queue_ns: u64,
    /// Parked on an identical in-flight computation
    /// (`serve.coalesce_wait`).
    pub coalesce_ns: u64,
    /// Request-body parsing (`serve.parse`).
    pub parse_ns: u64,
    /// Engine execution (`engine.audit` subtree).
    pub scan_ns: u64,
    /// Response rendering (`serve.serialize`).
    pub serialize_ns: u64,
    /// Everything else: wall minus the named stages.
    pub other_ns: u64,
}

impl Breakdown {
    /// Time attributed to a named stage (everything but `other_ns`).
    pub fn accounted_ns(&self) -> u64 {
        self.queue_ns + self.coalesce_ns + self.parse_ns + self.scan_ns + self.serialize_ns
    }

    /// All six buckets; sums to the request's wall time.
    pub fn total_ns(&self) -> u64 {
        self.accounted_ns() + self.other_ns
    }
}

/// One served request, joined from its completion event and span tree.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// The `serve.request` root span id, when the tree was found.
    pub span_id: Option<u64>,
    /// Tenant the daemon attributed the request to.
    pub tenant: String,
    /// Request path (`/audit`, `/mitigate`).
    pub endpoint: String,
    /// HTTP status of the response.
    pub status: u16,
    /// Whether the request rode an in-flight identical computation.
    pub coalesced: bool,
    /// Admission-to-publication wall time from the completion event.
    pub wall_ns: u64,
    /// Stage decomposition; all-`other` when the span tree is missing.
    pub breakdown: Breakdown,
}

/// Every request in a trail, plus the join failures.
#[derive(Debug, Default)]
pub struct Analysis {
    /// One entry per `request_completed` event, in trail order.
    pub requests: Vec<RequestTrace>,
    /// Completions whose span id did not resolve to a `serve.request`
    /// tree — a damaged or filtered trail.
    pub unmatched_completions: usize,
}

/// Joins `request_completed` events against the span forest.
pub fn analyze(events: &[RawEvent], forest: &Forest) -> Analysis {
    let mut analysis = Analysis::default();
    for e in events {
        if e.kind != "request_completed" {
            continue;
        }
        let tenant = field_str(&e.value, "tenant");
        let endpoint = field_str(&e.value, "endpoint");
        let status = e.value.get("status").and_then(Value::as_u64).unwrap_or(0) as u16;
        let coalesced = e
            .value
            .get("coalesced")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let wall_ns = e.elapsed_ns.unwrap_or(0);

        // The event was emitted under the request span on the conn
        // thread; resolve to the root in case a refactor ever emits it
        // deeper in the tree.
        let root = e.span.and_then(|id| forest.root_of(id)).filter(|id| {
            forest
                .spans
                .get(id)
                .is_some_and(|n| n.name == "serve.request")
        });
        let mut breakdown = Breakdown::default();
        match root {
            Some(root_id) => {
                forest.walk(root_id, |node| match node.name.as_str() {
                    "serve.queue_wait" => {
                        breakdown.queue_ns += node.elapsed_ns;
                        false
                    }
                    "serve.coalesce_wait" => {
                        breakdown.coalesce_ns += node.elapsed_ns;
                        false
                    }
                    "serve.parse" => {
                        breakdown.parse_ns += node.elapsed_ns;
                        false
                    }
                    "engine.audit" => {
                        breakdown.scan_ns += node.elapsed_ns;
                        false
                    }
                    "serve.serialize" => {
                        breakdown.serialize_ns += node.elapsed_ns;
                        false
                    }
                    _ => true,
                });
            }
            None => analysis.unmatched_completions += 1,
        }
        breakdown.other_ns = wall_ns.saturating_sub(breakdown.accounted_ns());
        analysis.requests.push(RequestTrace {
            span_id: root,
            tenant,
            endpoint,
            status,
            coalesced,
            wall_ns,
            breakdown,
        });
    }
    analysis
}

fn field_str(value: &Value, key: &str) -> String {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or("unknown")
        .to_owned()
}

/// Nearest-rank quantile of `sorted` (ascending): the element at rank
/// `round(q · (n−1))`. Matches the `fairbridge-obs` histogram
/// convention so client-side and trail-side percentiles agree.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted.get(rank.min(sorted.len() - 1)).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_events;
    use crate::tree::build;

    /// A leader request trail: conn thread 1 opens the request, worker
    /// thread 2 records queue wait retroactively then executes
    /// parse → engine.audit (with a nested scan) → serialize.
    fn leader_trail() -> String {
        [
            r#"{"t_ns":0,"thread":1,"span":1,"parent":null,"kind":"span_start","name":"serve.request"}"#,
            r#"{"t_ns":100,"thread":2,"span":2,"parent":1,"kind":"span_start","name":"serve.queue_wait"}"#,
            r#"{"t_ns":300,"thread":2,"span":2,"parent":1,"kind":"span_end","name":"serve.queue_wait","elapsed_ns":200}"#,
            r#"{"t_ns":300,"thread":2,"span":3,"parent":1,"kind":"span_start","name":"serve.execute"}"#,
            r#"{"t_ns":310,"thread":2,"span":4,"parent":3,"kind":"span_start","name":"serve.parse"}"#,
            r#"{"t_ns":410,"thread":2,"span":4,"parent":3,"kind":"span_end","name":"serve.parse","elapsed_ns":100}"#,
            r#"{"t_ns":420,"thread":2,"span":5,"parent":3,"kind":"span_start","name":"engine.audit"}"#,
            r#"{"t_ns":430,"thread":2,"span":6,"parent":5,"kind":"span_start","name":"engine.scan"}"#,
            r#"{"t_ns":800,"thread":2,"span":6,"parent":5,"kind":"span_end","name":"engine.scan","elapsed_ns":370}"#,
            r#"{"t_ns":900,"thread":2,"span":5,"parent":3,"kind":"span_end","name":"engine.audit","elapsed_ns":480}"#,
            r#"{"t_ns":910,"thread":2,"span":7,"parent":3,"kind":"span_start","name":"serve.serialize"}"#,
            r#"{"t_ns":960,"thread":2,"span":7,"parent":3,"kind":"span_end","name":"serve.serialize","elapsed_ns":50}"#,
            r#"{"t_ns":970,"thread":2,"span":3,"parent":1,"kind":"span_end","name":"serve.execute","elapsed_ns":670}"#,
            r#"{"t_ns":995,"thread":1,"span":1,"parent":null,"kind":"request_completed","tenant":"bank-a","endpoint":"/audit","status":200,"coalesced":false,"elapsed_ns":1000}"#,
            r#"{"t_ns":1000,"thread":1,"span":1,"parent":null,"kind":"span_end","name":"serve.request","elapsed_ns":1000}"#,
        ]
        .join("\n")
    }

    #[test]
    fn leader_breakdown_buckets_every_stage_once() {
        let (events, _) = read_events(&leader_trail());
        let forest = build(&events);
        let analysis = analyze(&events, &forest);
        assert_eq!(analysis.unmatched_completions, 0);
        assert_eq!(analysis.requests.len(), 1);
        let r = &analysis.requests[0];
        assert_eq!(r.tenant, "bank-a");
        assert_eq!(r.endpoint, "/audit");
        assert_eq!(r.status, 200);
        assert!(!r.coalesced);
        assert_eq!(r.wall_ns, 1000);
        // engine.audit counts once (480), not audit + nested scan.
        assert_eq!(
            r.breakdown,
            Breakdown {
                queue_ns: 200,
                coalesce_ns: 0,
                parse_ns: 100,
                scan_ns: 480,
                serialize_ns: 50,
                other_ns: 170,
            }
        );
        assert_eq!(r.breakdown.total_ns(), r.wall_ns);
    }

    #[test]
    fn follower_breakdown_is_coalesce_wait_plus_other() {
        let text = [
            r#"{"t_ns":0,"thread":3,"span":10,"parent":null,"kind":"span_start","name":"serve.request"}"#,
            r#"{"t_ns":20,"thread":3,"span":11,"parent":10,"kind":"span_start","name":"serve.coalesce_wait"}"#,
            r#"{"t_ns":920,"thread":3,"span":11,"parent":10,"kind":"span_end","name":"serve.coalesce_wait","elapsed_ns":900}"#,
            r#"{"t_ns":940,"thread":3,"span":10,"parent":null,"kind":"request_completed","tenant":"bank-b","endpoint":"/audit","status":200,"coalesced":true,"elapsed_ns":950}"#,
            r#"{"t_ns":950,"thread":3,"span":10,"parent":null,"kind":"span_end","name":"serve.request","elapsed_ns":950}"#,
        ]
        .join("\n");
        let (events, _) = read_events(&text);
        let forest = build(&events);
        let analysis = analyze(&events, &forest);
        let r = &analysis.requests[0];
        assert!(r.coalesced);
        assert_eq!(r.breakdown.coalesce_ns, 900);
        assert_eq!(r.breakdown.other_ns, 50);
        assert_eq!(r.breakdown.scan_ns, 0);
    }

    #[test]
    fn completion_without_a_tree_is_counted_and_kept() {
        let text = r#"{"t_ns":940,"thread":3,"span":77,"parent":null,"kind":"request_completed","tenant":"t","endpoint":"/audit","status":200,"coalesced":false,"elapsed_ns":500}"#;
        let (events, _) = read_events(text);
        let forest = build(&events);
        let analysis = analyze(&events, &forest);
        assert_eq!(analysis.unmatched_completions, 1);
        assert_eq!(analysis.requests.len(), 1);
        let r = &analysis.requests[0];
        assert_eq!(r.span_id, None);
        assert_eq!(r.breakdown.other_ns, 500);
        assert_eq!(r.breakdown.total_ns(), r.wall_ns);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&sorted, 0.0), 1);
        assert_eq!(quantile_sorted(&sorted, 0.5), 51); // round(0.5·99)=50
        assert_eq!(quantile_sorted(&sorted, 0.99), 99); // round(0.99·99)=98
        assert_eq!(quantile_sorted(&sorted, 1.0), 100);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
    }
}
