//! Request coalescing: concurrent identical requests share one
//! computation.
//!
//! Every admitted `POST` claims the slot keyed by its own
//! `(endpoint, body bytes)`: the in-flight map is ordered by the bytes
//! themselves, so a claim costs O(log in-flight) memcmp comparisons
//! under the mutex and two requests coalesce only when they are
//! byte-identical — which guarantees byte-identical responses. The key
//! and the slot share one copy of the body. The first claimant becomes
//! the **leader** and owns scheduling the computation; followers park
//! on the slot and receive the exact same [`Payload`] `Arc` the
//! leader's computation publishes. The tenant header is deliberately
//! *not* part of the key: tenancy is attribution (spans, counters,
//! events), never computation.
//!
//! The slot lifecycle guarantees no follower waits forever: whoever is
//! leader **always** publishes — a successful result, a 4xx parse
//! error, a 500 when the execution panicked (the worker loop catches
//! unwinds precisely so publication still happens), or the
//! admission-failure payload (429/503) when the bounded
//! queue refuses the job. Publication removes the key from the in-flight
//! map *before* waking waiters, so a request arriving after publication
//! starts a fresh computation instead of attaching to a finished one —
//! result reuse across time is the partition cache's job, not the
//! coalescer's.

use crate::http::Payload;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};

/// One in-flight computation: followers park here until the leader's
/// result is published. The slot carries the request it answers for,
/// so the worker executes against exactly the bytes that keyed it.
pub struct Slot {
    endpoint: &'static str,
    body: Arc<[u8]>,
    done: Mutex<Option<Arc<Payload>>>,
    cv: Condvar,
}

impl Slot {
    /// The endpoint this slot's computation answers for.
    pub fn endpoint(&self) -> &'static str {
        self.endpoint
    }

    /// The leader's request body.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Publishes the payload and wakes every waiter.
    fn publish(&self, payload: Arc<Payload>) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        *done = Some(payload);
        drop(done);
        self.cv.notify_all();
    }

    /// Blocks until the payload is published.
    pub fn wait(&self) -> Arc<Payload> {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(p) = done.as_ref() {
                return Arc::clone(p);
            }
            done = self.cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The claim outcome: whoever gets `Leader` must eventually call
/// [`Coalescer::publish`] with that slot.
pub enum Claim {
    /// The first claimant for the request: owns scheduling and
    /// publication.
    Leader(Arc<Slot>),
    /// Attached to an in-flight byte-identical computation — just wait.
    Follower(Arc<Slot>),
}

/// One endpoint's in-flight slots, keyed by the body bytes they share.
type Slots = BTreeMap<Arc<[u8]>, Arc<Slot>>;

/// The in-flight request table: endpoint, then body bytes, to slot.
#[derive(Default)]
pub struct Coalescer {
    inflight: Mutex<BTreeMap<&'static str, Slots>>,
}

impl Coalescer {
    /// Creates an empty table.
    pub fn new() -> Coalescer {
        Coalescer::default()
    }

    /// Claims the slot for `(endpoint, body)`: the first claimant leads,
    /// later claimants of the same bytes follow until it is published.
    pub fn claim(&self, endpoint: &'static str, body: &[u8]) -> Claim {
        let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        let slots = inflight.entry(endpoint).or_default();
        if let Some(slot) = slots.get(body) {
            return Claim::Follower(Arc::clone(slot));
        }
        let slot = Arc::new(Slot {
            endpoint,
            body: Arc::from(body),
            done: Mutex::new(None),
            cv: Condvar::new(),
        });
        slots.insert(Arc::clone(&slot.body), Arc::clone(&slot));
        Claim::Leader(slot)
    }

    /// Publishes the result to `slot`, waking every attached request,
    /// and retires its key so later arrivals recompute. Returns the
    /// shared payload.
    pub fn publish(&self, slot: &Arc<Slot>, payload: Payload) -> Arc<Payload> {
        let payload = Arc::new(payload);
        {
            let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(slots) = inflight.get_mut(slot.endpoint) {
                slots.remove(slot.body());
            }
        }
        slot.publish(Arc::clone(&payload));
        payload
    }

    /// Requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(Slots::len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_then_followers_share_one_payload() {
        let c = Coalescer::new();
        let Claim::Leader(leader_slot) = c.claim("/audit", b"{}") else {
            panic!("first claim must lead");
        };
        let Claim::Follower(follower_slot) = c.claim("/audit", b"{}") else {
            panic!("second identical claim must follow");
        };
        assert_eq!(c.in_flight(), 1);
        let published = c.publish(&leader_slot, Payload::json(200, "{\"ok\":true}".into()));
        assert!(Arc::ptr_eq(&published, &leader_slot.wait()));
        assert!(Arc::ptr_eq(&published, &follower_slot.wait()));
        assert_eq!(c.in_flight(), 0, "publication retires the key");
    }

    #[test]
    fn after_publication_a_new_claim_leads_again() {
        let c = Coalescer::new();
        let Claim::Leader(slot) = c.claim("/audit", b"{}") else {
            panic!("lead");
        };
        c.publish(&slot, Payload::json(200, "{}".into()));
        assert!(
            matches!(c.claim("/audit", b"{}"), Claim::Leader(_)),
            "retired keys restart, they do not serve stale results"
        );
    }

    #[test]
    fn colliding_key_with_different_request_never_follows() {
        let c = Coalescer::new();
        let Claim::Leader(a) = c.claim("/audit", b"aaa") else {
            panic!("first claim leads");
        };
        // Different bytes, the same bytes on another endpoint, and a
        // body that differs only in its final byte each lead their own
        // computation.
        let others: Vec<Arc<Slot>> = [
            ("/audit", &b"bbb"[..]),
            ("/mitigate", b"aaa"),
            ("/audit", b"aab"),
        ]
        .into_iter()
        .map(|(endpoint, body)| match c.claim(endpoint, body) {
            Claim::Leader(slot) => slot,
            Claim::Follower(_) => panic!("{endpoint} {body:?} must not attach to /audit aaa"),
        })
        .collect();
        assert_eq!(c.in_flight(), 4);
        assert!(others.iter().all(|o| !Arc::ptr_eq(o, &a)));

        // Publishing one answers only its own request and leaves the
        // others in flight.
        for (i, slot) in others.iter().enumerate() {
            c.publish(slot, Payload::json(200, format!("{{\"o\":{i}}}")));
            assert_eq!(slot.wait().body, format!("{{\"o\":{i}}}").into_bytes());
        }
        assert_eq!(c.in_flight(), 1);
        assert!(matches!(c.claim("/audit", b"aaa"), Claim::Follower(_)));

        c.publish(&a, Payload::json(200, "{\"a\":1}".into()));
        assert_eq!(a.wait().body, b"{\"a\":1}");
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn concurrent_followers_unblock_on_publish() {
        let c = Arc::new(Coalescer::new());
        let Claim::Leader(leader) = c.claim("/audit", b"big") else {
            panic!("lead");
        };
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || match c.claim("/audit", b"big") {
                    Claim::Follower(slot) => slot.wait().status,
                    Claim::Leader(_) => 0,
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.publish(&leader, Payload::json(200, "{}".into()));
        for h in handles {
            assert_eq!(h.join().unwrap(), 200);
        }
    }
}
