//! The [`Telemetry`] handle: the one object instrumented code holds.
//!
//! A `Telemetry` is a cheap `Arc` clone — engines, pipelines, monitors
//! and worker threads all share one. It is either *enabled* (events flow
//! to the configured [`Sink`]) or *disabled* ([`Telemetry::off`]), and
//! every recording entry point checks that flag first, so a disabled
//! handle costs one branch: no clock reads, no allocation, no event
//! construction. That invariant is what lets the engine keep its
//! instrumentation compiled in unconditionally.

use crate::event::{Event, EventKind, FairnessEvent};
use crate::registry::{Counter, Histogram, HistogramStats, Registry};
use crate::sink::{NoopSink, Sink};
use crate::span::{current_span, thread_id, SpanGuard};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Inner {
    enabled: bool,
    sink: Arc<dyn Sink>,
    origin: Instant,
    next_span: AtomicU64,
    emitted: AtomicU64,
    registry: Registry,
}

/// A shared handle to one telemetry pipeline (sink + registry + clock).
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    /// The default telemetry is disabled ([`Telemetry::off`]).
    fn default() -> Self {
        Telemetry::off()
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.inner.enabled)
            .field("events_emitted", &self.events_emitted())
            .finish()
    }
}

impl Telemetry {
    /// An enabled telemetry writing to `sink`.
    pub fn new(sink: Arc<dyn Sink>) -> Telemetry {
        Telemetry {
            inner: Arc::new(Inner {
                enabled: true,
                sink,
                origin: Instant::now(),
                next_span: AtomicU64::new(0),
                emitted: AtomicU64::new(0),
                registry: Registry::default(),
            }),
        }
    }

    /// A disabled telemetry: every recording entry point returns after
    /// one branch and nothing is ever emitted.
    pub fn off() -> Telemetry {
        Telemetry {
            inner: Arc::new(Inner {
                enabled: false,
                sink: Arc::new(NoopSink),
                origin: Instant::now(),
                next_span: AtomicU64::new(0),
                emitted: AtomicU64::new(0),
                registry: Registry::default(),
            }),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// How many events this handle has emitted to its sink.
    pub fn events_emitted(&self) -> u64 {
        // Events are published through the sink, not this counter.
        // ORDER: Relaxed — advisory tally.
        self.inner.emitted.load(Ordering::Relaxed)
    }

    /// Monotonic nanoseconds since this telemetry was created.
    pub fn now_ns(&self) -> u64 {
        self.inner
            .origin
            .elapsed()
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64
    }

    /// Opens a span; dropping the guard closes it. The name closure runs
    /// only when enabled, so callers can format freely.
    pub fn span<N: Into<String>>(&self, name: N) -> SpanGuard {
        if !self.inner.enabled {
            return SpanGuard::inert();
        }
        // ORDER: Relaxed — span ids only need to be unique.
        let id = self.inner.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        SpanGuard::open(self.clone(), id, name.into())
    }

    /// Opens a span under an explicit parent id instead of the calling
    /// thread's innermost span — the cross-thread attribution hook for
    /// worker threads executing on behalf of another thread's request.
    /// The guard still pushes onto the calling thread's stack, so spans
    /// opened inside it nest under it normally.
    pub fn span_in<N: Into<String>>(&self, name: N, parent: Option<u64>) -> SpanGuard {
        if !self.inner.enabled {
            return SpanGuard::inert();
        }
        // ORDER: Relaxed — span ids only need to be unique.
        let id = self.inner.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        SpanGuard::open_with_parent(self.clone(), id, name.into(), parent)
    }

    /// Records an already-elapsed interval as a closed span under
    /// `parent`: emits a `span_start` stamped at `start_ns` and a
    /// matching `span_end` stamped at `end_ns`. This is how a worker
    /// makes *waiting* visible after the fact — queue residency is only
    /// known once the job is popped, so the span is reconstructed
    /// retroactively with honest timestamps rather than measured live.
    pub fn record_span(&self, name: &str, parent: Option<u64>, start_ns: u64, end_ns: u64) {
        if !self.inner.enabled {
            return;
        }
        // ORDER: Relaxed — span ids only need to be unique.
        let id = self.inner.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        let end_ns = end_ns.max(start_ns);
        self.emit_raw_at(
            start_ns,
            Some(id),
            parent,
            EventKind::SpanStart {
                name: name.to_owned(),
            },
        );
        self.emit_raw_at(
            end_ns,
            Some(id),
            parent,
            EventKind::SpanEnd {
                name: name.to_owned(),
                elapsed_ns: end_ns - start_ns,
            },
        );
    }

    /// Emits a typed fairness event in the calling thread's current span
    /// context.
    pub fn emit(&self, event: FairnessEvent) {
        if !self.inner.enabled {
            return;
        }
        self.emit_raw(current_span(), None, EventKind::Fairness(event));
    }

    /// Emits a typed fairness event attributed to an explicit span (for
    /// worker threads reporting into a coordinator's span).
    pub fn emit_in_span(&self, span: Option<u64>, event: FairnessEvent) {
        if !self.inner.enabled {
            return;
        }
        self.emit_raw(span, None, EventKind::Fairness(event));
    }

    /// Assembles the envelope and hands the event to the sink.
    pub(crate) fn emit_raw(&self, span: Option<u64>, parent: Option<u64>, kind: EventKind) {
        self.emit_raw_at(self.now_ns(), span, parent, kind);
    }

    /// Like [`emit_raw`](Self::emit_raw) but with an explicit timestamp
    /// (for retroactively recorded spans).
    fn emit_raw_at(&self, t_ns: u64, span: Option<u64>, parent: Option<u64>, kind: EventKind) {
        if !self.inner.enabled {
            return;
        }
        let event = Event {
            t_ns,
            thread: thread_id(),
            span,
            parent,
            kind,
        };
        // The sink does its own synchronization when publishing.
        // ORDER: Relaxed — advisory tally.
        self.inner.emitted.fetch_add(1, Ordering::Relaxed);
        self.inner.sink.emit(&event);
    }

    /// A named monotonic counter (a disabled handle when telemetry is
    /// off).
    pub fn counter(&self, name: &str) -> Counter {
        if !self.inner.enabled {
            return Counter::disabled();
        }
        self.inner.registry.counter(name)
    }

    /// A named histogram (a disabled handle when telemetry is off).
    pub fn histogram(&self, name: &str) -> Histogram {
        if !self.inner.enabled {
            return Histogram::disabled();
        }
        self.inner.registry.histogram(name)
    }

    /// The current counter values, name-sorted.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.inner.registry.counter_values()
    }

    /// The current histogram summaries, name-sorted.
    pub fn histogram_values(&self) -> Vec<(String, HistogramStats)> {
        self.inner.registry.histogram_values()
    }

    /// Live handles to every registered histogram, name-sorted — the
    /// exposition path ([`quantile`](Histogram::quantile) and bucket
    /// dumps need the cells, not just the summaries).
    pub fn histogram_handles(&self) -> Vec<(String, Histogram)> {
        self.inner.registry.histogram_handles()
    }

    /// Emits one `counter`/`histogram` summary event per registered
    /// instrument, then flushes the sink. Call at the end of a run so
    /// the JSONL trail closes with the aggregate picture.
    pub fn flush(&self) {
        if self.inner.enabled {
            for (name, value) in self.counter_values() {
                self.emit_raw(None, None, EventKind::Counter { name, value });
            }
            for (name, stats) in self.histogram_values() {
                self.emit_raw(
                    None,
                    None,
                    EventKind::Histogram {
                        name,
                        count: stats.count,
                        sum: stats.sum,
                        min: stats.min,
                        max: stats.max,
                    },
                );
            }
        }
        self.inner.sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;

    fn recording() -> (Telemetry, Arc<RingSink>) {
        let ring = Arc::new(RingSink::with_capacity(256));
        (Telemetry::new(Arc::clone(&ring) as Arc<dyn Sink>), ring)
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let (telemetry, ring) = recording();
        {
            let outer = telemetry.span("outer");
            let outer_id = outer.id().unwrap();
            {
                let inner = telemetry.span("inner");
                assert_ne!(inner.id(), outer.id());
            }
            let _sibling = telemetry.span("sibling");
            assert_eq!(current_span(), _sibling.id());
            let _ = outer_id;
        }
        let events = ring.events();
        // outer start, inner start, inner end, sibling start, sibling
        // end, outer end
        assert_eq!(events.len(), 6);
        let starts: Vec<(&str, Option<u64>, Option<u64>)> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::SpanStart { name } => Some((name.as_str(), e.span, e.parent)),
                _ => None,
            })
            .collect();
        let outer_id = starts[0].1;
        assert_eq!(starts[0], ("outer", outer_id, None));
        assert_eq!(starts[1].0, "inner");
        assert_eq!(starts[1].2, outer_id, "inner's parent is outer");
        assert_eq!(starts[2].0, "sibling");
        assert_eq!(starts[2].2, outer_id, "sibling's parent is outer");
        // every start is matched by an end carrying the same span id
        for (name, id, _) in &starts {
            assert!(events.iter().any(|e| matches!(
                &e.kind,
                EventKind::SpanEnd { name: n, .. } if n == name
            ) && e.span == *id));
        }
        assert_eq!(current_span(), None, "stack is empty after drops");
    }

    #[test]
    fn span_end_measures_elapsed_time() {
        let (telemetry, ring) = recording();
        {
            let _s = telemetry.span("sleepy");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let events = ring.events();
        let elapsed = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::SpanEnd { elapsed_ns, .. } => Some(*elapsed_ns),
                _ => None,
            })
            .unwrap();
        assert!(elapsed >= 4_000_000, "elapsed {elapsed}ns");
    }

    #[test]
    fn disabled_telemetry_emits_nothing_and_hands_out_inert_guards() {
        let telemetry = Telemetry::off();
        {
            let guard = telemetry.span("ignored");
            assert!(!guard.is_recording());
            telemetry.emit(FairnessEvent::PartitionCacheHit { entry: 1 });
            telemetry.counter("c").incr();
            telemetry.histogram("h").record(9);
        }
        telemetry.flush();
        assert_eq!(telemetry.events_emitted(), 0);
        assert!(telemetry.counter_values().is_empty());
        assert!(telemetry.histogram_values().is_empty());
    }

    #[test]
    fn flush_emits_instrument_summaries() {
        let (telemetry, ring) = recording();
        telemetry.counter("widgets").add(3);
        telemetry.histogram("ns").record(100);
        telemetry.flush();
        let events = ring.events();
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            EventKind::Counter { name, value: 3 } if name == "widgets"
        )));
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            EventKind::Histogram { name, count: 1, sum: 100, .. } if name == "ns"
        )));
    }

    #[test]
    fn span_in_parents_across_threads_and_nests_locally() {
        let (telemetry, ring) = recording();
        let root = telemetry.span("serve.request");
        let root_id = root.id();
        std::thread::scope(|scope| {
            let t = telemetry.clone();
            scope.spawn(move || {
                let exec = t.span_in("serve.execute", root_id);
                let exec_id = exec.id();
                let _child = t.span("engine.audit");
                drop(exec);
                let _ = exec_id;
            });
        });
        drop(root);
        let events = ring.events();
        let starts: Vec<(&str, Option<u64>, Option<u64>)> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::SpanStart { name } => Some((name.as_str(), e.span, e.parent)),
                _ => None,
            })
            .collect();
        let exec = starts.iter().find(|s| s.0 == "serve.execute").unwrap();
        assert_eq!(exec.2, root_id, "execute parents to the request span");
        let audit = starts.iter().find(|s| s.0 == "engine.audit").unwrap();
        assert_eq!(
            audit.2, exec.1,
            "a span opened inside span_in nests under it"
        );
    }

    #[test]
    fn record_span_emits_a_closed_span_with_explicit_timestamps() {
        let (telemetry, ring) = recording();
        telemetry.record_span("serve.queue_wait", Some(7), 1_000, 5_000);
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t_ns, 1_000);
        assert_eq!(events[0].parent, Some(7));
        assert!(matches!(
            &events[0].kind,
            EventKind::SpanStart { name } if name == "serve.queue_wait"
        ));
        assert_eq!(events[1].t_ns, 5_000);
        assert_eq!(events[1].span, events[0].span);
        assert!(matches!(
            &events[1].kind,
            EventKind::SpanEnd { name, elapsed_ns: 4_000 } if name == "serve.queue_wait"
        ));
        // A clock glitch (end before start) clamps instead of wrapping.
        telemetry.record_span("glitch", None, 10, 3);
        let events = ring.events();
        assert!(matches!(
            &events[3].kind,
            EventKind::SpanEnd { elapsed_ns: 0, .. }
        ));
    }

    #[test]
    fn histogram_handles_expose_live_cells() {
        let (telemetry, _ring) = recording();
        telemetry.histogram("ns").record(100);
        let handles = telemetry.histogram_handles();
        assert_eq!(handles.len(), 1);
        assert_eq!(handles[0].0, "ns");
        assert_eq!(handles[0].1.snapshot().count, 1);
        telemetry.histogram("ns").record(200);
        assert_eq!(handles[0].1.snapshot().count, 2, "handle shares the cell");
    }

    #[test]
    fn events_from_worker_threads_carry_their_thread_id() {
        let (telemetry, ring) = recording();
        let main_thread = thread_id();
        std::thread::scope(|scope| {
            let t = telemetry.clone();
            scope.spawn(move || {
                t.emit(FairnessEvent::ShardScanned {
                    shard: 0,
                    rows: 10,
                    elapsed_ns: 1,
                });
            });
        });
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_ne!(events[0].thread, main_thread);
    }
}
