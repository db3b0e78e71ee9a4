//! Streaming fairness monitoring over tumbling windows.
//!
//! Deployed systems drift: the paper's Section IV.D feedback loop shows
//! how a model's own decisions reshape the applicant population until
//! disparity is self-sustaining. Post-hoc audits see this only after the
//! fact; [`StreamingMonitor`] watches the live decision stream instead.
//!
//! Decisions are ingested into the *current* tumbling window — a
//! [`GroupAccumulator`] — which is sealed every `window_size` events and
//! pushed into a bounded ring of completed windows. [`snapshot`]
//! finalizes each retained window into a full windowed
//! [`FairnessReport`] and raises a **drift flag** when the
//! demographic-parity gap stays across `drift_threshold` for at least
//! two consecutive completed windows (a sustained breach, not a
//! single-window blip).
//!
//! [`snapshot`]: StreamingMonitor::snapshot

use fairbridge_metrics::outcome::GapSummary;
use fairbridge_metrics::{from_accumulator, FairnessReport, GroupAccumulator};
use fairbridge_obs::{FairnessEvent, Telemetry};
use fairbridge_tabular::GroupKey;
use std::collections::VecDeque;

/// Windowing and verdict parameters of the [`StreamingMonitor`].
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Events per tumbling window.
    pub window_size: usize,
    /// Completed windows retained in the ring (oldest dropped first).
    pub retained_windows: usize,
    /// Gap tolerance for per-window fairness verdicts.
    pub tolerance: f64,
    /// Minimum group size entering per-window gap summaries.
    pub min_group_size: usize,
    /// Demographic-parity gap level that counts as a breach; two
    /// consecutive breached windows raise the drift flag.
    pub drift_threshold: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window_size: 500,
            retained_windows: 8,
            tolerance: 0.05,
            min_group_size: 10,
            drift_threshold: 0.10,
        }
    }
}

/// One finalized tumbling window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// Position in the stream (0 = first window ever sealed).
    pub index: usize,
    /// Events in the window.
    pub n: u64,
    /// Demographic-parity gap of the window.
    pub parity_gap: f64,
    /// The full windowed metric evaluation.
    pub report: FairnessReport,
}

/// The monitor's view of the stream at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSnapshot {
    /// Retained windows, oldest first.
    pub windows: Vec<WindowSummary>,
    /// Whether the parity gap breached the threshold in ≥2 consecutive
    /// retained windows.
    pub drift: bool,
    /// Events accumulated in the still-open window.
    pub current_fill: u64,
}

impl MonitorSnapshot {
    /// Parity gap of the most recent completed window (NaN when none).
    pub fn latest_gap(&self) -> f64 {
        self.windows.last().map_or(f64::NAN, |w| w.parity_gap)
    }
}

/// A streaming fairness monitor over tumbling windows.
#[derive(Debug)]
pub struct StreamingMonitor {
    config: MonitorConfig,
    keys: Vec<GroupKey>,
    has_labels: bool,
    completed: VecDeque<(usize, GroupAccumulator)>,
    current: GroupAccumulator,
    sealed: usize,
    /// Maps an ingested group *code* to its index in the sorted `keys`
    /// (identity for [`StreamingMonitor::new`]; a permutation for
    /// [`StreamingMonitor::over_levels`], whose levels arrive in code
    /// order, not sorted order).
    code_map: Vec<usize>,
    telemetry: Telemetry,
    /// Consecutive just-sealed windows whose gap breached the threshold
    /// (drives the live `drift_flagged` event).
    breach_run: usize,
    /// Whether the drift flag has already been raised for the current
    /// breach run (the alarm fires once per sustained episode).
    in_drift: bool,
}

impl StreamingMonitor {
    /// Creates a monitor over the given (sorted, unique) group keys.
    /// `has_labels` fixes whether events carry ground truth.
    pub fn new(
        keys: Vec<GroupKey>,
        has_labels: bool,
        config: MonitorConfig,
    ) -> Result<StreamingMonitor, String> {
        if config.window_size == 0 {
            return Err("window_size must be positive".to_owned());
        }
        if config.retained_windows == 0 {
            return Err("retained_windows must be positive".to_owned());
        }
        let current = GroupAccumulator::with_keys(keys.clone(), has_labels)?;
        let code_map = (0..keys.len()).collect();
        Ok(StreamingMonitor {
            config,
            keys,
            has_labels,
            completed: VecDeque::new(),
            current,
            sealed: 0,
            code_map,
            telemetry: Telemetry::off(),
            breach_run: 0,
            in_drift: false,
        })
    }

    /// Emits a `window_closed` event per sealed window and a
    /// `drift_flagged` event the moment a breach is sustained for two
    /// consecutive windows, through `telemetry`.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> StreamingMonitor {
        self.telemetry = telemetry;
        self
    }

    /// Convenience: a monitor whose groups are the level names of a
    /// single categorical attribute, **in code order** — so group code
    /// `i` streamed to [`StreamingMonitor::ingest_batch`] means
    /// `levels[i]`, matching e.g. the Section IV.D feedback-loop
    /// simulator's codes. Level names must be distinct.
    pub fn over_levels(
        levels: &[&str],
        has_labels: bool,
        config: MonitorConfig,
    ) -> Result<StreamingMonitor, String> {
        let mut keys: Vec<GroupKey> = levels
            .iter()
            .map(|l| GroupKey(vec![(*l).to_owned()]))
            .collect();
        keys.sort();
        let mut monitor = StreamingMonitor::new(keys, has_labels, config)?;
        monitor.code_map = levels
            .iter()
            .map(|l| {
                monitor
                    .keys
                    .binary_search(&GroupKey(vec![(*l).to_owned()]))
                    .expect("level present by construction")
            })
            .collect();
        Ok(monitor)
    }

    /// The monitored group keys, sorted.
    pub fn keys(&self) -> &[GroupKey] {
        &self.keys
    }

    /// Completed windows currently retained.
    pub fn retained(&self) -> usize {
        self.completed.len()
    }

    /// Events in the still-open window.
    pub fn current_fill(&self) -> u64 {
        self.current.total()
    }

    /// Total windows sealed since the stream began.
    pub fn windows_sealed(&self) -> usize {
        self.sealed
    }

    /// Ingests one decision event for the group with key `group`. Errs,
    /// ingesting nothing, on an unknown group or when `label`'s presence
    /// does not match the monitor's `has_labels`.
    pub fn ingest(
        &mut self,
        group: &GroupKey,
        prediction: bool,
        label: Option<bool>,
    ) -> Result<(), String> {
        let idx = self
            .keys
            .binary_search(group)
            .map_err(|_| format!("unknown group {group}"))?;
        self.check_labels(label.is_some())?;
        self.ingest_indexed(idx, prediction, label);
        Ok(())
    }

    /// Ingests one decision event by group index (position in
    /// [`StreamingMonitor::keys`]).
    ///
    /// # Panics
    /// Panics if `group` is out of range or `label`'s presence does not
    /// match the monitor's `has_labels`.
    pub fn ingest_indexed(&mut self, group: usize, prediction: bool, label: Option<bool>) {
        self.current.observe(group, prediction, label);
        self.roll();
    }

    /// Ingests a batch of coded events, sealing windows as they fill.
    /// Codes index the constructor's level order: `levels[code]` for
    /// [`StreamingMonitor::over_levels`], `keys[code]` for
    /// [`StreamingMonitor::new`]. The whole batch is validated first, so
    /// an `Err` leaves the monitor as it was.
    pub fn ingest_batch(
        &mut self,
        codes: &[u32],
        predictions: &[bool],
        labels: Option<&[bool]>,
    ) -> Result<(), String> {
        if codes.len() != predictions.len() {
            return Err("codes and predictions differ in length".to_owned());
        }
        if labels.is_some_and(|l| l.len() != codes.len()) {
            return Err("labels and predictions differ in length".to_owned());
        }
        self.check_labels(labels.is_some())?;
        if let Some(&bad) = codes.iter().find(|&&c| c as usize >= self.code_map.len()) {
            return Err(format!("group code {bad} out of range"));
        }
        for (i, &code) in codes.iter().enumerate() {
            let label = labels.map(|l| l[i]);
            self.ingest_indexed(self.code_map[code as usize], predictions[i], label);
        }
        Ok(())
    }

    fn check_labels(&self, present: bool) -> Result<(), String> {
        match (present, self.has_labels) {
            (true, false) => Err("this monitor was created without labels".to_owned()),
            (false, true) => Err("this monitor requires a label with every event".to_owned()),
            _ => Ok(()),
        }
    }

    fn roll(&mut self) {
        if self.current.total() as usize >= self.config.window_size {
            let fresh = GroupAccumulator::with_keys(self.keys.clone(), self.has_labels)
                .expect("keys validated at construction");
            let full = std::mem::replace(&mut self.current, fresh);
            if self.telemetry.is_enabled() {
                // The gap is recomputed in `snapshot` anyway; paying it
                // here only when recording keeps the untraced ingest path
                // byte-for-byte what it was.
                let gap =
                    GapSummary::from_rates(&full.selection_rates(), self.config.min_group_size).gap;
                self.telemetry.emit(FairnessEvent::WindowClosed {
                    window: self.sealed,
                    n: full.total(),
                    parity_gap: gap,
                });
                if gap > self.config.drift_threshold {
                    self.breach_run += 1;
                    if self.breach_run >= 2 && !self.in_drift {
                        self.in_drift = true;
                        self.telemetry.emit(FairnessEvent::DriftFlagged {
                            window: self.sealed,
                            parity_gap: gap,
                            threshold: self.config.drift_threshold,
                        });
                    }
                } else {
                    self.breach_run = 0;
                    self.in_drift = false;
                }
                self.telemetry.counter("monitor.windows_sealed").incr();
            }
            self.completed.push_back((self.sealed, full));
            self.sealed += 1;
            while self.completed.len() > self.config.retained_windows {
                self.completed.pop_front();
            }
        }
    }

    /// Finalizes every retained window into metrics and evaluates the
    /// drift flag.
    pub fn snapshot(&self) -> MonitorSnapshot {
        let windows: Vec<WindowSummary> = self
            .completed
            .iter()
            .map(|(index, acc)| {
                let gap =
                    GapSummary::from_rates(&acc.selection_rates(), self.config.min_group_size).gap;
                WindowSummary {
                    index: *index,
                    n: acc.total(),
                    parity_gap: gap,
                    report: from_accumulator(
                        acc,
                        self.config.tolerance,
                        self.config.min_group_size,
                    ),
                }
            })
            .collect();
        let drift = windows.windows(2).any(|pair| match pair {
            [prev, curr] => {
                prev.parity_gap > self.config.drift_threshold
                    && curr.parity_gap > self.config.drift_threshold
            }
            _ => false,
        });
        MonitorSnapshot {
            windows,
            drift,
            current_fill: self.current.total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(window: usize, retained: usize) -> StreamingMonitor {
        StreamingMonitor::over_levels(
            &["a", "b"],
            false,
            MonitorConfig {
                window_size: window,
                retained_windows: retained,
                ..MonitorConfig::default()
            },
        )
        .unwrap()
    }

    /// Streams one window where group 0 is accepted at `rate_a` and group
    /// 1 at `rate_b` (window size must be even).
    fn stream_window(m: &mut StreamingMonitor, rate_a: f64, rate_b: f64) {
        let per_group = m.config.window_size / 2;
        for i in 0..per_group {
            let t = i as f64 / per_group as f64;
            m.ingest_indexed(0, t < rate_a, None);
            m.ingest_indexed(1, t < rate_b, None);
        }
    }

    #[test]
    fn windows_tumble_and_the_ring_is_bounded() {
        let mut m = monitor(40, 3);
        for _ in 0..5 {
            stream_window(&mut m, 0.5, 0.5);
        }
        assert_eq!(m.windows_sealed(), 5);
        assert_eq!(m.retained(), 3);
        let snap = m.snapshot();
        assert_eq!(snap.windows.len(), 3);
        // oldest retained window is #2: the ring dropped #0 and #1
        assert_eq!(snap.windows[0].index, 2);
        assert_eq!(snap.current_fill, 0);
    }

    #[test]
    fn fair_stream_raises_no_drift() {
        let mut m = monitor(40, 4);
        for _ in 0..4 {
            stream_window(&mut m, 0.6, 0.6);
        }
        let snap = m.snapshot();
        assert!(!snap.drift);
        assert!(snap.latest_gap() < 1e-9);
        assert!(snap.windows.iter().all(|w| w.n == 40));
    }

    #[test]
    fn sustained_disparity_raises_drift_but_a_blip_does_not() {
        // one breached window between fair ones: no drift
        let mut blip = monitor(40, 4);
        stream_window(&mut blip, 0.5, 0.5);
        stream_window(&mut blip, 0.8, 0.2);
        stream_window(&mut blip, 0.5, 0.5);
        assert!(!blip.snapshot().drift);

        // two consecutive breached windows: drift
        let mut drifted = monitor(40, 4);
        stream_window(&mut drifted, 0.5, 0.5);
        stream_window(&mut drifted, 0.8, 0.2);
        stream_window(&mut drifted, 0.8, 0.3);
        let snap = drifted.snapshot();
        assert!(snap.drift);
        assert!((snap.latest_gap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn keyed_and_batch_ingestion() {
        let mut m = monitor(4, 2);
        m.ingest(&GroupKey(vec!["a".into()]), true, None).unwrap();
        assert!(m.ingest(&GroupKey(vec!["zzz".into()]), true, None).is_err());
        m.ingest_batch(&[0, 1, 1], &[true, false, true], None)
            .unwrap();
        assert_eq!(m.windows_sealed(), 1);
        assert!(m.ingest_batch(&[9], &[true], None).is_err());
        assert!(m.ingest_batch(&[0, 1], &[true], None).is_err());
    }

    #[test]
    fn label_presence_mismatch_is_an_error_not_a_panic() {
        let mut unlabelled = monitor(4, 2);
        let a = GroupKey(vec!["a".into()]);
        assert!(unlabelled.ingest(&a, true, Some(true)).is_err());
        assert!(unlabelled
            .ingest_batch(&[0, 1], &[true, false], Some(&[true, true]))
            .is_err());
        assert_eq!(unlabelled.current_fill(), 0);

        let mut labelled =
            StreamingMonitor::over_levels(&["a", "b"], true, MonitorConfig::default()).unwrap();
        assert!(labelled.ingest(&a, true, None).is_err());
        assert!(labelled
            .ingest_batch(&[0, 1], &[true, false], None)
            .is_err());
        assert_eq!(labelled.current_fill(), 0);
        labelled.ingest(&a, true, Some(false)).unwrap();
        assert_eq!(labelled.current_fill(), 1);
    }

    #[test]
    fn rejected_batch_ingests_nothing() {
        let mut m = monitor(4, 2);
        assert!(m
            .ingest_batch(&[0, 1, 9], &[true, true, true], None)
            .is_err());
        assert_eq!(m.current_fill(), 0);
        // A batch that would have sealed a window before its bad code
        // seals none.
        assert!(m.ingest_batch(&[0, 1, 0, 1, 7], &[true; 5], None).is_err());
        assert_eq!((m.windows_sealed(), m.current_fill()), (0, 0));
    }

    #[test]
    fn labeled_windows_evaluate_error_rate_metrics() {
        let mut m = StreamingMonitor::over_levels(
            &["a", "b"],
            true,
            MonitorConfig {
                window_size: 8,
                retained_windows: 2,
                min_group_size: 0,
                ..MonitorConfig::default()
            },
        )
        .unwrap();
        m.ingest_batch(
            &[0, 0, 0, 0, 1, 1, 1, 1],
            &[true, true, false, false, true, false, true, false],
            Some(&[true, false, true, false, true, true, false, false]),
        )
        .unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.windows.len(), 1);
        // labels present → all six definitions evaluated
        assert_eq!(snap.windows[0].report.lines.len(), 6);
    }

    #[test]
    fn over_levels_preserves_code_order_when_levels_are_unsorted() {
        // "male" < "female" in code order, but not alphabetically: code 0
        // must still mean "male" after the keys are sorted internally.
        let mut m = StreamingMonitor::over_levels(
            &["male", "female"],
            false,
            MonitorConfig {
                window_size: 4,
                retained_windows: 2,
                min_group_size: 0,
                ..MonitorConfig::default()
            },
        )
        .unwrap();
        m.ingest_batch(&[0, 1, 0, 1], &[true, false, true, false], None)
            .unwrap();
        let snap = m.snapshot();
        assert!(
            snap.windows[0].report.lines[0]
                .detail
                .contains("least favored: female"),
            "detail: {}",
            snap.windows[0].report.lines[0].detail
        );
    }

    #[test]
    fn telemetry_records_window_seals_and_flags_sustained_drift_once() {
        use fairbridge_obs::{EventKind, RingSink, Telemetry};
        use std::sync::Arc;

        let ring = Arc::new(RingSink::with_capacity(256));
        let mut m = monitor(40, 4).with_telemetry(Telemetry::new(ring.clone()));
        stream_window(&mut m, 0.5, 0.5);
        stream_window(&mut m, 0.8, 0.2); // breach 1
        stream_window(&mut m, 0.8, 0.3); // breach 2 → drift fires here
        stream_window(&mut m, 0.9, 0.2); // still breached → no second alarm
        stream_window(&mut m, 0.5, 0.5); // recovery resets the alarm

        let events = ring.events();
        let closed: Vec<usize> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Fairness(FairnessEvent::WindowClosed { window, .. }) => Some(*window),
                _ => None,
            })
            .collect();
        assert_eq!(closed, vec![0, 1, 2, 3, 4]);
        let drift: Vec<usize> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Fairness(FairnessEvent::DriftFlagged {
                    window, threshold, ..
                }) => {
                    assert!((threshold - 0.10).abs() < 1e-12);
                    Some(*window)
                }
                _ => None,
            })
            .collect();
        assert_eq!(drift, vec![2], "alarm fires once, at the second breach");
    }

    #[test]
    fn telemetry_ignores_a_single_window_blip() {
        use fairbridge_obs::{EventKind, RingSink, Telemetry};
        use std::sync::Arc;

        let ring = Arc::new(RingSink::with_capacity(64));
        let mut m = monitor(40, 4).with_telemetry(Telemetry::new(ring.clone()));
        stream_window(&mut m, 0.5, 0.5);
        stream_window(&mut m, 0.8, 0.2); // isolated breach
        stream_window(&mut m, 0.5, 0.5);
        assert!(!ring.events().iter().any(|e| matches!(
            e.kind,
            EventKind::Fairness(FairnessEvent::DriftFlagged { .. })
        )));
    }

    #[test]
    fn config_is_validated() {
        let cfg = |w, r| MonitorConfig {
            window_size: w,
            retained_windows: r,
            ..MonitorConfig::default()
        };
        assert!(StreamingMonitor::over_levels(&["a"], false, cfg(0, 2)).is_err());
        assert!(StreamingMonitor::over_levels(&["a"], false, cfg(5, 0)).is_err());
        assert!(StreamingMonitor::over_levels(&["a", "a"], false, cfg(5, 2)).is_err());
    }
}
