//! # fairbridge-mitigate
//!
//! Bias mitigation across all three intervention points the fairness
//! literature distinguishes, each tied to the paper's discussion:
//!
//! **Pre-processing** (fix the data):
//! * [`reweigh()`] — Kamiran–Calders reweighing (paper ref \[8\]): instance
//!   weights that make the protected attribute independent of the label;
//! * [`massage`] — label massaging: minimally flip borderline labels until
//!   the training labels satisfy parity, over any categorical or boolean
//!   column whose rows fall into two non-empty groups;
//! * [`suppress`] — attribute suppression incl. correlated proxies — the
//!   "fairness through unawareness" strategy whose insufficiency Section
//!   IV.B demonstrates (provided so experiments can demonstrate exactly
//!   that); proxies are scored by the audit's own scorer,
//!   `fairbridge_stats::correlation::association_ranking`;
//!
//! **In-processing** (fix the training objective):
//! * [`inprocess`] — logistic regression with a decision-boundary
//!   covariance penalty tying scores to the protected attribute;
//!
//! **Post-processing** (fix the decisions):
//! * [`threshold`] — per-group decision thresholds à la Hardt et al.
//!   (paper ref \[6\]) for equal opportunity or demographic parity;
//! * [`reject_option`] — reject-option classification: boundary-band
//!   reassignment in favour of the disadvantaged group;
//! * [`quota`] — affirmative-action quotas (Section IV.A: "a company's
//!   policy would require a minimum quota in female acceptances");
//!
//! **Distributional repair** (Section IV.F):
//! * [`ot`] — quantile-map (optimal-transport) feature repair toward the
//!   group barycenter, with partial-repair interpolation;
//! * [`group_blind`] — repair *without the protected attribute*, using
//!   only population marginals (paper refs \[13\], \[24\]).
//!
//! The mitigations define "the group" the way the audit they answer does:
//! they partition rows with `fairbridge_tabular::GroupIndex`, count
//! through `fairbridge_metrics::GroupAccumulator` (reweighing and
//! massaging observe the labels as the decisions), and read a boolean
//! protected column as the two levels `false`/`true`, like a categorical
//! one. `reject_option::fit_margin` scores each candidate margin by the
//! demographic-parity gap the audit reports.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod group_blind;
pub mod inprocess;
pub mod massage;
pub mod ot;
pub mod quota;
pub mod reject_option;
pub mod reweigh;
pub mod suppress;
pub mod threshold;

pub use reweigh::reweigh;
pub use threshold::{GroupThresholds, ThresholdObjective};
