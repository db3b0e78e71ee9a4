//! # fairbridge-metrics
//!
//! The algorithmic fairness definitions of the ICDE'24 paper, implemented
//! exactly as Section III states them, plus the extended canon the §V
//! discussion references (calibration, predictive parity, ...).
//!
//! | Paper section | Definition | Module |
//! |---------------|------------|--------|
//! | III.A, Eq. (1) | Demographic parity | [`parity`] |
//! | III.B, Eq. (2) | Conditional statistical parity | [`conditional`] |
//! | III.C, Eq. (3) | Equal opportunity | [`opportunity`] |
//! | III.D, Eq. (4) | Equalized odds | [`odds`] |
//! | III.E, Eq. (5) | Demographic disparity | [`disparity`] |
//! | III.F, Eq. (6) | Conditional demographic disparity | [`disparity`] |
//! | III.G | Counterfactual fairness | [`counterfactual`] |
//! | §V shortlist | Calibration, predictive parity, ... | [`extended`] |
//! | ref \[4\] (Dwork) | Individual fairness / Lipschitz | [`individual`] |
//!
//! Every group metric is computed from an [`outcome::Outcomes`] view that
//! binds predictions `R`, labels `Y` and the protected attribute `A` in
//! the paper's notation, and returns a report carrying per-group rates,
//! the worst-case gap, the disparate-impact ratio and a thresholded
//! verdict. All of them count through one path: a
//! [`GroupAccumulator`] of per-group integer counts, finalized by the
//! report type's `from_rates` constructor. [`from_accumulator`] builds
//! the same reports for the aggregate [`FairnessReport`], so the
//! per-definition functions, the aggregate report and the sharded engine
//! share one gap and verdict implementation. The
//! [`definition::Definition`] enum carries the paper's taxonomy (equal
//! treatment vs equal outcome, Section IV.A) used by the criteria engine
//! in the `fairbridge` core crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[cfg(test)]
extern crate self as fairbridge_metrics;

pub mod accumulator;
pub mod binned;
pub mod conditional;
pub mod counterfactual;
pub mod definition;
pub mod disparity;
pub mod extended;
pub mod individual;
pub mod odds;
pub mod opportunity;
pub mod outcome;
pub mod parity;
pub mod report;

#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
/// The row-list counting oracle the equivalence tests compare against.
mod oracle;

pub use accumulator::{from_accumulator, GroupAccumulator, GroupCounts};
pub use definition::{Definition, EqualityNotion};
pub use outcome::Outcomes;
pub use parity::{demographic_parity, four_fifths, ParityReport};
pub use report::FairnessReport;
