//! # fairbridge-tabular
//!
//! Columnar tabular dataset substrate for the fairbridge fairness toolkit.
//!
//! This crate provides the data model that every other fairbridge crate
//! builds on: a strongly typed, column-oriented [`Dataset`] whose schema
//! distinguishes *features*, *protected attributes*, *labels*, *predictions*
//! and *instance weights* — the roles that anti-discrimination analysis
//! needs to keep apart (see Section III of the ICDE'24 paper: the protected
//! attribute `A`, other attributes `S`, the actual class `Y` and the
//! classifier prediction `R`).
//!
//! Design notes:
//! * Columns are typed enums ([`Column`]), not boxed `Any`s, so metric code
//!   iterates over plain `&[f64]` / `&[u32]` slices.
//! * Categorical columns store a dictionary of levels plus `u32` codes,
//!   which makes group-by operations (the heart of group fairness metrics)
//!   cheap integer bucketing.
//! * The dataset is immutable-by-default; transformations produce new
//!   datasets or row-index views, which keeps audit trails honest.
//! * [`par`] provides the deterministic order-preserving parallel map
//!   that every fan-out in the workspace goes through.
//!
//! ```
//! use fairbridge_tabular::{Dataset, Role};
//!
//! let ds = Dataset::builder()
//!     .categorical_with_role("sex", vec!["male", "female"],
//!         vec![0, 0, 1, 1], Role::Protected)
//!     .numeric("experience", vec![5.0, 3.0, 5.0, 2.0])
//!     .boolean_with_role("hired", vec![true, false, true, false], Role::Label)
//!     .build()
//!     .unwrap();
//! assert_eq!(ds.n_rows(), 4);
//! assert_eq!(ds.protected_columns(), vec!["sex"]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod column;
pub mod dataset;
pub mod error;
pub mod groups;
pub mod io;
pub mod par;
pub mod profile;
pub mod schema;
pub mod value;

pub use column::Column;
pub use dataset::{Dataset, DatasetBuilder};
pub use error::{Error, Result, TabularError};
pub use groups::{GroupIndex, GroupKey};
pub use schema::{FieldMeta, Role, Schema};
pub use value::{DType, Value};
