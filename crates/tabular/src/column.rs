//! Typed columns.

use crate::error::{Error, Result};
use crate::value::{DType, Value};
use std::borrow::Cow;

/// A column's dictionary view: level names and per-row codes into them.
pub type Coded<'a> = (Cow<'a, [String]>, Cow<'a, [u32]>);

/// A single typed column of data.
///
/// Categorical columns are dictionary-encoded: `levels` holds the distinct
/// level names and `codes[i]` indexes into it. This makes group-by — the
/// fundamental operation of group-fairness metrics — integer bucketing.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Dictionary-encoded categorical column.
    Categorical {
        /// Distinct level names; `codes` index into this.
        levels: Vec<String>,
        /// Per-row level codes.
        codes: Vec<u32>,
    },
    /// Dense floating-point column.
    Numeric(Vec<f64>),
    /// Dense boolean column.
    Boolean(Vec<bool>),
}

impl Column {
    /// Builds a categorical column from raw level strings, constructing the
    /// dictionary in first-appearance order.
    pub fn categorical_from_strs<S: AsRef<str>>(values: &[S]) -> Column {
        let mut levels: Vec<String> = Vec::new();
        let mut codes = Vec::with_capacity(values.len());
        for v in values {
            let v = v.as_ref();
            let code = match levels.iter().position(|l| l == v) {
                Some(i) => i as u32,
                None => {
                    levels.push(v.to_owned());
                    (levels.len() - 1) as u32
                }
            };
            codes.push(code);
        }
        Column::Categorical { levels, codes }
    }

    /// Builds a categorical column from a fixed dictionary and codes,
    /// validating every code against the dictionary.
    pub fn categorical_from_codes(
        levels: Vec<String>,
        codes: Vec<u32>,
        column_name: &str,
    ) -> Result<Column> {
        let n_levels = levels.len();
        if let Some(&bad) = codes.iter().find(|&&c| c as usize >= n_levels) {
            return Err(Error::CodeOutOfRange {
                column: column_name.to_owned(),
                code: bad,
                n_levels,
            });
        }
        Ok(Column::Categorical { levels, codes })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Categorical { codes, .. } => codes.len(),
            Column::Numeric(v) => v.len(),
            Column::Boolean(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn dtype(&self) -> DType {
        match self {
            Column::Categorical { .. } => DType::Categorical,
            Column::Numeric(_) => DType::Numeric,
            Column::Boolean(_) => DType::Boolean,
        }
    }

    /// The cell at `row`, with categorical codes resolved to level names.
    pub fn value(&self, row: usize) -> Option<Value> {
        match self {
            Column::Categorical { levels, codes } => codes
                .get(row)
                .map(|&c| Value::Cat(levels[c as usize].clone())),
            Column::Numeric(v) => v.get(row).map(|&x| Value::Num(x)),
            Column::Boolean(v) => v.get(row).map(|&b| Value::Bool(b)),
        }
    }

    /// Numeric data slice, or a type error mentioning `name`.
    pub fn as_numeric(&self, name: &str) -> Result<&[f64]> {
        match self {
            Column::Numeric(v) => Ok(v),
            other => Err(Error::TypeMismatch {
                column: name.to_owned(),
                expected: DType::Numeric.name(),
                actual: other.dtype().name(),
            }),
        }
    }

    /// Boolean data slice, or a type error mentioning `name`.
    pub fn as_boolean(&self, name: &str) -> Result<&[bool]> {
        match self {
            Column::Boolean(v) => Ok(v),
            other => Err(Error::TypeMismatch {
                column: name.to_owned(),
                expected: DType::Boolean.name(),
                actual: other.dtype().name(),
            }),
        }
    }

    /// Categorical `(levels, codes)`, or a type error mentioning `name`.
    pub fn as_categorical(&self, name: &str) -> Result<(&[String], &[u32])> {
        match self {
            Column::Categorical { levels, codes } => Ok((levels, codes)),
            other => Err(Error::TypeMismatch {
                column: name.to_owned(),
                expected: DType::Categorical.name(),
                actual: other.dtype().name(),
            }),
        }
    }

    /// Looks up a categorical level's code.
    pub fn level_code(&self, name: &str, level: &str) -> Result<u32> {
        let (levels, _) = self.as_categorical(name)?;
        levels
            .iter()
            .position(|l| l == level)
            .map(|i| i as u32)
            .ok_or_else(|| Error::UnknownLevel {
                column: name.to_owned(),
                level: level.to_owned(),
            })
    }

    /// The column as levels and codes: a categorical column borrowed, a
    /// boolean one as levels `false`/`true` with codes 0/1, and `None`
    /// for a numeric one. This is the one place a boolean becomes a
    /// two-level categorical.
    pub fn coded(&self) -> Option<Coded<'_>> {
        match self {
            Column::Categorical { levels, codes } => {
                Some((Cow::Borrowed(levels), Cow::Borrowed(codes)))
            }
            Column::Boolean(values) => Some((
                Cow::Owned(vec!["false".to_owned(), "true".to_owned()]),
                Cow::Owned(values.iter().map(|&b| u32::from(b)).collect()),
            )),
            Column::Numeric(_) => None,
        }
    }

    /// [`Column::coded`], or a type error mentioning `name`.
    pub fn as_coded(&self, name: &str) -> Result<Coded<'_>> {
        self.coded().ok_or_else(|| Error::TypeMismatch {
            column: name.to_owned(),
            expected: "categorical or boolean",
            actual: self.dtype().name(),
        })
    }

    /// A new column containing only the rows in `indices` (in that order).
    ///
    /// Panics if any index is out of bounds; callers validate first via
    /// [`crate::Dataset::select`].
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Categorical { levels, codes } => Column::Categorical {
                levels: levels.clone(),
                codes: indices.iter().map(|&i| codes[i]).collect(),
            },
            Column::Numeric(v) => Column::Numeric(indices.iter().map(|&i| v[i]).collect()),
            Column::Boolean(v) => Column::Boolean(indices.iter().map(|&i| v[i]).collect()),
        }
    }

    /// Converts the column to per-row `f64` values: numeric pass-through,
    /// boolean as 0/1, categorical as the code value.
    ///
    /// Used by encoders and distance computations that need a uniform
    /// numeric view.
    pub fn to_f64(&self) -> Vec<f64> {
        match self {
            Column::Categorical { codes, .. } => codes.iter().map(|&c| c as f64).collect(),
            Column::Numeric(v) => v.clone(),
            Column::Boolean(v) => v.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorical_from_strs_builds_dictionary_in_order() {
        let c = Column::categorical_from_strs(&["b", "a", "b", "c"]);
        let (levels, codes) = c.as_categorical("x").unwrap();
        assert_eq!(levels, &["b".to_owned(), "a".to_owned(), "c".to_owned()]);
        assert_eq!(codes, &[0, 1, 0, 2]);
    }

    #[test]
    fn categorical_from_codes_validates() {
        let err = Column::categorical_from_codes(vec!["m".into(), "f".into()], vec![0, 2], "sex")
            .unwrap_err();
        assert!(matches!(err, Error::CodeOutOfRange { code: 2, .. }));
    }

    #[test]
    fn typed_accessors_enforce_types() {
        let c = Column::Numeric(vec![1.0, 2.0]);
        assert!(c.as_numeric("x").is_ok());
        assert!(c.as_boolean("x").is_err());
        assert!(c.as_categorical("x").is_err());
    }

    #[test]
    fn value_resolves_levels() {
        let c = Column::categorical_from_strs(&["m", "f"]);
        assert_eq!(c.value(1), Some(Value::Cat("f".into())));
        assert_eq!(c.value(2), None);
    }

    #[test]
    fn take_reorders_and_duplicates() {
        let c = Column::Numeric(vec![10.0, 20.0, 30.0]);
        let t = c.take(&[2, 0, 0]);
        assert_eq!(t.as_numeric("x").unwrap(), &[30.0, 10.0, 10.0]);
    }

    #[test]
    fn to_f64_uniform_view() {
        assert_eq!(Column::Boolean(vec![true, false]).to_f64(), vec![1.0, 0.0]);
        let c = Column::categorical_from_strs(&["a", "b", "a"]);
        assert_eq!(c.to_f64(), vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn coded_by_type() {
        let b = Column::Boolean(vec![true, false]);
        let (levels, codes) = b.coded().unwrap();
        assert_eq!(&*levels, &["false".to_owned(), "true".to_owned()]);
        assert_eq!(&*codes, &[1, 0]);
        let c = Column::categorical_from_strs(&["a", "b", "a"]);
        let (levels, codes) = c.coded().unwrap();
        assert!(matches!(levels, Cow::Borrowed(_)) && matches!(codes, Cow::Borrowed(_)));
        assert_eq!(&*codes, &[0, 1, 0]);
        let x = Column::Numeric(vec![1.0]);
        assert!(x.coded().is_none());
        assert!(matches!(
            x.as_coded("x").unwrap_err(),
            Error::TypeMismatch { .. }
        ));
    }

    #[test]
    fn level_code_lookup() {
        let c = Column::categorical_from_strs(&["m", "f"]);
        assert_eq!(c.level_code("sex", "f").unwrap(), 1);
        assert!(matches!(
            c.level_code("sex", "x").unwrap_err(),
            Error::UnknownLevel { .. }
        ));
    }
}
