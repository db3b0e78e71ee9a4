//! Grouping rows by (combinations of) categorical attributes.
//!
//! Group fairness metrics compare outcome statistics across the groups
//! induced by one or more protected attributes; intersectional auditing
//! (paper Section IV.C) needs groups induced by *combinations* of
//! attributes. [`GroupIndex`] is the one grouping primitive: built once,
//! it lets metric code iterate over `(key, row-indices)` pairs and lets a
//! row scan resolve each row's group in O(1) through
//! [`GroupIndex::group_of`].

use crate::column::Column;
use crate::dataset::Dataset;
use crate::error::{Error, Result};
use std::borrow::Cow;
use std::fmt;

/// A resolved group key: one level name per grouping column.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupKey(pub Vec<String>);

impl GroupKey {
    /// The key's levels in grouping-column order.
    pub fn levels(&self) -> &[String] {
        &self.0
    }
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.join("×"))
    }
}

/// A partition of dataset rows into groups: sorted keys, a dense
/// `row → group id` map (ids index into [`GroupIndex::keys`]) and every
/// group's rows, ascending, in one offset-addressed buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupIndex {
    keys: Vec<GroupKey>,
    row_groups: Vec<u32>,
    /// Group `g`'s rows are `rows[starts[g]..starts[g + 1]]`.
    starts: Vec<usize>,
    rows: Vec<usize>,
}

/// One grouping column through its coded view ([`Column::coded`]): its
/// codes, each code's rank among the column's sorted distinct level
/// names, and those names.
struct Ranked<'a> {
    codes: Cow<'a, [u32]>,
    ranks: Vec<u32>,
    names: Vec<String>,
}

impl<'a> Ranked<'a> {
    fn new(name: &str, column: &'a Column) -> Result<Ranked<'a>> {
        let (levels, codes) = column.as_coded(name)?;
        // Equal names share a rank, so a dictionary that repeats a level
        // name merges those codes into one group.
        let mut order: Vec<usize> = (0..levels.len()).collect();
        order.sort_by_key(|&code| &levels[code]);
        let mut ranks = vec![0u32; levels.len()];
        let mut names: Vec<String> = Vec::new();
        for code in order {
            if names.last() != Some(&levels[code]) {
                names.push(levels[code].clone());
            }
            ranks[code] = (names.len() - 1) as u32;
        }
        Ok(Ranked {
            codes,
            ranks,
            names,
        })
    }

    fn rank(&self, row: usize) -> u32 {
        self.ranks[self.codes[row] as usize]
    }
}

impl GroupIndex {
    /// Builds the partition of `ds` by the named columns: one group per
    /// combination of their levels that occurs.
    ///
    /// Boolean columns group through their coded view, as two-level
    /// categoricals. Numeric columns are rejected — bin them first.
    ///
    /// Rows are ordered by a stable LSD counting sort on each column's
    /// level-name ranks, last column first, so the sorted rows run group
    /// by group in [`GroupKey`] order with rows ascending inside each
    /// group. That costs O(columns · (rows + levels)): no table is ever
    /// sized by the product of the columns' level counts.
    pub fn build(ds: &Dataset, columns: &[&str]) -> Result<GroupIndex> {
        if columns.is_empty() {
            return Err(Error::Invalid(
                "grouping must name at least one column".into(),
            ));
        }
        let columns = columns
            .iter()
            .map(|name| Ranked::new(name, ds.column(name)?))
            .collect::<Result<Vec<_>>>()?;
        let n = ds.n_rows();
        let mut rows: Vec<usize> = (0..n).collect();
        let mut sorted = vec![0usize; n];
        for column in columns.iter().rev() {
            let mut starts = vec![0usize; column.names.len() + 1];
            for &row in &rows {
                starts[column.rank(row) as usize + 1] += 1;
            }
            for r in 1..starts.len() {
                starts[r] += starts[r - 1];
            }
            for &row in &rows {
                let slot = &mut starts[column.rank(row) as usize];
                sorted[*slot] = row;
                *slot += 1;
            }
            std::mem::swap(&mut rows, &mut sorted);
        }
        // Runs of equal rank tuples are the groups, in key order.
        let mut keys = Vec::new();
        let mut starts = Vec::new();
        let mut row_groups = vec![0u32; n];
        for (i, &row) in rows.iter().enumerate() {
            let same = i > 0 && columns.iter().all(|c| c.rank(rows[i - 1]) == c.rank(row));
            if !same {
                starts.push(i);
                keys.push(GroupKey(
                    columns
                        .iter()
                        .map(|c| c.names[c.rank(row) as usize].clone())
                        .collect(),
                ));
            }
            row_groups[row] = (keys.len() - 1) as u32;
        }
        starts.push(n);
        Ok(GroupIndex {
            keys,
            row_groups,
            starts,
            rows,
        })
    }

    /// Number of non-empty groups.
    pub fn n_groups(&self) -> usize {
        self.keys.len()
    }

    /// Total number of rows in the underlying dataset.
    pub fn n_rows(&self) -> usize {
        self.row_groups.len()
    }

    /// The group id of `row` (its group's position in
    /// [`GroupIndex::keys`]).
    pub fn group_of(&self, row: usize) -> usize {
        self.row_groups[row] as usize
    }

    /// The rows of the group with id `group`, ascending.
    fn group_rows(&self, group: usize) -> &[usize] {
        &self.rows[self.starts[group]..self.starts[group + 1]]
    }

    /// Iterates over `(key, row-indices)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&GroupKey, &[usize])> {
        self.keys
            .iter()
            .enumerate()
            .map(|(g, key)| (key, self.group_rows(g)))
    }

    /// The row indices of a specific group, if present.
    pub fn rows(&self, key: &GroupKey) -> Option<&[usize]> {
        let g = self.keys.binary_search(key).ok()?;
        Some(self.group_rows(g))
    }

    /// All group keys, sorted and unique.
    pub fn keys(&self) -> &[GroupKey] {
        &self.keys
    }

    /// The size of each group in key order.
    pub fn sizes(&self) -> Vec<usize> {
        self.starts
            .iter()
            .skip(1)
            .zip(&self.starts)
            .map(|(end, start)| end - start)
            .collect()
    }

    /// The fraction of rows in each group, in key order.
    pub fn proportions(&self) -> Vec<f64> {
        let n = self.n_rows().max(1) as f64;
        self.sizes().into_iter().map(|s| s as f64 / n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Role;

    fn sample() -> Dataset {
        Dataset::builder()
            .categorical_with_role(
                "sex",
                vec!["male", "female"],
                vec![0, 0, 1, 1, 0, 1],
                Role::Protected,
            )
            .categorical_with_role(
                "race",
                vec!["a", "b"],
                vec![0, 1, 0, 1, 0, 0],
                Role::Protected,
            )
            .boolean_with_role(
                "hired",
                vec![true, false, true, false, true, false],
                Role::Label,
            )
            .numeric("exp", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
            .build()
            .unwrap()
    }

    #[test]
    fn single_column_grouping() {
        let ds = sample();
        let gi = GroupIndex::build(&ds, &["sex"]).unwrap();
        assert_eq!(gi.n_groups(), 2);
        let male = gi.rows(&GroupKey(vec!["male".into()])).unwrap();
        assert_eq!(male, &[0, 1, 4]);
        let female = gi.rows(&GroupKey(vec!["female".into()])).unwrap();
        assert_eq!(female, &[2, 3, 5]);
    }

    #[test]
    fn intersectional_grouping() {
        let ds = sample();
        let gi = GroupIndex::build(&ds, &["sex", "race"]).unwrap();
        assert_eq!(gi.n_groups(), 4);
        let key = GroupKey(vec!["female".into(), "a".into()]);
        assert_eq!(gi.rows(&key).unwrap(), &[2, 5]);
        assert_eq!(gi.sizes().iter().sum::<usize>(), 6);
    }

    #[test]
    fn boolean_columns_group_as_two_levels() {
        let ds = sample();
        let gi = GroupIndex::build(&ds, &["hired"]).unwrap();
        assert_eq!(gi.n_groups(), 2);
        assert_eq!(gi.rows(&GroupKey(vec!["true".into()])).unwrap(), &[0, 2, 4]);
    }

    #[test]
    fn numeric_columns_rejected() {
        let ds = sample();
        assert!(GroupIndex::build(&ds, &["exp"]).is_err());
    }

    #[test]
    fn proportions_sum_to_one() {
        let ds = sample();
        let gi = GroupIndex::build(&ds, &["sex"]).unwrap();
        let total: f64 = gi.proportions().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_spec_rejected() {
        let ds = sample();
        assert!(GroupIndex::build(&ds, &[]).is_err());
    }

    #[test]
    fn duplicate_level_names_merge_with_rows_in_ascending_order() {
        // A dictionary that repeats a level name: both codes 0 and 2
        // render as "a" and must land in one group, rows ascending.
        let ds = Dataset::builder()
            .categorical_with_role(
                "g",
                vec!["a", "b", "a"],
                vec![2, 1, 0, 2, 0],
                Role::Protected,
            )
            .boolean_with_role("y", vec![true; 5], Role::Label)
            .build()
            .unwrap();
        let gi = GroupIndex::build(&ds, &["g"]).unwrap();
        assert_eq!(gi.n_groups(), 2);
        assert_eq!(gi.rows(&GroupKey(vec!["a".into()])).unwrap(), &[0, 2, 3, 4]);
        assert_eq!(gi.rows(&GroupKey(vec!["b".into()])).unwrap(), &[1]);
    }

    #[test]
    fn group_key_display() {
        let k = GroupKey(vec!["female".into(), "non-caucasian".into()]);
        assert_eq!(k.to_string(), "female×non-caucasian");
    }
}
