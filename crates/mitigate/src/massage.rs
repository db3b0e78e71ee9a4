//! Label massaging (Kamiran & Calders): minimally flip training labels to
//! remove the parity gap before training.
//!
//! Promotions (− → +) go to the highest-scored rejected members of the
//! disadvantaged group; demotions (+ → −) to the lowest-scored accepted
//! members of the advantaged group, so the flipped labels are the ones a
//! ranker finds most ambiguous. Paper context: Section IV.A's "equal
//! outcome" instruments acting on historical data.

use fairbridge_metrics::{GroupAccumulator, GroupCounts};
use fairbridge_tabular::{Column, Dataset, GroupIndex, Role};

/// The massaging result.
#[derive(Debug, Clone)]
pub struct MassageResult {
    /// Dataset with the massaged label column replacing the original.
    pub dataset: Dataset,
    /// Rows whose labels were promoted (− → +).
    pub promoted: Vec<usize>,
    /// Rows whose labels were demoted (+ → −).
    pub demoted: Vec<usize>,
}

/// Massages labels until the per-group positive rates of the two groups
/// are as close as flipping whole labels permits.
///
/// * `scores` ranks instances (higher = more deserving of +), typically
///   from a ranker trained on the biased data;
/// * `protected` is a categorical or boolean column whose rows fall into
///   exactly two non-empty groups;
/// * the group with the lower positive rate receives promotions, the other
///   receives an equal number of demotions, so the overall positive count
///   is preserved (as in the original algorithm).
pub fn massage(ds: &Dataset, protected: &str, scores: &[f64]) -> Result<MassageResult, String> {
    if scores.len() != ds.n_rows() {
        return Err("scores length must match dataset rows".to_owned());
    }
    let labels = ds.labels().map_err(|e| e.to_string())?;
    let groups = GroupIndex::build(ds, &[protected]).map_err(|e| e.to_string())?;
    // Positives per group: the labels observed as the decisions.
    let mut acc = GroupAccumulator::for_groups(&groups, false);
    acc.observe_rows(&groups, 0..ds.n_rows(), labels, None);
    let mut sides = acc.counts().iter().zip(groups.iter().map(|(_, rows)| rows));
    let (Some(first), Some(second), None) = (sides.next(), sides.next(), sides.next()) else {
        return Err(format!(
            "massage requires exactly two non-empty groups, `{protected}` has {}",
            groups.n_groups()
        ));
    };
    let rate = |c: &GroupCounts| c.pred_pos as f64 / c.n as f64;
    let ((d, d_rows), (a, a_rows)) = if rate(first.0) < rate(second.0) {
        (first, second)
    } else {
        (second, first)
    };

    // Number of flips M that best equalizes rates while preserving the
    // total positive count: promote M in the disadvantaged group, demote M
    // in the advantaged one. Choose M minimizing the absolute post-flip gap.
    let (nd, na) = (d.n as f64, a.n as f64);
    let (pd, pa) = (d.pred_pos as f64, a.pred_pos as f64);
    let max_flips = (d.n - d.pred_pos).min(a.pred_pos) as usize;
    let mut best_m = 0usize;
    let mut best_gap = ((pa / na) - (pd / nd)).abs();
    for m in 1..=max_flips {
        let gap = ((pa - m as f64) / na - (pd + m as f64) / nd).abs();
        if gap < best_gap {
            best_gap = gap;
            best_m = m;
        }
    }

    // Promotion candidates: disadvantaged, label −, by descending score.
    let mut promo: Vec<usize> = d_rows.iter().copied().filter(|&i| !labels[i]).collect();
    promo.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("NaN score"));
    // Demotion candidates: advantaged, label +, by ascending score.
    let mut demo: Vec<usize> = a_rows.iter().copied().filter(|&i| labels[i]).collect();
    demo.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("NaN score"));

    let promoted: Vec<usize> = promo.into_iter().take(best_m).collect();
    let demoted: Vec<usize> = demo.into_iter().take(best_m).collect();

    let mut new_labels = labels.to_vec();
    for &i in &promoted {
        new_labels[i] = true;
    }
    for &i in &demoted {
        new_labels[i] = false;
    }

    let label_name = ds
        .schema()
        .single_with_role(Role::Label)
        .map_err(|e| e.to_string())?
        .name
        .clone();
    let dataset = ds
        .drop_column(&label_name)
        .and_then(|d| d.with_column(&label_name, Column::Boolean(new_labels), Role::Label))
        .map_err(|e| e.to_string())?;
    Ok(MassageResult {
        dataset,
        promoted,
        demoted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairbridge_tabular::Role;

    /// 10 males (8 hired), 10 females (2 hired), scores descending by row.
    fn biased() -> (Dataset, Vec<f64>) {
        let mut sex = Vec::new();
        let mut hired = Vec::new();
        let mut scores = Vec::new();
        for i in 0..10 {
            sex.push(0);
            hired.push(i < 8);
            scores.push(1.0 - i as f64 * 0.05);
        }
        for i in 0..10 {
            sex.push(1);
            hired.push(i < 2);
            scores.push(1.0 - i as f64 * 0.05);
        }
        let ds = Dataset::builder()
            .categorical_with_role("sex", vec!["male", "female"], sex, Role::Protected)
            .boolean_with_role("hired", hired, Role::Label)
            .build()
            .unwrap();
        (ds, scores)
    }

    fn rates(ds: &Dataset) -> (f64, f64) {
        let labels = ds.labels().unwrap();
        let (_, sex) = ds.categorical("sex").unwrap();
        let rate = |c: u32| {
            let m: Vec<bool> = sex
                .iter()
                .zip(labels)
                .filter_map(|(&s, &l)| (s == c).then_some(l))
                .collect();
            m.iter().filter(|&&l| l).count() as f64 / m.len() as f64
        };
        (rate(0), rate(1))
    }

    #[test]
    fn massage_equalizes_rates_exactly_for_balanced_groups() {
        let (ds, scores) = biased();
        let result = massage(&ds, "sex", &scores).unwrap();
        let (male, female) = rates(&result.dataset);
        assert!((male - female).abs() < 1e-12, "{male} vs {female}");
        assert!((male - 0.5).abs() < 1e-12); // 8+2 positives preserved
        assert_eq!(result.promoted.len(), 3);
        assert_eq!(result.demoted.len(), 3);
    }

    #[test]
    fn total_positive_count_preserved() {
        let (ds, scores) = biased();
        let before = ds.labels().unwrap().iter().filter(|&&l| l).count();
        let result = massage(&ds, "sex", &scores).unwrap();
        let after = result
            .dataset
            .labels()
            .unwrap()
            .iter()
            .filter(|&&l| l)
            .count();
        assert_eq!(before, after);
    }

    #[test]
    fn flips_target_borderline_instances() {
        let (ds, scores) = biased();
        let result = massage(&ds, "sex", &scores).unwrap();
        // promoted females are the highest-scored rejected ones (rows 12..15)
        let mut promoted = result.promoted.clone();
        promoted.sort_unstable();
        assert_eq!(promoted, vec![12, 13, 14]);
        // demoted males are the lowest-scored hired ones (rows 5..8)
        let mut demoted = result.demoted.clone();
        demoted.sort_unstable();
        assert_eq!(demoted, vec![5, 6, 7]);
    }

    #[test]
    fn already_fair_data_untouched() {
        let ds = Dataset::builder()
            .categorical_with_role("sex", vec!["m", "f"], vec![0, 0, 1, 1], Role::Protected)
            .boolean_with_role("y", vec![true, false, true, false], Role::Label)
            .build()
            .unwrap();
        let result = massage(&ds, "sex", &[0.9, 0.1, 0.8, 0.2]).unwrap();
        assert!(result.promoted.is_empty());
        assert!(result.demoted.is_empty());
        assert_eq!(result.dataset.labels().unwrap(), ds.labels().unwrap());
    }

    #[test]
    fn validates_inputs() {
        let (ds, _) = biased();
        assert!(massage(&ds, "sex", &[0.0; 3]).is_err());
        let multi = Dataset::builder()
            .categorical_with_role("g", vec!["a", "b", "c"], vec![0, 1, 2], Role::Protected)
            .boolean_with_role("y", vec![true, false, true], Role::Label)
            .build()
            .unwrap();
        assert!(massage(&multi, "g", &[0.1, 0.2, 0.3]).is_err());
    }

    #[test]
    fn boolean_protected_column_massages_like_its_categorical_spelling() {
        let (ds, scores) = biased();
        let (_, sex) = ds.categorical("sex").unwrap();
        let codes = sex.to_vec();
        let spell = |column: Column| {
            ds.drop_column("sex")
                .unwrap()
                .with_column("g", column, Role::Protected)
                .unwrap()
        };
        let boolean = spell(Column::Boolean(codes.iter().map(|&c| c == 1).collect()));
        let categorical = spell(Column::Categorical {
            levels: vec!["false".into(), "true".into()],
            codes,
        });
        let run = |ds: &Dataset| {
            let r = massage(ds, "g", &scores).unwrap();
            (r.promoted, r.demoted, r.dataset.labels().unwrap().to_vec())
        };
        let (promoted, demoted, labels) = run(&boolean);
        assert_eq!(promoted.len(), 3);
        assert_eq!((promoted, demoted, labels), run(&categorical));
    }
}
