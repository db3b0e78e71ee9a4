//! Association measures between attributes.
//!
//! Proxy discrimination (paper Section IV.B) is detected by measuring how
//! strongly ostensibly neutral features associate with a protected
//! attribute: Pearson/Spearman for numeric–numeric, point-biserial for
//! numeric–binary, Cramér's V and mutual information for
//! categorical–categorical.
//!
//! [`association_ranking`] is the one proxy scorer built from them: the
//! audit's proxy ranking (`fairbridge_audit::proxy`) and proxy-aware
//! suppression (`fairbridge_mitigate::suppress`) both call it, so the
//! features an audit flags are the ones a mitigation drops.

use crate::special::ln_gamma;
use fairbridge_tabular::{Dataset, Role};

/// Pearson product-moment correlation ∈ [−1, 1].
/// Returns 0 when either side has zero variance, as an empty sample has.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson: length mismatch");
    if x.is_empty() {
        return 0.0;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx).powi(2);
        syy += (b - my).powi(2);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    (sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0)
}

/// Mid-ranks (average rank for ties), 1-based.
pub fn ranks(x: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.sort_by(|&a, &b| x[a].total_cmp(&x[b]));
    let mut out = vec![0.0; x.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && x[idx[j + 1]] == x[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg_rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation (Pearson on mid-ranks).
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    pearson(&ranks(x), &ranks(y))
}

/// Point-biserial correlation between a numeric variable and a binary one.
/// Equivalent to Pearson with the binary coded 0/1.
pub fn point_biserial(x: &[f64], b: &[bool]) -> f64 {
    let y: Vec<f64> = b.iter().map(|&v| if v { 1.0 } else { 0.0 }).collect();
    pearson(x, &y)
}

/// A contingency table of counts between two categorical codings.
#[derive(Debug, Clone, PartialEq)]
pub struct Contingency {
    counts: Vec<Vec<f64>>, // rows × cols
}

impl Contingency {
    /// Builds the r×c table from per-row category codes.
    pub fn from_codes(a: &[u32], b: &[u32], r: usize, c: usize) -> Contingency {
        assert_eq!(a.len(), b.len(), "contingency: length mismatch");
        let mut counts = vec![vec![0.0; c]; r];
        for (&ai, &bi) in a.iter().zip(b) {
            let (ai, bi) = (ai as usize, bi as usize);
            assert!(ai < r && bi < c, "contingency: code out of range");
            counts[ai][bi] += 1.0;
        }
        Contingency { counts }
    }

    /// Builds a table directly from counts.
    pub fn from_counts(counts: Vec<Vec<f64>>) -> Contingency {
        assert!(!counts.is_empty() && !counts[0].is_empty());
        let c = counts[0].len();
        assert!(counts.iter().all(|row| row.len() == c), "ragged table");
        Contingency { counts }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.counts.len()
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.counts[0].len()
    }

    /// The count at (i, j).
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.counts[i][j]
    }

    /// Row marginal totals.
    pub fn row_totals(&self) -> Vec<f64> {
        self.counts.iter().map(|r| r.iter().sum()).collect()
    }

    /// Column marginal totals.
    pub fn col_totals(&self) -> Vec<f64> {
        (0..self.n_cols())
            .map(|j| self.counts.iter().map(|r| r[j]).sum())
            .collect()
    }

    /// Grand total.
    pub fn total(&self) -> f64 {
        self.counts.iter().flatten().sum()
    }

    /// Pearson χ² statistic against the independence model.
    pub fn chi_square_stat(&self) -> f64 {
        let rt = self.row_totals();
        let ct = self.col_totals();
        let n = self.total();
        if n == 0.0 {
            return 0.0;
        }
        let mut stat = 0.0;
        for (i, row) in self.counts.iter().enumerate() {
            for (j, &obs) in row.iter().enumerate() {
                let exp = rt[i] * ct[j] / n;
                if exp > 0.0 {
                    stat += (obs - exp).powi(2) / exp;
                }
            }
        }
        stat
    }

    /// Degrees of freedom (r−1)(c−1).
    pub fn dof(&self) -> f64 {
        ((self.n_rows() - 1) * (self.n_cols() - 1)) as f64
    }
}

/// Cramér's V ∈ \[0, 1\]: χ²-based association strength for an r×c table.
pub fn cramers_v(table: &Contingency) -> f64 {
    let n = table.total();
    if n == 0.0 {
        return 0.0;
    }
    let k = table.n_rows().min(table.n_cols());
    if k < 2 {
        return 0.0;
    }
    let chi2 = table.chi_square_stat();
    (chi2 / (n * (k - 1) as f64)).sqrt().min(1.0)
}

/// Mutual information I(A;B) in nats from a contingency table.
pub fn mutual_information(table: &Contingency) -> f64 {
    let n = table.total();
    if n == 0.0 {
        return 0.0;
    }
    let rt = table.row_totals();
    let ct = table.col_totals();
    let mut mi = 0.0;
    for (i, &rti) in rt.iter().enumerate() {
        for (j, &ctj) in ct.iter().enumerate() {
            let pij = table.at(i, j) / n;
            if pij > 0.0 {
                let pi = rti / n;
                let pj = ctj / n;
                mi += pij * (pij / (pi * pj)).ln();
            }
        }
    }
    mi.max(0.0)
}

/// Normalized mutual information ∈ \[0, 1\]:
/// I(A;B) / min(H(A), H(B)); 0 when either marginal entropy is 0.
pub fn normalized_mutual_information(table: &Contingency) -> f64 {
    let n = table.total();
    if n == 0.0 {
        return 0.0;
    }
    let ent = |totals: &[f64]| -> f64 {
        -totals
            .iter()
            .filter(|&&t| t > 0.0)
            .map(|&t| {
                let p = t / n;
                p * p.ln()
            })
            .sum::<f64>()
    };
    let ha = ent(&table.row_totals());
    let hb = ent(&table.col_totals());
    let denom = ha.min(hb);
    if denom <= 0.0 {
        return 0.0;
    }
    (mutual_information(table) / denom).clamp(0.0, 1.0)
}

/// Association of one feature with the protected attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureAssociation {
    /// Feature name.
    pub feature: String,
    /// Cramér's V (categorical/boolean) or |point-biserial| (numeric).
    pub association: f64,
    /// Normalized mutual information (categorical/boolean only, else NaN).
    pub nmi: f64,
}

/// Ranks every feature by association with the protected column,
/// strongest first.
///
/// The protected column and each categorical or boolean feature are read
/// through [`fairbridge_tabular::Column::coded`]. A coded feature scores
/// Cramér's V and NMI of its (protected × feature) table; a numeric one
/// scores the largest |point-biserial| against any protected level's
/// indicator. That score is computed in one fused pass over the rows
/// per feature (per pair of levels, after summing the feature), with no
/// indicator vector, and equals the [`point_biserial`] fold over the
/// levels bit for bit.
pub fn association_ranking(
    ds: &Dataset,
    protected: &str,
) -> Result<Vec<FeatureAssociation>, String> {
    let (p_levels, p_codes) = ds
        .column(protected)
        .and_then(|c| c.as_coded(protected))
        .map_err(|e| e.to_string())?;
    let k = p_levels.len();
    let level_counts: Vec<usize> = (0..k as u32)
        .map(|level| p_codes.iter().filter(|&&c| c == level).count())
        .collect();
    let mut out = Vec::new();
    for meta in ds.schema().fields() {
        if meta.role != Role::Feature {
            continue;
        }
        let col = ds.column(&meta.name).map_err(|e| e.to_string())?;
        let (association, nmi) = match col.coded() {
            Some((levels, codes)) => {
                let t = Contingency::from_codes(&p_codes, &codes, k, levels.len());
                (cramers_v(&t), normalized_mutual_information(&t))
            }
            None => {
                let values = col.as_numeric(&meta.name).map_err(|e| e.to_string())?;
                (
                    max_point_biserial(values, &p_codes, &level_counts),
                    f64::NAN,
                )
            }
        };
        out.push(FeatureAssociation {
            feature: meta.name.clone(),
            association,
            nmi,
        });
    }
    out.sort_by(|a, b| {
        b.association
            .partial_cmp(&a.association)
            // fb-lint: allow(P1): Cramér's V of finite counts and an f64::max fold (which drops NaN) are never NaN
            .expect("NaN association")
    });
    Ok(out)
}

/// `max` over the levels of |[`point_biserial`]| between `x` and the
/// level's indicator, where `level_counts[l]` counts the rows with
/// `codes == l`.
///
/// Bit for bit the per-level `point_biserial` fold, in a `Σx` pass and
/// one pass per pair of levels instead of two vectors and three passes
/// per level. Every accumulator sees exactly `pearson`'s operands in
/// row order: `Σx` is summed as `pearson` sums it, a level's mean is
/// `count / n` (the sum of its 0.0/1.0 indicator is that count exactly),
/// and `Σ(x − mx)²` rides along the first pass only.
fn max_point_biserial(x: &[f64], codes: &[u32], level_counts: &[usize]) -> f64 {
    assert_eq!(x.len(), codes.len(), "point-biserial: length mismatch");
    if x.is_empty() {
        return 0.0;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let levels: Vec<(u32, f64)> = (0u32..)
        .zip(level_counts)
        .map(|(code, &count)| (code, count as f64 / n))
        .collect();
    let mut sums = Vec::with_capacity(levels.len());
    let (sxx, rest) = match levels.as_slice() {
        [] => return 0.0,
        &[a] => (co_moments::<1, true>(x, codes, mx, [a], &mut sums), &[][..]),
        &[a, b, ref rest @ ..] => (co_moments::<2, true>(x, codes, mx, [a, b], &mut sums), rest),
    };
    let mut pairs = rest.chunks_exact(2);
    for pair in pairs.by_ref() {
        if let &[a, b] = pair {
            co_moments::<2, false>(x, codes, mx, [a, b], &mut sums);
        }
    }
    if let &[a] = pairs.remainder() {
        co_moments::<1, false>(x, codes, mx, [a], &mut sums);
    }
    sums.iter()
        .map(|&(sxy, syy)| {
            let r = if sxx == 0.0 || syy == 0.0 {
                0.0
            } else {
                (sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0)
            };
            r.abs()
        })
        .fold(0.0f64, f64::max)
}

/// One pass over the rows for `W` levels given as `(code, mean)`: pushes
/// each level's row-order `(Σ(x − mx)(y − my), Σ(y − my)²)` of its 0/1
/// indicator `y` onto `sums`, and returns `Σ(x − mx)²` when `SXX` (else
/// 0).
///
/// `y − my` and its square come from two-entry tables, selected by
/// integer arithmetic: `(c ^ l) − 1` wraps to a set top bit only when
/// `c == l`. Indexing by `usize::from(c == l)` or selecting with
/// `if c == l` leaves LLVM free to emit a branch per row, which random
/// codes mispredict (DESIGN.md §17).
fn co_moments<const W: usize, const SXX: bool>(
    x: &[f64],
    codes: &[u32],
    mx: f64,
    levels: [(u32, f64); W],
    sums: &mut Vec<(f64, f64)>,
) -> f64 {
    let dy = levels.map(|(_, my)| [0.0 - my, 1.0 - my]);
    let dy2 = dy.map(|d| d.map(|v: f64| v.powi(2)));
    let mut sxx = 0.0;
    let mut sxy = [0.0; W];
    let mut syy = [0.0; W];
    for (&a, &c) in x.iter().zip(codes) {
        let dx = a - mx;
        if SXX {
            sxx += dx.powi(2);
        }
        for l in 0..W {
            let hit = (u64::from(c ^ levels[l].0).wrapping_sub(1) >> 63) as usize;
            sxy[l] += dx * dy[l][hit];
            syy[l] += dy2[l][hit];
        }
    }
    sums.extend(sxy.into_iter().zip(syy));
    sxx
}

/// Log-probability of a 2×2 table under the hypergeometric null, used by
/// Fisher's exact test in [`crate::hypothesis`].
pub fn ln_hypergeometric_prob(a: u64, b: u64, c: u64, d: u64) -> f64 {
    let n = a + b + c + d;
    // ln [ (a+b)! (c+d)! (a+c)! (b+d)! / (n! a! b! c! d!) ]
    let lf = |x: u64| ln_gamma(x as f64 + 1.0);
    lf(a + b) + lf(c + d) + lf(a + c) + lf(b + d) - lf(n) - lf(a) - lf(b) - lf(c) - lf(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_reference() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let y_neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &y_neg) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x, &[5.0; 4]), 0.0);
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_monotone_invariance() {
        let x: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| v.exp()).collect(); // monotone map
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point_biserial_separated_groups() {
        let x = [1.0, 1.2, 0.8, 5.0, 5.2, 4.8];
        let b = [false, false, false, true, true, true];
        assert!(point_biserial(&x, &b) > 0.95);
    }

    #[test]
    fn contingency_marginals() {
        let t = Contingency::from_codes(&[0, 0, 1, 1], &[0, 1, 0, 1], 2, 2);
        assert_eq!(t.row_totals(), vec![2.0, 2.0]);
        assert_eq!(t.col_totals(), vec![2.0, 2.0]);
        assert_eq!(t.total(), 4.0);
        assert_eq!(t.at(1, 0), 1.0);
    }

    #[test]
    fn cramers_v_extremes() {
        // Perfect association: diagonal table.
        let perfect = Contingency::from_counts(vec![vec![50.0, 0.0], vec![0.0, 50.0]]);
        assert!((cramers_v(&perfect) - 1.0).abs() < 1e-12);
        // Independence: uniform table.
        let indep = Contingency::from_counts(vec![vec![25.0, 25.0], vec![25.0, 25.0]]);
        assert!(cramers_v(&indep).abs() < 1e-12);
    }

    #[test]
    fn mutual_information_extremes() {
        let perfect = Contingency::from_counts(vec![vec![50.0, 0.0], vec![0.0, 50.0]]);
        assert!((mutual_information(&perfect) - 2.0_f64.ln().min(1.0)).abs() < 1e-9);
        assert!((normalized_mutual_information(&perfect) - 1.0).abs() < 1e-9);
        let indep = Contingency::from_counts(vec![vec![25.0, 25.0], vec![25.0, 25.0]]);
        assert!(mutual_information(&indep).abs() < 1e-12);
        assert!(normalized_mutual_information(&indep).abs() < 1e-12);
    }

    #[test]
    fn nmi_zero_entropy_guard() {
        // One-row table: H(A)=0 → NMI defined as 0.
        let t = Contingency::from_counts(vec![vec![10.0, 20.0]]);
        assert_eq!(normalized_mutual_information(&t), 0.0);
    }

    fn proxy_ds() -> Dataset {
        // proxy duplicates sex; merit is independent of it.
        let n = 40;
        let sex: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let proxy: Vec<u32> = sex.clone();
        let merit: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        Dataset::builder()
            .categorical_with_role("sex", vec!["m", "f"], sex, Role::Protected)
            .categorical_with_role("proxy_uni", vec!["u1", "u2"], proxy, Role::Feature)
            .numeric("merit", merit)
            .boolean_with_role("y", (0..n).map(|i| i % 5 > 1).collect(), Role::Label)
            .build()
            .unwrap()
    }

    #[test]
    fn association_ranking_ranks_the_duplicate_first() {
        let scores = association_ranking(&proxy_ds(), "sex").unwrap();
        assert_eq!(scores[0].feature, "proxy_uni");
        assert!((scores[0].association - 1.0).abs() < 1e-9);
        let merit = scores.iter().find(|s| s.feature == "merit").unwrap();
        assert!(merit.association < 0.1);
    }

    #[test]
    fn numeric_proxy_detected() {
        let n = 40;
        let sex: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        let height: Vec<f64> = sex.iter().map(|&s| 160.0 + 15.0 * s as f64).collect();
        let ds = Dataset::builder()
            .categorical_with_role("sex", vec!["m", "f"], sex, Role::Protected)
            .numeric("height", height)
            .boolean_with_role("y", vec![true; n], Role::Label)
            .build()
            .unwrap();
        let scores = association_ranking(&ds, "sex").unwrap();
        assert!((scores[0].association - 1.0).abs() < 1e-9);
    }

    #[test]
    fn boolean_feature_scored() {
        let ds = Dataset::builder()
            .categorical_with_role("sex", vec!["m", "f"], vec![0, 0, 1, 1], Role::Protected)
            .boolean("maternity_leave", vec![false, false, true, true])
            .boolean_with_role("y", vec![true, false, true, false], Role::Label)
            .build()
            .unwrap();
        let scores = association_ranking(&ds, "sex").unwrap();
        assert_eq!(scores[0].feature, "maternity_leave");
        assert!((scores[0].association - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hypergeometric_prob_sums_to_one() {
        // For fixed margins (row sums 3,3; col sums 3,3), sum over all
        // feasible tables must be 1.
        let mut total = 0.0;
        for a in 0u64..=3 {
            let b = 3 - a;
            let c = 3 - a;
            let d = 3 - b;
            total += ln_hypergeometric_prob(a, b, c, d).exp();
        }
        assert!((total - 1.0).abs() < 1e-10);
    }
}
