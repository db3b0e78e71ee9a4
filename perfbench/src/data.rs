//! Seeded inputs: synthetic hiring-style datasets and their wire bodies.
//!
//! Every dataset has the shape the benchmark's workloads share: two
//! protected categorical columns (`sex` with 2 levels, `race` with 3),
//! two numeric features, a `hired` label and a `pred` prediction. The
//! generator builds both the in-process [`Dataset`] and the `POST`
//! body from the same column vectors, so the daemon and the engine see
//! the same data. Everything is a pure function of the seed.

use fairbridge_tabular::{Dataset, Role};
use std::fmt::Write as _;

/// The protected columns every audit conditions on.
pub const PROTECTED: [&str; 2] = ["sex", "race"];

/// splitmix64: small, seedable and good enough for synthetic data.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The raw columns of one generated dataset.
pub struct Columns {
    sex: Vec<u32>,
    race: Vec<u32>,
    income: Vec<f64>,
    tenure: Vec<f64>,
    hired: Vec<bool>,
    pred: Vec<bool>,
}

impl Columns {
    /// `rows` rows drawn from `seed`. Selection rates differ by group and
    /// income tracks race, so audits report real gaps, proxies and
    /// subgroups instead of an all-fair report.
    pub fn generate(rows: usize, seed: u64) -> Columns {
        let mut rng = Rng::new(seed);
        let mut c = Columns {
            sex: Vec::with_capacity(rows),
            race: Vec::with_capacity(rows),
            income: Vec::with_capacity(rows),
            tenure: Vec::with_capacity(rows),
            hired: Vec::with_capacity(rows),
            pred: Vec::with_capacity(rows),
        };
        for _ in 0..rows {
            let sex = u32::from(rng.unit() < 0.55);
            let u = rng.unit();
            let race = if u < 0.5 {
                0
            } else if u < 0.8 {
                1
            } else {
                2
            };
            // Whole cents and tenths of a year, as a real export would hold.
            let cents = 3_000_000 + rng.below(6_000_000) - 400_000 * u64::from(race);
            let income = cents as f64 / 100.0;
            let tenure = rng.below(400) as f64 / 10.0;
            let p_hire = 0.25
                + 0.10 * f64::from(sex)
                + 0.08 * f64::from(u8::from(race == 0))
                + 0.15 * (income - 26_000.0) / 64_000.0;
            let hired = rng.unit() < p_hire;
            // The model agrees with the label 85% of the time and leans
            // further against race 2.
            let flip = rng.unit() < 0.15 + 0.05 * f64::from(u8::from(race == 2));
            c.sex.push(sex);
            c.race.push(race);
            c.income.push(income);
            c.tenure.push(tenure);
            c.hired.push(hired);
            c.pred.push(hired != flip);
        }
        c
    }

    pub fn dataset(&self) -> Dataset {
        Dataset::builder()
            .categorical_with_role(
                "sex",
                vec!["f".to_owned(), "m".to_owned()],
                self.sex.clone(),
                Role::Protected,
            )
            .categorical_with_role(
                "race",
                vec!["a".to_owned(), "b".to_owned(), "c".to_owned()],
                self.race.clone(),
                Role::Protected,
            )
            .numeric_with_role("income", self.income.clone(), Role::Feature)
            .numeric_with_role("tenure", self.tenure.clone(), Role::Feature)
            .boolean_with_role("hired", self.hired.clone(), Role::Label)
            .boolean_with_role("pred", self.pred.clone(), Role::Prediction)
            .build()
            .expect("generated columns have equal lengths and valid codes")
    }

    /// The `POST /audit` (and `/mitigate`) body: the wire encoding of
    /// the dataset, the protected columns and `use_labels: false`.
    pub fn body(&self) -> String {
        let mut s = String::with_capacity(self.sex.len() * 48 + 512);
        s.push_str("{\"dataset\":{\"columns\":[");
        push_codes(&mut s, "sex", &["f", "m"], &self.sex);
        s.push(',');
        push_codes(&mut s, "race", &["a", "b", "c"], &self.race);
        s.push(',');
        push_numbers(&mut s, "income", &self.income);
        s.push(',');
        push_numbers(&mut s, "tenure", &self.tenure);
        s.push(',');
        push_bools(&mut s, "hired", "label", &self.hired);
        s.push(',');
        push_bools(&mut s, "pred", "prediction", &self.pred);
        s.push_str("]},\"protected\":[\"sex\",\"race\"],\"use_labels\":false}");
        s
    }
}

fn push_codes(s: &mut String, name: &str, levels: &[&str], codes: &[u32]) {
    let _ = write!(
        s,
        "{{\"name\":\"{name}\",\"type\":\"categorical\",\"role\":\"protected\",\"levels\":["
    );
    for (i, level) in levels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{level}\"");
    }
    s.push_str("],\"codes\":[");
    join(s, codes, |s, c| {
        let _ = write!(s, "{c}");
    });
    s.push_str("]}");
}

fn push_numbers(s: &mut String, name: &str, values: &[f64]) {
    let _ = write!(
        s,
        "{{\"name\":\"{name}\",\"type\":\"numeric\",\"role\":\"feature\",\"values\":["
    );
    join(s, values, |s, x| {
        let _ = write!(s, "{x}");
    });
    s.push_str("]}");
}

fn push_bools(s: &mut String, name: &str, role: &str, values: &[bool]) {
    let _ = write!(
        s,
        "{{\"name\":\"{name}\",\"type\":\"boolean\",\"role\":\"{role}\",\"values\":["
    );
    join(s, values, |s, b| {
        let _ = write!(s, "{b}");
    });
    s.push_str("]}");
}

fn join<T>(s: &mut String, items: &[T], mut push: impl FnMut(&mut String, &T)) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push(s, item);
    }
}

/// The seed of the `i`-th dataset of a workload run seeded with `seed`.
pub fn dataset_seed(seed: u64, i: usize) -> u64 {
    Rng::new(seed ^ 0xFA1B_0000_0000_0000).next_u64()
        ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407)
}
