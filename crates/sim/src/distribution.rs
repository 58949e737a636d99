//! Empirical gap distributions in the paper's reporting format.
//!
//! Tables 12.3 and 12.4 of the paper report, for each process and
//! parameter, the distribution of the integer gap over 100 runs as lines
//! like `24 : 37%`. [`GapDistribution`] reproduces that format.

use std::collections::BTreeMap;
use std::fmt;

use serde::Serialize;

use crate::runner::RunResult;

/// An empirical distribution of integer gap values.
///
/// # Examples
///
/// ```
/// use balloc_sim::GapDistribution;
///
/// let dist = GapDistribution::from_gaps([3, 4, 4, 5].into_iter());
/// assert_eq!(dist.total(), 4);
/// assert_eq!(dist.percent(4), 50.0);
/// assert_eq!(dist.mode(), 4);
/// assert!((dist.mean() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GapDistribution {
    counts: BTreeMap<i64, usize>,
    total: usize,
}

impl GapDistribution {
    /// Builds a distribution from raw integer gaps.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty.
    #[must_use]
    pub fn from_gaps<I: Iterator<Item = i64>>(gaps: I) -> Self {
        let mut counts = BTreeMap::new();
        let mut total = 0;
        for g in gaps {
            *counts.entry(g).or_insert(0) += 1;
            total += 1;
        }
        assert!(total > 0, "distribution of an empty sample");
        Self { counts, total }
    }

    /// Builds a distribution from run results, using each result's
    /// [`gap_bucket`](RunResult::gap_bucket).
    ///
    /// # Panics
    ///
    /// Panics if `results` is empty.
    #[must_use]
    pub fn from_results(results: &[RunResult]) -> Self {
        Self::from_gaps(results.iter().map(RunResult::gap_bucket))
    }

    /// Number of samples.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of samples with the given gap.
    #[must_use]
    pub fn count(&self, gap: i64) -> usize {
        self.counts.get(&gap).copied().unwrap_or(0)
    }

    /// Percentage of samples with the given gap.
    #[must_use]
    pub fn percent(&self, gap: i64) -> f64 {
        100.0 * self.count(gap) as f64 / self.total as f64
    }

    /// The observed `(gap, count)` pairs in increasing gap order.
    pub fn entries(&self) -> impl Iterator<Item = (i64, usize)> + '_ {
        self.counts.iter().map(|(&g, &c)| (g, c))
    }

    /// Smallest observed gap.
    #[must_use]
    pub fn min(&self) -> i64 {
        *self.counts.keys().next().expect("non-empty")
    }

    /// Largest observed gap.
    #[must_use]
    pub fn max(&self) -> i64 {
        *self.counts.keys().next_back().expect("non-empty")
    }

    /// The most frequent gap (smallest in case of a tie).
    #[must_use]
    pub fn mode(&self) -> i64 {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&g, _)| g)
            .expect("non-empty")
    }

    /// Mean gap.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let sum: i64 = self.counts.iter().map(|(&g, &c)| g * c as i64).sum();
        sum as f64 / self.total as f64
    }

    /// Formats the distribution the way the paper's Tables 12.3/12.4 do:
    /// one `gap : percent%` line per observed value.
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_sim::GapDistribution;
    /// let d = GapDistribution::from_gaps([2, 3, 3, 3].into_iter());
    /// assert_eq!(d.paper_style(), "2 : 25%\n3 : 75%");
    /// ```
    #[must_use]
    pub fn paper_style(&self) -> String {
        self.entries_paper_style().join("\n")
    }

    /// Like [`paper_style`](Self::paper_style) but on a single line
    /// (entries separated by `", "`), for table cells.
    ///
    /// # Examples
    ///
    /// ```
    /// use balloc_sim::GapDistribution;
    /// let d = GapDistribution::from_gaps([2, 3, 3, 3].into_iter());
    /// assert_eq!(d.paper_style_inline(), "2 : 25%, 3 : 75%");
    /// ```
    #[must_use]
    pub fn paper_style_inline(&self) -> String {
        self.entries_paper_style().join(", ")
    }

    fn entries_paper_style(&self) -> Vec<String> {
        self.counts
            .iter()
            .map(|(&g, &c)| {
                let pct = 100.0 * c as f64 / self.total as f64;
                if (pct - pct.round()).abs() < 1e-9 {
                    format!("{g} : {}%", pct.round() as i64)
                } else {
                    format!("{g} : {pct:.1}%")
                }
            })
            .collect()
    }
}

impl fmt::Display for GapDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.paper_style())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        let _ = GapDistribution::from_gaps(std::iter::empty());
    }

    #[test]
    fn counts_and_percentages() {
        let d = GapDistribution::from_gaps([1, 1, 2, 5].into_iter());
        assert_eq!(d.total(), 4);
        assert_eq!(d.count(1), 2);
        assert_eq!(d.count(3), 0);
        assert_eq!(d.percent(1), 50.0);
        assert_eq!(d.min(), 1);
        assert_eq!(d.max(), 5);
        assert_eq!(d.mode(), 1);
        assert!((d.mean() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn paper_style_matches_table_format() {
        let d = GapDistribution::from_gaps(
            std::iter::repeat_n(24, 37).chain(std::iter::repeat_n(25, 63)),
        );
        assert_eq!(d.paper_style(), "24 : 37%\n25 : 63%");
    }

    #[test]
    fn paper_style_fractional_percent() {
        let d = GapDistribution::from_gaps([1, 1, 2].into_iter());
        assert_eq!(d.paper_style(), "1 : 66.7%\n2 : 33.3%");
    }

    #[test]
    fn entries_are_sorted() {
        let d = GapDistribution::from_gaps([5, 1, 3, 1].into_iter());
        let gaps: Vec<i64> = d.entries().map(|(g, _)| g).collect();
        assert_eq!(gaps, vec![1, 3, 5]);
    }

    #[test]
    fn mode_prefers_smaller_on_tie() {
        let d = GapDistribution::from_gaps([2, 2, 7, 7].into_iter());
        assert_eq!(d.mode(), 2);
    }

    #[test]
    fn display_equals_paper_style() {
        let d = GapDistribution::from_gaps([4].into_iter());
        assert_eq!(format!("{d}"), d.paper_style());
    }

    #[test]
    fn serde_roundtrip() {
        let d = GapDistribution::from_gaps([1, 2, 2].into_iter());
        let json = serde_json::to_string(&d).unwrap();
        let back = serde_json::from_str(&json).unwrap();
        assert_eq!(back.get("counts").get("1"), &Value::UInt(1));
        assert_eq!(back.get("counts").get("2"), &Value::UInt(2));
        assert_eq!(back.get("counts").as_object().map(<[_]>::len), Some(2));
        assert_eq!(back.get("total"), &Value::UInt(3));
    }
}
