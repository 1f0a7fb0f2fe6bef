//! Accuracy configuration shared by the F0 sketches.

/// Parameters of an (ε, δ) estimation run.
///
/// The paper's constants are `Thresh = 96/ε²` and `t = 35·log₂(1/δ)` median
/// repetitions. Those defaults make unit tests and micro-benchmarks slow
/// without changing the algorithmic shape, so the configuration also carries
/// explicit overrides; every experiment reports the values it used.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct F0Config {
    /// Relative error target ε.
    pub epsilon: f64,
    /// Failure probability target δ.
    pub delta: f64,
    /// Bucket / reservoir size (`Thresh`).
    pub thresh: usize,
    /// Number of median repetitions (`t`).
    pub rows: usize,
}

impl F0Config {
    /// The paper's parameterisation: `Thresh = ⌈96/ε²⌉`, `t = ⌈35·log₂(1/δ)⌉`.
    pub fn paper(epsilon: f64, delta: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        F0Config {
            epsilon,
            delta,
            thresh: (96.0 / (epsilon * epsilon)).ceil() as usize,
            rows: (35.0 * (1.0 / delta).log2()).ceil().max(1.0) as usize,
        }
    }

    /// A configuration with explicit `Thresh` and `t` (used by benchmarks to
    /// keep runtimes manageable while preserving the algorithm's shape).
    pub fn explicit(epsilon: f64, delta: f64, thresh: usize, rows: usize) -> Self {
        assert!(thresh >= 1 && rows >= 1);
        F0Config {
            epsilon,
            delta,
            thresh,
            rows,
        }
    }

    /// Independence parameter `s = ⌈10·log₂(1/ε)⌉` used by the Estimation
    /// strategy (at least 2).
    pub fn s_wise_independence(&self) -> usize {
        ((10.0 * (1.0 / self.epsilon).log2()).ceil() as usize).max(2)
    }
}

/// Median of a slice of estimates (averaging the two middle elements for an
/// even count). Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty list");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("estimates must not be NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let c = F0Config::paper(0.8, 0.2);
        assert_eq!(c.thresh, 150);
        assert_eq!(c.rows, (35.0f64 * 5.0f64.log2()).ceil() as usize);
        let tighter = F0Config::paper(0.1, 0.2);
        assert_eq!(tighter.thresh, 9600);
    }

    #[test]
    fn s_wise_parameter_grows_as_epsilon_shrinks() {
        assert!(
            F0Config::paper(0.05, 0.1).s_wise_independence()
                > F0Config::paper(0.5, 0.1).s_wise_independence()
        );
        assert!(F0Config::paper(0.9, 0.1).s_wise_independence() >= 2);
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn median_of_empty_panics() {
        median(&[]);
    }
}
