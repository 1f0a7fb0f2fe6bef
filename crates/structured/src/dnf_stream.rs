//! DNF sets: the general structured stream item (Theorem 5).
//!
//! A stream item is a DNF formula; the set it represents is its solution set.
//! The per-item `FindMin` is Proposition 2's polynomial-time DNF subroutine,
//! giving per-item time `O(n⁴·k·ε⁻²·log δ⁻¹)` and space
//! `O(n·ε⁻²·log δ⁻¹)` overall, as Theorem 5 states.

use crate::stream_f0::StructuredSet;
use mcf0_formula::{exact, DnfFormula};
use mcf0_gf2::BitVec;
use mcf0_hashing::ToeplitzHash;
use mcf0_sat::{bounded_sat_dnf, find_min_dnf};

/// A DNF-set stream item.
#[derive(Clone, Debug)]
pub struct DnfSet {
    formula: DnfFormula,
}

impl DnfSet {
    /// Wraps a DNF formula as a stream item.
    pub fn new(formula: DnfFormula) -> Self {
        DnfSet { formula }
    }

    /// The underlying formula.
    pub fn formula(&self) -> &DnfFormula {
        &self.formula
    }

    /// Representation size (number of terms `k`).
    pub fn num_terms(&self) -> usize {
        self.formula.num_terms()
    }
}

impl StructuredSet for DnfSet {
    fn num_vars(&self) -> usize {
        self.formula.num_vars()
    }

    fn smallest_hashed(&self, hash: &ToeplitzHash, p: usize) -> Vec<BitVec> {
        find_min_dnf(&self.formula, hash, p)
    }

    fn members_in_cell(&self, hash: &ToeplitzHash, level: usize, limit: usize) -> Vec<BitVec> {
        bounded_sat_dnf(&self.formula, hash, level, limit).solutions
    }

    fn exact_size(&self) -> Option<u128> {
        if self.formula.num_vars() <= 40 && self.formula.num_terms() <= 64 {
            Some(exact::count_dnf_exact(&self.formula))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream_f0::StructuredMinimumF0;
    use mcf0_counting::config::CountingConfig;
    use mcf0_formula::generators::random_dnf;
    use mcf0_hashing::Xoshiro256StarStar;
    use std::collections::HashSet;

    #[test]
    fn union_of_dnf_sets_is_estimated_accurately() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(911);
        let config = CountingConfig::explicit(0.8, 0.2, 150, 9);
        let n = 14;
        let mut sketch = StructuredMinimumF0::new(n, &config, &mut rng);
        let mut union: HashSet<u64> = HashSet::new();
        for _ in 0..6 {
            let f = random_dnf(&mut rng, n, 4, (3, 6));
            for a in mcf0_formula::exact::enumerate_dnf_solutions(&f) {
                union.insert(a.to_u64());
            }
            sketch.process_item(&DnfSet::new(f));
        }
        let truth = union.len() as f64;
        let est = sketch.estimate();
        assert!(
            est >= truth / 2.0 && est <= truth * 2.0,
            "estimate {est} vs truth {truth}"
        );
    }

    #[test]
    fn exact_size_matches_exact_counter() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(912);
        let f = random_dnf(&mut rng, 12, 6, (2, 5));
        let expected = mcf0_formula::exact::count_dnf_exact(&f);
        let item = DnfSet::new(f);
        assert_eq!(item.exact_size(), Some(expected));
        assert_eq!(item.num_terms(), 6);
    }

    #[test]
    fn singleton_items_recover_the_plain_streaming_model() {
        // The structured model generalises the traditional streaming model:
        // an element x is the single-term DNF whose only solution is x.
        let mut rng = Xoshiro256StarStar::seed_from_u64(913);
        let config = CountingConfig::explicit(0.8, 0.2, 100, 5);
        let n = 16;
        let mut sketch = StructuredMinimumF0::new(n, &config, &mut rng);
        let items: Vec<u64> = (0..60).map(|i| i * 7 % 97).collect();
        let distinct: HashSet<u64> = items.iter().copied().collect();
        for &x in &items {
            let mut assignment = BitVec::zeros(n);
            for b in 0..n {
                assignment.set(b, (x >> (n - 1 - b)) & 1 == 1);
            }
            let f = DnfFormula::from_assignments(n, &[assignment]);
            sketch.process_item(&DnfSet::new(f));
        }
        assert_eq!(sketch.estimate(), distinct.len() as f64);
    }
}
