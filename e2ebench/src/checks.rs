//! Output checks. Every failed check counts against `failed`, so a wrong
//! answer shows as `fail_frac > 0` instead of a fast run.

use hqnn_core::ModelSpec;
use hqnn_search::{LevelResult, SearchConfig};
use hqnn_tensor::Matrix;
use serde::Serialize;

/// Attempted and failed operations of one checked output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Check {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
}

impl Check {
    /// Adds another output's counts.
    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Marks every attempted operation failed (at least one).
    pub fn fail_all(&mut self) {
        self.attempted = self.attempted.max(1);
        self.failed = self.attempted;
    }

    /// The output digest must equal the stored reference for this seed,
    /// when there is one, and the digest of the run's first unit: the
    /// repository promises bitwise-identical results for identical inputs.
    pub fn expect_digest(&mut self, digest: u64, reference: Option<u64>, first: Option<u64>) {
        if reference.is_some_and(|r| r != digest) || first.is_some_and(|f| f != digest) {
            self.fail_all();
        }
    }
}

/// Checks one search result against the protocol's invariants. `prefix`
/// is the FLOPs-sorted space, truncated to the search's combination cap.
///
/// - the evaluated list is the start of `prefix`, in ascending FLOPs order;
/// - every combination before the winner failed the threshold, and the
///   winner passed it;
/// - without a winner, every combination failed and the whole prefix was
///   trained;
/// - `passed` agrees with the threshold and the averaged accuracies.
///
/// Each combination that breaks a rule counts once.
pub fn check_level(result: &LevelResult, prefix: &[ModelSpec], config: &SearchConfig) -> Check {
    let mut check = Check::default();
    if result.repetitions.len() != config.repetitions {
        check.fail_all();
        return check;
    }
    for rep in &result.repetitions {
        let evaluated = &rep.evaluated;
        let mut failed = 0u64;
        for (i, combo) in evaluated.iter().enumerate() {
            let should_pass = combo.avg_train_accuracy >= config.accuracy_threshold
                && combo.avg_val_accuracy >= config.accuracy_threshold;
            let in_order = prefix.get(i) == Some(&combo.spec)
                && (i == 0 || evaluated[i - 1].flops.total() <= combo.flops.total());
            let position_ok = match rep.winner {
                Some(w) if i == w => combo.passed,
                Some(w) => i < w && !combo.passed,
                None => !combo.passed,
            };
            if !(in_order && combo.passed == should_pass && position_ok) {
                failed += 1;
            }
        }
        let complete = match rep.winner {
            Some(w) => w + 1 == evaluated.len(),
            None => evaluated.len() == prefix.len(),
        };
        if !complete {
            failed = failed.max(1);
        }
        check.attempted += evaluated.len().max(1) as u64;
        check.failed += failed;
    }
    check
}

/// FNV-1a digest of a value's JSON rendering.
pub fn digest<T: Serialize + ?Sized>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("benchmark outputs serialise");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// True when both matrices have the same shape and bit-identical entries.
pub fn matrix_bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::search_config;
    use hqnn_search::protocol::search_level;
    use hqnn_search::Family;

    fn small_search() -> (LevelResult, Vec<ModelSpec>, SearchConfig) {
        let config = SearchConfig {
            dataset_samples: 150,
            ..search_config(3, 3, 1)
        };
        let cost = hqnn_flops::CostModel::default();
        let space = Family::Classical.space(4);
        let mut priced: Vec<ModelSpec> = space.clone();
        priced.sort_by_key(|s| s.flops(&cost).total());
        priced.truncate(3);
        let result = search_level(&space, 4, &config, &cost, &mut |_, _| {});
        (result, priced, config)
    }

    #[test]
    fn a_correct_search_passes_every_check() {
        let (result, prefix, config) = small_search();
        let check = check_level(&result, &prefix, &config);
        assert_eq!(
            check,
            Check {
                attempted: 3,
                failed: 0
            }
        );
    }

    #[test]
    fn corrupted_search_outputs_raise_fail_frac() {
        let (result, prefix, config) = small_search();
        // A combination claims to pass a threshold nothing can reach.
        let mut lying = result.clone();
        lying.repetitions[0].evaluated[1].passed = true;
        assert!(check_level(&lying, &prefix, &config).failed > 0);
        // The evaluated list leaves FLOPs order.
        let mut shuffled = result.clone();
        shuffled.repetitions[0].evaluated.swap(0, 2);
        assert!(check_level(&shuffled, &prefix, &config).failed > 0);
        // A combination is missing.
        let mut short = result.clone();
        short.repetitions[0].evaluated.pop();
        assert!(check_level(&short, &prefix, &config).failed > 0);
        // A winner that did not pass.
        let mut fake_winner = result.clone();
        fake_winner.repetitions[0].winner = Some(2);
        assert!(check_level(&fake_winner, &prefix, &config).failed > 0);
        // Same shape, different numbers: only the digest catches it.
        let mut drifted = result.clone();
        drifted.repetitions[0].evaluated[0].avg_val_accuracy += 1e-12;
        let mut check = check_level(&drifted, &prefix, &config);
        assert_eq!(check.failed, 0);
        check.expect_digest(digest(&drifted), Some(digest(&result)), None);
        assert!(check.failed > 0);
    }

    #[test]
    fn bitwise_comparison_sees_one_ulp() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let mut b = a.clone();
        assert!(matrix_bits_equal(&a, &b));
        b.as_mut_slice()[1] = f64::from_bits(2.0f64.to_bits() + 1);
        assert!(!matrix_bits_equal(&a, &b));
    }
}
