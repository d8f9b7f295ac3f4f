//! Acceptance test for the batch execution engine: a full study produces
//! **byte-identical** JSON at `HQNN_THREADS=1` and `HQNN_THREADS=8` with the
//! same seeds. This is the end-to-end determinism criterion the engine is
//! gated on — every parallel seam (qsim batches, nn reductions, tensor
//! matmul, search combo waves) sits under this study, and the thread budget
//! must not change a byte of it.

use hqnn_search::experiments::Family;
use hqnn_search::{ExperimentConfig, StudyResult};

/// One smoke-scale study at the given thread budget, serialised to the same
/// pretty JSON that `StudyResult::save` writes. The manifest stays `None`
/// (as `StudyResult::new` leaves it), so the comparison covers every
/// computed number without provenance noise like timestamps.
fn study_json(threads: usize) -> String {
    hqnn_runtime::with_threads(threads, || {
        let mut config = ExperimentConfig::smoke();
        config.levels = vec![4];
        let mut study = StudyResult::new(config);
        study.run_classical();
        study.run_bel();
        serde_json::to_string_pretty(&study).expect("serialize study")
    })
}

#[test]
fn study_json_is_byte_identical_across_threads_and_layouts() {
    let reference = study_json(1);
    let other = study_json(8);
    assert!(
        reference == other,
        "study JSON diverged between threads=1 and threads=8\n\
         first differing byte at offset {:?}",
        reference
            .bytes()
            .zip(other.bytes())
            .position(|(a, b)| a != b)
    );
    // Sanity: the study actually ran something.
    assert!(reference.contains("\"classical\""));
    assert!(reference.len() > 1_000);
}

/// The same smoke study as [`study_json`], but run through the sharded
/// scheduler (`run_study_sharded`) instead of the sequential per-family
/// loops.
fn sharded_study_json(threads: usize) -> String {
    hqnn_runtime::with_threads(threads, || {
        let mut config = ExperimentConfig::smoke();
        config.levels = vec![4];
        let mut study = StudyResult::new(config);
        study.run_study_sharded(
            &[Family::Classical, Family::HybridBel],
            &mut |_, _, _, _| {},
        );
        serde_json::to_string_pretty(&study).expect("serialize study")
    })
}

#[test]
fn sharded_study_json_is_byte_identical_to_sequential() {
    // The sequential runner at one thread is the ground truth; the sharded
    // scheduler must reproduce it byte for byte at every thread budget.
    // This is the acceptance gate for study-level sharding.
    let reference = study_json(1);
    for threads in [1, 8] {
        let sharded = sharded_study_json(threads);
        assert!(
            reference == sharded,
            "sharded study JSON diverged from the sequential reference at \
             threads={threads}\nfirst differing byte at offset {:?}",
            reference
                .bytes()
                .zip(sharded.bytes())
                .position(|(a, b)| a != b)
        );
    }
}
