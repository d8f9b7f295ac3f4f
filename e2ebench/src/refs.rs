//! Reference digests stored with the benchmark, one per (workload, seed):
//! the JSON digest of a search's `LevelResult`s, of the *sequential* study,
//! and of the served model's full-batch predictions. Seeds without an entry
//! get the invariant checks only.
//!
//! Regenerate with `e2ebench --write-refs <seeds>` after a change that is
//! meant to alter results.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// One stored digest.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefEntry {
    /// Workload name.
    pub workload: String,
    /// Seed the digest was computed for.
    pub seed: u64,
    /// FNV-1a digest, 16 hex digits.
    pub digest: String,
}

/// Path of the reference file, next to the benchmark's manifest.
pub const REFS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/refs.json");

fn table() -> &'static [RefEntry] {
    static TABLE: OnceLock<Vec<RefEntry>> = OnceLock::new();
    TABLE.get_or_init(|| {
        serde_json::from_str(include_str!("../refs.json")).expect("refs.json is a list of entries")
    })
}

/// The stored digest for `workload` at `seed`, if any.
pub fn lookup(workload: &str, seed: u64) -> Option<u64> {
    table()
        .iter()
        .find(|e| e.workload == workload && e.seed == seed)
        .map(|e| u64::from_str_radix(&e.digest, 16).expect("refs.json digests are hex"))
}

/// Renders entries as the reference file's contents.
pub fn render(entries: &[RefEntry]) -> String {
    let mut out = serde_json::to_string_pretty(entries).expect("entries serialise");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_references_parse_and_round_trip() {
        let text = include_str!("../refs.json");
        let entries: Vec<RefEntry> = serde_json::from_str(text).expect("parses");
        assert_eq!(render(&entries), text);
        for e in &entries {
            assert_eq!(
                lookup(&e.workload, e.seed),
                u64::from_str_radix(&e.digest, 16).ok()
            );
        }
    }
}
