//! The four workloads. Each is set up from the seed, then runs *units* of
//! timed work (one search, one request stream, one study) and checks every
//! unit's output.
//!
//! Searches do a fixed amount of work: the accuracy threshold is set above
//! 1.0, so no combination passes and every search trains exactly the first
//! `cap` combinations of its space in FLOPs order. With the paper's 0.90
//! bar the winner's position moves with the seed (10 to 25 combinations at
//! 110 features), and time to solution would measure the seed, not the code.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use hqnn_core::{HybridSpec, ModelSpec, SavedModel};
use hqnn_flops::CostModel;
use hqnn_nn::{train, Adam, Sequential, TrainConfig};
use hqnn_qsim::{EntanglerKind, QnnTemplate};
use hqnn_search::protocol::{prepare_level_data, search_level, PreparedData};
use hqnn_search::{ExperimentConfig, Family, LevelResult, SearchConfig, StudyResult};
use hqnn_telemetry::MemorySink;
use hqnn_tensor::{Matrix, SeededRng};

use crate::checks::{check_level, digest, matrix_bits_equal, Check};
use crate::refs;
use crate::stats::Latencies;
use crate::trace::Recorder;

/// Feature count of the search and inference workloads: the paper's
/// hardest complexity level.
pub const FEATURES: usize = 110;
/// Above any accuracy, so searches never stop early (see the module docs).
const FIXED_WORK_THRESHOLD: f64 = 1.01;
/// Spiral samples per level (80 % train, 20 % held out): half the paper's
/// 1500. With [`SEARCH_EPOCHS`] this keeps combinations short, so that a
/// run holds enough units and requests for its fastest tenth to be
/// measured on its own (see `stats::FAST_SHARE`); the work per row is the
/// paper's.
const DATASET_SAMPLES: usize = 750;
/// Training epochs per combination in every search.
const SEARCH_EPOCHS: usize = 2;
// Combination caps. The first combination of each `search_level` call is
// not a latency sample: its interval also holds the call's data
// preparation, several times a combination's training at 110 features,
// and as one sample in 13 it would sit on the edge of the p90. The other
// combinations are the samples.
/// Combinations trained per classical search: the narrow `C[2,…]` models
/// that open the FLOPs order at 110 features, all of similar cost.
const CLASSICAL_CAP: usize = 13;
/// Combinations trained in the BEL space per hybrid search (depths 1–3).
/// With [`SEL_CAP`], three samples of different cost per search, so the
/// median and p90 fall inside one combination's group of samples instead
/// of on the edge between two.
const BEL_CAP: usize = 3;
/// Combinations trained in the SEL space per hybrid search (depths 1–2).
const SEL_CAP: usize = 2;
/// Levels of the study workload.
const STUDY_LEVELS: [usize; 3] = [10, 20, 30];
/// Combinations trained per (family, level) cell of the study.
const STUDY_CAP: usize = 3;
/// Thread budget of the study workload.
const STUDY_THREADS: usize = 2;
/// Epochs the served model is trained for at set-up.
const INFER_TRAIN_EPOCHS: usize = 2;
/// Rows per inference request.
pub const REQUEST_ROWS: usize = 8;
/// Requests in one timed stream of the inference workload: a unit of about
/// 15 ms. Short, so that the fastest units hold no burst of the host's
/// slow phase; the 10 ms ticks of the process CPU clock average out over
/// the many units the timing metrics are taken over.
const REQUESTS_PER_STREAM: usize = 1000;

/// The served model of `hybrid-infer` and the model the layer ledger
/// prices: SEL with 3 qubits and 2 layers at 110 features.
pub fn served_spec() -> HybridSpec {
    HybridSpec::new(FEATURES, 3, QnnTemplate::new(3, 2, EntanglerKind::Strong))
}

/// The search protocol of every search in the benchmark.
pub fn search_config(seed: u64, cap: usize, epochs: usize) -> SearchConfig {
    SearchConfig {
        accuracy_threshold: FIXED_WORK_THRESHOLD,
        runs_per_combo: 1,
        repetitions: 1,
        train: TrainConfig::paper().with_epochs(epochs),
        dataset_samples: DATASET_SAMPLES,
        max_combos_per_repetition: cap,
        seed,
        ..SearchConfig::paper()
    }
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `search_level` over the 155-MLP classical space at 110 features.
    ClassicalSearch,
    /// `search_level` over the BEL and SEL hybrid spaces at 110 features.
    HybridSearch,
    /// A closed-loop client sending 8-row `predict` requests to a restored
    /// hybrid model.
    HybridInfer,
    /// `run_study_sharded` over all three families at two small levels.
    Study2t,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ClassicalSearch,
        Workload::HybridSearch,
        Workload::HybridInfer,
        Workload::Study2t,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClassicalSearch => "classical-search",
            Workload::HybridSearch => "hybrid-search",
            Workload::HybridInfer => "hybrid-infer",
            Workload::Study2t => "study-2t",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Thread budget the workload runs under.
    pub fn threads(self) -> usize {
        match self {
            Workload::Study2t => STUDY_THREADS,
            _ => 1,
        }
    }

    /// What units of timed work are, for the report.
    pub fn units_name(self) -> &'static str {
        match self {
            Workload::ClassicalSearch | Workload::HybridSearch => "searches",
            Workload::HybridInfer => "request streams",
            Workload::Study2t => "studies",
        }
    }

    /// What one request is, for the report.
    pub fn request_name(self) -> &'static str {
        match self {
            Workload::HybridInfer => "8-row predict",
            _ => "combination",
        }
    }

    /// Builds the workload's inputs from `seed`. Everything here counts as
    /// set-up time.
    pub fn setup(self, seed: u64, rec: &mut Recorder) -> Box<dyn Bench> {
        match self {
            Workload::ClassicalSearch => Box::new(SearchBench::new(
                self,
                seed,
                &[(Family::Classical, CLASSICAL_CAP)],
                rec,
            )),
            Workload::HybridSearch => Box::new(SearchBench::new(
                self,
                seed,
                &[(Family::HybridBel, BEL_CAP), (Family::HybridSel, SEL_CAP)],
                rec,
            )),
            Workload::HybridInfer => Box::new(InferBench::new(seed, rec)),
            Workload::Study2t => Box::new(StudyBench::new(seed, rec)),
        }
    }
}

/// Outcome of one unit of timed work.
#[derive(Clone, Debug, Default)]
pub struct Unit {
    /// Operations attempted: combinations, requests or study cells.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Retained training rows (searches, study) or predicted rows.
    pub rows: u64,
    /// Optimizer steps behind the retained combinations.
    pub retained_steps: u64,
    /// Combinations the result kept.
    pub combos_retained: u64,
    /// Latency of every request.
    pub requests: Latencies,
}

/// A set-up workload, ready to run units.
pub trait Bench {
    /// Runs and checks one unit of timed work.
    fn unit(&mut self, rec: &mut Recorder) -> Unit;
    /// The digest a reference file stores for this seed.
    fn reference_digest(&mut self) -> u64;
}

/// Prices `space` and sorts it by FLOPs, as `search_level` does; returns
/// the first `cap` specs.
fn priced_prefix(space: &[ModelSpec], cost: &CostModel, cap: usize) -> Vec<ModelSpec> {
    let mut priced: Vec<(u64, &ModelSpec)> =
        space.iter().map(|s| (s.flops(cost).total(), s)).collect();
    priced.sort_by_key(|(flops, _)| *flops);
    priced
        .into_iter()
        .take(cap)
        .map(|(_, s)| s.clone())
        .collect()
}

fn steps_per_epoch(train_rows: usize, batch: usize) -> u64 {
    train_rows.div_ceil(batch) as u64
}

/// One `search_level` call of a search workload.
struct Search {
    space: Vec<ModelSpec>,
    /// The combinations it must train: the first `cap` in FLOPs order.
    prefix: Vec<ModelSpec>,
    config: SearchConfig,
}

struct SearchBench {
    workload: Workload,
    cost: CostModel,
    searches: Vec<Search>,
    train_rows: usize,
    reference: Option<u64>,
    first_digest: Option<u64>,
}

impl SearchBench {
    /// `families` pairs each searched family with its combination cap.
    fn new(
        workload: Workload,
        seed: u64,
        families: &[(Family, usize)],
        rec: &mut Recorder,
    ) -> Self {
        let cost = CostModel::default();
        let data = rec.span("data.prepare", |_| {
            prepare_level_data(&search_config(seed, 1, SEARCH_EPOCHS), FEATURES)
        });
        let searches = families
            .iter()
            .map(|&(family, cap)| {
                let space = family.space(FEATURES);
                let prefix = rec.span("flops.price", |_| priced_prefix(&space, &cost, cap));
                Search {
                    space,
                    prefix,
                    config: search_config(seed, cap, SEARCH_EPOCHS),
                }
            })
            .collect();
        Self {
            workload,
            cost,
            searches,
            train_rows: data.x_train.rows(),
            reference: refs::lookup(workload.name(), seed),
            first_digest: None,
        }
    }

    fn search(&self, rec: &mut Recorder, requests: &mut Latencies) -> Vec<LevelResult> {
        let mut results = Vec::with_capacity(self.searches.len());
        for search in &self.searches {
            let result = rec.span("search.level", |rec| {
                let mut marks = vec![Instant::now()];
                let result = search_level(
                    &search.space,
                    FEATURES,
                    &search.config,
                    &self.cost,
                    &mut |_, _| {
                        marks.push(Instant::now());
                    },
                );
                for (i, pair) in marks.windows(2).enumerate() {
                    rec.record("search.combo", pair[0], pair[1]);
                    // The first interval holds the data preparation too.
                    if i > 0 {
                        requests.push(pair[1].duration_since(pair[0]).as_nanos() as u64);
                    }
                }
                result
            });
            results.push(result);
        }
        results
    }
}

impl Bench for SearchBench {
    fn unit(&mut self, rec: &mut Recorder) -> Unit {
        let mut unit = Unit::default();
        let results = self.search(rec, &mut unit.requests);
        let mut check = Check::default();
        for (result, search) in results.iter().zip(&self.searches) {
            check.merge(check_level(result, &search.prefix, &search.config));
            let combos: u64 = result
                .repetitions
                .iter()
                .map(|rep| rep.evaluated.len() as u64)
                .sum();
            let epochs = (search.config.runs_per_combo * search.config.train.epochs) as u64;
            unit.combos_retained += combos;
            unit.rows += combos * epochs * self.train_rows as u64;
            unit.retained_steps +=
                combos * epochs * steps_per_epoch(self.train_rows, search.config.train.batch_size);
        }
        let d = digest(&results);
        check.expect_digest(d, self.reference, self.first_digest);
        self.first_digest.get_or_insert(d);
        unit.attempted = check.attempted;
        unit.failed = check.failed;
        unit
    }

    fn reference_digest(&mut self) -> u64 {
        let mut rec = Recorder::new(false);
        let results = hqnn_runtime::with_threads(self.workload.threads(), || {
            self.search(&mut rec, &mut Latencies::default())
        });
        digest(&results)
    }
}

struct InferBench {
    model: Sequential,
    /// The distinct 8-row requests of the stream, cycling over held-out rows.
    requests: Vec<Matrix>,
    /// Rows of the full-batch `predict` each request must reproduce.
    expected: Vec<Matrix>,
    next: usize,
    setup_failed: bool,
    reference: Option<u64>,
    full_batch_digest: u64,
}

impl InferBench {
    fn new(seed: u64, rec: &mut Recorder) -> Self {
        let config = search_config(seed, 1, INFER_TRAIN_EPOCHS);
        let data: PreparedData =
            rec.span("data.prepare", |_| prepare_level_data(&config, FEATURES));
        let spec = served_spec();
        let mut trained = rec.span("core.train", |_| {
            let mut rng = SeededRng::new(seed).split(0x1f3e);
            let mut model = spec.build(&mut rng);
            let mut optimizer = Adam::new(config.learning_rate);
            train(
                &mut model,
                &mut optimizer,
                &data.x_train,
                &data.y_train,
                &data.x_val,
                &data.y_val,
                data.n_classes,
                &config.train,
                &mut rng,
            );
            model
        });
        let path = model_path(seed);
        rec.span("core.save", |_| {
            SavedModel::capture(spec.into(), &mut trained)
                .save(&path)
                .expect("benchmark output directory is writable")
        });
        let restored = rec.span("core.restore", |_| {
            SavedModel::load(&path)
                .ok()
                .and_then(|saved| saved.restore().ok())
        });
        let trained_out = trained.predict(&data.x_val);
        let setup_failed = restored.is_none();
        let mut model = restored.unwrap_or(trained);
        let full = rec.span("nn.predict", |_| model.predict(&data.x_val));
        let setup_failed = setup_failed || !matrix_bits_equal(&full, &trained_out);

        let n = data.x_val.rows();
        // Request k covers held-out rows 8k .. 8k+7 (mod n): the stream
        // repeats after lcm(n, 8) / 8 requests.
        let distinct = n / gcd(n, REQUEST_ROWS);
        let rows = |k: usize| -> Vec<usize> {
            (0..REQUEST_ROWS)
                .map(|j| (k * REQUEST_ROWS + j) % n)
                .collect()
        };
        let requests = (0..distinct)
            .map(|k| data.x_val.select_rows(&rows(k)))
            .collect();
        let expected = (0..distinct).map(|k| full.select_rows(&rows(k))).collect();
        Self {
            model,
            requests,
            expected,
            next: 0,
            setup_failed,
            reference: refs::lookup(Workload::HybridInfer.name(), seed),
            full_batch_digest: digest(
                &full
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
            ),
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Where the inference workload saves its model, inside the checkout.
fn model_path(seed: u64) -> PathBuf {
    crate::out_dir().join(format!("hybrid-infer-seed{seed}.model.json"))
}

impl Bench for InferBench {
    fn unit(&mut self, rec: &mut Recorder) -> Unit {
        let mut unit = Unit::default();
        let mut failed = 0u64;
        for _ in 0..REQUESTS_PER_STREAM {
            let k = self.next % self.requests.len();
            self.next += 1;
            let start = Instant::now();
            let out = rec.span("nn.predict", |_| self.model.predict(&self.requests[k]));
            let elapsed = start.elapsed();
            unit.requests.push(elapsed.as_nanos() as u64);
            if !matrix_bits_equal(&out, &self.expected[k]) {
                failed += 1;
            }
        }
        let mut check = Check {
            attempted: REQUESTS_PER_STREAM as u64,
            failed,
        };
        check.expect_digest(self.full_batch_digest, self.reference, None);
        if self.setup_failed {
            check.fail_all();
        }
        unit.attempted = check.attempted;
        unit.failed = check.failed;
        unit.rows = (REQUESTS_PER_STREAM * REQUEST_ROWS) as u64;
        unit
    }

    fn reference_digest(&mut self) -> u64 {
        self.full_batch_digest
    }
}

struct StudyBench {
    config: ExperimentConfig,
    /// Prefix each (family, level) cell must train, in cell order.
    prefixes: Vec<Vec<ModelSpec>>,
    train_rows: Vec<usize>,
    sink: MemorySink,
    reference: Option<u64>,
    first_digest: Option<u64>,
}

impl StudyBench {
    fn new(seed: u64, rec: &mut Recorder) -> Self {
        let config = ExperimentConfig {
            search: search_config(seed, STUDY_CAP, SEARCH_EPOCHS),
            levels: STUDY_LEVELS.to_vec(),
            cost: CostModel::default(),
        };
        let train_rows = config
            .levels
            .iter()
            .map(|&n| {
                rec.span("data.prepare", |_| prepare_level_data(&config.search, n))
                    .x_train
                    .rows()
            })
            .collect();
        let prefixes = Family::ALL
            .iter()
            .flat_map(|family| config.levels.iter().map(move |&n| (*family, n)))
            .map(|(family, n)| {
                let space = family.space(n);
                rec.span("flops.price", |_| {
                    priced_prefix(&space, &config.cost, STUDY_CAP)
                })
            })
            .collect();
        Self {
            config,
            prefixes,
            train_rows,
            sink: study_sink(),
            reference: refs::lookup(Workload::Study2t.name(), seed),
            first_digest: None,
        }
    }

    /// Per-combination latencies from the `search.level_start` and
    /// `search.combo` events each cell emits: consecutive events of one
    /// `search.level` span bound one combination. Returned as
    /// `(start_us, end_us, first)` on the telemetry clock; the first
    /// combination of a cell also holds the cell's data preparation.
    fn combo_intervals(&self) -> Vec<(u64, u64, bool)> {
        let mut by_cell: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        for ev in self.sink.events() {
            if ev.name == "search.level_start" || ev.name == "search.combo" {
                if let Some(id) = ev.span_id {
                    by_cell.entry(id).or_default().push(ev.ts_us);
                }
            }
        }
        let mut out = Vec::new();
        for mut stamps in by_cell.into_values() {
            stamps.sort_unstable();
            out.extend(
                stamps
                    .windows(2)
                    .enumerate()
                    .map(|(i, w)| (w[0], w[1], i == 0)),
            );
        }
        out
    }
}

/// The process's one memory sink. The telemetry crate cannot remove a
/// sink, so a sink per set-up would leave the earlier ones collecting every
/// event for the rest of the run.
fn study_sink() -> MemorySink {
    static SINK: OnceLock<MemorySink> = OnceLock::new();
    SINK.get_or_init(hqnn_telemetry::add_memory_sink).clone()
}

impl Bench for StudyBench {
    fn unit(&mut self, rec: &mut Recorder) -> Unit {
        self.sink.clear();
        let study = rec.span("search.study", |_| {
            let mut study = StudyResult::new(self.config.clone());
            study.run_study_sharded(&Family::ALL, &mut |_, _, _, _| {});
            study
        });
        // Map the telemetry clock (µs since its first use) onto Instants.
        let telemetry_origin = Instant::now() - Duration::from_micros(hqnn_telemetry::now_us());
        let mut unit = Unit::default();
        for (start, end, first) in self.combo_intervals() {
            let at = |us: u64| telemetry_origin + Duration::from_micros(us);
            rec.record("search.combo", at(start), at(end));
            if !first {
                unit.requests.push((end - start) * 1000);
            }
        }
        let mut check = Check::default();
        let cells = Family::ALL.iter().flat_map(|&f| study.family(f).iter());
        let mut combos = 0u64;
        let mut steps = 0u64;
        let mut rows = 0u64;
        let epochs = (self.config.search.runs_per_combo * self.config.search.train.epochs) as u64;
        for (i, (level, prefix)) in cells.zip(&self.prefixes).enumerate() {
            let cell = check_level(level, prefix, &self.config.search);
            check.attempted += 1;
            check.failed += u64::from(cell.failed > 0);
            let kept: u64 = level
                .repetitions
                .iter()
                .map(|r| r.evaluated.len() as u64)
                .sum();
            let train_rows = self.train_rows[i % self.train_rows.len()];
            combos += kept;
            rows += kept * epochs * train_rows as u64;
            steps +=
                kept * epochs * steps_per_epoch(train_rows, self.config.search.train.batch_size);
        }
        let cells_expected = (Family::ALL.len() * self.config.levels.len()) as u64;
        if check.attempted != cells_expected {
            check.attempted = cells_expected;
            check.fail_all();
        }
        let d = digest(&study);
        check.expect_digest(d, self.reference, self.first_digest);
        self.first_digest.get_or_insert(d);
        unit.attempted = check.attempted;
        unit.failed = check.failed;
        unit.combos_retained = combos;
        unit.rows = rows;
        unit.retained_steps = steps;
        unit
    }

    /// The digest of the *sequential* study: the sharded one must match it.
    fn reference_digest(&mut self) -> u64 {
        let mut study = StudyResult::new(self.config.clone());
        hqnn_runtime::with_threads(1, || {
            for family in Family::ALL {
                study.run_family(family, &mut |_, _, _| {});
            }
        });
        digest(&study)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_inference_output_raises_fail_frac() {
        let mut rec = Recorder::new(false);
        let mut bench = hqnn_runtime::with_threads(1, || InferBench::new(5, &mut rec));
        let clean = bench.unit(&mut rec);
        assert_eq!(
            (clean.attempted, clean.failed),
            (REQUESTS_PER_STREAM as u64, 0)
        );
        // Flip one bit of one expected answer: every request that uses it
        // now fails, and only those.
        let cell = &mut bench.expected[0].as_mut_slice()[0];
        *cell = f64::from_bits(cell.to_bits() ^ 1);
        let corrupted = bench.unit(&mut rec);
        let uses = REQUESTS_PER_STREAM.div_ceil(bench.requests.len()) as u64;
        assert!(
            corrupted.failed > 0 && corrupted.failed <= uses,
            "{corrupted:?}"
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("classical"), None);
    }
}
