//! Layer probes of the traced run: the benchmark calls one module at a time
//! on fixed shapes, inside its own spans, and reports the median span per
//! call. The layer ledger joins the Enc / CL / QL blocks' measured time to
//! `hqnn-flops`' analytic FLOPs for the same blocks (the paper's Table I
//! split).

use std::hint::black_box;
use std::time::Instant;

use hqnn_core::{ClassicalSpec, ModelSpec, QuantumLayer, SavedModel};
use hqnn_flops::CostModel;
use hqnn_nn::{one_hot, Adam, Dense, Layer, Optimizer, Sequential, SoftmaxCrossEntropy};
use hqnn_qsim::ansatz::{angle_encoding, strongly_entangling_layers};
use hqnn_qsim::{gradients_batch, Circuit, GradEngine, Observable, RotationAxis};
use hqnn_search::protocol::{prepare_level_data, search_level, PreparedData};
use hqnn_search::Family;
use hqnn_tensor::{Matrix, SeededRng};

use crate::stats::{median, Latencies};
use crate::trace::Recorder;
use crate::workloads::{search_config, served_spec, FEATURES, REQUEST_ROWS};

/// One row of the layer ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerRow {
    /// `Enc`, `CL` or `QL`.
    pub block: &'static str,
    /// Measured forward + backward time per sample, ns.
    pub ns_per_sample: f64,
    /// Analytic forward + backward FLOPs per sample.
    pub flops_per_sample: u64,
}

impl LedgerRow {
    /// Measured ns per analytic FLOP.
    pub fn ns_per_flop(&self) -> f64 {
        self.ns_per_sample / self.flops_per_sample as f64
    }
}

/// Per-layer values the probes measure, by metric name, plus the ledger.
#[derive(Clone, Debug, Default)]
pub struct ProbeReport {
    /// `(metric name, value)` in measurement order.
    pub values: Vec<(&'static str, f64)>,
    /// Enc / CL / QL rows of the served model.
    pub ledger: Vec<LedgerRow>,
    /// Samples behind each value, by metric name.
    pub samples: Vec<(&'static str, usize)>,
}

impl ProbeReport {
    fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.push((name, value));
        self.samples.push((name, samples));
    }
}

/// Runs `f` `reps` times (after a short warm-up), each inside a span named
/// `name`, and returns the median span in ns.
fn median_ns(rec: &mut Recorder, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..reps.min(20) {
        f();
    }
    let first = rec.spans().len();
    for _ in 0..reps {
        rec.span(name, |_| f());
    }
    let durations: Vec<f64> = rec.spans()[first..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64)
        .collect();
    median(&durations).expect("at least one repetition")
}

fn batch(data: &PreparedData, rows: usize) -> (Matrix, Matrix) {
    let idx: Vec<usize> = (0..rows).collect();
    let labels: Vec<usize> = idx.iter().map(|&i| data.y_train[i]).collect();
    (
        data.x_train.select_rows(&idx),
        one_hot(&labels, data.n_classes),
    )
}

/// Runs every probe at one thread. `seed` fixes the probe inputs.
pub fn run(rec: &mut Recorder, seed: u64) -> ProbeReport {
    hqnn_runtime::with_threads(1, || rec.span("bench.probes", |rec| probes(rec, seed)))
}

fn probes(rec: &mut Recorder, seed: u64) -> ProbeReport {
    const REPS: usize = 2000;
    let mut report = ProbeReport::default();
    let cost = CostModel::default();
    let config = search_config(seed, 1, 1);
    let data = prepare_level_data(&config, FEATURES);
    let mut rng = SeededRng::new(seed).split(0x9b0e);
    let (xb, targets) = batch(&data, REQUEST_ROWS);
    let loss = SoftmaxCrossEntropy::new();

    // flops: price the classical space and sort it, as search_level does.
    let space = Family::Classical.space(FEATURES);
    let price = median_ns(rec, "flops.price", 50, || {
        let mut priced: Vec<(u64, &ModelSpec)> =
            space.iter().map(|s| (s.flops(&cost).total(), s)).collect();
        priced.sort_by_key(|(f, _)| *f);
        black_box(priced);
    });
    report.put("flops.price_ms", price / 1e6, 50);

    // tensor: one 64×110 · 110×32 product.
    let a = data.x_train.select_rows(&(0..64).collect::<Vec<_>>());
    let b = Matrix::uniform(FEATURES, 32, -1.0, 1.0, &mut rng);
    let mm = median_ns(rec, "tensor.matmul", 500, || {
        black_box(a.matmul(&b));
    });
    report.put(
        "tensor.matmul_ns_per_flop",
        mm / (2 * 64 * FEATURES * 32) as f64,
        500,
    );

    // nn: the pieces of one 8-row step of a classical search model.
    let mut dense = Dense::new(FEATURES, 4, &mut rng);
    let fwd = median_ns(rec, "nn.dense_forward", REPS, || {
        black_box(dense.forward(&xb, true));
    });
    let grad_out = Matrix::uniform(REQUEST_ROWS, 4, -1.0, 1.0, &mut rng);
    let bwd = median_ns(rec, "nn.dense_backward", REPS, || {
        black_box(dense.backward(&grad_out));
    });
    let logits = Matrix::uniform(REQUEST_ROWS, data.n_classes, -1.0, 1.0, &mut rng);
    let loss_ns = median_ns(rec, "nn.loss", REPS, || {
        black_box(loss.loss_and_grad(&logits, &targets));
    });
    let mut model = ClassicalSpec::new(FEATURES, vec![2, 4, 4], data.n_classes).build(&mut rng);
    let mut adam = Adam::new(config.learning_rate);
    let step = median_ns(rec, "nn.step", REPS, || {
        let out = model.forward(&xb, true);
        let (_, grad) = loss.loss_and_grad(&out, &targets);
        model.backward(&grad);
        model.apply_gradients(&mut adam);
    });
    let adam_ns = median_ns(rec, "nn.adam", REPS, || model.apply_gradients(&mut adam));
    report.put("nn.step_us", step / 1e3, REPS);
    report.put("nn.dense_fwd_ns", fwd, REPS);
    report.put("nn.dense_bwd_ns", bwd, REPS);
    report.put("nn.loss_ns", loss_ns, REPS);
    report.put("nn.adam_ns", adam_ns, REPS);
    let eval_frac = eval_share(rec, &mut model, &mut adam, &data, &mut rng);
    report.put("nn.eval_frac", eval_frac, EVAL_EPOCHS);

    // qsim and core: the served model's circuit on one 8-row batch.
    let template = served_spec().template;
    let circuit = template.build();
    let observables: Vec<Observable> = (0..template.n_qubits()).map(Observable::z).collect();
    let angles = Matrix::uniform(REQUEST_ROWS, template.n_qubits(), -3.0, 3.0, &mut rng);
    let params: Vec<f64> = (0..template.param_count())
        .map(|_| rng.uniform(0.0, std::f64::consts::TAU))
        .collect();
    let expect = median_ns(rec, "qsim.expectations_batch", REPS, || {
        black_box(circuit.expectations_batch(&angles, &params, &observables));
    });
    let grad = median_ns(rec, "qsim.gradients_batch", REPS, || {
        black_box(gradients_batch(
            &circuit,
            GradEngine::Adjoint,
            &angles,
            &params,
            &observables,
        ));
    });
    report.put("qsim.expect_ns_per_row", expect / REQUEST_ROWS as f64, REPS);
    report.put("qsim.grad_ns_per_row", grad / REQUEST_ROWS as f64, REPS);

    let mut qlayer = QuantumLayer::new(template, &mut rng);
    let q_grad = Matrix::uniform(REQUEST_ROWS, template.n_qubits(), -1.0, 1.0, &mut rng);
    let q_fwd = median_ns(rec, "core.qlayer_forward", REPS, || {
        black_box(qlayer.forward(&angles, true));
    });
    let q_bwd = median_ns(rec, "core.qlayer_backward", REPS, || {
        black_box(qlayer.backward(&q_grad));
    });
    report.put("core.qlayer_fwd_us", q_fwd / 1e3, REPS);
    report.put("core.qlayer_bwd_us", q_bwd / 1e3, REPS);
    report.put("core.qlayer_bwd_frac", q_bwd / (q_fwd + q_bwd), REPS);

    let path = crate::out_dir().join(format!("probe-seed{seed}.model.json"));
    let spec: ModelSpec = served_spec().into();
    let mut built = spec.build(&mut rng);
    SavedModel::capture(spec, &mut built)
        .save(&path)
        .expect("benchmark output directory is writable");
    let restore = median_ns(rec, "core.restore", 30, || {
        let saved = SavedModel::load(&path).expect("probe model loads");
        black_box(saved.restore().expect("probe model restores"));
    });
    report.put("core.restore_ms", restore / 1e6, 30);

    let rows = ledger(rec, &data, &observables, &angles, &params, &mut rng);
    for row in &rows {
        let name = match row.block {
            "Enc" => "core.enc_ns_per_flop",
            "CL" => "core.cl_ns_per_flop",
            _ => "core.ql_ns_per_flop",
        };
        report.put(name, row.ns_per_flop(), REPS);
    }
    report.ledger = rows;

    let (combo_p50, combos) = mini_search(rec, seed);
    report.put("search.combo_s_p50", combo_p50, combos);

    const SPANS_PER_BATCH: usize = 1000;
    let per_batch = median_ns(rec, "telemetry.span_batch", 50, || {
        for _ in 0..SPANS_PER_BATCH {
            black_box(hqnn_telemetry::span("e2ebench.span_probe"));
        }
    });
    report.put(
        "telemetry.span_ns",
        per_batch / SPANS_PER_BATCH as f64,
        50 * SPANS_PER_BATCH,
    );
    report
}

/// Epochs the evaluation-share probe runs.
const EVAL_EPOCHS: usize = 5;

/// Share of an epoch spent in the full train + validation `predict`, for
/// the classical model, with the training loop's own batching.
fn eval_share(
    rec: &mut Recorder,
    model: &mut Sequential,
    optimizer: &mut dyn Optimizer,
    data: &PreparedData,
    rng: &mut SeededRng,
) -> f64 {
    let loss = SoftmaxCrossEntropy::new();
    let mut order: Vec<usize> = (0..data.x_train.rows()).collect();
    let mut shares = Vec::with_capacity(EVAL_EPOCHS);
    for _ in 0..EVAL_EPOCHS {
        rng.shuffle(&mut order);
        let steps = Instant::now();
        rec.span("nn.epoch_steps", |_| {
            for chunk in order.chunks(REQUEST_ROWS) {
                let labels: Vec<usize> = chunk.iter().map(|&i| data.y_train[i]).collect();
                let out = model.forward(&data.x_train.select_rows(chunk), true);
                let (_, grad) = loss.loss_and_grad(&out, &one_hot(&labels, data.n_classes));
                model.backward(&grad);
                model.apply_gradients(optimizer);
            }
        });
        let eval = Instant::now();
        rec.span("nn.evaluate", |_| {
            black_box(model.predict(&data.x_train));
            black_box(model.predict(&data.x_val));
        });
        let end = Instant::now();
        shares
            .push(end.duration_since(eval).as_secs_f64() / end.duration_since(steps).as_secs_f64());
    }
    median(&shares).expect("at least one epoch")
}

/// Measured Enc / CL / QL time of the served model on one 8-row batch,
/// forward + adjoint backward, beside its analytic FLOPs. Enc is the
/// encoding-only circuit and QL the ansatz-only circuit, each with the
/// `⟨Z⟩` readout (which `hqnn-flops` books under QL only); CL is both dense
/// layers plus the loss.
fn ledger(
    rec: &mut Recorder,
    data: &PreparedData,
    observables: &[Observable],
    angles: &Matrix,
    params: &[f64],
    rng: &mut SeededRng,
) -> Vec<LedgerRow> {
    const REPS: usize = 2000;
    let spec = served_spec();
    let flops = spec.flops(&CostModel::default());
    let q = spec.template.n_qubits();
    let (xb, targets) = batch(data, REQUEST_ROWS);
    let loss = SoftmaxCrossEntropy::new();
    let mut input_layer = Dense::new(FEATURES, q, rng);
    let mut head = Dense::new(q, data.n_classes, rng);
    let cl = median_ns(rec, "ledger.cl", REPS, || {
        let h = input_layer.forward(&xb, true);
        let logits = head.forward(&h, true);
        let (_, g) = loss.loss_and_grad(&logits, &targets);
        black_box(input_layer.backward(&head.backward(&g)));
    });
    let mut encoding = Circuit::new(q);
    angle_encoding(&mut encoding, RotationAxis::X);
    let mut ansatz = Circuit::new(q);
    strongly_entangling_layers(&mut ansatz, spec.template.depth(), 0);
    let no_inputs = Matrix::zeros(REQUEST_ROWS, 0);
    let mut fwd_bwd = |name: &'static str, circuit: &Circuit, inputs: &Matrix| {
        median_ns(rec, name, REPS, || {
            black_box(circuit.expectations_batch(inputs, params, observables));
            black_box(gradients_batch(
                circuit,
                GradEngine::Adjoint,
                inputs,
                params,
                observables,
            ));
        })
    };
    let enc = fwd_bwd("ledger.encoding", &encoding, angles);
    let ql = fwd_bwd("ledger.ansatz", &ansatz, &no_inputs);
    let per_sample = |ns: f64| ns / REQUEST_ROWS as f64;
    vec![
        LedgerRow {
            block: "Enc",
            ns_per_sample: per_sample(enc),
            flops_per_sample: flops.encoding,
        },
        LedgerRow {
            block: "CL",
            ns_per_sample: per_sample(cl),
            flops_per_sample: flops.classical,
        },
        LedgerRow {
            block: "QL",
            ns_per_sample: per_sample(ql),
            flops_per_sample: flops.quantum,
        },
    ]
}

/// Combinations in the probe search.
const MINI_SEARCH_COMBOS: usize = 24;

/// A small fixed-work classical search at 10 features; returns the median
/// seconds between `progress` callbacks and the number of combinations.
fn mini_search(rec: &mut Recorder, seed: u64) -> (f64, usize) {
    let config = search_config(seed, MINI_SEARCH_COMBOS, 2);
    let space = Family::Classical.space(10);
    let cost = CostModel::default();
    let mut marks = vec![Instant::now()];
    rec.span("search.level", |_| {
        search_level(&space, 10, &config, &cost, &mut |_, _| {
            marks.push(Instant::now())
        })
    });
    let mut combos = Latencies::default();
    for w in marks.windows(2) {
        rec.record("search.combo", w[0], w[1]);
        combos.push(w[1].duration_since(w[0]).as_nanos() as u64);
    }
    let p50 = combos
        .percentile(0.5)
        .expect("the probe search trains enough combinations");
    (p50 as f64 / 1e9, combos.len())
}

/// Renders the ledger as a table.
pub fn ledger_table(rows: &[LedgerRow]) -> String {
    let mut out = format!(
        "layer ledger: {} fwd+bwd, {}-row batch, per sample\n{:<5} {:>12} {:>14} {:>10}\n",
        served_spec().label(),
        REQUEST_ROWS,
        "block",
        "measured_ns",
        "analytic_FLOPs",
        "ns/FLOP"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<5} {:>12.1} {:>14} {:>10.4}\n",
            r.block,
            r.ns_per_sample,
            r.flops_per_sample,
            r.ns_per_flop()
        ));
    }
    out
}
