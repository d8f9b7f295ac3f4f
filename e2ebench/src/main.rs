//! End-to-end benchmark of the hqnn workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <classical-search|hybrid-search|hybrid-infer|study-2t> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the workload up from the seed, then runs units of timed
//! work (a search, a request stream, a study) for `--seconds`, checking
//! every output and setting the workload up again ten times between units
//! (the median set-up is `setup_s`). Timing metrics are taken over the
//! run's fastest units (see [`stats::fastest`]). The last line of stdout is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A human-readable report, with the sample count behind every
//! timing, goes to stderr. Traced runs also write their spans to
//! `.bench_out/<workload>-seed<n>.spans.jsonl` and print the layer ledger.
//!
//! `--write-refs <from>-<to>` recomputes the stored reference digests
//! (`refs.json`) for a seed range.

mod checks;
mod metrics;
mod probes;
mod procfs;
mod refs;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hqnn_telemetry::Snapshot;

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::procfs::RunqSampler;
use crate::trace::Recorder;
use crate::workloads::{Unit, Workload};

/// Set-ups per run; `setup_s` is their median. The first comes before the
/// timed phase, the others are spread over it (see `run`).
const SETUP_REPEATS: usize = 11;
/// Fewest units a run measures, however long they take: the fastest
/// units the timing metrics are taken over (see [`stats::fastest`]) are
/// then at most a quarter of them.
const MIN_UNITS: usize = 40;
/// The timed phase stops here even if it lacks samples.
const MAX_TIMED: Duration = Duration::from_secs(120);

/// Directory (inside the checkout) for the benchmark's own files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    WriteRefs(std::ops::RangeInclusive<u64>),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "--write-refs" => {
                let v = value()?;
                let (a, b) = v.split_once('-').ok_or("--write-refs takes <from>-<to>")?;
                let parse = |s: &str| s.parse::<u64>().map_err(|e| format!("--write-refs: {e}"));
                return Ok(Command::WriteRefs(parse(a)?..=parse(b)?));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(Command::Run(args)) => match run(&args) {
            Ok(result) => {
                eprint!("{}", result.report);
                println!("{}", result.json);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("e2ebench: {e}");
                ExitCode::from(3)
            }
        },
        Ok(Command::WriteRefs(seeds)) => write_refs(seeds),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}

struct RunResult {
    report: String,
    json: String,
}

/// One measured unit of timed work.
struct Timed {
    unit: Unit,
    wall_s: f64,
    /// User + system CPU seconds of the process, every thread.
    cpu_s: f64,
    requests: stats::UnitRequests,
    traced: bool,
}

/// Counter delta between two snapshots.
fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    let get = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before)) as f64
}

/// The crates' counters a traced run reports per unit.
const UNIT_COUNTERS: [&str; 6] = [
    "tensor.matmuls",
    "nn.train_steps",
    "qsim.circuit_runs",
    "qsim.gate_applies",
    "qsim.adjoint_passes",
    "runtime.par_items",
];

/// Calls of the crates' own `search.combo` span (speculative ones included)
/// between two snapshots, over every span path.
fn combos_trained(before: &Snapshot, after: &Snapshot) -> f64 {
    let count = |s: &Snapshot| -> u64 {
        s.spans
            .iter()
            .filter(|(path, _)| *path == "search.combo" || path.ends_with("/search.combo"))
            .map(|(_, stats)| stats.count)
            .sum()
    };
    count(after).saturating_sub(count(before)) as f64
}

fn run(args: &Args) -> Result<RunResult, String> {
    let w = args.workload;
    let threads = w.threads();
    let mut rec = Recorder::new(args.trace);

    let set_up = |rec: &mut Recorder| {
        rec.set_enabled(args.trace);
        let start = Instant::now();
        let bench = hqnn_runtime::with_threads(threads, || {
            rec.span("bench.setup", |rec| w.setup(args.seed, rec))
        });
        (bench, start.elapsed().as_secs_f64())
    };
    let (mut bench, first_setup_s) = set_up(&mut rec);
    let mut setup_times = vec![first_setup_s];

    let budget = Duration::from_secs_f64(args.seconds);
    let steal0 = procfs::steal_seconds();
    let runq = RunqSampler::start(threads > 1);
    let start = Instant::now();
    let mut timed: Vec<Timed> = Vec::new();
    let mut requests = 0;
    // Per-unit counter deltas, summed: `UNIT_COUNTERS`, then combinations
    // trained. Taken around units only, so the set-ups between them do not
    // count.
    let mut counts = [0.0; UNIT_COUNTERS.len() + 1];
    let min_requests = stats::min_samples_for(0.9);
    loop {
        // Traced runs alternate traced and untraced units, so the tracing
        // overhead is measured under the same conditions.
        let traced = args.trace && timed.len().is_multiple_of(2);
        rec.set_enabled(traced);
        let before = args.trace.then(hqnn_telemetry::snapshot);
        let unit_cpu0 = procfs::cpu_seconds();
        let t = Instant::now();
        let mut unit =
            hqnn_runtime::with_threads(threads, || rec.span("bench.unit", |rec| bench.unit(rec)));
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = procfs::cpu_seconds() - unit_cpu0;
        if let Some(before) = before {
            let after = hqnn_telemetry::snapshot();
            for (sum, name) in counts.iter_mut().zip(UNIT_COUNTERS) {
                *sum += counter_delta(&before, &after, name);
            }
            counts[UNIT_COUNTERS.len()] += combos_trained(&before, &after);
        }
        // Reduce latencies as they arrive: the benchmark's own memory must
        // not grow with the number of requests.
        let unit_requests = stats::UnitRequests::new(std::mem::take(&mut unit.requests));
        requests += unit_requests.len();
        timed.push(Timed {
            unit,
            wall_s,
            cpu_s,
            requests: unit_requests,
            traced,
        });
        let elapsed = start.elapsed();
        // The other set-ups run between units, evenly over the budget: 11
        // set-ups back to back take well under a second and would all land
        // in one of the host's speed phases, while these see the phases in
        // the same mix as the units. Each replaces the one in use, dropped
        // first so that every set-up starts from the same memory state.
        let due = budget.mul_f64(setup_times.len() as f64 / SETUP_REPEATS as f64);
        if setup_times.len() < SETUP_REPEATS && elapsed >= due {
            drop(bench);
            let setup_s;
            (bench, setup_s) = set_up(&mut rec);
            setup_times.push(setup_s);
        }
        let done = elapsed >= budget
            && timed.len() >= MIN_UNITS
            && requests >= min_requests
            && setup_times.len() == SETUP_REPEATS;
        if done || elapsed >= MAX_TIMED {
            break;
        }
    }
    let timed_s = start.elapsed().as_secs_f64();
    let runq_wait_s = runq.finish();
    let steal_s = procfs::steal_seconds() - steal0;
    rec.set_enabled(args.trace);

    let n_units = timed.len() as f64;
    let attempted: u64 = timed.iter().map(|t| t.unit.attempted).sum();
    let failed: u64 = timed.iter().map(|t| t.unit.failed).sum();
    // Timing metrics are means over the run's fastest units (see
    // `stats::FAST_SHARE`): the host's slow phases change a whole-run
    // mean by more than the bounds.
    let walls: Vec<f64> = timed.iter().map(|t| t.wall_s).collect();
    let unit_requests: Vec<usize> = timed.iter().map(|t| t.requests.len()).collect();
    let fast = stats::fastest(&walls, &unit_requests, 0);
    let fast_mean = |f: fn(&Timed) -> f64| {
        fast.iter().map(|&i| f(&timed[i])).sum::<f64>() / fast.len() as f64
    };
    let wall_s = fast_mean(|t| t.wall_s);
    let cpu_s = fast_mean(|t| t.cpu_s);
    // The request percentiles may need more of the fastest units, to hold
    // enough requests. Units rank by wall time here too, unless every unit
    // fills a window alone (`hybrid-infer`): then by its own p90, because
    // bursts of host interference shorter than a unit fatten its tail
    // while barely moving its wall time.
    let request_times: Vec<f64> = timed
        .iter()
        .map(|t| t.requests.window().map(|pct| pct[1] as f64))
        .collect::<Option<_>>()
        .unwrap_or_else(|| walls.clone());
    let fast_requests = stats::fastest(&request_times, &unit_requests, min_requests);
    let mut windows = stats::Windows::default();
    for &i in &fast_requests {
        windows.add(&timed[i].requests);
    }
    let rows =
        stats::median(&timed.iter().map(|t| t.unit.rows as f64).collect::<Vec<_>>()).unwrap_or(0.0);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "e2ebench {} seed={} threads={} trace={} (host parallelism {})",
        w.name(),
        args.seed,
        threads,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let _ = writeln!(
        report,
        "timed phase {timed_s:.2} s: {} {}, {} {} requests; host.steal_s {steal_s:.3} s, runtime.runq_wait_s {runq_wait_s:.3} s",
        timed.len(),
        w.units_name(),
        requests,
        w.request_name()
    );
    let mut sorted_walls = walls.clone();
    sorted_walls.sort_by(f64::total_cmp);
    let _ = writeln!(
        report,
        "unit wall s: min {:.4} median {:.4} mean {:.4} max {:.4}; fastest {} units mean {wall_s:.4}",
        sorted_walls[0],
        stats::median(&walls).expect("at least one unit"),
        walls.iter().sum::<f64>() / n_units,
        sorted_walls[sorted_walls.len() - 1],
        fast.len()
    );
    let _ = writeln!(
        report,
        "fail_frac {} ({failed} of {attempted} operations failed)",
        failed as f64 / attempted.max(1) as f64
    );

    let mut values: Vec<(&'static Metric, f64, String)> = Vec::new();
    let mut put = |name: &str, value: f64, basis: String| -> Result<(), String> {
        let metric = metrics::find(name).ok_or(format!("no metric {name}"))?;
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        values.push((metric, value, basis));
        Ok(())
    };

    if !args.trace {
        let setup_s = stats::median(&setup_times).expect("set-ups ran");
        let pct = |i: usize| {
            let ns = windows.mean(i).ok_or(format!(
                "only {} requests in the fastest units: too few for one window",
                windows.requests()
            ))?;
            Ok::<f64, String>(ns / 1e3)
        };
        let unit_basis = format!(
            "mean of the fastest {} of {} {}",
            fast.len(),
            timed.len(),
            w.units_name()
        );
        let req_basis = format!(
            "mean of {} windows of >= {min_requests} {} requests, {} in the fastest {} units",
            windows.len(),
            w.request_name(),
            windows.requests(),
            fast_requests.len()
        );
        put(
            "setup_s",
            setup_s,
            format!("median of {} set-ups", setup_times.len()),
        )?;
        put("wall_s", wall_s, unit_basis.clone())?;
        put("cpu_s", cpu_s, format!("CPU, {unit_basis}"))?;
        put(
            "rows_per_s",
            rows / wall_s,
            format!("{rows} rows per unit, {unit_basis}"),
        )?;
        put("req_p50_us", pct(0)?, req_basis.clone())?;
        put("req_p90_us", pct(1)?, req_basis)?;
        put("peak_rss_mb", procfs::peak_rss_mb(), "VmHWM".into())?;
    } else {
        let per_unit = |i: usize| counts[i] / n_units;
        let unit_basis = format!("mean per unit of {} {}", timed.len(), w.units_name());
        let prepare: Vec<f64> = rec
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "bench.setup")
            .map(|(i, _)| {
                rec.spans()
                    .iter()
                    .filter(|c| c.parent == Some(i) && c.name == "data.prepare")
                    .map(|c| c.dur_ns as f64 / 1e9)
                    .sum::<f64>()
            })
            .collect();
        let median_of = |traced: bool| {
            let v: Vec<f64> = timed
                .iter()
                .filter(|t| t.traced == traced)
                .map(|t| t.wall_s)
                .collect();
            stats::median(&v).unwrap_or(f64::NAN)
        };
        let steps = counts[UNIT_COUNTERS
            .iter()
            .position(|&n| n == "nn.train_steps")
            .expect("listed")];
        let retained_steps: u64 = timed.iter().map(|t| t.unit.retained_steps).sum();
        let retained: u64 = timed.iter().map(|t| t.unit.combos_retained).sum();
        put(
            "data.prepare_s",
            stats::median(&prepare).unwrap_or(f64::NAN),
            format!("median of {} set-ups", prepare.len()),
        )?;
        for (i, name) in UNIT_COUNTERS.iter().enumerate() {
            put(name, per_unit(i), unit_basis.clone())?;
        }
        put(
            "search.combos_retained",
            retained as f64 / n_units,
            unit_basis.clone(),
        )?;
        put(
            "search.combos_trained",
            per_unit(UNIT_COUNTERS.len()),
            unit_basis.clone(),
        )?;
        let useful = if steps > 0.0 {
            retained_steps as f64 / steps
        } else {
            1.0
        };
        put(
            "search.useful_frac",
            useful,
            format!("{retained_steps} retained of {steps} steps"),
        )?;
        let cpu: f64 = timed.iter().map(|t| t.cpu_s).sum();
        let wall: f64 = walls.iter().sum();
        put(
            "runtime.busy_frac",
            cpu / (threads as f64 * wall),
            format!("{cpu:.2} CPU-s over {wall:.2} s of units x {threads} threads"),
        )?;
        put(
            "runtime.runq_wait_s",
            runq_wait_s,
            "over the timed phase".into(),
        )?;
        put("host.steal_s", steal_s, "over the timed phase".into())?;
        let overhead = median_of(true) / median_of(false);
        put(
            "telemetry.trace_overhead",
            overhead,
            format!(
                "median traced / untraced unit, {} {}",
                timed.len(),
                w.units_name()
            ),
        )?;
        let probe = probes::run(&mut rec, args.seed);
        for (name, value) in &probe.values {
            let n = probe
                .samples
                .iter()
                .find(|(m, _)| m == name)
                .map_or(0, |(_, n)| *n);
            put(name, *value, format!("median of {n} probe calls"))?;
        }
        report.push_str(&probes::ledger_table(&probe.ledger));
        let path = out_dir().join(format!("{}-seed{}.spans.jsonl", w.name(), args.seed));
        rec.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let _ = writeln!(
            report,
            "{} spans written to {}",
            rec.spans().len(),
            path.display()
        );
    }

    let wanted: &[Metric] = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed
    );
    for (i, metric) in wanted.iter().enumerate() {
        let (_, value, basis) = values
            .iter()
            .find(|(m, _, _)| m.name == metric.name)
            .ok_or(format!("{} was not measured", metric.name))?;
        let _ = writeln!(
            report,
            "{:<26} {:>16} {:<8} ({basis})",
            metric.name,
            format!("{value:.6}"),
            metric.unit
        );
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    json.push_str("}}");
    Ok(RunResult { report, json })
}

fn write_refs(seeds: std::ops::RangeInclusive<u64>) -> ExitCode {
    let mut entries = Vec::new();
    for seed in seeds {
        for w in Workload::ALL {
            let mut rec = Recorder::new(false);
            let mut bench = hqnn_runtime::with_threads(w.threads(), || w.setup(seed, &mut rec));
            let digest = bench.reference_digest();
            eprintln!("{} seed {seed}: {digest:016x}", w.name());
            entries.push(refs::RefEntry {
                workload: w.name().to_string(),
                seed,
                digest: format!("{digest:016x}"),
            });
        }
    }
    match std::fs::write(refs::REFS_PATH, refs::render(&entries)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: writing {}: {e}", refs::REFS_PATH);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let Ok(Command::Run(a)) = parse_args(&argv(
            "--workload hybrid-infer --seed 4 --seconds 10 --trace 1",
        )) else {
            panic!("valid arguments rejected");
        };
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::HybridInfer, 4, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload study-2t --seed x --seconds 1 --trace 0",
            "--workload study-2t --seed 1 --seconds 1 --trace 2",
            "--workload study-2t --seed 1 --trace 0",
            "--bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
