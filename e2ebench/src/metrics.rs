//! The benchmark's metrics: names, units and direction, in the order
//! `BENCHMARK.json` lists them. The self-tests keep the two in step.

/// One reported metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Metrics of an untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("cpu_s", "s", "lower"),
    m("rows_per_s", "1/s", "higher"),
    m("req_p50_us", "us", "lower"),
    m("req_p90_us", "us", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Metrics of a traced run, module by module.
pub const PER_LAYER: &[Metric] = &[
    m("data.prepare_s", "s", "lower"),
    m("flops.price_ms", "ms", "lower"),
    m("tensor.matmuls", "count", "lower"),
    m("tensor.matmul_ns_per_flop", "ns/FLOP", "lower"),
    m("nn.train_steps", "count", "lower"),
    m("nn.step_us", "us", "lower"),
    m("nn.dense_fwd_ns", "ns", "lower"),
    m("nn.dense_bwd_ns", "ns", "lower"),
    m("nn.loss_ns", "ns", "lower"),
    m("nn.adam_ns", "ns", "lower"),
    m("nn.eval_frac", "ratio", "lower"),
    m("qsim.circuit_runs", "count", "lower"),
    m("qsim.gate_applies", "count", "lower"),
    m("qsim.adjoint_passes", "count", "lower"),
    m("qsim.expect_ns_per_row", "ns", "lower"),
    m("qsim.grad_ns_per_row", "ns", "lower"),
    m("core.qlayer_fwd_us", "us", "lower"),
    m("core.qlayer_bwd_us", "us", "lower"),
    m("core.qlayer_bwd_frac", "ratio", "lower"),
    m("core.restore_ms", "ms", "lower"),
    m("core.enc_ns_per_flop", "ns/FLOP", "lower"),
    m("core.cl_ns_per_flop", "ns/FLOP", "lower"),
    m("core.ql_ns_per_flop", "ns/FLOP", "lower"),
    m("search.combos_retained", "count", "higher"),
    m("search.combos_trained", "count", "lower"),
    m("search.useful_frac", "ratio", "higher"),
    m("search.combo_s_p50", "s", "lower"),
    m("runtime.par_items", "count", "lower"),
    m("runtime.busy_frac", "ratio", "higher"),
    m("runtime.runq_wait_s", "s", "lower"),
    m("host.steal_s", "s", "lower"),
    m("telemetry.span_ns", "ns", "lower"),
    m("telemetry.trace_overhead", "ratio", "lower"),
];

/// The metric called `name`, from either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use serde::{Deserialize, Serialize};

    /// Whether `name` is a valid metric or workload name: starts with a letter
    /// or digit, at most 64 of `[A-Za-z0-9_.-]`.
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Whether `unit` is a valid unit: at most 16 of `[A-Za-z0-9_/%.-]`.
    pub fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct WorkloadEntry {
        name: String,
        why: String,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct EndToEndEntry {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct PerLayerEntry {
        name: String,
        unit: String,
        better: String,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct BenchmarkJson {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<WorkloadEntry>,
        end_to_end: Vec<EndToEndEntry>,
        per_layer: Vec<PerLayerEntry>,
    }

    const TEXT: &str = include_str!("../../BENCHMARK.json");

    fn spec() -> BenchmarkJson {
        serde_json::from_str(TEXT).expect("BENCHMARK.json parses")
    }

    #[test]
    fn every_metric_name_is_valid_and_has_a_unit() {
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(
                valid_unit(metric.unit),
                "bad unit {} of {}",
                metric.unit,
                metric.name
            );
            assert!(
                ["lower", "higher"].contains(&metric.better),
                "{}",
                metric.name
            );
            assert_eq!(
                find(metric.name),
                Some(metric),
                "{} is listed twice",
                metric.name
            );
        }
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_unit("µs") && valid_unit("ns/FLOP") && valid_unit("1/s"));
    }

    #[test]
    fn benchmark_json_round_trips() {
        let parsed = spec();
        let rendered = serde_json::to_string_pretty(&parsed).expect("renders");
        assert_eq!(
            serde_json::from_str::<BenchmarkJson>(&rendered).expect("reparses"),
            parsed
        );
        // No key is dropped by the typed view: the dynamic trees agree too.
        let dynamic: serde_json::Value = serde_json::from_str(TEXT).expect("parses");
        let typed = serde_json::to_value(&parsed).expect("converts");
        assert_eq!(
            serde_json::to_string(&dynamic).expect("renders"),
            serde_json::to_string(&typed).expect("renders")
        );
    }

    #[test]
    fn benchmark_json_matches_the_program() {
        let spec = spec();
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        for w in &spec.workloads {
            assert!(
                valid_name(&w.name)
                    && !w.why.is_empty()
                    && w.why.len() <= 200
                    && !w.why.contains('\n')
            );
        }
        let e2e: Vec<Metric> = spec
            .end_to_end
            .iter()
            .map(|e| {
                assert!(
                    e.bound > 0.0 && e.bound <= 0.25,
                    "{}: bound {}",
                    e.name,
                    e.bound
                );
                m(
                    find(e.name.as_str()).expect("known metric").name,
                    leak(&e.unit),
                    leak(&e.better),
                )
            })
            .collect();
        assert_eq!(e2e, END_TO_END);
        let setup = spec
            .end_to_end
            .iter()
            .find(|e| e.name == "setup_s")
            .expect("setup_s listed");
        assert!(
            spec.end_to_end.iter().all(|e| e.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        let layers: Vec<Metric> = spec
            .per_layer
            .iter()
            .map(|e| {
                m(
                    find(e.name.as_str()).expect("known metric").name,
                    leak(&e.unit),
                    leak(&e.better),
                )
            })
            .collect();
        assert_eq!(layers, PER_LAYER);
        assert!((1..=60).contains(&spec.run_seconds));
        assert_eq!(spec.paths, ["e2ebench"]);
    }

    fn leak(s: &str) -> &'static str {
        Box::leak(s.to_string().into_boxed_str())
    }
}
