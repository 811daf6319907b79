//! Every metric the benchmark emits, defined once: name, unit,
//! direction, and whether it is a count that must repeat exactly.
//! `BENCHMARK.json` lists the same names; a test holds the two equal.

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Must repeat bit-for-bit across runs of one commit and seed.
    pub exact: bool,
}

fn def(name: &str, unit: &'static str, better: &'static str, exact: bool) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
        exact,
    }
}

/// The end-to-end metrics, reported with `--trace 0` on every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    let e2e = |name: &str, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better, false)
    };
    vec![
        e2e("reads_per_s", "1/s", "higher", 0.25),
        e2e("latency_p50_ms", "ms", "lower", 0.25),
        e2e("latency_p95_ms", "ms", "lower", 0.25),
        e2e("peak_rss_mb", "MB", "lower", 0.2),
        e2e("setup_s", "s", "lower", 0.25),
    ]
}

/// The per-layer metrics, reported with `--trace 1` on every workload.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        def("readsim.parse_mb_per_s", "MB/s", "higher", false),
        def("mapper.index_build_s", "s", "lower", false),
        def("mapper.us_per_read", "us", "lower", false),
        def("mapper.anchors_us_per_read", "us", "lower", false),
        def("mapper.chain_us_per_read", "us", "lower", false),
        def("mapper.anchors_per_read", "count", "lower", true),
        def("mapper.chains_per_read", "count", "lower", true),
        def("mapper.candidates_per_read", "count", "lower", true),
        def("genasm-core.ns_per_window", "ns", "lower", false),
        def("genasm-core.mcells_per_s", "Mcells/s", "higher", false),
        def("genasm-core.rows_per_window", "count", "lower", true),
        def("genasm-core.skipped_cell_share", "ratio", "higher", true),
        def("genasm-core.rescued_task_share", "ratio", "lower", true),
        def("genasm-core.table_bytes_per_window", "bytes", "lower", true),
        def(
            "genasm-core.table_accesses_per_window",
            "count",
            "lower",
            true,
        ),
        def(
            "genasm-core.footprint_ratio_vs_unimproved",
            "x",
            "higher",
            true,
        ),
        def(
            "genasm-core.access_ratio_vs_unimproved",
            "x",
            "higher",
            true,
        ),
        def("genasm-core.optimal_share", "ratio", "higher", true),
    ];
    for errors in [0, 4, 16, 48] {
        for label in ["full", "banded", "unimproved"] {
            let name = format!("genasm-core.window_ns.{label}-{errors}err");
            v.push(def(&name, "ns", "lower", false));
        }
    }
    v.extend([
        def("genasm-core.window_ns.hopeless", "ns", "lower", false),
        def("genasm-cpu.tasks_per_s", "1/s", "higher", false),
        def("genasm-cpu.parallel_efficiency", "ratio", "higher", false),
        def("genasm-gpu.host_us_per_task", "us", "lower", false),
        def("genasm-gpu.shared_bytes_per_block", "bytes", "lower", true),
        def("gpu-sim.modelled_device_ms", "ms", "lower", true),
        def("gpu-sim.modelled_device_us_per_task", "us", "lower", true),
        def("gpu-sim.compute_ms", "ms", "lower", true),
        def("gpu-sim.bandwidth_ms", "ms", "lower", true),
        def("gpu-sim.latency_ms", "ms", "lower", true),
        def("gpu-sim.blocks_per_sm", "count", "higher", true),
        def("gpu-sim.global_bytes_per_task", "bytes", "lower", true),
        def("gpu-sim.shared_accesses_per_task", "count", "lower", true),
        def("gpu-sim.warp_steps_per_task", "count", "lower", true),
        def("gpu-sim.host_ns_per_warp_step", "ns", "lower", false),
        def("baselines.edlib_tasks_per_s", "1/s", "higher", false),
        def("baselines.ksw2_tasks_per_s", "1/s", "higher", false),
        def("baselines.genasm_over_edlib", "x", "higher", false),
        def("baselines.genasm_over_ksw2", "x", "higher", false),
        def("pipeline.map_busy_share", "ratio", "lower", false),
        def("pipeline.schedule_busy_share", "ratio", "lower", false),
        def("pipeline.backend_busy_share", "ratio", "higher", false),
        def("pipeline.sink_busy_share", "ratio", "lower", false),
        def("pipeline.task_queue_wait_mean_ms", "ms", "lower", false),
        def("pipeline.batch_build_mean_ms", "ms", "lower", false),
        def("pipeline.backend_queue_wait_mean_ms", "ms", "lower", false),
        def("pipeline.reorder_wait_mean_ms", "ms", "lower", false),
        def("pipeline.batches", "count", "lower", false),
        def("pipeline.mean_batch_bases", "bases", "higher", false),
        def("pipeline.peak_inflight_bases", "bases", "lower", false),
        def("pipeline.format_ns_per_record", "ns", "lower", false),
        def("pipeline.output_bytes_per_read", "bytes", "lower", true),
        def(
            "pipeline.stage_overlap_efficiency",
            "ratio",
            "higher",
            false,
        ),
        def("server.connect_ms_p50", "ms", "lower", false),
        def("server.session_open_ms_p50", "ms", "lower", false),
        def("server.first_record_ms_p50", "ms", "lower", false),
        def("server.drain_ms_p50", "ms", "lower", false),
        def("server.req_latency_p99_ms", "ms", "lower", false),
        def("server.serve_over_oneshot", "ratio", "higher", false),
        def("telemetry.trace_overhead_share", "ratio", "lower", false),
    ]);
    v
}

/// True for a metric name the contract accepts.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{number, quote};
    use crate::workload::SPECS;

    /// `BENCHMARK.json` as these definitions imply it.
    fn benchmark_json() -> String {
        let workloads: Vec<String> = SPECS
            .iter()
            .map(|s| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    quote(s.name),
                    quote(s.why)
                )
            })
            .collect();
        let end_to_end: Vec<String> = end_to_end()
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quote(&d.name),
                    quote(d.unit),
                    quote(d.better),
                    number(d.bound.unwrap())
                )
            })
            .collect();
        let per_layer: Vec<String> = per_layer()
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quote(&d.name),
                    quote(d.unit),
                    quote(d.better)
                )
            })
            .collect();
        format!(
            "{{\n  \"command\": [\"python3\", \"genasm-bench/run.py\"],\n  \"paths\": [\"genasm-bench\"],\n  \
             \"run_seconds\": 20,\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
             \"per_layer\": [\n{}\n  ]\n}}\n",
            workloads.join(",\n"),
            end_to_end.join(",\n"),
            per_layer.join(",\n")
        )
    }

    /// Every metric and workload the harness knows is in
    /// `BENCHMARK.json` under the same name, unit and direction, and
    /// vice versa. To regenerate the file after a deliberate change:
    /// `GENASM_BENCH_WRITE=1 cargo test benchmark_json`.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        if std::env::var_os("GENASM_BENCH_WRITE").is_some() {
            std::fs::write(path, benchmark_json()).unwrap();
        }
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, benchmark_json());
        assert!(on_disk.len() <= 64 * 1024);
        for s in &SPECS {
            assert!(
                valid_name(s.name) && s.why.len() <= 200 && !s.why.contains('\n'),
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn names_are_valid_and_unique() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        for d in &all {
            assert!(valid_name(&d.name), "{}", d.name);
            assert!(matches!(d.better, "lower" | "higher"));
            assert!(d.unit.len() <= 16);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(per_layer().len() <= 128);
        assert!(end_to_end()
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(!valid_name("a b") && !valid_name("") && !valid_name("-x"));
    }
}
