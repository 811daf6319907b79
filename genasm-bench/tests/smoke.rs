//! `--smoke`: every workload at ~1/50 scale through the real drivers —
//! worker child, traced pass, layer replay, child `genasm serve` — must
//! pass every correctness check and report every metric by its
//! `BENCHMARK.json` name. Smoke numbers are never measurements.

use std::path::PathBuf;

use genasm_bench::metrics;
use genasm_bench::run::{run, Env, RunArgs};
use genasm_bench::workload::{Driver, SPECS};

fn env(tag: &str) -> Env {
    let bench_exe = PathBuf::from(env!("CARGO_BIN_EXE_genasm-bench"));
    // `genasm` is there when the repository was built with the same
    // profile into the same target directory; the server paths are
    // skipped otherwise.
    let genasm = bench_exe.with_file_name("genasm");
    Env {
        genasm: genasm.is_file().then_some(genasm),
        out_dir: bench_exe.with_file_name(format!("genasm-bench-smoke-{tag}")),
        bench_exe,
    }
}

fn smoke(name: &str) {
    let spec = SPECS.iter().find(|s| s.name == name).unwrap().smoke();
    let env = env(name);
    if spec.driver == Driver::Serve && env.genasm.is_none() {
        eprintln!("skipping {name}: no genasm binary next to the harness");
        return;
    }
    for (trace, defs) in [(false, metrics::end_to_end()), (true, metrics::per_layer())] {
        let args = RunArgs {
            spec: spec.clone(),
            smoke: true,
            seed: 5,
            seconds: 0.0,
            trace,
        };
        let result = run(&env, &args).unwrap_or_else(|e| panic!("{name} trace={trace}: {e}"));
        assert!(
            result.errors.is_empty(),
            "{name} trace={trace}: {:?}",
            result.errors
        );
        assert_eq!(result.failed, 0, "{name} trace={trace}");
        assert!(result.attempted > 0);
        let names: Vec<&str> = result.metrics.iter().map(|m| m.def.name.as_str()).collect();
        let expected: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, expected, "{name} trace={trace}");
        assert!(result.to_json_line().starts_with("{\"correct\": true"));
        if trace {
            let file = result.trace_file.expect("a traced run writes its spans");
            let text = std::fs::read_to_string(file).unwrap();
            let doc = genasm_bench::json::parse(&text).expect("the trace file is JSON");
            assert!(doc.get("traceEvents").unwrap().as_array().unwrap().len() > 10);
        }
    }
    let _ = std::fs::remove_dir_all(&env.out_dir);
}

#[test]
fn clr_long() {
    smoke("clr-long");
}

#[test]
fn accurate_short() {
    smoke("accurate-short");
}

#[test]
fn serve_sessions() {
    smoke("serve-sessions");
}

#[test]
fn gpu_sim_long() {
    smoke("gpu-sim-long");
}
