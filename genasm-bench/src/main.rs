//! `genasm-bench`: see `README.md` next to this package.
//!
//! ```text
//! genasm-bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! genasm-bench run [--seed N] [--seconds S] [--smoke] [--out FILE]
//! genasm-bench compare BEFORE.json AFTER.json
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use genasm_bench::report::{self, Header, WorkloadResult};
use genasm_bench::run::{run, worker, Env, RunArgs, RunResult};
use genasm_bench::workload::{Spec, SPECS};
use genasm_bench::{json, metrics};

const USAGE: &str = "usage:
  genasm-bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
      one run of one workload; the last line of stdout is the result as JSON
  genasm-bench run [--seed N] [--seconds S] [--smoke] [--out FILE]
      every workload, end-to-end then per-layer; writes a result file
  genasm-bench compare BEFORE.json AFTER.json
      both medians, the difference and the bound, per workload and metric
workloads: clr-long, accurate-short, serve-sessions, gpu-sim-long";

/// `--name value` pairs and bare `--flags`.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            out.push((name.to_string(), value));
        }
        Ok(Flags(out))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, Some(v))) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
            Some((_, None)) => Err(format!("--{name} needs a value")),
        }
    }

    fn req<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn spec(&self) -> Result<Spec, String> {
        let name: String = self.req("workload")?;
        let spec = Spec::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        Ok(if self.has("smoke") {
            spec.smoke()
        } else {
            spec
        })
    }
}

fn print_metrics(run: &RunResult) {
    for m in &run.metrics {
        let range = m.range.map_or(String::new(), |(lo, hi)| {
            format!("  (min {lo:.4}, max {hi:.4})")
        });
        let note = match m.def.name.as_str() {
            "genasm-core.footprint_ratio_vs_unimproved" => "  (paper: 24x)",
            "genasm-core.access_ratio_vs_unimproved" => "  (paper: 12x)",
            _ => "",
        };
        println!(
            "{:<46} {:>14.4} {}{range}{note}",
            m.def.name, m.value, m.def.unit
        );
    }
    for e in &run.errors {
        println!("CHECK FAILED: {e}");
    }
}

/// Driver mode: one workload, one run, the result as the last line.
fn cmd_single(flags: &Flags) -> Result<ExitCode, String> {
    let trace = match flags.req::<u8>("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let args = RunArgs {
        spec: flags.spec()?,
        smoke: flags.has("smoke"),
        seed: flags.req("seed")?,
        seconds: flags.req("seconds")?,
        trace,
    };
    let result = run(&Env::from_current_exe()?, &args)?;
    print_metrics(&result);
    if let Some(path) = &result.trace_file {
        println!("trace written to {}", path.display());
    }
    let steal: Vec<String> = result
        .steal_shares
        .iter()
        .map(|s| format!("{:.1}%", s * 100.0))
        .collect();
    println!(
        "{} measured passes (steal {}), {} used, {} more run again for a storm, {} latency samples{}",
        result.passes,
        steal.join(" "),
        result.passes_used,
        result.passes_again,
        result.latency_samples,
        if args.smoke {
            "  [smoke: not a measurement]"
        } else {
            ""
        }
    );
    if !args.trace {
        println!(
            "machine slowdown {:.3}: times above are as timed / that, reads_per_s as timed x that",
            result.slowdown
        );
    }
    println!("{}", result.to_json_line());
    Ok(ExitCode::SUCCESS)
}

fn tool_version(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload: end-to-end metrics with tracing off, then the
/// per-layer pass; one result file.
fn cmd_run(flags: &Flags) -> Result<ExitCode, String> {
    let env = Env::from_current_exe()?;
    let smoke = flags.has("smoke");
    let seed = flags.get("seed")?.unwrap_or(1);
    let default_seconds = if smoke {
        0.0
    } else {
        run_seconds_of_benchmark_json()
    };
    let seconds = flags.get("seconds")?.unwrap_or(default_seconds);
    let mut results = Vec::new();
    let mut ok = true;
    for spec in &SPECS {
        let spec = if smoke { spec.smoke() } else { spec.clone() };
        let mut both = Vec::new();
        for trace in [false, true] {
            let args = RunArgs {
                spec: spec.clone(),
                smoke,
                seed,
                seconds,
                trace,
            };
            println!(
                "== {} ({})",
                spec.name,
                if trace { "per-layer" } else { "end-to-end" }
            );
            let result = run(&env, &args)?;
            print_metrics(&result);
            ok &= result.correct();
            both.push(result);
        }
        let per_layer = both.pop().expect("two runs");
        let end_to_end = both.pop().expect("two runs");
        results.push(WorkloadResult {
            name: spec.name,
            end_to_end,
            per_layer,
        });
    }
    let header = Header {
        label: if smoke { "smoke" } else { "full" },
        seed,
        run_seconds: seconds,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: tool_version("rustc", &["--version"], Path::new(".")),
        commit: tool_version("git", &["rev-parse", "HEAD"], Path::new(".")),
    };
    let out: PathBuf = flags
        .get("out")?
        .unwrap_or_else(|| env.out_dir.join("result.json"));
    std::fs::write(&out, report::result_json(&header, &results))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result written to {}", out.display());
    if !ok {
        println!("a correctness check failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `run_seconds` of the `BENCHMARK.json` in the working directory,
/// which `run` uses unless told otherwise.
fn run_seconds_of_benchmark_json() -> f64 {
    std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|doc| doc.num_at(&["run_seconds"]))
        .unwrap_or(20.0)
}

fn cmd_compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &String| -> Result<json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let cmp = report::compare(&load(a)?, &load(b)?)?;
    print!("{}", cmp.table);
    Ok(if cmp.failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The child a one-shot workload is measured in.
fn cmd_worker(flags: &Flags) -> Result<ExitCode, String> {
    let dir: PathBuf = flags.req("dir")?;
    println!("{}", worker(&flags.spec()?, &dir)?);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            println!(
                "{} end-to-end and {} per-layer metrics",
                metrics::end_to_end().len(),
                metrics::per_layer().len()
            );
            return ExitCode::SUCCESS;
        }
        Some("run") => Flags::parse(&args[1..]).and_then(|f| cmd_run(&f)),
        Some("compare") => cmd_compare(&args[1..]),
        Some("worker") => Flags::parse(&args[1..]).and_then(|f| cmd_worker(&f)),
        Some(_) => Flags::parse(&args).and_then(|f| cmd_single(&f)),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("genasm-bench: {e}");
            ExitCode::from(2)
        }
    }
}
