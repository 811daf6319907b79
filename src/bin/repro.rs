//! The reproduction harness: regenerates every number in the paper's
//! evaluation section.
//!
//! ```text
//! repro [all|cpu|gpu|memory|ablation|accuracy|sweep|workload]
//!       [--scale small|medium|paper] [--seed N]
//! ```

#![forbid(unsafe_code)]

use std::time::Instant;

use genasm_suite::experiments::{ablation, accuracy, cpu, gpu, memory, sweep};
use genasm_suite::report::Table;
use genasm_suite::{Scale, Workload};

/// Every command; the usage line and the check in `main` both read
/// this list.
const COMMANDS: [&str; 8] = [
    "all", "cpu", "gpu", "memory", "ablation", "accuracy", "sweep", "workload",
];

fn usage() -> ! {
    let scales: Vec<&str> = Scale::ALL.iter().map(|&(_, name)| name).collect();
    eprintln!(
        "usage: repro [{}] [--scale {}] [--seed N]",
        COMMANDS.join("|"),
        scales.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut cmd = "all".to_string();
    let mut scale = Scale::Small;
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    let mut cmd_set = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_else(|| usage());
                scale = v.parse().unwrap_or_else(|e| {
                    eprintln!("repro: {e}");
                    usage()
                });
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                seed = v.parse().unwrap_or_else(|_| usage());
            }
            "-h" | "--help" => usage(),
            other if !cmd_set => {
                cmd = other.to_string();
                cmd_set = true;
            }
            _ => usage(),
        }
    }
    // Refuse an unknown command before the workload (minutes at
    // `--scale paper`) is built for it.
    if !COMMANDS.contains(&cmd.as_str()) {
        eprintln!("repro: unknown command '{cmd}'");
        usage();
    }

    println!("# GenASM reproduction harness");
    println!("# scale={scale:?} seed={seed}");
    println!();

    let t0 = Instant::now();
    let workload = Workload::build(scale, seed);
    print_workload(&workload, scale, t0.elapsed().as_secs_f64());

    let timed_vec = workload.timed_tasks(scale);
    let timed: &[align_core::AlignTask] = &timed_vec;
    let gpu_tasks = &timed[..timed.len().min(scale.gpu_task_cap())];
    let run_all = cmd == "all";

    if run_all || cmd == "cpu" {
        section("E1-E3 (CPU)", || cpu::report(&cpu::run(timed)));
    }
    if run_all || cmd == "gpu" {
        section("E4-E7 (GPU)", || gpu::report(&gpu::run(gpu_tasks)));
    }
    if run_all || cmd == "memory" {
        // True-locus tasks come from the full candidate set
        // (the timed subset is a stride sample and its indices
        // do not line up with `true_locus`).
        let true_tasks: Vec<_> = workload
            .true_locus
            .iter()
            .take(200)
            .map(|&i| workload.batch.tasks[i].clone())
            .collect();
        section("E8-E9 (memory)", || {
            memory::report(&memory::run(timed, &true_tasks))
        });
    }
    if run_all || cmd == "ablation" {
        let subset = &timed[..timed.len().min(200)];
        section("A1 (ablation)", || ablation::report(&ablation::run(subset)));
    }
    if run_all || cmd == "accuracy" {
        // Primary mappings (one per read) carry the quality
        // story; the stride sample shows behaviour on the full
        // -P candidate mix including off-target windows.
        let primary = workload.primary_tasks();
        let primary = &primary[..primary.len().min(50)];
        let subset = &timed[..timed.len().min(150)];
        section("A2 (accuracy)", || {
            let mut s = String::from("(primary mappings, one per read)\n");
            s.push_str(&accuracy::report(&accuracy::run(primary)));
            s.push_str("\n(all -P candidates, stride sample)\n");
            s.push_str(&accuracy::report(&accuracy::run(subset)));
            s
        });
    }
    if run_all || cmd == "sweep" {
        section("A3 (sweeps)", || {
            let rates = [0.01, 0.02, 0.05, 0.10, 0.15, 0.20];
            let errors = sweep::error_sweep(&rates, 30, 2_000, seed);
            let geoms = [(64, 8), (64, 16), (64, 24), (64, 32), (64, 48), (32, 12)];
            let geometry = sweep::geometry_sweep(&geoms, 30, 2_000, seed);
            sweep::report(&errors, &geometry)
        });
    }
    println!("# total harness time: {:.1}s", t0.elapsed().as_secs_f64());
}

fn section(name: &str, f: impl FnOnce() -> String) {
    let t = Instant::now();
    println!("{}", f());
    println!("# [{name}] took {:.1}s", t.elapsed().as_secs_f64());
    println!();
}

fn print_workload(w: &Workload, scale: Scale, secs: f64) {
    let mut t = Table::new(
        "Workload (paper: 500 reads x 10 kbp, 138,929 candidates)",
        &["metric", "value"],
    );
    t.row(&["genome length".into(), w.genome.seq.len().to_string()]);
    t.row(&["reads".into(), w.reads.len().to_string()]);
    t.row(&[
        "read length".into(),
        format!("{}", w.reads.first().map(|r| r.seq.len()).unwrap_or(0)),
    ]);
    t.row(&["candidate pairs".into(), w.batch.len().to_string()]);
    t.row(&[
        "candidates/read".into(),
        format!("{:.1}", w.candidates_per_read()),
    ]);
    t.row(&[
        "true-locus candidates".into(),
        w.true_locus.len().to_string(),
    ]);
    t.row(&[
        "timed subset".into(),
        w.timed_tasks(scale).len().to_string(),
    ]);
    t.row(&["build time".into(), format!("{secs:.1}s")]);
    println!("{}", t.render());
}
