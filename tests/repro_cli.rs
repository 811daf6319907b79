//! The `repro` binary's argument handling: what it refuses, it refuses
//! before doing any work.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn unknown_command_is_refused_before_any_output() {
    let out = repro(&["bogus", "--scale", "medium"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("'bogus'") && err.contains("usage: repro"),
        "{err}"
    );
}

#[test]
fn unknown_scale_names_the_valid_ones() {
    let out = repro(&["workload", "--scale", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    let reason = err.lines().next().unwrap_or_default();
    assert!(reason.contains("unknown scale 'bogus'"), "{err}");
    for (_, name) in genasm_suite::Scale::ALL {
        assert!(reason.contains(name), "error must list '{name}': {err}");
    }
}

#[test]
fn workload_command_prints_the_workload_table() {
    let out = repro(&["workload", "--scale", "small"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("candidate pairs"), "{text}");
}
