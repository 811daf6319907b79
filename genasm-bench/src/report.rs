//! The result file of `genasm-bench run` and the comparison of two of
//! them.

use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::metrics;
use crate::run::RunResult;

pub const SCHEMA: &str = "genasm-bench/v1";

/// Where and on what a result file was measured.
#[derive(Debug, Clone)]
pub struct Header {
    /// `"full"`, or `"smoke"` for a self-test that is never comparable.
    pub label: &'static str,
    pub seed: u64,
    pub run_seconds: f64,
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

/// The end-to-end and per-layer results of one workload.
pub struct WorkloadResult {
    pub name: &'static str,
    pub end_to_end: RunResult,
    pub per_layer: RunResult,
}

fn metrics_block(run: &RunResult) -> String {
    let rows: Vec<String> = run
        .metrics
        .iter()
        .map(|m| {
            let range = m.range.map_or(String::new(), |(lo, hi)| {
                format!(
                    ", \"min\": {}, \"max\": {}",
                    json::number(lo),
                    json::number(hi)
                )
            });
            format!(
                "      {}: {{\"value\": {}{range}, \"unit\": {}, \"exact\": {}}}",
                json::quote(&m.def.name),
                json::number(m.value),
                json::quote(m.def.unit),
                m.def.exact
            )
        })
        .collect();
    format!("{{\n{}\n    }}", rows.join(",\n"))
}

/// Render the result file.
pub fn result_json(header: &Header, workloads: &[WorkloadResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": {},", json::quote(SCHEMA));
    let _ = writeln!(s, "  \"label\": {},", json::quote(header.label));
    let _ = writeln!(s, "  \"seed\": {},", header.seed);
    let _ = writeln!(
        s,
        "  \"run_seconds\": {},",
        json::number(header.run_seconds)
    );
    let _ = writeln!(
        s,
        "  \"header\": {{\"nproc\": {}, \"rustc\": {}, \"commit\": {}}},",
        header.nproc,
        json::quote(&header.rustc),
        json::quote(&header.commit)
    );
    let _ = writeln!(s, "  \"workloads\": {{");
    for (i, w) in workloads.iter().enumerate() {
        let errors: Vec<String> = w
            .end_to_end
            .errors
            .iter()
            .chain(&w.per_layer.errors)
            .map(|e| json::quote(e))
            .collect();
        let _ = writeln!(s, "  {}: {{", json::quote(w.name));
        let _ = writeln!(
            s,
            "    \"correct\": {},",
            w.end_to_end.correct() && w.per_layer.correct()
        );
        let _ = writeln!(
            s,
            "    \"attempted\": {}, \"failed\": {}, \"passes\": {}, \"passes_used\": {}, \
             \"passes_again\": {}, \"slowdown\": {}, \"latency_samples\": {},",
            w.end_to_end.attempted + w.per_layer.attempted,
            w.end_to_end.failed + w.per_layer.failed,
            w.end_to_end.passes,
            w.end_to_end.passes_used,
            w.end_to_end.passes_again,
            json::number(w.end_to_end.slowdown),
            w.end_to_end.latency_samples
        );
        let _ = writeln!(s, "    \"digest\": \"{:016x}\",", w.end_to_end.digest);
        let _ = writeln!(s, "    \"errors\": [{}],", errors.join(", "));
        let _ = writeln!(s, "    \"end_to_end\": {},", metrics_block(&w.end_to_end));
        let _ = writeln!(s, "    \"per_layer\": {}", metrics_block(&w.per_layer));
        let _ = writeln!(s, "  }}{}", if i + 1 < workloads.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    s
}

/// The outcome of comparing two result files.
pub struct Comparison {
    pub table: String,
    /// An end-to-end metric got worse by more than its bound, or an
    /// exact metric differs.
    pub failed: bool,
}

/// Compare result file `a` (before) with `b` (after): per workload and
/// end-to-end metric both medians, the relative difference and the
/// bound; then every exact per-layer metric that differs.
pub fn compare(a: &Value, b: &Value) -> Result<Comparison, String> {
    for (side, doc) in [("first", a), ("second", b)] {
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("the {side} file is not a {SCHEMA} result"));
        }
        if doc.get("label").and_then(Value::as_str) != Some("full") {
            return Err(format!(
                "the {side} file is a smoke result; those are never comparable"
            ));
        }
    }
    let same_seed = a.get("seed") == b.get("seed");
    let mut table = String::new();
    let mut failed = false;
    let _ = writeln!(
        table,
        "{:<16} {:<16} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "before", "after", "diff", "bound"
    );
    let workloads = a
        .get("workloads")
        .and_then(Value::members)
        .ok_or("no workloads")?;
    for (name, wa) in workloads {
        let wb = b
            .at(&["workloads", name])
            .ok_or_else(|| format!("workload {name} is missing from the second file"))?;
        for side in [wa, wb] {
            if side.get("correct").and_then(Value::as_bool) != Some(true) {
                let _ = writeln!(table, "{name:<16} a correctness check failed");
                failed = true;
            }
        }
        for def in metrics::end_to_end() {
            let path = ["end_to_end", def.name.as_str()];
            let side = |w: &Value| -> Option<(f64, f64, f64)> {
                let m = w.at(&path)?;
                let v = m.num_at(&["value"])?;
                Some((
                    v,
                    m.num_at(&["min"]).unwrap_or(v),
                    m.num_at(&["max"]).unwrap_or(v),
                ))
            };
            let (Some((va, lo_a, hi_a)), Some((vb, lo_b, hi_b))) = (side(wa), side(wb)) else {
                return Err(format!("{name}: {} is missing from a file", def.name));
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let diff = (vb - va) / va;
            let worse = if def.better == "lower" { diff } else { -diff };
            let overlap = lo_a <= hi_b && lo_b <= hi_a;
            let spread = ((hi_a - lo_a) / va).max((hi_b - lo_b) / vb);
            let verdict = if worse > bound {
                failed = true;
                "WORSE beyond bound"
            } else if -worse > bound {
                "better beyond bound"
            } else if overlap && spread > bound {
                "unresolved (spread wider than bound)"
            } else {
                "within bound"
            };
            let _ = writeln!(
                table,
                "{name:<16} {:<16} {va:>12.4} {vb:>12.4} {:>+7.2}% {:>6.0}%  {verdict}",
                def.name,
                diff * 100.0,
                bound * 100.0
            );
        }
        if same_seed {
            for def in metrics::per_layer().into_iter().filter(|d| d.exact) {
                let path = ["per_layer", def.name.as_str(), "value"];
                let (va, vb) = (wa.num_at(&path), wb.num_at(&path));
                if va != vb {
                    failed = true;
                    let _ = writeln!(
                        table,
                        "{name:<16} exact {} differs: {va:?} vs {vb:?}",
                        def.name
                    );
                }
            }
            if wa.get("digest") != wb.get("digest") {
                failed = true;
                let _ = writeln!(table, "{name:<16} output digest differs");
            }
        }
    }
    if !same_seed {
        let _ = writeln!(
            table,
            "seeds differ: exact metrics and digests not compared"
        );
    }
    Ok(Comparison { table, failed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(reads_per_s: (f64, f64, f64), anchors: f64) -> Value {
        let e2e: Vec<String> = metrics::end_to_end()
            .iter()
            .map(|d| {
                let (v, lo, hi) = if d.name == "reads_per_s" {
                    reads_per_s
                } else {
                    (1.0, 1.0, 1.0)
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"min\": {lo}, \"max\": {hi}}}",
                    d.name
                )
            })
            .collect();
        json::parse(&format!(
            "{{\"schema\": \"{SCHEMA}\", \"label\": \"full\", \"seed\": 1, \"workloads\": {{\"w\": {{\
             \"correct\": true, \"digest\": \"00\", \"end_to_end\": {{{}}}, \
             \"per_layer\": {{\"mapper.anchors_per_read\": {{\"value\": {anchors}}}}}}}}}}}",
            e2e.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn verdicts_follow_bound_spread_and_exactness() {
        let bound = metrics::end_to_end()[0].bound.unwrap();
        assert_eq!(metrics::end_to_end()[0].name, "reads_per_s");
        let base = doc((100.0, 99.0, 101.0), 5.0);
        let same = compare(&base, &doc((98.0, 97.0, 99.5), 5.0)).unwrap();
        assert!(!same.failed, "{}", same.table);
        assert!(same.table.contains("within bound"));

        let slow = 100.0 * (1.0 - bound) - 5.0;
        let slower = compare(&base, &doc((slow, slow - 1.0, slow + 1.0), 5.0)).unwrap();
        assert!(slower.failed);
        assert!(slower.table.contains("WORSE beyond bound"));

        let fast = 100.0 * (1.0 + bound) + 5.0;
        let faster = compare(&base, &doc((fast, fast - 1.0, fast + 1.0), 5.0)).unwrap();
        assert!(!faster.failed);
        assert!(faster.table.contains("better beyond bound"));

        let noisy = compare(&base, &doc((97.0, 97.0 - 100.0 * bound, 120.0), 5.0)).unwrap();
        assert!(!noisy.failed);
        assert!(noisy.table.contains("unresolved"));

        let drifted = compare(&base, &doc((100.0, 99.0, 101.0), 6.0)).unwrap();
        assert!(drifted.failed);
        assert!(drifted
            .table
            .contains("exact mapper.anchors_per_read differs"));
    }

    #[test]
    fn smoke_results_are_refused() {
        let smoke = json::parse(&format!(
            "{{\"schema\": \"{SCHEMA}\", \"label\": \"smoke\"}}"
        ))
        .unwrap();
        assert!(compare(&smoke, &smoke).is_err());
    }
}
