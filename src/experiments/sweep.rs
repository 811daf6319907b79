//! Experiment A3 (extension): parameter sweeps.
//!
//! Two sweeps characterize where the improvements' savings come from:
//!
//! * **error-rate sweep** — early termination's row saving is a direct
//!   function of the per-window edit count; sweeping the simulated
//!   error rate traces the footprint-reduction curve from ~64× (clean
//!   data) down toward the compression-only floor (4x/3-ish at very
//!   high error);
//! * **window-geometry sweep** — the W/O trade-off: larger overlap
//!   costs recomputation but improves quality near window borders.

use genasm_core::{GenAsmConfig, Improvements, MemStats};
use rand::prelude::*;

use crate::report::{f, x, Table};
use crate::workload::mutated_pair;

/// One point of the error-rate sweep.
#[derive(Debug, Clone)]
pub struct ErrorPoint {
    /// Simulated per-base error rate.
    pub error_rate: f64,
    /// Mean rows per window (improved).
    pub rows_per_window: f64,
    /// Footprint reduction vs unimproved.
    pub footprint_reduction: f64,
    /// Access reduction vs unimproved.
    pub access_reduction: f64,
    /// Fraction of pairs aligned at optimal cost.
    pub optimal_rate: f64,
}

/// One point of the geometry sweep.
#[derive(Debug, Clone)]
pub struct GeometryPoint {
    /// Window size.
    pub w: usize,
    /// Overlap.
    pub o: usize,
    /// Windows needed per pair (re-anchoring frequency).
    pub windows_per_pair: f64,
    /// Fraction of pairs aligned at optimal cost.
    pub optimal_rate: f64,
}

/// Sweep the error rate at fixed geometry.
pub fn error_sweep(rates: &[f64], pairs: usize, pair_len: usize, seed: u64) -> Vec<ErrorPoint> {
    let mut out = Vec::new();
    for &rate in rates {
        let mut rng = StdRng::seed_from_u64(seed ^ (rate * 1e6) as u64);
        let mut imp = MemStats::new();
        let mut base = MemStats::new();
        let mut optimal = 0usize;
        for _ in 0..pairs {
            let (q, t) = mutated_pair(&mut rng, pair_len, rate);
            let a = genasm_core::align_with_stats(&q, &t, &GenAsmConfig::improved(), &mut imp)
                .expect("k=W");
            genasm_core::align_with_stats(&q, &t, &GenAsmConfig::baseline(), &mut base)
                .expect("k=W");
            if a.edit_distance == align_core::doubling_nw_distance(&q, &t) {
                optimal += 1;
            }
        }
        out.push(ErrorPoint {
            error_rate: rate,
            rows_per_window: imp.mean_rows_per_window(),
            footprint_reduction: base.footprint_reduction_vs(&imp),
            access_reduction: base.access_reduction_vs(&imp),
            optimal_rate: optimal as f64 / pairs as f64,
        });
    }
    out
}

/// Sweep window geometry at a fixed 10% error rate.
pub fn geometry_sweep(
    geometries: &[(usize, usize)],
    pairs: usize,
    pair_len: usize,
    seed: u64,
) -> Vec<GeometryPoint> {
    let mut out = Vec::new();
    for &(w, o) in geometries {
        let mut rng = StdRng::seed_from_u64(seed ^ ((w * 131 + o) as u64));
        let cfg = GenAsmConfig {
            w,
            o,
            k: w,
            improvements: Improvements::ALL,
        };
        let mut stats = MemStats::new();
        let mut optimal = 0usize;
        for _ in 0..pairs {
            let (q, t) = mutated_pair(&mut rng, pair_len, 0.10);
            let a = genasm_core::align_with_stats(&q, &t, &cfg, &mut stats).expect("k=W");
            if a.edit_distance == align_core::doubling_nw_distance(&q, &t) {
                optimal += 1;
            }
        }
        out.push(GeometryPoint {
            w,
            o,
            windows_per_pair: stats.windows as f64 / pairs as f64,
            optimal_rate: optimal as f64 / pairs as f64,
        });
    }
    out
}

/// Render both sweep tables.
pub fn report(errors: &[ErrorPoint], geoms: &[GeometryPoint]) -> String {
    let mut t = Table::new(
        "A3a: error-rate sweep (W=64, O=24, 2kb pairs)",
        &[
            "error rate",
            "rows/window",
            "footprint reduction",
            "access reduction",
            "optimal pairs",
        ],
    );
    for p in errors {
        t.row(&[
            format!("{}%", f(p.error_rate * 100.0)),
            f(p.rows_per_window),
            x(p.footprint_reduction),
            x(p.access_reduction),
            format!("{}%", f(p.optimal_rate * 100.0)),
        ]);
    }
    let mut s = t.render();
    let mut t2 = Table::new(
        "A3b: window-geometry sweep (10% error, 2kb pairs)",
        &["W", "O", "windows/pair", "optimal pairs"],
    );
    for p in geoms {
        t2.row(&[
            p.w.to_string(),
            p.o.to_string(),
            f(p.windows_per_pair),
            format!("{}%", f(p.optimal_rate * 100.0)),
        ]);
    }
    s.push('\n');
    s.push_str(&t2.render());
    s
}
