//! Adaptive backend routing for `--backend auto`.
//!
//! The GenASM GPU work (Lindegger et al., IPPS 2022) gets its
//! throughput from keeping the right engine fed with the right batch
//! shape: wide, homogeneous batches amortize the SIMT launch, while
//! short heterogeneous ones leave the wide engine mostly idle and are
//! better served by the latency-oriented CPU path. The [`Router`]
//! turns that observation into a feedback loop over the live metric
//! registry ([`StageCounters`]): each flushed batch is scored against
//! every enabled backend using
//!
//! * the per-backend **execute-latency** histograms and base counters
//!   (`execute_ns.sum / bases` → an observed ns-per-base cost),
//! * the per-backend **queue-wait** mean (an in-flight congestion
//!   proxy — a backlogged backend pays its queue before it computes), and
//! * the **batch shape** (mean task size vs. the largest task seen:
//!   heterogeneous batches penalize the wide engine),
//!
//! and dispatched to the cheapest. Two mechanisms keep the loop
//! honest:
//!
//! * an **exploration floor** — any backend not routed to within
//!   [`RouterConfig::explore_every`] decisions is sampled next (the
//!   stalest first), so cost estimates can never go permanently
//!   stale, and a backend with no recorded bases at all is sampled
//!   before the cost model is consulted;
//! * a **pinned mode** ([`RouterConfig::pinned`]) that replaces the
//!   feedback loop with a deterministic round-robin over the enabled
//!   backends, giving reproducibility tests a routing trace that does
//!   not depend on wall-clock timings.
//!
//! Routing never changes output: the auto table only enables backends
//! that are bit-identical implementations of the improved GenASM
//! algorithm (`cpu` and `gpu-sim`), and the service's reorder sink
//! already restores submission order across backends. Every decision
//! is first-class telemetry — `genasm_router_batches_total{backend=…}`
//! and `genasm_router_explored_total` in the registry, a `router:`
//! line in the metrics summary, and the routed backend on each
//! `--explain` provenance line.

use std::sync::Mutex;

use crate::backend::BackendKind;
use crate::metrics::StageCounters;

/// Tuning knobs for the adaptive router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Exploration floor: a backend not routed to within this many
    /// decisions is sampled next, regardless of its modeled cost.
    /// Every enabled backend is therefore routed at least once in any
    /// window of `explore_every + enabled - 1` consecutive decisions.
    pub explore_every: u64,
    /// Deterministic mode: ignore the cost model and round-robin over
    /// the enabled backends, for reproducible routing traces.
    pub pinned: bool,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            explore_every: 16,
            pinned: false,
        }
    }
}

#[derive(Debug)]
struct RouterState {
    /// Decisions made so far (the routing clock).
    seq: u64,
    /// Per-backend clock value of the last decision routed to it.
    last_routed: Vec<u64>,
}

/// Metrics-driven batch router: picks a concrete [`BackendKind`] for
/// each batch flushed by an `auto` scheduler slot. See the module docs
/// for the cost model and the exploration floor.
#[derive(Debug)]
pub struct Router {
    enabled: Vec<(BackendKind, &'static str)>,
    cfg: RouterConfig,
    st: Mutex<RouterState>,
}

impl Router {
    /// Router over `enabled` backends (the order fixes the pinned
    /// round-robin order and exploration tie-breaks).
    pub fn new(enabled: Vec<BackendKind>, cfg: RouterConfig) -> Router {
        assert!(!enabled.is_empty(), "router needs at least one backend");
        let enabled: Vec<(BackendKind, &'static str)> = enabled
            .into_iter()
            .map(|kind| (kind, kind_name(kind)))
            .collect();
        let last_routed = vec![0; enabled.len()];
        Router {
            enabled,
            cfg,
            st: Mutex::new(RouterState {
                seq: 0,
                last_routed,
            }),
        }
    }

    /// The enabled backends, in routing order.
    pub fn enabled(&self) -> impl Iterator<Item = BackendKind> + '_ {
        self.enabled.iter().map(|(kind, _)| *kind)
    }

    /// Route one batch of `bases` total bases across `tasks` tasks
    /// (with `max_task_bases` the largest single task seen so far) to
    /// a backend, recording the decision in `counters`.
    pub fn route(
        &self,
        counters: &StageCounters,
        bases: u64,
        tasks: u64,
        max_task_bases: u64,
    ) -> BackendKind {
        let mut st = self.st.lock().expect("router mutex");
        let seq = st.seq;
        st.seq += 1;
        let idx = if self.enabled.len() == 1 {
            0
        } else if self.cfg.pinned {
            (seq as usize) % self.enabled.len()
        } else {
            match self.stalest_overdue(&st, seq) {
                Some(i) => {
                    counters.router_explored.inc();
                    i
                }
                None => self.cheapest(counters, bases, tasks, max_task_bases),
            }
        };
        st.last_routed[idx] = seq + 1;
        let (kind, name) = self.enabled[idx];
        counters.router_batch(name).inc();
        kind
    }

    /// The backend most overdue for an exploration sample, if any is
    /// past the floor. `last_routed` stores `decision_seq + 1` (0 =
    /// never routed), so the gap below counts decisions since the
    /// backend last ran, treating "never" as "since the beginning".
    fn stalest_overdue(&self, st: &RouterState, seq: u64) -> Option<usize> {
        (0..self.enabled.len())
            .filter(|&i| seq.saturating_sub(st.last_routed[i]) >= self.cfg.explore_every)
            .max_by_key(|&i| seq - st.last_routed[i])
    }

    /// Cost-model pick: expected nanoseconds to finish this batch on
    /// each backend, cheapest wins (ties to routing order). A backend
    /// with no observed execution yet is sampled immediately (counted
    /// as exploration) — the model never guesses about a backend it
    /// has not measured.
    fn cheapest(&self, counters: &StageCounters, bases: u64, tasks: u64, max_task: u64) -> usize {
        let mut lats = Vec::with_capacity(self.enabled.len());
        for (i, (_, name)) in self.enabled.iter().enumerate() {
            let lat = counters.backend_lat(name);
            if lat.bases.get() == 0 {
                counters.router_explored.inc();
                return i;
            }
            lats.push(lat);
        }
        // Batch-shape heterogeneity: how much larger the largest task
        // is than this batch's mean task. 1.0 = perfectly homogeneous;
        // large = one long task serializes a wide engine's lanes.
        let mean_task = if tasks > 0 {
            (bases as f64 / tasks as f64).max(1.0)
        } else {
            bases.max(1) as f64
        };
        let hetero = (max_task as f64 / mean_task).max(1.0);
        let mut best = 0;
        let mut best_score = f64::INFINITY;
        for (i, lat) in lats.iter().enumerate() {
            let exec = lat.execute_ns.snapshot();
            let ns_per_base = exec.sum as f64 / lat.bases.get() as f64;
            let wait = lat.queue_wait_ns.snapshot().mean();
            // The wide engine pays for heterogeneity (idle lanes);
            // the latency-oriented paths do not.
            let shape = match self.enabled[i].0 {
                BackendKind::GpuSim => hetero,
                _ => 1.0,
            };
            let score = bases as f64 * ns_per_base * shape + wait;
            if score < best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }
}

fn kind_name(kind: BackendKind) -> &'static str {
    BackendKind::ALL
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, name)| *name)
        .expect("backend kind has a name")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed_backend(c: &StageCounters, name: &str, bases: u64, execute_ns: u64) {
        let lat = c.backend_lat(name);
        lat.bases.add(bases);
        lat.execute_ns.record(execute_ns);
    }

    #[test]
    fn pinned_mode_round_robins_deterministically() {
        let c = StageCounters::default();
        let r = Router::new(
            vec![BackendKind::Cpu, BackendKind::GpuSim],
            RouterConfig {
                pinned: true,
                ..RouterConfig::default()
            },
        );
        let picks: Vec<BackendKind> = (0..6).map(|_| r.route(&c, 1000, 2, 500)).collect();
        assert_eq!(
            picks,
            vec![
                BackendKind::Cpu,
                BackendKind::GpuSim,
                BackendKind::Cpu,
                BackendKind::GpuSim,
                BackendKind::Cpu,
                BackendKind::GpuSim,
            ]
        );
        assert_eq!(c.router_batch("cpu").get(), 3);
        assert_eq!(c.router_batch("gpu-sim").get(), 3);
        assert_eq!(c.router_explored.get(), 0);
    }

    #[test]
    fn cost_model_prefers_the_observed_cheaper_backend() {
        let c = StageCounters::default();
        // cpu: 1 ns/base; gpu-sim: 1000 ns/base.
        seed_backend(&c, "cpu", 1_000, 1_000);
        seed_backend(&c, "gpu-sim", 1_000, 1_000_000);
        let r = Router::new(
            vec![BackendKind::Cpu, BackendKind::GpuSim],
            RouterConfig {
                explore_every: 1_000_000,
                pinned: false,
            },
        );
        for _ in 0..8 {
            assert_eq!(r.route(&c, 4_096, 8, 512), BackendKind::Cpu);
        }
        assert_eq!(c.router_batch("cpu").get(), 8);
        assert_eq!(c.router_explored.get(), 0);
    }

    #[test]
    fn heterogeneity_penalizes_the_wide_engine() {
        let c = StageCounters::default();
        // gpu-sim is 4x cheaper per base in isolation…
        seed_backend(&c, "cpu", 1_000, 4_000);
        seed_backend(&c, "gpu-sim", 1_000, 1_000);
        let r = Router::new(
            vec![BackendKind::Cpu, BackendKind::GpuSim],
            RouterConfig {
                explore_every: 1_000_000,
                pinned: false,
            },
        );
        // …and wins on a homogeneous batch (max task ≈ mean task)…
        assert_eq!(r.route(&c, 4_096, 8, 512), BackendKind::GpuSim);
        // …but loses a heterogeneous one (one task 16x the mean).
        assert_eq!(r.route(&c, 4_096, 8, 8_192), BackendKind::Cpu);
    }

    #[test]
    fn unmeasured_backend_is_sampled_before_the_model_guesses() {
        let c = StageCounters::default();
        seed_backend(&c, "cpu", 1_000, 1);
        // gpu-sim has no recorded execution: sampled first even though
        // cpu looks nearly free.
        let r = Router::new(
            vec![BackendKind::Cpu, BackendKind::GpuSim],
            RouterConfig {
                explore_every: 1_000_000,
                pinned: false,
            },
        );
        assert_eq!(r.route(&c, 1_000, 2, 500), BackendKind::GpuSim);
        assert_eq!(c.router_explored.get(), 1);
    }

    #[test]
    fn exploration_floor_samples_every_backend_within_the_window() {
        let c = StageCounters::default();
        // cpu permanently looks far cheaper, so only the floor can
        // ever route to gpu-sim.
        seed_backend(&c, "cpu", 1_000_000, 1);
        seed_backend(&c, "gpu-sim", 1, 1_000_000_000);
        let explore_every = 5u64;
        let r = Router::new(
            vec![BackendKind::Cpu, BackendKind::GpuSim],
            RouterConfig {
                explore_every,
                pinned: false,
            },
        );
        let picks: Vec<BackendKind> = (0..64).map(|_| r.route(&c, 4_096, 8, 512)).collect();
        // Every enabled backend appears in every window of
        // explore_every + enabled - 1 consecutive decisions.
        let window = (explore_every as usize) + 2 - 1;
        for kind in [BackendKind::Cpu, BackendKind::GpuSim] {
            for w in picks.windows(window) {
                assert!(
                    w.contains(&kind),
                    "{kind:?} missing from window {w:?} (floor {explore_every})"
                );
            }
        }
        assert!(c.router_explored.get() > 0);
        assert_eq!(
            c.router_batch("cpu").get() + c.router_batch("gpu-sim").get(),
            64
        );
    }

    #[test]
    fn single_backend_short_circuits() {
        let c = StageCounters::default();
        let r = Router::new(vec![BackendKind::Cpu], RouterConfig::default());
        for _ in 0..4 {
            assert_eq!(r.route(&c, 100, 1, 100), BackendKind::Cpu);
        }
        assert_eq!(c.router_batch("cpu").get(), 4);
        assert_eq!(c.router_explored.get(), 0);
    }
}
