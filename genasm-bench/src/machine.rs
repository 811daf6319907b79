//! What the harness reads about the machine it runs on, from `/proc`.

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// `(steal, total)` CPU time of the whole machine so far, in ticks.
fn cpu_ticks() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8) // user nice system idle iowait irq softirq steal
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Measures the share of CPU time the hypervisor took away from this
/// machine over an interval ("steal"). On a shared box that share is
/// what makes one pass slower than the next while the program did the
/// same work, so passes are ranked by it (see [`undisturbed`]).
pub struct StealMeter(Option<(f64, f64)>);

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(cpu_ticks())
    }

    /// Steal ÷ total since [`StealMeter::start`]; 0 where `/proc/stat`
    /// does not say.
    pub fn share(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) / (t1 - t0),
            _ => 0.0,
        }
    }
}

/// A pass that lost at most this share of the machine counts as
/// undisturbed.
pub const STEAL_LIMIT: f64 = 0.01;
/// A run reports from at least this many passes.
pub const MIN_PASSES: usize = 3;

/// The passes a run reports from, given each one's steal share: every
/// undisturbed pass, or, when there are fewer than [`MIN_PASSES`] of
/// those, the [`MIN_PASSES`] least disturbed. Indices, ascending.
pub fn undisturbed(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let clean = steal.iter().filter(|&&s| s <= STEAL_LIMIT).count();
    order.truncate(clean.max(MIN_PASSES));
    order.sort_unstable();
    order
}

/// A pass that lost more than this share of the machine is measured
/// again: on the sizing box the hypervisor now and then takes 40–50% of
/// both cores away for minutes, and everything timed meanwhile reads
/// 2–2.5x slow.
pub const STORM_STEAL: f64 = 0.2;
/// Seconds of such passes one run sits through before it reports from
/// what it has.
pub const STORM_PATIENCE_S: f64 = 45.0;

/// How much longer a run waits for a storm to pass.
pub struct Patience(f64);

impl Default for Patience {
    fn default() -> Patience {
        Patience(STORM_PATIENCE_S)
    }
}

impl Patience {
    /// Whether a pass of `wall_s` seconds that lost `steal_share` of
    /// the machine is to be dropped and measured again.
    pub fn again(&mut self, steal_share: f64, wall_s: f64) -> bool {
        let again = steal_share > STORM_STEAL && self.0 > 0.0;
        if again {
            self.0 -= wall_s;
        }
        again
    }
}

/// What [`speed_probe`] takes on the sizing box when nothing slows its
/// cores down; time-based end-to-end metrics are scaled to it.
pub const PROBE_NOMINAL_S: f64 = 0.105;

/// Seconds a fixed piece of register-and-L1 work takes on `threads`
/// threads at once (their mean): how fast the machine's cores are just
/// now. It is the harness's own loop, so no change to the program moves
/// it. On the sizing box it wanders by 10–30% over minutes with no steal
/// to show for it (whoever shares the host's cores), and the program's
/// times wander with it; dividing that out is what lets two sets of runs
/// of one commit, minutes apart, agree.
pub fn speed_probe(threads: usize) -> f64 {
    let probes: Vec<_> = (0..threads as u64)
        .map(|t| {
            std::thread::spawn(move || {
                let started = std::time::Instant::now();
                // Shift-and-mask over 64 words with a carry chain, the
                // shape of a bit-parallel aligner's inner loop.
                let mut state = [0x9E37_79B9_7F4A_7C15_u64.wrapping_add(t); 64];
                let mut ones = 0u64;
                for round in 0..1_200_000u64 {
                    let mut carry = round;
                    for w in state.iter_mut() {
                        let v = (*w << 1) | (carry >> 63);
                        carry = *w;
                        *w = v & (v.rotate_left(7) | round);
                        ones = ones.wrapping_add(w.count_ones() as u64);
                    }
                }
                std::hint::black_box((ones, state));
                started.elapsed().as_secs_f64()
            })
        })
        .collect();
    let took: Vec<f64> = probes
        .into_iter()
        .map(|p| p.join().expect("the speed probe cannot panic"))
        .collect();
    took.iter().sum::<f64>() / took.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_clean_passes_or_the_least_disturbed() {
        assert_eq!(undisturbed(&[0.0, 0.2, 0.005, 0.0, 0.1]), [0, 2, 3]);
        assert_eq!(undisturbed(&[0.0; 5]), [0, 1, 2, 3, 4]);
        assert_eq!(undisturbed(&[0.3, 0.2, 0.005, 0.25, 0.1]), [1, 2, 4]);
        assert_eq!(undisturbed(&[0.3, 0.0]), [0, 1]);
        assert!(undisturbed(&[]).is_empty());
    }

    #[test]
    fn patience_runs_out() {
        let mut p = Patience::default();
        assert!(!p.again(STORM_STEAL, 3.0));
        assert!(p.again(0.45, STORM_PATIENCE_S - 1.0));
        assert!(p.again(0.45, 3.0));
        assert!(!p.again(0.45, 3.0));
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb("/proc/self/status").is_some_and(|mb| mb > 0.0));
        assert!(peak_rss_mb("/proc/self/no-such-file").is_none());
        let share = StealMeter::start().share();
        assert!((0.0..=1.0).contains(&share));
    }
}
