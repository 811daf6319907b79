//! A launch under different sizes of the host's worker pool. The pool
//! size is global to the process, so this is one test in a file of its
//! own.

use std::thread::ThreadId;

use gpu_sim::{BlockCtx, Device, DeviceDescriptor, Kernel, SimError};

/// Stages one value per block through shared memory and reports the
/// host thread that ran the block; fails in the blocks listed in
/// `args`.
struct Probe;

impl Kernel for Probe {
    type Args = [usize];
    type Output = (u64, ThreadId);
    type Workspace = ();

    fn block(
        &self,
        ctx: &mut BlockCtx,
        failing: &[usize],
        _ws: &mut (),
    ) -> Result<Self::Output, SimError> {
        if failing.contains(&ctx.block_idx) {
            return Err(SimError::InvalidLaunch {
                reason: format!("block {}", ctx.block_idx),
            });
        }
        let mut sh = ctx.shared_alloc(ctx.block_dim)?;
        ctx.charge_global_stream(8 * (ctx.block_idx as u64 + 1));
        let seed = ctx.block_idx as u64;
        ctx.phase(0..ctx.block_dim, |tid, c| {
            c.sh_store(&mut sh, tid, seed * 31 + tid as u64)
        });
        Ok((ctx.sh_load(&sh, 3), std::thread::current().id()))
    }
}

fn pool(threads: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .unwrap();
}

#[test]
fn a_launch_reads_the_same_under_every_pool_size() {
    let dev = Device::new(DeviceDescriptor::tiny());
    let launch = |failing: &[usize]| dev.launch(16, 8, 1024, &Probe, failing);

    pool(1);
    let one = launch(&[]).unwrap();
    let me = std::thread::current().id();
    assert!(
        one.outputs.iter().all(|&(_, ran_on)| ran_on == me),
        "a pool of one runs every block on the launching thread"
    );
    let one_err = launch(&[11, 3]).unwrap_err();
    assert!(
        matches!(&one_err, SimError::InvalidLaunch { reason } if reason == "block 3"),
        "{one_err}"
    );

    pool(3);
    let three = launch(&[]).unwrap();
    let values = |r: &gpu_sim::LaunchReport<(u64, ThreadId)>| -> Vec<u64> {
        r.outputs.iter().map(|&(v, _)| v).collect()
    };
    assert_eq!(values(&three), values(&one));
    assert_eq!(three.totals, one.totals);
    assert_eq!(three.timing.total_ms, one.timing.total_ms);
    // Whichever worker reaches block 11 first, block 3 is the answer.
    for _ in 0..20 {
        assert_eq!(
            launch(&[11, 3]).unwrap_err().to_string(),
            one_err.to_string()
        );
    }
}
