//! The GenASM GPU kernel: what of the algorithm is the device's own.
//!
//! One thread block aligns one (read, reference-window) pair. The
//! greedy window pipeline it walks — window loop, re-anchoring,
//! pre-flight — is `genasm_core`'s [`drive`], and the
//! traceback is `genasm_core`'s [`traceback`]; this module implements
//! the two seams they are generic over ([`WindowEngine`] per block,
//! [`TableRead`] per window) and keeps exactly the three things that
//! model the device:
//!
//! * **The sweep schedule.** Inside a window the device computes the
//!   DP as a **row-group wavefront**: rows are processed in groups of
//!   [`ROW_GROUP`] threads; within a group, thread `r` computes row
//!   `d0 + r` along an anti-diagonal front (cell `(d, i)` is computed
//!   at step `s = (d - d0) + i`), and the group's bottom row is written
//!   to a full-width boundary buffer for the next group. Early
//!   termination stops the front at step `r* + n`, `r*` being the
//!   group's first row with the solution bit (that row's last cell),
//!   and sweeps no further group. The schedule decides what the device
//!   is charged, not the order in which the host computes the values,
//!   so the two are apart: the host computes each group's values with
//!   `genasm_core`'s sweep ([`sweep_row0`], [`sweep_rows`] — the CPU's,
//!   on 8-row groups), column by column with the rows in registers,
//!   writing the table words uncounted, and the group's phases, cycles
//!   and shared/global words are booked in closed form from the shape
//!   of the front the device would run.
//!   The stepwise wavefront, every access counted, is this module's
//!   test oracle: the booking must equal it counter for counter.
//! * **Where the table lives.** The only difference between the
//!   improved and the unimproved kernel is the traceback table's home
//!   and entry width:
//!   * **improved** (1 word/entry, early termination, DENT cut): the
//!     table fits in shared memory (~21 KB worst case), so DP traffic
//!     stays on-chip; a rare high-error final window that outgrows the
//!     static allocation *spills* — it restarts in global memory;
//!   * **unimproved** (4 words/entry, all `k+1` rows, no cut): the
//!     table is 4·65·64·8 B ≈ 133 KB per window — beyond the A6000's
//!     99 KB per-block shared limit — so it lives in global memory, and
//!     every DP store and every traceback load pays DRAM latency and
//!     bandwidth.
//!
//!   That asymmetry is the paper's central GPU claim (experiment E7).
//! * **The charges.** Cycle costs of a wavefront step, a traceback step
//!   and a window's control overhead, and the streamed input/output.

use align_core::{Alignment, CigarOp, Seq};
use genasm_core::bitvec::{init_row, sweep_row0, sweep_rows, PatternMask};
use genasm_core::{
    drive, stage_window, traceback, GenAsmConfig, MemStats, TableRead, WindowEngine, WindowSummary,
};
use gpu_sim::{BlockCtx, GlobalBuf, Kernel, SharedBuf, SimError};

/// Threads per row-group (and per block).
pub const ROW_GROUP: usize = 8;

/// Modeled ALU cost of one wavefront step per thread, in issue slots:
/// the `step_row` bit recurrence (≈12 logic ops), operand addressing and
/// the predicated stores come to roughly 20 instructions. This is an
/// instruction-count estimate of the kernel body, not a constant fitted
/// to the paper's speedups.
pub const CELL_COST_CYCLES: u64 = 20;

/// Modeled ALU cost of one serial traceback step (edge re-derivation,
/// branching, op emission).
pub const TB_STEP_COST_CYCLES: u64 = 30;

/// Modeled per-window control overhead (window setup, mask build,
/// re-anchoring logic) in warp-cycles.
pub const WINDOW_OVERHEAD_CYCLES: u64 = 200;

/// Where a window's traceback table lives.
enum TableMem {
    Shared(SharedBuf),
    Global(GlobalBuf),
}

/// One window's traceback table on the device: uniform rows of the
/// columns `cut..n`, entry `(d, col)` at word
/// `(d · cols + (col − cut)) · wpe` (the CPU table's formula).
struct WindowTable {
    mem: TableMem,
    cols: usize,
    cut: usize,
    wpe: usize,
}

impl WindowTable {
    #[inline]
    fn index(&self, d: usize, col: usize, slot: usize) -> usize {
        debug_assert!(col >= self.cut, "DENT cut violated on the device");
        (d * self.cols + (col - self.cut)) * self.wpe + slot
    }

    /// The backing words, uncounted: the sweep books its stores.
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.mem {
            TableMem::Shared(b) => b.words_mut(),
            TableMem::Global(b) => b.words_mut(),
        }
    }

    #[inline]
    fn load(&self, ctx: &mut BlockCtx, d: usize, col: usize, slot: usize) -> u64 {
        let idx = self.index(d, col, slot);
        match &self.mem {
            TableMem::Shared(b) => ctx.sh_load(b, idx),
            TableMem::Global(b) => ctx.gl_load(b, idx),
        }
    }

    /// Whether `rows` rows fit the backing buffer.
    fn holds(&self, rows: usize) -> bool {
        let capacity = match &self.mem {
            TableMem::Shared(b) => b.len(),
            TableMem::Global(b) => b.len(),
        };
        rows * self.cols * self.wpe <= capacity
    }
}

/// A [`WindowTable`] as the shared traceback reads it: every load is
/// charged to the memory the table lives in.
struct DeviceTable<'a> {
    ctx: &'a mut BlockCtx,
    table: &'a WindowTable,
}

impl TableRead for DeviceTable<'_> {
    fn words_per_entry(&self) -> usize {
        self.table.wpe
    }

    #[inline]
    fn load(&mut self, d: usize, col: usize, slot: usize) -> u64 {
        self.table.load(self.ctx, d, col, slot)
    }
}

/// Reusable host-side staging of one simulation worker: each worker
/// reuses these buffers across every block (task) it executes, and
/// within a block across every window, mirroring the CPU side's
/// `AlignWorkspace` arena discipline.
#[derive(Debug, Default)]
pub struct KernelWorkspace {
    /// Reversed 2-bit text codes of the current window.
    text_rev: Vec<u8>,
    /// The boundary row between row groups: the bottom row of the last
    /// group swept, column by column.
    boundary: Vec<u64>,
    /// Where a group's rows past the table's room go, unread: those of
    /// a window's last group past row `k`.
    spare: Vec<u64>,
    /// Committed operations of the current window, forward order.
    ops: Vec<CigarOp>,
}

/// Per-task output.
#[derive(Debug, Clone)]
pub struct GpuAlignment {
    /// The alignment (identical to the CPU result by construction;
    /// property-tested in `tests/gpu_vs_cpu.rs`).
    pub alignment: Alignment,
    /// The block's window and band counters — `windows`,
    /// `rows_computed`, `peak_band_rows`, `windows_early_terminated`,
    /// `band_cells_skipped` — booked by the same code as on the CPU.
    /// `cells_computed` and the table/scratch traffic fields
    /// stay 0: on the device that traffic is shared or global memory
    /// traffic and lives in the launch's `BlockCounters`.
    pub stats: MemStats,
    /// Windows whose table spilled from shared to global memory
    /// (improved kernel only; rare high-error final windows).
    pub spilled_windows: u32,
}

/// The GenASM kernel; flavour chosen by `cfg.improvements`. Launch it
/// over a borrowed task slice — tasks are never copied host-side.
pub struct GenAsmKernel {
    /// GenASM configuration (improvements decide the kernel flavour).
    pub cfg: GenAsmConfig,
}

/// Shared-memory words of a block's static table allocation: sized for
/// the non-final window shape under DENT, for full rows without it, and
/// 0 for 4-word entries, whose table lives in global memory.
pub fn static_table_words(cfg: &GenAsmConfig) -> usize {
    if cfg.words_per_entry() != 1 {
        0
    } else if cfg.improvements.dent {
        (cfg.k + 1) * (cfg.keep() + 1).min(cfg.w)
    } else {
        (cfg.k + 1) * cfg.w
    }
}

/// Shared-memory words of the wavefront's scratch: the boundary row
/// and the next group's, both full width, and three diagonals of a
/// group (previous, current, next).
fn scratch_words(cfg: &GenAsmConfig) -> usize {
    2 * cfg.w + 3 * ROW_GROUP
}

/// Total shared bytes per block for the given configuration (table if
/// it can stay on-chip, plus the wavefront scratch buffers).
pub fn shared_bytes_for(cfg: &GenAsmConfig) -> usize {
    (static_table_words(cfg) + scratch_words(cfg)) * 8
}

impl Kernel for GenAsmKernel {
    type Args = [align_core::AlignTask];
    type Output = GpuAlignment;
    type Workspace = KernelWorkspace;

    fn block(
        &self,
        ctx: &mut BlockCtx,
        tasks: &[align_core::AlignTask],
        ws: &mut KernelWorkspace,
    ) -> Result<GpuAlignment, SimError> {
        let task = &tasks[ctx.block_idx];
        let cfg = &self.cfg;
        cfg.validate();
        let (query, target) = (&task.query, &task.target);

        // Stream the 2-bit packed input windows in.
        ctx.charge_global_stream(((query.len() + target.len()) / 4 + 2) as u64);

        // Static shared allocations, reused across windows. The scratch
        // is reserved, not touched: the wavefront's accesses to it are
        // booked per row group.
        let table_words = static_table_words(cfg);
        let shared_table = if table_words > 0 {
            Some(ctx.shared_alloc(table_words)?)
        } else {
            None
        };
        ctx.shared_alloc(scratch_words(cfg))?;
        let mut engine = DeviceEngine {
            ctx,
            shared_table,
            ws,
            pm: None,
            stats: MemStats::new(),
            spilled: 0,
        };
        let alignment = drive(&mut engine, query, target, cfg)?;
        let DeviceEngine {
            ctx,
            stats,
            spilled,
            ..
        } = engine;

        // Stream the CIGAR out.
        ctx.charge_global_stream(alignment.cigar.runs().len() as u64 * 5 + 8);
        Ok(GpuAlignment {
            alignment,
            stats,
            spilled_windows: spilled,
        })
    }
}

/// One block as the shared window pipeline drives it.
struct DeviceEngine<'a> {
    ctx: &'a mut BlockCtx,
    /// The static shared table, if the flavour has one: taken out while
    /// a window uses it and put back before the window returns, so the
    /// next window finds it again.
    shared_table: Option<SharedBuf>,
    ws: &'a mut KernelWorkspace,
    /// Bitmasks of the staged (reversed) pattern window.
    pm: Option<PatternMask>,
    stats: MemStats,
    spilled: u32,
}

impl WindowEngine for DeviceEngine<'_> {
    type Error = SimError;

    fn set_window(
        &mut self,
        query: &Seq,
        qpos: usize,
        m: usize,
        target: &Seq,
        tpos: usize,
        n: usize,
    ) {
        let text_rev = &mut self.ws.text_rev;
        self.pm = Some(stage_window(query, qpos, m, target, tpos, n, text_rev));
    }

    fn align_window(
        &mut self,
        cfg: &GenAsmConfig,
        keep: usize,
        final_window: bool,
    ) -> Result<WindowSummary, SimError> {
        let m = self.pm.as_ref().expect("set_window stages the mask").len();
        let n = self.ws.text_rev.len();
        if self.stats.abandon_infeasible(m, n, cfg.k) {
            return Err(over_budget(cfg.k));
        }
        let cut = cfg.dent_cut(n, keep, final_window);
        let (cols, wpe) = (n - cut, cfg.words_per_entry());
        let shape = |mem| WindowTable {
            mem,
            cols,
            cut,
            wpe,
        };
        let global_words = (cfg.k + 1) * cols * wpe;

        // Pick storage: start in the static shared table when one
        // exists; if early termination turns out to need more rows
        // than it can hold (possible on high-error final windows,
        // whose column count exceeds the static non-final shape),
        // the window restarts in global memory.
        let mut table = shape(match self.shared_table.take() {
            Some(buf) => TableMem::Shared(buf),
            None => TableMem::Global(self.ctx.global_alloc(global_words)),
        });
        let first = self.window(&mut table, cfg, keep, final_window)?;
        if let TableMem::Shared(buf) = table.mem {
            self.shared_table = Some(buf);
        }
        let win = match first {
            Some(win) => win,
            None => {
                // Spill: redo this window with the table in DRAM.
                self.spilled += 1;
                let mut global = shape(TableMem::Global(self.ctx.global_alloc(global_words)));
                self.window(&mut global, cfg, keep, final_window)?
                    .expect("global table cannot run out of capacity")
            }
        };
        self.stats.window_done(win.rows, n, cfg.k);
        Ok(win.summary)
    }

    fn window_ops(&self) -> &[CigarOp] {
        &self.ws.ops
    }
}

fn over_budget(k: usize) -> SimError {
    SimError::KernelFailed {
        reason: format!("window needs more than k={k} edits"),
    }
}

struct WindowOut {
    summary: WindowSummary,
    rows: usize,
}

impl DeviceEngine<'_> {
    /// The staged window on the device: the grouped wavefront's DC into
    /// `table`, then the serial traceback. Committed operations land in
    /// the worker's op buffer.
    ///
    /// Returns `Ok(None)` when the next row group would not fit the
    /// table's capacity — the caller then restarts the window in global
    /// memory.
    fn window(
        &mut self,
        table: &mut WindowTable,
        cfg: &GenAsmConfig,
        keep: usize,
        final_window: bool,
    ) -> Result<Option<WindowOut>, SimError> {
        let ctx = &mut *self.ctx;
        let pm = self.pm.as_ref().expect("set_window stages the mask");
        let ws = &mut *self.ws;
        let n = ws.text_rev.len();
        ws.boundary.resize(n, 0);
        let early_term = cfg.improvements.early_term;
        let total_rows = cfg.k + 1;
        let (cut, wpe) = (table.cut, table.wpe);
        let row_words = table.cols * wpe;

        let mut d_star: Option<usize> = None;
        for g in 0..total_rows.div_ceil(ROW_GROUP) {
            let d0 = g * ROW_GROUP;
            let rows = ROW_GROUP.min(total_rows - d0);
            if !table.holds(d0 + rows) {
                // The group would overflow the table: spill.
                return Ok(None);
            }
            let words = &mut table.words_mut()[d0 * row_words..(d0 + rows) * row_words];
            let fired = match wpe {
                1 => ws.sweep_group::<1>(pm, words, cut, d0, rows, early_term),
                _ => ws.sweep_group::<4>(pm, words, cut, d0, rows, early_term),
            };
            let steps = match fired {
                Some(r) if early_term => r + n,
                _ => n + rows - 1,
            };
            book_group(ctx, table, n, d0 == 0, rows, steps);
            if let Some(r) = fired {
                d_star.get_or_insert(d0 + r);
                if early_term {
                    break;
                }
            }
        }

        let d_star = d_star.ok_or_else(|| over_budget(cfg.k))?;
        let rows = if early_term { d_star + 1 } else { total_rows };

        // Serial traceback by thread 0: the shared walk, its loads
        // charged through the simulator.
        let (text_rev, ops) = (&ws.text_rev, &mut ws.ops);
        let mut consumed = (0, 0);
        ctx.serial_phase(|c| {
            let mut table = DeviceTable { ctx: c, table };
            consumed = traceback(&mut table, pm, text_rev, d_star, keep, final_window, ops);
        });
        ctx.charge_warp_cycles(ops.len() as u64 * TB_STEP_COST_CYCLES + WINDOW_OVERHEAD_CYCLES);
        Ok(Some(WindowOut {
            summary: WindowSummary {
                d_star,
                q_consumed: consumed.0,
                t_consumed: consumed.1,
            },
            rows,
        }))
    }
}

impl KernelWorkspace {
    /// The values of rows `d0..d0 + rows`, one row group, through
    /// `genasm_core`'s sweep: row 0 alone in group 0, the boundary row
    /// carried to the next group, the entries at columns `cut..` into
    /// `words` — the group's rows of the table — and those of the rows
    /// the group computes past them into the spare rows. Returns the
    /// group's first row with the solution bit, if any.
    fn sweep_group<const W: usize>(
        &mut self,
        pm: &PatternMask,
        words: &mut [u64],
        cut: usize,
        d0: usize,
        rows: usize,
        early_term: bool,
    ) -> Option<usize> {
        let Self {
            text_rev,
            boundary,
            spare,
            ..
        } = self;
        let solution = pm.solution_bit();
        let cols = text_rev.len() - cut;
        spare.resize(ROW_GROUP * cols * W, 0);
        let table_rows = words.as_chunks_mut::<W>().0.chunks_exact_mut(cols);
        let mut stored = table_rows.chain(spare.as_chunks_mut::<W>().0.chunks_exact_mut(cols));
        let mut next = || stored.next().expect("spare rows complete the group");
        if d0 == 0 {
            // Row 0 alone, then the group's other rows below it.
            let row0 = sweep_row0(boundary, pm, text_rev, cut, next()) & solution == 0;
            if row0 && early_term {
                return Some(0);
            }
            let mut left: [u64; ROW_GROUP] = std::array::from_fn(init_row);
            let below: [_; ROW_GROUP - 1] = std::array::from_fn(|_| next());
            sweep_rows(&mut left, boundary, pm, text_rev, cut, below);
            if row0 {
                Some(0)
            } else {
                (1..rows).find(|&r| left[r] & solution == 0)
            }
        } else {
            let mut left: [u64; ROW_GROUP + 1] = std::array::from_fn(|r| init_row(d0 - 1 + r));
            let group: [_; ROW_GROUP] = std::array::from_fn(|_| next());
            sweep_rows(&mut left, boundary, pm, text_rev, cut, group);
            (0..rows).find(|&r| left[r + 1] & solution == 0)
        }
    }
}

/// Book what the device's wavefront over one row group costs: `steps`
/// anti-diagonal steps over `rows` rows (`n + rows - 1` for the whole
/// front, fewer if early termination stops it), row `r` computing its
/// first `min(n, steps - r)` cells. Per cell the device loads its left
/// neighbour (past column 0) and, below row 0, its two neighbours in
/// the row above (one at column 0) from the diagonals or the boundary;
/// it stores the cell to the next diagonal, to the table from column
/// `cut` on, and, in the group's bottom row, to the next boundary.
fn book_group(
    ctx: &mut BlockCtx,
    table: &WindowTable,
    n: usize,
    first_group: bool,
    rows: usize,
    steps: usize,
) {
    // Active threads per step: the front widens by one thread a step up
    // to `width`, holds, and narrows by one a step at the end.
    let full = n + rows - 1;
    let width = rows.min(n);
    for active in 1..width {
        let count = usize::from(active - 1 < steps) + usize::from(full - active < steps);
        ctx.book_phases(active, count as u64);
    }
    let widest = steps.min(full + 1 - width).saturating_sub(width - 1);
    ctx.book_phases(width, widest as u64);
    // ALU cost of the recurrence: one warp per step (a group's threads
    // fit one).
    ctx.charge_warp_cycles(steps as u64 * CELL_COST_CYCLES);

    let (mut loads, mut stores, mut table_words) = (0, 0, 0);
    for r in 0..rows {
        let cells = n.min(steps.saturating_sub(r)) as u64;
        if cells == 0 {
            continue;
        }
        loads += if first_group && r == 0 {
            cells - 1
        } else {
            3 * cells - 2
        };
        stores += cells;
        if r == rows - 1 {
            stores += cells;
        }
        table_words += cells.saturating_sub(table.cut as u64) * table.wpe as u64;
    }
    match table.mem {
        TableMem::Shared(_) => ctx.book_shared(loads, stores + table_words),
        TableMem::Global(_) => {
            ctx.book_shared(loads, stores);
            ctx.book_global(0, table_words);
        }
    }
}

#[cfg(test)]
mod tests {
    //! The stepwise wavefront — one counted `phase` per anti-diagonal
    //! step, every diagonal, boundary and table word through a counted
    //! accessor — is the oracle the closed-form booking must equal.

    use super::*;
    use align_core::Base;
    use genasm_core::bitvec::{step_row, step_row0, step_row_edges};
    use genasm_core::Improvements;
    use gpu_sim::{Device, LaunchReport};
    use proptest::prelude::*;

    impl WindowTable {
        fn store(&mut self, ctx: &mut BlockCtx, d: usize, col: usize, slot: usize, val: u64) {
            let idx = self.index(d, col, slot);
            match &mut self.mem {
                TableMem::Shared(b) => ctx.sh_store(b, idx, val),
                TableMem::Global(b) => ctx.gl_store(b, idx, val),
            }
        }

        fn words(&mut self) -> Vec<u64> {
            self.words_mut().to_vec()
        }
    }

    /// The wavefront's shared scratch, as the stepwise loop uses it.
    struct Scratch {
        boundary: SharedBuf,
        boundary_next: SharedBuf,
        diag_a: SharedBuf,
        diag_b: SharedBuf,
        diag_c: SharedBuf,
    }

    impl Scratch {
        fn alloc(ctx: &mut BlockCtx, cfg: &GenAsmConfig) -> Result<Scratch, SimError> {
            Ok(Scratch {
                boundary: ctx.shared_alloc(cfg.w)?,
                boundary_next: ctx.shared_alloc(cfg.w)?,
                diag_a: ctx.shared_alloc(ROW_GROUP)?,
                diag_b: ctx.shared_alloc(ROW_GROUP)?,
                diag_c: ctx.shared_alloc(ROW_GROUP)?,
            })
        }
    }

    /// [`DeviceEngine::window`] as the device schedule runs it, step by
    /// step.
    fn window_stepwise(
        engine: &mut DeviceEngine,
        scratch: &mut Scratch,
        table: &mut WindowTable,
        cfg: &GenAsmConfig,
        keep: usize,
        final_window: bool,
    ) -> Result<Option<WindowOut>, SimError> {
        let ctx = &mut *engine.ctx;
        let pm = engine.pm.as_ref().expect("set_window stages the mask");
        let text_rev = &engine.ws.text_rev[..];
        let Scratch {
            boundary,
            boundary_next,
            diag_a,
            diag_b,
            diag_c,
        } = scratch;
        let (mut diag_a, mut diag_b, mut diag_c) = (diag_a, diag_b, diag_c);

        let n = text_rev.len();
        let cut = table.cut;
        let wpe = table.wpe;
        let solution = pm.solution_bit();
        let total_rows = cfg.k + 1;
        let groups = total_rows.div_ceil(ROW_GROUP);

        let mut d_star: Option<usize> = None;
        'groups: for g in 0..groups {
            let d0 = g * ROW_GROUP;
            let rows = ROW_GROUP.min(total_rows - d0);
            if !table.holds(d0 + rows) {
                // The group would overflow the table: spill.
                return Ok(None);
            }
            for s in 0..(n + rows - 1) {
                let lo = s.saturating_sub(n - 1);
                let hi = (rows - 1).min(s);
                let mut solved: Option<usize> = None;
                ctx.phase(lo..hi + 1, |r, c| {
                    let d = d0 + r;
                    let i = s - r;
                    let pmv = pm.get(text_rev[i]);
                    let cur_prev = if i == 0 {
                        init_row(d)
                    } else {
                        c.sh_load(diag_b, r)
                    };
                    let (val, edges) = if d == 0 {
                        let v = step_row0(cur_prev, pmv);
                        (v, [v, !0, !0, !0])
                    } else {
                        let (below_prev, below_cur) = if r == 0 {
                            let bp = if i == 0 {
                                init_row(d - 1)
                            } else {
                                c.sh_load(boundary, i - 1)
                            };
                            (bp, c.sh_load(boundary, i))
                        } else {
                            let bp = if i == 0 {
                                init_row(d - 1)
                            } else {
                                c.sh_load(diag_a, r - 1)
                            };
                            (bp, c.sh_load(diag_b, r - 1))
                        };
                        let e = step_row_edges(below_prev, below_cur, cur_prev, pmv);
                        (step_row(below_prev, below_cur, cur_prev, pmv), e)
                    };
                    c.sh_store(diag_c, r, val);
                    if i >= cut {
                        if wpe == 1 {
                            table.store(c, d, i, 0, val);
                        } else {
                            for (slot, &w) in edges.iter().enumerate() {
                                table.store(c, d, i, slot, w);
                            }
                        }
                    }
                    if r == rows - 1 {
                        c.sh_store(boundary_next, i, val);
                    }
                    if i == n - 1 && val & solution == 0 {
                        solved = Some(d);
                    }
                });
                // ALU cost of the recurrence for this step's active warps.
                let warps = ((hi + 1 - lo) as u64).div_ceil(32);
                ctx.charge_warp_cycles(warps.max(1) * CELL_COST_CYCLES);
                // Rotate diagonals: a <- b, b <- c.
                std::mem::swap(&mut diag_a, &mut diag_b);
                std::mem::swap(&mut diag_b, &mut diag_c);
                if let Some(d) = solved {
                    if d_star.is_none() {
                        d_star = Some(d);
                        if cfg.improvements.early_term {
                            break 'groups;
                        }
                    }
                }
            }
            std::mem::swap(boundary, boundary_next);
        }

        let d_star = d_star.ok_or_else(|| over_budget(cfg.k))?;
        let rows = if cfg.improvements.early_term {
            d_star + 1
        } else {
            total_rows
        };

        // Serial traceback by thread 0: the shared walk, its loads
        // charged through the simulator.
        let ops = &mut engine.ws.ops;
        let mut consumed = (0, 0);
        ctx.serial_phase(|c| {
            let mut table = DeviceTable { ctx: c, table };
            consumed = traceback(&mut table, pm, text_rev, d_star, keep, final_window, ops);
        });
        ctx.charge_warp_cycles(ops.len() as u64 * TB_STEP_COST_CYCLES + WINDOW_OVERHEAD_CYCLES);
        Ok(Some(WindowOut {
            summary: WindowSummary {
                d_star,
                q_consumed: consumed.0,
                t_consumed: consumed.1,
            },
            rows,
        }))
    }

    /// What one window left behind: its summary, committed ops, the
    /// table words of rows `0..=d*`, and whether it spilled.
    #[derive(Debug, PartialEq)]
    struct WindowRun {
        summary: WindowSummary,
        rows: usize,
        ops: Vec<CigarOp>,
        table: Vec<u64>,
        spilled: bool,
    }

    /// One block aligning one whole-sequence window, through the
    /// closed-form booking or through the stepwise oracle, with the
    /// shared-then-global spill of [`DeviceEngine::align_window`].
    struct OneWindow {
        cfg: GenAsmConfig,
        final_window: bool,
        stepwise: bool,
    }

    impl Kernel for OneWindow {
        type Args = (Seq, Seq);
        type Output = WindowRun;
        type Workspace = KernelWorkspace;

        fn block(
            &self,
            ctx: &mut BlockCtx,
            (query, target): &(Seq, Seq),
            ws: &mut KernelWorkspace,
        ) -> Result<WindowRun, SimError> {
            let cfg = &self.cfg;
            let table_words = static_table_words(cfg);
            let shared_table = if table_words > 0 {
                Some(ctx.shared_alloc(table_words)?)
            } else {
                None
            };
            let mut scratch = Scratch::alloc(ctx, cfg)?;
            let mut engine = DeviceEngine {
                ctx,
                shared_table,
                ws,
                pm: None,
                stats: MemStats::new(),
                spilled: 0,
            };
            let (m, n) = (query.len(), target.len());
            engine.set_window(query, 0, m, target, 0, n);
            let keep = if self.final_window { m } else { cfg.keep() };
            let cut = cfg.dent_cut(n, keep, self.final_window);
            let (cols, wpe) = (n - cut, cfg.words_per_entry());
            let shape = |mem| WindowTable {
                mem,
                cols,
                cut,
                wpe,
            };
            let mut run = |engine: &mut DeviceEngine, table: &mut WindowTable| {
                if self.stepwise {
                    window_stepwise(engine, &mut scratch, table, cfg, keep, self.final_window)
                } else {
                    engine.window(table, cfg, keep, self.final_window)
                }
            };
            let global_words = (cfg.k + 1) * cols * wpe;
            let mut table = shape(match engine.shared_table.take() {
                Some(buf) => TableMem::Shared(buf),
                None => TableMem::Global(engine.ctx.global_alloc(global_words)),
            });
            let (win, spilled) = match run(&mut engine, &mut table)? {
                Some(win) => (win, false),
                None => {
                    table = shape(TableMem::Global(engine.ctx.global_alloc(global_words)));
                    (
                        run(&mut engine, &mut table)?.expect("global table fits"),
                        true,
                    )
                }
            };
            let mut words = table.words();
            words.truncate((win.summary.d_star + 1) * cols * wpe);
            Ok(WindowRun {
                summary: win.summary,
                rows: win.rows,
                ops: engine.ws.ops.clone(),
                table: words,
                spilled,
            })
        }
    }

    fn launch(
        cfg: GenAsmConfig,
        pair: &(Seq, Seq),
        final_window: bool,
        stepwise: bool,
    ) -> LaunchReport<WindowRun> {
        let kernel = OneWindow {
            cfg,
            final_window,
            stepwise,
        };
        Device::a6000()
            .launch(1, ROW_GROUP, shared_bytes_for(&cfg), &kernel, pair)
            .unwrap()
    }

    fn configs() -> [GenAsmConfig; 3] {
        [
            GenAsmConfig::improved(),
            GenAsmConfig::baseline(),
            GenAsmConfig {
                improvements: Improvements {
                    early_term: false,
                    ..Improvements::ALL
                },
                ..GenAsmConfig::improved()
            },
        ]
    }

    /// Booking equals the stepwise oracle under every pinned flavour;
    /// returns whether any flavour spilled.
    fn assert_booking_matches_oracle(pair: &(Seq, Seq), final_window: bool) -> bool {
        let mut spilled = false;
        for cfg in configs() {
            let booked = launch(cfg, pair, final_window, false);
            let oracle = launch(cfg, pair, final_window, true);
            let label = cfg.improvements.label();
            assert_eq!(booked.outputs, oracle.outputs, "{label}");
            assert_eq!(booked.totals, oracle.totals, "{label}");
            spilled |= booked.outputs[0].spilled;
        }
        spilled
    }

    /// A pattern of `m` random bases and a text of `n`: the pattern with
    /// roughly `error_pct`% substitutions, insertions and deletions,
    /// cut or padded with random bases to length `n`.
    fn arb_window() -> impl Strategy<Value = (Seq, Seq)> {
        (
            1usize..=64,
            1usize..=64,
            0u32..=60,
            prop::collection::vec((0u32..100, 0u8..3, 0u8..4), 128),
        )
            .prop_map(|(m, n, error_pct, draws)| {
                let mut draws = draws.into_iter().cycle();
                let q: Vec<Base> = (0..m)
                    .map(|_| Base::from_code(draws.next().unwrap().2))
                    .collect();
                let mut t = Vec::with_capacity(n);
                for &b in &q {
                    let (roll, kind, code) = draws.next().unwrap();
                    match (roll < error_pct, kind) {
                        (false, _) => t.push(b),
                        (true, 0) => t.push(Base::from_code((b.code() + 1 + code % 3) % 4)),
                        (true, 1) => t.extend([b, Base::from_code(code)]),
                        (true, _) => {}
                    }
                }
                t.resize_with(n, || Base::from_code(draws.next().unwrap().2));
                (q.into_iter().collect(), t.into_iter().collect())
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn closed_form_booking_equals_the_stepwise_wavefront(
            pair in arb_window(),
            final_window in any::<bool>(),
        ) {
            assert_booking_matches_oracle(&pair, final_window);
        }
    }

    #[test]
    fn closed_form_booking_equals_the_stepwise_wavefront_on_spills() {
        let mut spills = 0;
        for (m, n) in [(64, 64), (64, 60), (50, 64), (64, 1), (1, 64), (7, 3)] {
            let pair = (
                std::iter::repeat_n(Base::A, m).collect(),
                std::iter::repeat_n(Base::T, n).collect(),
            );
            for final_window in [true, false] {
                spills += usize::from(assert_booking_matches_oracle(&pair, final_window));
            }
        }
        assert!(spills > 0, "no all-mismatch window spilled");
    }
}
