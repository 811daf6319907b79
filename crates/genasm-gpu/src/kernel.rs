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
//! * **The sweep schedule.** Inside a window the DP is computed by a
//!   **row-group wavefront**: rows are processed in groups of
//!   [`ROW_GROUP`] threads; within a group, thread `r` computes row
//!   `d0 + r` along an anti-diagonal front (cell `(d, i)` is computed
//!   at step `s = (d - d0) + i`), and the group's bottom row is written
//!   to a full-width boundary buffer for the next group. Early
//!   termination stops after the group containing `d*`. The CPU sweeps
//!   the same recurrence (`genasm_core::bitvec`) in row groups too, but
//!   column by column in registers; the two schedules stay apart on
//!   purpose, because the schedule is what the simulator charges for.
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
use genasm_core::bitvec::{init_row, step_row, step_row0, step_row_edges, PatternMask};
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

    #[inline]
    fn store(&mut self, ctx: &mut BlockCtx, d: usize, col: usize, slot: usize, val: u64) {
        let idx = self.index(d, col, slot);
        match &mut self.mem {
            TableMem::Shared(b) => ctx.sh_store(b, idx, val),
            TableMem::Global(b) => ctx.gl_store(b, idx, val),
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

/// Total shared bytes per block for the given configuration (table if
/// it can stay on-chip, plus the wavefront scratch buffers).
pub fn shared_bytes_for(cfg: &GenAsmConfig) -> usize {
    let scratch = 2 * cfg.w + 3 * ROW_GROUP;
    (static_table_words(cfg) + scratch) * 8
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

        // Static shared allocations, reused across windows.
        let table_words = static_table_words(cfg);
        let sh = BlockShared {
            table: if table_words > 0 {
                Some(ctx.shared_alloc(table_words)?)
            } else {
                None
            },
            boundary: ctx.shared_alloc(cfg.w)?,
            boundary_next: ctx.shared_alloc(cfg.w)?,
            diag_a: ctx.shared_alloc(ROW_GROUP)?,
            diag_b: ctx.shared_alloc(ROW_GROUP)?,
            diag_c: ctx.shared_alloc(ROW_GROUP)?,
        };
        let mut engine = DeviceEngine {
            ctx,
            sh,
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

/// The per-block shared-memory allocations. `table` is taken out while
/// a window uses it and put back before the window returns, so the next
/// window finds it again.
struct BlockShared {
    table: Option<SharedBuf>,
    boundary: SharedBuf,
    boundary_next: SharedBuf,
    diag_a: SharedBuf,
    diag_b: SharedBuf,
    diag_c: SharedBuf,
}

/// One block as the shared window pipeline drives it.
struct DeviceEngine<'a> {
    ctx: &'a mut BlockCtx,
    sh: BlockShared,
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
        let mut table = shape(match self.sh.table.take() {
            Some(buf) => TableMem::Shared(buf),
            None => TableMem::Global(self.ctx.global_alloc(global_words)),
        });
        let first = self.window(&mut table, cfg, keep, final_window)?;
        if let TableMem::Shared(buf) = table.mem {
            self.sh.table = Some(buf);
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
    /// The staged window on the device: grouped-wavefront DC into
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
        let text_rev = &self.ws.text_rev[..];
        let BlockShared {
            boundary,
            boundary_next,
            diag_a,
            diag_b,
            diag_c,
            ..
        } = &mut self.sh;
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
        let ops = &mut self.ws.ops;
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
