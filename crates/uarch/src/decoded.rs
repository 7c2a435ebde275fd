//! The decoded-program side table behind the engine's fast step path.
//!
//! A [`crate::asm::Program`] stores instructions in a `BTreeMap<u64, Instr>`
//! keyed by address — ideal for assembly and merging, terrible for the hot
//! loop: every simulated instruction would pay an ordered-map lookup. At
//! [`crate::engine::Engine::load`] time the map is compiled into a
//! [`DecodedProgram`]: a dense `Vec<DecodedInstr>` in address order whose
//! entries carry everything the steady-state step loop needs — the
//! instruction itself (`Instr` is `Copy`), its byte length, the id of the
//! cache line it occupies, and the *indices* of its fall-through and static
//! branch-target successors. Sequential execution and taken static branches
//! then chase indices with zero map lookups and zero per-step allocation;
//! only dynamic transfers (`ret`, `call *%reg`, speculation rollback) fall
//! back to one O(1) hash probe in the `pc → index` map.

use std::collections::HashMap;

use crate::addr::Addr;
use crate::asm::Program;
use crate::isa::Instr;

/// A pre-lowered register/flags micro-operation — the subset of [`Instr`]
/// the engine may retire inside a fused superblock.
///
/// A micro-op qualifies when its execution (the matching arm of
/// `Engine::exec`) touches **only** the owning thread's registers, ready
/// stamps, flags and clock, cannot fail, consumes no randomness, and makes
/// no memory, cache, TLB, branch-predictor, tracer or speculation
/// interaction. Everything else — loads/stores, probes, fences, branches,
/// calls, `rdtsc` (jitter!), `halt` — lowers to [`MicroOp::NotFused`] and
/// terminates fusion.
///
/// Operands are pre-converted at decode time (register numbers to masked
/// `u8` indices, shift amounts to `u32`, `AddImm`'s `i64` through the
/// wrapping `as u64` cast `execute` performs) so the superblock executor does
/// no per-retire operand conversion at all.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum MicroOp {
    /// Not fusable; always its own single-instruction "run".
    NotFused,
    /// `nop`.
    Nop,
    /// `dst ← imm`.
    MovImm {
        /// Destination register index.
        dst: u8,
        /// Immediate value.
        imm: u64,
    },
    /// `dst ← src`.
    Mov {
        /// Destination register index.
        dst: u8,
        /// Source register index.
        src: u8,
    },
    /// `dst ← dst + src` (wrapping).
    Add {
        /// Destination register index.
        dst: u8,
        /// Source register index.
        src: u8,
    },
    /// `dst ← dst + imm` (wrapping; immediate pre-cast to `u64`).
    AddImm {
        /// Destination register index.
        dst: u8,
        /// Immediate, already converted with `as u64`.
        imm: u64,
    },
    /// `dst ← dst − src` (wrapping).
    Sub {
        /// Destination register index.
        dst: u8,
        /// Source register index.
        src: u8,
    },
    /// `dst ← dst × src` (wrapping; 3-cycle latency).
    Mul {
        /// Destination register index.
        dst: u8,
        /// Source register index.
        src: u8,
    },
    /// `dst ← dst & src`.
    And {
        /// Destination register index.
        dst: u8,
        /// Source register index.
        src: u8,
    },
    /// `dst ← dst | src`.
    Or {
        /// Destination register index.
        dst: u8,
        /// Source register index.
        src: u8,
    },
    /// `dst ← dst ^ src`.
    Xor {
        /// Destination register index.
        dst: u8,
        /// Source register index.
        src: u8,
    },
    /// `dst ← dst << amount` (wrapping shift, amount pre-cast to `u32`).
    ShlImm {
        /// Destination register index.
        dst: u8,
        /// Shift amount.
        amount: u32,
    },
    /// `dst ← dst >> amount` (wrapping shift, amount pre-cast to `u32`).
    ShrImm {
        /// Destination register index.
        dst: u8,
        /// Shift amount.
        amount: u32,
    },
    /// Compare two registers into the flags.
    Cmp {
        /// Left operand register index.
        a: u8,
        /// Right operand register index.
        b: u8,
    },
    /// Compare a register against an immediate into the flags.
    CmpImm {
        /// Left operand register index.
        a: u8,
        /// Immediate right operand.
        imm: u64,
    },
    /// Pure delay (cycle count pre-cast to `u64`; may be zero).
    Delay {
        /// Cycles to advance the thread clock.
        cycles: u64,
    },
}

impl MicroOp {
    /// Lower an instruction, or [`MicroOp::NotFused`] when it does not
    /// qualify for superblock retirement.
    fn lower(instr: &Instr) -> MicroOp {
        let r = |reg: crate::isa::Reg| reg.index() as u8;
        match *instr {
            Instr::Nop => MicroOp::Nop,
            Instr::MovImm { dst, imm } => MicroOp::MovImm { dst: r(dst), imm },
            Instr::Mov { dst, src } => MicroOp::Mov { dst: r(dst), src: r(src) },
            Instr::Add { dst, src } => MicroOp::Add { dst: r(dst), src: r(src) },
            Instr::AddImm { dst, imm } => MicroOp::AddImm { dst: r(dst), imm: imm as u64 },
            Instr::Sub { dst, src } => MicroOp::Sub { dst: r(dst), src: r(src) },
            Instr::Mul { dst, src } => MicroOp::Mul { dst: r(dst), src: r(src) },
            Instr::And { dst, src } => MicroOp::And { dst: r(dst), src: r(src) },
            Instr::Or { dst, src } => MicroOp::Or { dst: r(dst), src: r(src) },
            Instr::Xor { dst, src } => MicroOp::Xor { dst: r(dst), src: r(src) },
            Instr::ShlImm { dst, amount } => MicroOp::ShlImm { dst: r(dst), amount: amount as u32 },
            Instr::ShrImm { dst, amount } => MicroOp::ShrImm { dst: r(dst), amount: amount as u32 },
            Instr::Cmp { a, b } => MicroOp::Cmp { a: r(a), b: r(b) },
            Instr::CmpImm { a, imm } => MicroOp::CmpImm { a: r(a), imm },
            Instr::Delay { cycles } => MicroOp::Delay { cycles: cycles as u64 },
            _ => MicroOp::NotFused,
        }
    }

    /// Whether this micro-op participates in fusion.
    #[inline]
    pub fn fused(&self) -> bool {
        !matches!(self, MicroOp::NotFused)
    }

    /// Exact execution cost in cycles — what the matching `Engine::exec`
    /// arm adds to the thread clock (fetch excluded). Zero for
    /// [`MicroOp::NotFused`] so prefix sums stay well-defined across run
    /// boundaries (never consulted across them).
    #[inline]
    pub fn cost(&self) -> u64 {
        match self {
            MicroOp::NotFused => 0,
            MicroOp::Mul { .. } => 3,
            MicroOp::Delay { cycles } => *cycles,
            _ => 1,
        }
    }
}

/// Whether `instr` has an opcode a [`CountedLoop`] slot can hold.
fn loop_shaped(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Delay { .. }
            | Instr::Nop
            | Instr::AddImm { .. }
            | Instr::CmpImm { .. }
            | Instr::Jcc { .. }
            | Instr::Jmp { .. }
    )
}

/// Sentinel index meaning "no decoded successor" (the address is not mapped,
/// or the successor must be resolved through [`DecodedProgram::index_of`]).
pub const NO_IDX: u32 = u32::MAX;

/// Most slots a [`CountedLoop`] may span.
pub(crate) const LOOP_MAX_SLOTS: usize = 8;

/// Sentinel in the per-instruction loop table: not a member of any
/// [`CountedLoop`].
pub(crate) const NO_LOOP: u32 = u32::MAX;

/// A counted loop recognized at decode time — the schedule the engine's
/// loop executor runs from any of its slots.
///
/// The shape is `[Delay|Nop]*; add r,-1; cmp r,0; je exit; jmp*` where the
/// `je` falls through into the `jmp` chain and the last `jmp` lands on the
/// first slot (the *head*), at most [`LOOP_MAX_SLOTS`] slots in all —
/// exactly the busy-wait every modexp victim's `sqr_n`/`mul_n` routine
/// spins in. Slot positions fix each slot's operation: `0..add` are
/// `Delay`/`Nop`, `add` is the decrement, `add + 1` the compare, `add + 2`
/// the `je`, and the rest are `jmp`s.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct CountedLoop {
    /// Decoded index of each slot, head first (the first `len` are used).
    pub slots: [u32; LOOP_MAX_SLOTS],
    /// Address of each slot.
    pub pcs: [u64; LOOP_MAX_SLOTS],
    /// Exact execution cost of each slot (fetch excluded).
    pub costs: [u64; LOOP_MAX_SLOTS],
    /// Number of slots.
    pub len: u8,
    /// Slot position of `add r,-1` (the length of the `Delay`/`Nop` prefix).
    pub add: u8,
    /// Index of the counter register `r`.
    pub counter: u8,
    /// Bit `s` is set when slot `s` switches lines in steady state (its
    /// line differs from the cyclically previous slot's): the lines one
    /// iteration from the head fetches, in slot order.
    pub fetch_mask: u8,
    /// Total execution cost of one iteration.
    pub iter_cost: u64,
}

impl CountedLoop {
    /// Slot position of the `je`.
    #[inline]
    pub(crate) fn je(&self) -> usize {
        usize::from(self.add) + 2
    }

    /// Cache line of slot `s`.
    #[inline]
    pub(crate) fn line(&self, s: usize) -> u64 {
        Addr(self.pcs[s]).line().0
    }

    /// Execution cost of the `Delay`/`Nop` prefix: how far into an
    /// iteration the decrement begins when no fetch costs anything.
    pub(crate) fn prefix_cost(&self) -> u64 {
        self.costs[..usize::from(self.add)].iter().sum()
    }
}

/// One pre-decoded instruction: the operation plus every derived datum the
/// step loop would otherwise recompute per retirement.
#[derive(Copy, Clone, Debug)]
pub struct DecodedInstr {
    /// The instruction.
    pub instr: Instr,
    /// Its address.
    pub pc: u64,
    /// Encoded byte length (`pc + len` is the fall-through address).
    pub len: u64,
    /// Line-aligned address of the cache line holding `pc`.
    pub line: u64,
    /// Index of the instruction at `pc + len`, or [`NO_IDX`].
    pub fall: u32,
    /// Index of the static control-flow target (`jmp`/`jcc`/`call`), or
    /// [`NO_IDX`] for non-branches and unmapped targets.
    pub target: u32,
}

/// The compiled side table. See the [module documentation](self).
///
/// Beyond the per-instruction entries, the table carries **superblock
/// fusion metadata** computed once at compile time: each instruction's
/// pre-lowered [`MicroOp`], the extent of the maximal straight-line fusable
/// run it belongs to, same-cache-line segment boundaries within runs, and
/// prefix sums of execution cost and line breaks. The engine's superblock
/// path uses these to decide — before executing anything — how many
/// instructions it can legally retire in one batch, and to retire them
/// without consulting the `Instr` representation at all. The table also
/// records each counted loop (`CountedLoop`) and which instructions are
/// its slots.
#[derive(Clone, Debug, Default)]
pub struct DecodedProgram {
    instrs: Vec<DecodedInstr>,
    by_pc: HashMap<u64, u32>,
    /// Pre-lowered micro-op per instruction (parallel to `instrs`).
    micro: Vec<MicroOp>,
    /// `run_end[i]`: exclusive end of the maximal fusable run containing
    /// `i` — every `k` in `i..run_end[i]` is fused and falls through to
    /// `k + 1`. Equals `i` when `instrs[i]` itself is not fusable, so
    /// `run_end[i] - i` is always "how many instructions a superblock
    /// starting at `i` could retire".
    run_end: Vec<u32>,
    /// `line_end[i]`: exclusive end of the same-cache-line prefix of the
    /// fusable run at `i` (`line_end[i] <= run_end[i]`); the superblock
    /// executor fetches once per `[i, line_end[i])` segment.
    line_end: Vec<u32>,
    /// `cum_cost[i]`: total [`MicroOp::cost`] of instructions `0..i`
    /// (length `n + 1`).
    cum_cost: Vec<u64>,
    /// `cum_breaks[i]`: number of positions `j` in `1..i` where
    /// instruction `j` starts on a different cache line than `j − 1`
    /// (length `n + 1`) — a prefix-sum bound on mid-run fetches.
    cum_breaks: Vec<u32>,
    /// Counted loops found by [`DecodedProgram::find_loops`].
    loops: Vec<CountedLoop>,
    /// `loop_member[i]`: `(loop id << 3) | slot` when instruction `i` is a
    /// slot of a [`CountedLoop`], else [`NO_LOOP`] — the engine's hot
    /// membership check is this one load.
    loop_member: Vec<u32>,
}

impl DecodedProgram {
    /// Compile a program's address-ordered instruction map into the dense
    /// table. Called from `Engine::load`; cost is linear in program size
    /// and paid once per load, never per step.
    pub fn compile(prog: &Program) -> DecodedProgram {
        let mut instrs: Vec<DecodedInstr> = Vec::with_capacity(prog.len());
        let mut by_pc: HashMap<u64, u32> = HashMap::with_capacity(prog.len());
        for (pc, instr) in prog.iter() {
            let idx = instrs.len() as u32;
            let len = instr.len();
            instrs.push(DecodedInstr {
                instr: *instr,
                pc,
                len,
                line: Addr(pc).line().0,
                fall: NO_IDX,
                target: NO_IDX,
            });
            by_pc.insert(pc, idx);
        }
        for d in &mut instrs {
            d.fall = by_pc.get(&(d.pc + d.len)).copied().unwrap_or(NO_IDX);
            let static_target = match d.instr {
                Instr::Jmp { target } | Instr::Jcc { target, .. } | Instr::Call { target } => {
                    Some(target)
                }
                _ => None,
            };
            if let Some(t) = static_target {
                d.target = by_pc.get(&t).copied().unwrap_or(NO_IDX);
            }
        }
        let mut table = DecodedProgram {
            instrs,
            by_pc,
            micro: Vec::new(),
            run_end: Vec::new(),
            line_end: Vec::new(),
            cum_cost: Vec::new(),
            cum_breaks: Vec::new(),
            loops: Vec::new(),
            loop_member: Vec::new(),
        };
        table.fuse();
        table.find_loops();
        table
    }

    /// (Re)build the counted-loop table from `instrs`. Linear: a loop is
    /// matched only from its unique `add r,-1`, and every walk is bounded
    /// by [`LOOP_MAX_SLOTS`]. Loops are disjoint — each slot has one
    /// in-loop successor — so no instruction belongs to two.
    fn find_loops(&mut self) {
        self.loops.clear();
        self.loop_member.clear();
        self.loop_member.resize(self.instrs.len(), NO_LOOP);
        for i in 0..self.instrs.len() as u32 {
            if let Some(lp) = self.match_loop(i) {
                let id = self.loops.len() as u32;
                for (s, &idx) in lp.slots[..usize::from(lp.len)].iter().enumerate() {
                    self.loop_member[idx as usize] = (id << 3) | s as u32;
                }
                self.loops.push(lp);
            }
        }
    }

    /// The [`CountedLoop`] whose `add r,-1` is instruction `add`, if any.
    fn match_loop(&self, add: u32) -> Option<CountedLoop> {
        let Instr::AddImm { dst, imm: -1 } = self.instrs[add as usize].instr else {
            return None;
        };
        let at = |idx: u32| (idx != NO_IDX).then(|| &self.instrs[idx as usize]);
        let cmp = self.instrs[add as usize].fall;
        if at(cmp)?.instr != (Instr::CmpImm { a: dst, imm: 0 }) {
            return None;
        }
        let je = at(cmp)?.fall;
        if !matches!(at(je)?.instr, Instr::Jcc { cond: crate::isa::Cond::Eq, .. }) {
            return None;
        }
        // The `jmp` chain from the `je`'s fall-through, then the
        // `Delay`/`Nop` prefix from wherever it lands back to the `add`.
        let mut jmps = Vec::new();
        let mut idx = at(je)?.fall;
        while let Instr::Jmp { .. } = at(idx)?.instr {
            if jmps.len() == LOOP_MAX_SLOTS {
                return None;
            }
            jmps.push(idx);
            idx = self.instrs[idx as usize].target;
        }
        let mut slots = Vec::new();
        while idx != add {
            if slots.len() == LOOP_MAX_SLOTS
                || !matches!(at(idx)?.instr, Instr::Delay { .. } | Instr::Nop)
            {
                return None;
            }
            slots.push(idx);
            idx = self.instrs[idx as usize].fall;
        }
        let prefix = slots.len();
        slots.extend([add, cmp, je]);
        slots.extend(jmps);
        if slots.len() > LOOP_MAX_SLOTS {
            return None;
        }
        let mut lp = CountedLoop {
            slots: [NO_IDX; LOOP_MAX_SLOTS],
            pcs: [0; LOOP_MAX_SLOTS],
            costs: [0; LOOP_MAX_SLOTS],
            len: slots.len() as u8,
            add: prefix as u8,
            counter: dst.index() as u8,
            fetch_mask: 0,
            iter_cost: 0,
        };
        for (s, &idx) in slots.iter().enumerate() {
            let d = &self.instrs[idx as usize];
            lp.slots[s] = idx;
            lp.pcs[s] = d.pc;
            lp.costs[s] = match d.instr {
                Instr::Delay { cycles } => u64::from(cycles),
                _ => 1,
            };
            let prev = &self.instrs[slots[(s + slots.len() - 1) % slots.len()] as usize];
            if d.line != prev.line {
                lp.fetch_mask |= 1 << s;
            }
        }
        lp.iter_cost = lp.costs.iter().sum();
        Some(lp)
    }

    /// (Re)build the superblock fusion metadata from `instrs`. Linear; run
    /// at compile time and after boundary-preserving patches that change an
    /// instruction's fusability or cost.
    fn fuse(&mut self) {
        let n = self.instrs.len();
        self.micro.clear();
        self.micro.extend(self.instrs.iter().map(|d| MicroOp::lower(&d.instr)));
        self.run_end.clear();
        self.run_end.resize(n, 0);
        self.line_end.clear();
        self.line_end.resize(n, 0);
        // Tail-to-head: a fused instruction that falls through to the
        // adjacent entry inherits its successor's run end; anything else
        // ends its run (and line segment) immediately.
        for i in (0..n).rev() {
            if !self.micro[i].fused() {
                self.run_end[i] = i as u32;
                self.line_end[i] = i as u32;
                continue;
            }
            let chains =
                self.instrs[i].fall == (i + 1) as u32 && i + 1 < n && self.micro[i + 1].fused();
            self.run_end[i] = if chains { self.run_end[i + 1] } else { (i + 1) as u32 };
            self.line_end[i] = if chains && self.instrs[i].line == self.instrs[i + 1].line {
                self.line_end[i + 1]
            } else {
                (i + 1) as u32
            };
        }
        self.cum_cost.clear();
        self.cum_cost.reserve(n + 1);
        self.cum_cost.push(0);
        self.cum_breaks.clear();
        self.cum_breaks.reserve(n + 1);
        self.cum_breaks.push(0);
        for i in 0..n {
            self.cum_cost.push(self.cum_cost[i] + self.micro[i].cost());
            let brk = i >= 1 && self.instrs[i].line != self.instrs[i - 1].line;
            self.cum_breaks.push(self.cum_breaks[i] + u32::from(brk));
        }
    }

    /// Re-decode one instruction in place after a self-modifying
    /// write-back. Succeeds when `pc` is already decoded and the new
    /// instruction keeps the old encoded length (the common SMC pattern:
    /// a line's bytes are rewritten but instruction boundaries survive) —
    /// the entry's operation and static branch target are refreshed while
    /// every index in the table, including successor links held by other
    /// entries and any `pc → index` values cached by the engine's
    /// threads, stays valid. Returns `false` when the patch would move
    /// instruction boundaries (an unmapped `pc`, or a different length);
    /// the caller must then recompile the whole table.
    pub fn patch(&mut self, pc: u64, instr: Instr) -> bool {
        let Some(&idx) = self.by_pc.get(&pc) else {
            return false;
        };
        let target = match instr {
            Instr::Jmp { target } | Instr::Jcc { target, .. } | Instr::Call { target } => {
                self.by_pc.get(&target).copied().unwrap_or(NO_IDX)
            }
            _ => NO_IDX,
        };
        let d = &mut self.instrs[idx as usize];
        if d.len != instr.len() {
            return false;
        }
        d.instr = instr;
        d.target = target;
        // Keep the fusion metadata honest: re-lower this entry, and rebuild
        // run/segment/prefix tables only when the patch changed something
        // they encode (fusability or cost). The common SMC patterns — a
        // branch retargeted, an ALU op swapped for another 1-cycle ALU op —
        // stay O(1); a patch that splits or merges runs (e.g. `add` →
        // `lfence`) pays one linear re-fuse.
        let lowered = MicroOp::lower(&instr);
        let old = self.micro[idx as usize];
        if lowered.fused() != old.fused() || lowered.cost() != old.cost() {
            self.fuse();
        } else {
            self.micro[idx as usize] = lowered;
        }
        // Likewise the loop table: only a patch that touches a loop-shaped
        // instruction (before or after) can make or break a counted loop.
        if self.loop_member[idx as usize] != NO_LOOP || loop_shaped(&instr) {
            self.find_loops();
        }
        true
    }

    /// Drop the compiled table (machine reset).
    pub fn clear(&mut self) {
        self.instrs.clear();
        self.by_pc.clear();
        self.micro.clear();
        self.run_end.clear();
        self.line_end.clear();
        self.cum_cost.clear();
        self.cum_breaks.clear();
        self.loops.clear();
        self.loop_member.clear();
    }

    /// `(loop id << 3) | slot` when instruction `idx` is a slot of a
    /// [`CountedLoop`], else [`NO_LOOP`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub(crate) fn loop_member(&self, idx: u32) -> u32 {
        self.loop_member[idx as usize]
    }

    /// The counted loop with id `id` (a [`DecodedProgram::loop_member`]
    /// value shifted right by 3).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub(crate) fn counted_loop(&self, id: u32) -> &CountedLoop {
        &self.loops[id as usize]
    }

    /// Index of the instruction at `pc`, or [`NO_IDX`] if none is mapped
    /// there. One hash probe — the slow path taken only on dynamic control
    /// transfers; sequential flow and static branches use the pre-resolved
    /// successor indices instead.
    pub fn index_of(&self, pc: u64) -> u32 {
        self.by_pc.get(&pc).copied().unwrap_or(NO_IDX)
    }

    /// The decoded entry at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (in particular [`NO_IDX`]).
    pub fn get(&self, idx: u32) -> &DecodedInstr {
        &self.instrs[idx as usize]
    }

    /// Number of decoded instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    // ---- superblock fusion metadata ------------------------------------

    /// The pre-lowered micro-op at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn micro(&self, idx: u32) -> MicroOp {
        self.micro[idx as usize]
    }

    /// The pre-lowered micro-ops for instructions `from..to` as a slice,
    /// so the superblock executor iterates without per-op bounds checks.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    #[inline]
    pub fn micro_slice(&self, from: u32, to: u32) -> &[MicroOp] {
        &self.micro[from as usize..to as usize]
    }

    /// Exclusive end of the maximal fusable straight-line run starting at
    /// `idx` (equal to `idx` when the instruction is not fusable); see the
    /// field docs on [`DecodedProgram`].
    #[inline]
    pub fn run_end(&self, idx: u32) -> u32 {
        self.run_end[idx as usize]
    }

    /// Exclusive end of the same-cache-line segment of the fusable run
    /// starting at `idx`.
    #[inline]
    pub fn line_end(&self, idx: u32) -> u32 {
        self.line_end[idx as usize]
    }

    /// Exact total execution cost (cycles, fetch excluded) of instructions
    /// `from..to` — one prefix-sum subtraction.
    #[inline]
    pub fn block_cost(&self, from: u32, to: u32) -> u64 {
        self.cum_cost[to as usize] - self.cum_cost[from as usize]
    }

    /// Number of cache-line switches encountered while executing
    /// instructions `from..to` sequentially *after* the first one, i.e.
    /// positions `j` in `from+1..to` whose line differs from `j − 1`'s.
    /// (Whether the first instruction itself needs a fetch depends on the
    /// thread's `last_fetch_line` and is the caller's business.)
    #[inline]
    pub fn block_breaks(&self, from: u32, to: u32) -> u32 {
        if to <= from + 1 {
            return 0;
        }
        self.cum_breaks[to as usize] - self.cum_breaks[from as usize + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::isa::Reg;

    fn looped() -> Program {
        let mut a = Assembler::new(0x1000);
        a.mov_imm(Reg::R0, 0)
            .label("loop")
            .add_imm(Reg::R0, 1)
            .cmp_imm(Reg::R0, 4)
            .jne("loop")
            .halt();
        a.assemble().unwrap()
    }

    #[test]
    fn fallthrough_indices_chain_in_address_order() {
        let p = looped();
        let d = DecodedProgram::compile(&p);
        assert_eq!(d.len(), p.len());
        for i in 0..d.len() - 1 {
            let e = d.get(i as u32);
            assert_eq!(e.fall, (i + 1) as u32, "instr {i} falls through to {}", i + 1);
            assert_eq!(d.get(e.fall).pc, e.pc + e.len);
        }
        // The final halt has no mapped successor.
        assert_eq!(d.get((d.len() - 1) as u32).fall, NO_IDX);
    }

    #[test]
    fn static_branch_targets_resolve_to_indices() {
        let p = looped();
        let d = DecodedProgram::compile(&p);
        let loop_pc = p.label("loop").unwrap();
        let jne_idx = (0..d.len() as u32)
            .find(|i| matches!(d.get(*i).instr, Instr::Jcc { .. }))
            .expect("program has a jcc");
        let target = d.get(jne_idx).target;
        assert_ne!(target, NO_IDX);
        assert_eq!(d.get(target).pc, loop_pc);
    }

    #[test]
    fn index_of_mirrors_the_program_map() {
        let p = looped();
        let d = DecodedProgram::compile(&p);
        for (pc, instr) in p.iter() {
            let idx = d.index_of(pc);
            assert_ne!(idx, NO_IDX);
            let e = d.get(idx);
            assert_eq!(e.instr, *instr);
            assert_eq!(e.line, Addr(pc).line().0);
            assert_eq!(e.len, instr.len());
        }
        assert_eq!(d.index_of(0xdead_0000), NO_IDX);
    }

    #[test]
    fn unmapped_branch_targets_stay_unresolved() {
        let mut a = Assembler::new(0);
        a.jmp(0x9999u64).halt();
        let d = DecodedProgram::compile(&a.assemble().unwrap());
        assert_eq!(d.get(0).target, NO_IDX, "target outside the program");
    }

    #[test]
    fn patch_rewrites_in_place_when_lengths_match() {
        let p = looped();
        let mut d = DecodedProgram::compile(&p);
        let jne_idx = (0..d.len() as u32)
            .find(|i| matches!(d.get(*i).instr, Instr::Jcc { .. }))
            .expect("program has a jcc");
        let pc = d.get(jne_idx).pc;
        let old_fall = d.get(jne_idx).fall;
        // Retarget the branch at its own pc: same length, new static target.
        let new_target = d.get(0).pc;
        let patched = Instr::Jcc { cond: crate::isa::Cond::Eq, target: new_target };
        assert!(d.patch(pc, patched));
        let e = d.get(jne_idx);
        assert_eq!(e.instr, patched);
        assert_eq!(d.get(e.target).pc, new_target, "target re-resolved");
        assert_eq!(e.fall, old_fall, "fall-through index survives");
    }

    #[test]
    fn patch_refuses_boundary_changes() {
        let p = looped();
        let mut d = DecodedProgram::compile(&p);
        // Unmapped pc: nothing to patch in place.
        assert!(!d.patch(0xdead_0000, Instr::Nop));
        // Length change (add_imm is 5 bytes, nop is 1): boundaries move.
        let add_pc = (0..d.len() as u32)
            .map(|i| *d.get(i))
            .find(|e| matches!(e.instr, Instr::AddImm { .. }))
            .expect("program has an add_imm")
            .pc;
        assert!(!d.patch(add_pc, Instr::Nop));
    }

    #[test]
    fn clear_empties_the_table() {
        let mut d = DecodedProgram::compile(&looped());
        assert!(!d.is_empty());
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.index_of(0x1000), NO_IDX);
    }

    #[test]
    fn runs_cover_fusable_straight_lines_and_stop_at_branches() {
        // mov_imm, add_imm, cmp_imm fuse; jne and halt do not.
        let d = DecodedProgram::compile(&looped());
        let jne_idx =
            (0..d.len() as u32).find(|i| matches!(d.get(*i).instr, Instr::Jcc { .. })).unwrap();
        // The three leading ALU ops form one run ending at the jcc.
        assert_eq!(d.run_end(0), jne_idx);
        assert_eq!(d.run_end(1), jne_idx);
        assert_eq!(d.run_end(jne_idx - 1), jne_idx);
        // Non-fusable entries are zero-length runs.
        assert!(!d.micro(jne_idx).fused());
        assert_eq!(d.run_end(jne_idx), jne_idx);
        // Cost prefix: each of the three ALU ops costs 1 cycle.
        assert_eq!(d.block_cost(0, jne_idx), jne_idx as u64);
    }

    #[test]
    fn line_segments_split_runs_at_cache_line_boundaries() {
        // 20 five-byte mov_imms starting at a line boundary span lines
        // 0x1000..0x1040..0x1080: segments of ⌈64/5⌉-ish instructions.
        let mut a = Assembler::new(0x1000);
        for i in 0..20 {
            a.mov_imm(Reg::R0, i);
        }
        a.halt();
        let d = DecodedProgram::compile(&a.assemble().unwrap());
        assert_eq!(d.run_end(0), 20, "all 20 movs fuse into one run");
        let first_seg = d.line_end(0);
        assert!(first_seg < 20, "the run crosses at least one line");
        assert_eq!(d.get(first_seg - 1).line, d.get(0).line);
        assert_ne!(d.get(first_seg).line, d.get(0).line);
        // Break prefix agrees with a direct scan.
        let direct = (1..20).filter(|&j| d.get(j).line != d.get(j - 1).line).count() as u32;
        assert_eq!(d.block_breaks(0, 20), direct);
        assert_eq!(d.block_breaks(0, 1), 0);
    }

    #[test]
    fn mul_and_delay_costs_enter_the_prefix_sums() {
        let mut a = Assembler::new(0);
        a.mov_imm(Reg::R0, 2).mul(Reg::R0, Reg::R0).delay(17).nop().halt();
        let d = DecodedProgram::compile(&a.assemble().unwrap());
        assert_eq!(d.run_end(0), 4, "mov+mul+delay+nop fuse; halt does not");
        assert_eq!(d.block_cost(0, 4), 1 + 3 + 17 + 1);
        assert_eq!(d.micro(2), MicroOp::Delay { cycles: 17 });
    }

    #[test]
    fn patch_rebuilds_fusion_when_fusability_changes() {
        let mut a = Assembler::new(0x2000);
        a.add(Reg::R0, Reg::R1).add(Reg::R0, Reg::R1).add(Reg::R0, Reg::R1).halt();
        let mut d = DecodedProgram::compile(&a.assemble().unwrap());
        assert_eq!(d.run_end(0), 3);
        // add (3 bytes) → lfence (3 bytes): same boundaries, run must split.
        let pc1 = d.get(1).pc;
        assert!(d.patch(pc1, Instr::Lfence));
        assert_eq!(d.run_end(0), 1, "run now stops before the fence");
        assert_eq!(d.run_end(1), 1, "fence is not fusable");
        assert_eq!(d.run_end(2), 3, "tail re-fuses on its own");
        assert_eq!(d.block_cost(0, 1), 1);
        // lfence → add restores the original single run.
        assert!(d.patch(pc1, Instr::Add { dst: Reg::R0, src: Reg::R1 }));
        assert_eq!(d.run_end(0), 3);
    }

    /// `ModexpVictimBuilder::emit_routine`'s routine: `delay; add r11,-1;
    /// cmp r11,0; je done; jmp tail` with `tail: jmp body` on the next line
    /// (or `nops` more `nop`s after the `delay`).
    fn routine(nops: usize) -> Program {
        let mut a = Assembler::new(0x1000);
        a.store_imm(crate::isa::MemRef::base(Reg::R10), 1)
            .add_imm(Reg::R10, 1)
            .mov_imm(Reg::R11, 9)
            .label("body")
            .delay(60)
            .nops(nops)
            .add_imm(Reg::R11, -1)
            .cmp_imm(Reg::R11, 0)
            .je("done")
            .jmp("tail");
        a.org(0x1040).label("tail").jmp("body").label("done").ret();
        a.assemble().unwrap()
    }

    #[test]
    fn counted_loops_are_recognized_with_their_schedule() {
        let d = DecodedProgram::compile(&routine(0));
        // store, add, mov sit outside; delay .. the tail jmp are slots 0..6.
        for i in 0..3 {
            assert_eq!(d.loop_member(i), NO_LOOP);
        }
        for (s, i) in (3..9).enumerate() {
            assert_eq!(d.loop_member(i), s as u32, "instr {i} is slot {s} of loop 0");
        }
        assert_eq!(d.loop_member(9), NO_LOOP, "the exit's ret");
        let lp = d.counted_loop(0);
        assert_eq!((lp.len, lp.add, lp.counter, lp.je()), (6, 1, 11, 3));
        assert_eq!(lp.costs[..6], [60, 1, 1, 1, 1, 1]);
        assert_eq!((lp.iter_cost, lp.prefix_cost()), (65, 60));
        // One iteration from the head fetches the body line, then the tail.
        assert_eq!(lp.fetch_mask, 0b10_0001);
        assert_eq!((lp.line(0), lp.line(5)), (0x1000, 0x1040));
    }

    #[test]
    fn loops_past_eight_slots_or_off_shape_are_not_recognized() {
        let fits = DecodedProgram::compile(&routine(2));
        assert_eq!(fits.counted_loop(0).len, 8);
        let long = DecodedProgram::compile(&routine(3));
        assert!((0..long.len() as u32).all(|i| long.loop_member(i) == NO_LOOP), "9 slots");
        // `looped()` counts up and exits through `jne`: not the shape.
        let d = DecodedProgram::compile(&looped());
        assert!((0..d.len() as u32).all(|i| d.loop_member(i) == NO_LOOP));
    }

    #[test]
    fn patches_break_and_restore_counted_loops() {
        let mut d = DecodedProgram::compile(&routine(0));
        let add_pc = d.get(4).pc;
        // add r11,-1 → add r11,-2 (same length): no longer a counted loop.
        assert!(d.patch(add_pc, Instr::AddImm { dst: Reg::R11, imm: -2 }));
        assert!((0..d.len() as u32).all(|i| d.loop_member(i) == NO_LOOP));
        assert!(d.patch(add_pc, Instr::AddImm { dst: Reg::R11, imm: -1 }));
        assert_eq!(d.loop_member(4), 1);
        // A longer delay keeps the loop and refreshes its schedule.
        assert!(d.patch(d.get(3).pc, Instr::Delay { cycles: 90 }));
        assert_eq!(d.counted_loop(0).iter_cost, 95);
    }

    #[test]
    fn patch_updates_micro_in_place_when_shape_is_preserved() {
        let mut a = Assembler::new(0x2000);
        a.add(Reg::R0, Reg::R1).add(Reg::R0, Reg::R1).halt();
        let mut d = DecodedProgram::compile(&a.assemble().unwrap());
        let pc0 = d.get(0).pc;
        // add → xor: both fused, both cost 1 — metadata must survive and
        // the lowered op must change.
        assert!(d.patch(pc0, Instr::Xor { dst: Reg::R0, src: Reg::R2 }));
        assert_eq!(d.micro(0), MicroOp::Xor { dst: 0, src: 2 });
        assert_eq!(d.run_end(0), 2);
    }
}
