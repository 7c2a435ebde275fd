//! The SMT execution engine.
//!
//! Two hardware threads share one physical core: the L1i/L1d/L2/LLC
//! hierarchy, the branch predictor, and — crucially — the pipeline that an
//! SMC machine clear flushes. Each thread owns a local cycle clock;
//! higher-level code (the [`crate::machine::Machine`] scheduler) always
//! advances the thread that is behind, so cross-thread interactions happen
//! in approximately causal order.
//!
//! ## Timing model
//!
//! Values are computed eagerly (architecturally correct immediately); *time*
//! is modeled with per-register readiness stamps. A load costs one issue
//! cycle and marks its destination ready `latency` cycles later; `mfence`
//! and `rdtsc`-bracketed probe sequences surface those latencies, exactly
//! like the paper's measurement harness (Listing 2). Conditional branches
//! whose flags are not ready yet consult the PHT; a wrong prediction
//! executes the wrong path with buffered stores until the flags arrive,
//! then rolls back architectural state — but cache and TLB fills survive,
//! which is the ISpectre transmission channel.
//!
//! ## SMC detection
//!
//! Store/flush/prefetch-class instructions aimed at a line that is resident
//! in the L1i (or in either thread's in-flight fetch window) trigger a
//! *machine clear* when the microarchitecture's [`crate::profile::SmcMatrix`]
//! says so: both threads' front-ends are flushed, the sibling is stalled for
//! `sibling_stall` (~235) cycles, the line is invalidated from the L1i, and
//! the vendor's performance counters are charged per the paper's Figure 2
//! reverse engineering.

use std::error::Error;
use std::fmt;
use std::num::NonZeroU64;

use crate::addr::Addr;
use crate::asm::Program;
use crate::bpu::BranchPredictor;
use crate::counters::{CounterBank, PerfEvent};
use crate::decoded::{DecodedProgram, MicroOp, LOOP_MAX_SLOTS, NO_IDX, NO_LOOP};
use crate::hierarchy::{AccessInfo, CacheHierarchy, Level, Residency};
use crate::isa::{Cond, Flags, Instr, MemRef, MemSize, Reg};
use crate::mem::Memory;
use crate::noise::{NoiseConfig, NoiseSource};
use crate::profile::{ProbeKind, SmcBehavior, UarchProfile, Vendor};
use crate::tlb::Tlb;
use crate::trace::{Event, Tracer};

/// Return-address sentinel marking the boundary of an injected call: when a
/// `ret` pops this value the thread parks itself back in [`ThreadState::Idle`].
pub const RETURN_SENTINEL: u64 = 0xffff_ffff_0000_0000;

/// Identifier of one of the two SMT threads of the simulated physical core.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ThreadId {
    /// Logical processor 0.
    T0,
    /// Logical processor 1.
    T1,
}

impl ThreadId {
    /// Index (0 or 1).
    pub fn index(self) -> usize {
        match self {
            ThreadId::T0 => 0,
            ThreadId::T1 => 1,
        }
    }

    /// The other hardware thread on the same core.
    pub fn sibling(self) -> ThreadId {
        match self {
            ThreadId::T0 => ThreadId::T1,
            ThreadId::T1 => ThreadId::T0,
        }
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.index())
    }
}

/// Execution state of a thread.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum ThreadState {
    /// Not running a program; accepts injected instructions.
    #[default]
    Idle,
    /// Executing a loaded program.
    Running,
    /// Executed `halt` (or returned with an empty call stack).
    Halted,
}

/// Errors surfaced while stepping the engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StepError {
    /// No instruction is mapped at the program counter.
    NoInstruction {
        /// Offending address.
        pc: u64,
    },
    /// The probe instruction does not exist on this microarchitecture
    /// (an `×` cell in Table 3, e.g. `clwb` before Sky Lake).
    Unsupported {
        /// Probe class that is unavailable.
        kind: ProbeKind,
    },
    /// Tried to step a thread that is not running.
    NotRunning {
        /// The thread in question.
        tid: ThreadId,
    },
    /// An injected sequence contained a branch (only straight-line code and
    /// calls may be injected).
    ControlFlowInjected,
    /// A run exceeded its instruction budget.
    StepLimit,
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::NoInstruction { pc } => write!(f, "no instruction at {pc:#x}"),
            StepError::Unsupported { kind } => {
                write!(f, "`{kind}` is not supported on this microarchitecture")
            }
            StepError::NotRunning { tid } => write!(f, "thread {tid} is not running"),
            StepError::ControlFlowInjected => {
                write!(f, "injected sequences cannot contain branches")
            }
            StepError::StepLimit => write!(f, "instruction budget exhausted"),
        }
    }
}

impl Error for StepError {}

/// Result of running an injected sequence.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SeqOutcome {
    /// Cycles the sequence consumed on its thread.
    pub cycles: u64,
    /// Thread-local clock when the sequence finished.
    pub end_clock: u64,
}

#[derive(Clone, Debug)]
struct SpecState {
    ckpt_regs: [u64; Reg::COUNT],
    ckpt_ready: [u64; Reg::COUNT],
    ckpt_flags: Flags,
    ckpt_flags_ready: u64,
    ckpt_stack_len: usize,
    correct_pc: u64,
    resolve_at: u64,
    budget: u32,
    wrong_path: u32,
    branch_pc: u64,
    buffered_stores: Vec<(Addr, u64, MemSize)>,
}

#[derive(Clone, Debug)]
struct Thread {
    state: ThreadState,
    regs: [u64; Reg::COUNT],
    ready: [u64; Reg::COUNT],
    flags: Flags,
    flags_ready: u64,
    pc: u64,
    /// Index of the instruction at `pc` in the engine's decoded table, or
    /// [`NO_IDX`] when unknown (resolved lazily with one hash probe). Kept
    /// in lockstep with `pc`: sequential flow and static branches copy the
    /// pre-resolved successor index; every other `pc` writer invalidates it.
    pc_idx: u32,
    clock: u64,
    stack: Vec<u64>,
    last_fetch_line: u64,
    /// Lines in the in-flight fetch window, `u64::MAX` = empty slot
    /// (a fixed ring; see [`FETCH_WINDOW`]).
    fetch_window: [u64; FETCH_WINDOW],
    fetch_window_next: usize,
    pending_mem: u64,
    /// Active wrong-path speculation. Boxed: mispredictions are rare, and
    /// keeping the large checkpoint out of line both shrinks the thread
    /// (better locality for the hot fields) and turns the per-step
    /// `is_some` check into a null test.
    spec: Option<Box<SpecState>>,
    counters: CounterBank,
}

impl Thread {
    fn new() -> Thread {
        Thread {
            state: ThreadState::Idle,
            regs: [0; Reg::COUNT],
            ready: [0; Reg::COUNT],
            flags: Flags::default(),
            flags_ready: 0,
            pc: 0,
            pc_idx: NO_IDX,
            clock: 0,
            stack: Vec::new(),
            fetch_window: [u64::MAX; FETCH_WINDOW],
            fetch_window_next: 0,
            last_fetch_line: u64::MAX,
            pending_mem: 0,
            spec: None,
            counters: CounterBank::new(),
        }
    }

    /// Restore the power-on state in place, keeping the stack and
    /// fetch-window allocations.
    fn reset(&mut self) {
        self.state = ThreadState::Idle;
        self.regs = [0; Reg::COUNT];
        self.ready = [0; Reg::COUNT];
        self.flags = Flags::default();
        self.flags_ready = 0;
        self.pc = 0;
        self.pc_idx = NO_IDX;
        self.clock = 0;
        self.stack.clear();
        self.fetch_window = [u64::MAX; FETCH_WINDOW];
        self.fetch_window_next = 0;
        self.last_fetch_line = u64::MAX;
        self.pending_mem = 0;
        self.spec = None;
        self.counters.reset();
    }
}

/// Lines tracked in the in-flight fetch window used for SMC detection.
const FETCH_WINDOW: usize = 2;

/// Placeholder `AccessInfo` for batched-fetch out-parameters; every slot
/// handed to [`CacheHierarchy::fetch_lines`] is overwritten before use.
const COLD_ACCESS: AccessInfo = AccessInfo { level: Level::Dram, latency: 0, was_in_l1i: false };

enum Next {
    Seq,
    Jump(u64),
    Stop,
}

/// Signal returned by injected-instruction execution.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum InjectedNext {
    /// The instruction completed; continue with the next one.
    Done,
    /// The instruction was a call; the caller must run the thread's program
    /// until it returns to idle.
    EnterCall {
        /// Call target address.
        target: u64,
    },
}

/// Which interpreter an [`Engine`] executes on. Every tier produces
/// bit-identical architectural state, clocks, counters and experiment
/// output; they trade only speed. `crates/bench/tests/exec_matrix.rs`
/// runs the whole quick repro under each and byte-compares the CSVs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Tier {
    /// The decoded side table plus every fused path: superblock
    /// retirement and counted-loop execution ([`Engine::run_burst`]),
    /// fused probes ([`Engine::run_fused_probe`]), fused attacker calls
    /// ([`Engine::run_fused_call`]) and batched idle advances
    /// ([`Engine::advance_idle`]). The default.
    Fast,
    /// The decoded side table, one instruction per step, no fusion of any
    /// kind.
    Decoded,
    /// The original per-step `BTreeMap` interpreter, no fusion: the
    /// oracle the equivalence tests compare the other tiers against.
    Reference,
}

/// How a machine executes: the interpreter [`Tier`] plus the number of
/// steps `Machine` hands the engine per [`Engine::run_burst`] call. Pure
/// mechanics — every value produces bit-identical output (the burst loop
/// makes the same per-instruction causal decision the machine used to
/// make, and burst 1 *is* that historical scheduling), so a config only
/// trades speed. A zero burst is unrepresentable.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ExecConfig {
    /// The interpreter tier.
    pub tier: Tier,
    /// Steps per engine burst.
    pub burst: NonZeroU64,
}

impl ExecConfig {
    /// What every machine starts with and returns to on reset.
    pub const DEFAULT: ExecConfig = ExecConfig::new(Tier::Fast, 4096);

    /// The configurations every output must agree across: the default,
    /// burst 1, and the two per-step tiers. Equivalence tests iterate it
    /// (plus any extra cases of their own).
    pub const MATRIX: [ExecConfig; 4] = [
        ExecConfig::DEFAULT,
        ExecConfig::new(Tier::Fast, 1),
        ExecConfig::new(Tier::Decoded, 4096),
        ExecConfig::new(Tier::Reference, 4096),
    ];

    /// A config for `tier` with `burst` steps per engine burst.
    ///
    /// # Panics
    ///
    /// Panics if `burst` is zero.
    pub const fn new(tier: Tier, burst: u64) -> ExecConfig {
        match NonZeroU64::new(burst) {
            Some(burst) => ExecConfig { tier, burst },
            None => panic!("burst size must be positive"),
        }
    }
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig::DEFAULT
    }
}

/// A probe sequence precompiled for the fused probe tier: the classic
/// `mfence; rdtsc; <op>; mfence; rdtsc` five-instruction template from
/// `probe_sequence`, recognized once at construction so
/// [`Engine::run_fused_probe`] can retire the whole sequence in one
/// specialized pass instead of five injected-instruction round trips.
///
/// The timed operation is a memory or cache-control op, or the `Execute`
/// probe's `call *reg`, whose callee must then be a one-line `nop*; ret`
/// routine at run time (checked per probe; other callees run per-step).
/// `compile` returns `None` for any other shape; those keep running
/// per-step.
#[derive(Copy, Clone, Debug)]
pub struct CompiledProbe {
    /// The original five-instruction sequence — the per-step fallback
    /// executes exactly this.
    instrs: [Instr; 5],
    /// Destination register of the opening `rdtsc`.
    t_start: Reg,
    /// Destination register of the closing `rdtsc`.
    t_end: Reg,
    /// The timed middle operation.
    op: Instr,
}

impl CompiledProbe {
    /// Recognize the probe template, or `None` when the sequence must run
    /// per-step. The middle-op whitelist is exactly the set of operations
    /// [`Engine::run_fused_probe`] replicates bit-for-bit from `execute`,
    /// plus `call *reg` when the opening `rdtsc` leaves `reg` alone (the
    /// fused pass reads the call target up front).
    pub fn compile(instrs: &[Instr; 5]) -> Option<CompiledProbe> {
        let (t_start, t_end) = match (instrs[0], instrs[1], instrs[3], instrs[4]) {
            (Instr::Mfence, Instr::Rdtsc { dst: a }, Instr::Mfence, Instr::Rdtsc { dst: b }) => {
                (a, b)
            }
            _ => return None,
        };
        let op = instrs[2];
        match op {
            Instr::Load { .. }
            | Instr::StoreImm { .. }
            | Instr::LockInc { .. }
            | Instr::Clflush { .. }
            | Instr::Clflushopt { .. }
            | Instr::Clwb { .. }
            | Instr::PrefetchT0 { .. }
            | Instr::PrefetchNta { .. } => {}
            Instr::CallReg { target } if target != t_start => {}
            _ => return None,
        }
        Some(CompiledProbe { instrs: *instrs, t_start, t_end, op })
    }

    /// The original five-instruction sequence (the per-step fallback).
    pub fn instrs(&self) -> &[Instr; 5] {
        &self.instrs
    }
}

/// Instruction budget of one machine-level run (a call driven to idle, or
/// one sibling catch-up): generous, but bounded so that buggy victims fail
/// loudly with [`StepError::StepLimit`] instead of hanging the harness.
pub(crate) const STEP_BUDGET: u64 = 500_000_000;

/// Cycles per injected `Delay` when an idle wait runs per-step (see
/// [`Engine::advance_idle`]).
pub(crate) const DELAY_CHUNK: u32 = 200;

/// Slots in the direct-mapped [`Engine::call_shape`] memo table.
const CALL_SHAPE_SLOTS: usize = 64;

/// Empty call-shape slot (`u64::MAX` is never a decodable call target).
const EMPTY_SHAPE: (u64, u64, u64, u32) = (u64::MAX, 0, 0, 0);

/// The fused-call shape of a one-line `nop*; ret` routine: `(nops, ret_pc,
/// ret_idx)`.
type CallShape = (u64, u64, u32);

/// Largest batch [`Engine::run_fused_calls`] fuses in one pass — an
/// eviction set's way count with headroom.
const CALL_BATCH_MAX: usize = 16;

/// The two-thread core simulator. Usually driven through
/// [`crate::machine::Machine`].
pub struct Engine {
    profile: UarchProfile,
    threads: [Thread; 2],
    code: Program,
    /// Dense side table compiled from `code` at load time: the steady-state
    /// step loop chases successor indices through it instead of walking the
    /// program's `BTreeMap` per instruction.
    decoded: DecodedProgram,
    /// The execution config: its tier gates the decoded table and every
    /// fused path; its burst is read by `Machine`'s scheduling loops.
    exec: ExecConfig,
    /// Memoized [`Engine::call_shape`] walks — `(target, nops, ret_pc,
    /// ret_idx)`, direct-mapped by a multiply-hash of the target address,
    /// valid while `call_shapes_gen` matches `decode_gen`. Sized for
    /// attacker working sets (an 8-way eviction set plus a few oracle
    /// lines): priming calls the same handful of targets millions of
    /// times per campaign, and one hash probe beats re-hashing
    /// `pc → index` in the decoded table's map every call.
    call_shapes: [(u64, u64, u64, u32); CALL_SHAPE_SLOTS],
    call_shapes_gen: u64,
    /// Bumped whenever the decoded table changes (load / patch / reset),
    /// invalidating `call_shapes`.
    decode_gen: u64,
    mem: Memory,
    hier: CacheHierarchy,
    itlb: [Tlb; 2],
    dtlb: [Tlb; 2],
    bpu: BranchPredictor,
    noise: NoiseSource,
    tracer: Tracer,
    /// When enabled, every line-granular instruction fetch (architectural
    /// *and* speculative wrong-path) appends its line address here. Used by
    /// the static analyzer's soundness tests to compare the observed fetch
    /// footprint against the statically predicted one. `None` (the default)
    /// keeps the hot fetch path branch-predictable and allocation-free.
    fetch_log: Option<Vec<u64>>,
}

impl Engine {
    /// Create an engine for `profile`, with noise seeded by `seed`.
    pub fn new(profile: UarchProfile, noise: NoiseConfig, seed: u64) -> Engine {
        let hier = CacheHierarchy::new(profile.hierarchy);
        let itlb = [Tlb::new(profile.itlb_entries), Tlb::new(profile.itlb_entries)];
        let dtlb = [Tlb::new(profile.dtlb_entries), Tlb::new(profile.dtlb_entries)];
        Engine {
            threads: [Thread::new(), Thread::new()],
            code: Program::default(),
            decoded: DecodedProgram::default(),
            exec: ExecConfig::DEFAULT,
            call_shapes: [EMPTY_SHAPE; CALL_SHAPE_SLOTS],
            call_shapes_gen: 0,
            decode_gen: 0,
            mem: Memory::new(),
            hier,
            itlb,
            dtlb,
            bpu: BranchPredictor::new(4096),
            noise: NoiseSource::new(noise, seed),
            tracer: Tracer::new(),
            fetch_log: None,
            profile,
        }
    }

    /// The microarchitecture profile in use.
    pub fn profile(&self) -> &UarchProfile {
        &self.profile
    }

    /// Restore the power-on state in place — cold caches and TLBs, reset
    /// branch predictor, counters and clocks, no loaded code, zeroed
    /// memory — and reseed the noise source, **without** reallocating the
    /// cache hierarchy, the memory pages or the predictor tables. After
    /// `reset(noise, seed)` the engine behaves bit-identically to
    /// `Engine::new(profile, noise, seed)` for any workload.
    pub fn reset(&mut self, noise: NoiseConfig, seed: u64) {
        for t in &mut self.threads {
            t.reset();
        }
        self.code.clear();
        self.decoded.clear();
        self.decode_gen += 1;
        self.exec = ExecConfig::DEFAULT;
        self.mem.clear();
        self.hier.clear();
        for tlb in self.itlb.iter_mut().chain(self.dtlb.iter_mut()) {
            tlb.flush();
        }
        self.bpu.reset();
        self.noise = NoiseSource::new(noise, seed);
        self.tracer.disable();
        self.fetch_log = None;
    }

    /// Start (or stop) recording every instruction-fetch line address.
    /// Enabling clears any previously recorded log.
    pub fn set_fetch_log(&mut self, on: bool) {
        self.fetch_log = if on { Some(Vec::new()) } else { None };
    }

    /// Take the recorded fetch-line log, leaving recording enabled with an
    /// empty log (no-op empty result when recording is off).
    pub fn take_fetch_log(&mut self) -> Vec<u64> {
        match &mut self.fetch_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Merge a program's code into the core's address space and recompile
    /// the decoded side table (linear in total program size — paid per
    /// load, never per step).
    pub fn load(&mut self, prog: &Program) {
        self.code.merge(prog);
        self.decoded = DecodedProgram::compile(&self.code);
        self.decode_gen += 1;
        for t in &mut self.threads {
            t.pc_idx = NO_IDX;
        }
    }

    /// Apply a self-modifying write-back: overwrite instructions in the
    /// core's address space with `prog`'s (replacing on conflict, unlike
    /// [`Engine::load`]'s merge-only semantics) and re-decode the affected
    /// entries of the decoded side table **in place** whenever instruction
    /// boundaries survive the rewrite — the patched pcs keep their
    /// indices, so every successor link and cached `pc_idx` stays valid
    /// and the steady-state step loop keeps chasing indices instead of
    /// degrading to per-step map lookups. A write-back that moves
    /// boundaries (instructions at new pcs, or changed encoded lengths)
    /// falls back to one full recompile.
    ///
    /// Architectural state only, like [`Engine::load`]: the *timing* side
    /// of a real SMC write-back (machine clear, L1i invalidation, sibling
    /// stall) is modeled by the store/flush instructions the workload
    /// executes against the line.
    pub fn patch_code(&mut self, prog: &Program) {
        self.code.overwrite(prog);
        self.decode_gen += 1;
        let in_place = prog.iter().all(|(pc, instr)| self.decoded.patch(pc, *instr));
        if !in_place {
            // Charge the recompile to T0's bank: the event is core-wide, so
            // attributing it to one thread keeps `counters_total` exact.
            self.threads[0].counters.add(PerfEvent::SimPatchRecompiles, 1);
            self.decoded = DecodedProgram::compile(&self.code);
            for t in &mut self.threads {
                t.pc_idx = NO_IDX;
            }
        }
    }

    /// Switch execution config (see [`ExecConfig`]); output is
    /// bit-identical under every config. Reset restores
    /// [`ExecConfig::DEFAULT`].
    pub fn set_exec(&mut self, exec: ExecConfig) {
        self.exec = exec;
        for t in &mut self.threads {
            t.pc_idx = NO_IDX;
        }
    }

    /// The current execution config.
    pub fn exec(&self) -> ExecConfig {
        self.exec
    }

    /// Simulated memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Simulated memory, mutable.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The cache hierarchy (for inspection and experiment setup).
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hier
    }

    /// The cache hierarchy, mutable.
    pub fn hierarchy_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.hier
    }

    /// The event tracer.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The noise source.
    pub fn noise_mut(&mut self) -> &mut NoiseSource {
        &mut self.noise
    }

    // ---- thread accessors -------------------------------------------------

    #[inline(always)]
    fn t(&self, tid: ThreadId) -> &Thread {
        &self.threads[tid.index()]
    }

    #[inline(always)]
    fn t_mut(&mut self, tid: ThreadId) -> &mut Thread {
        &mut self.threads[tid.index()]
    }

    /// Current state of a thread.
    pub fn state(&self, tid: ThreadId) -> ThreadState {
        self.t(tid).state
    }

    /// A thread's local cycle clock.
    pub fn clock(&self, tid: ThreadId) -> u64 {
        self.t(tid).clock
    }

    /// Read a register.
    pub fn reg(&self, tid: ThreadId, r: Reg) -> u64 {
        self.t(tid).regs[r.index()]
    }

    /// Write a register (value becomes ready immediately).
    pub fn set_reg(&mut self, tid: ThreadId, r: Reg, v: u64) {
        let clock = self.t(tid).clock;
        let t = self.t_mut(tid);
        t.regs[r.index()] = v;
        t.ready[r.index()] = clock;
    }

    /// Per-thread performance counters.
    pub fn counters(&self, tid: ThreadId) -> &CounterBank {
        &self.t(tid).counters
    }

    /// Core-wide counter totals (both threads summed).
    pub fn counters_total(&self) -> CounterBank {
        let mut total = self.threads[0].counters.clone();
        total.accumulate(&self.threads[1].counters);
        total
    }

    /// Reset both threads' counters.
    pub fn reset_counters(&mut self) {
        for t in &mut self.threads {
            t.counters.reset();
        }
    }

    /// Prepare a thread to run a program: set `pc`, clear the call stack,
    /// mark it running. Arguments go to `R1..`.
    pub fn start_program(&mut self, tid: ThreadId, entry: u64, args: &[u64]) {
        assert!(args.len() <= 5, "at most five register arguments");
        let clock = self.t(tid).clock;
        let t = self.t_mut(tid);
        t.pc = entry;
        t.pc_idx = NO_IDX;
        t.stack.clear();
        t.state = ThreadState::Running;
        t.spec = None;
        for (i, a) in args.iter().enumerate() {
            t.regs[Reg::from_index(1 + i).index()] = *a;
            t.ready[Reg::from_index(1 + i).index()] = clock;
        }
    }

    /// Set up an injected call: pushes the return sentinel and starts the
    /// thread at `target`. When the callee returns, the thread goes idle.
    pub fn begin_injected_call(&mut self, tid: ThreadId, target: u64) {
        let t = self.t_mut(tid);
        t.stack.push(RETURN_SENTINEL);
        t.pc = target;
        t.pc_idx = NO_IDX;
        t.state = ThreadState::Running;
    }

    /// Install TLB translations for the page containing `addr` on `tid`
    /// without charging any cycles (experiment setup, Listing 1 style).
    pub fn warm_tlb(&mut self, tid: ThreadId, addr: Addr) {
        self.itlb[tid.index()].access(addr);
        self.dtlb[tid.index()].access(addr);
    }

    /// Forcibly park a thread in the idle state (e.g. to stop a victim).
    pub fn park(&mut self, tid: ThreadId) {
        let t = self.t_mut(tid);
        t.state = ThreadState::Idle;
        t.spec = None;
        t.stack.clear();
    }

    // ---- execution ---------------------------------------------------------

    /// Execute one program instruction on a running thread.
    #[inline]
    pub fn step(&mut self, tid: ThreadId) -> Result<(), StepError> {
        if self.t(tid).state != ThreadState::Running {
            return Err(StepError::NotRunning { tid });
        }
        // Resolve speculation whose window has closed.
        if let Some(spec) = &self.t(tid).spec {
            if self.t(tid).clock >= spec.resolve_at || spec.budget == 0 {
                self.squash(tid);
                return Ok(());
            }
        }
        let pc = self.t(tid).pc;
        if pc == RETURN_SENTINEL {
            if self.t(tid).spec.is_some() {
                self.squash(tid);
            } else {
                self.t_mut(tid).state = ThreadState::Idle;
            }
            return Ok(());
        }
        // Locate the instruction. The fast path chases pre-resolved indices
        // through the decoded side table (zero map lookups in steady state);
        // the reference path repeats the original per-step `BTreeMap` lookup
        // and is kept only for A/B equivalence testing and benchmarking.
        let (instr, len, line, fall, target_idx) = if self.exec.tier != Tier::Reference {
            let idx = match self.t(tid).pc_idx {
                NO_IDX => self.decoded.index_of(pc),
                cached => cached,
            };
            if idx == NO_IDX {
                if self.t(tid).spec.is_some() {
                    self.squash(tid);
                    return Ok(());
                }
                return Err(StepError::NoInstruction { pc });
            }
            let d = self.decoded.get(idx);
            (d.instr, d.len, d.line, d.fall, d.target)
        } else {
            match self.code.instr_at(pc) {
                Some(i) => (*i, i.len(), Addr(pc).line().0, NO_IDX, NO_IDX),
                None => {
                    if self.t(tid).spec.is_some() {
                        self.squash(tid);
                        return Ok(());
                    }
                    return Err(StepError::NoInstruction { pc });
                }
            }
        };
        if self.t(tid).last_fetch_line != line {
            self.fetch(tid, line);
        }
        let next = self.execute(tid, &instr, false)?;
        let t = self.t_mut(tid);
        match next {
            Next::Seq => {
                t.pc = pc + len;
                t.pc_idx = fall;
            }
            Next::Jump(dest) => {
                t.pc = dest;
                // Static targets were resolved at decode time; dynamic
                // transfers (`ret`, `call *%reg`) resolve lazily next step.
                t.pc_idx = match instr {
                    Instr::Jmp { target } | Instr::Call { target } if dest == target => target_idx,
                    Instr::Jcc { target, .. } => {
                        if dest == target {
                            target_idx
                        } else {
                            fall
                        }
                    }
                    _ => NO_IDX,
                };
            }
            Next::Stop => {}
        }
        if let Some(spec) = &mut self.t_mut(tid).spec {
            spec.budget = spec.budget.saturating_sub(1);
            spec.wrong_path += 1;
        } else {
            self.t_mut(tid).counters.add(PerfEvent::InstRetired, 1);
        }
        Ok(())
    }

    /// Run up to `max_steps` causally-ordered program steps without leaving
    /// the engine. Each counted step executes one instruction on whichever
    /// runnable thread the causal-order rule picks — the sibling when it is
    /// running and behind `tid`'s clock, `tid` otherwise — which is exactly
    /// the per-instruction decision [`crate::machine::Machine`] historically
    /// made across the crate boundary. Burst execution is therefore
    /// bit-identical for every burst size, including 1.
    ///
    /// Returns the number of steps executed; stops early (without error)
    /// when `tid` leaves the running state.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread.
    pub fn run_burst(&mut self, tid: ThreadId, max_steps: u64) -> Result<u64, StepError> {
        let sib = tid.sibling();
        let mut steps = 0u64;
        if self.t(sib).state != ThreadState::Running {
            // Lone-thread fast loop: nothing inside the burst can wake the
            // sibling (that takes an external start_program/call), so the
            // causal-order check is hoisted out entirely — and with no
            // sibling clock to respect, superblocks get unlimited slack.
            while steps < max_steps && self.t(tid).state == ThreadState::Running {
                let fused = self.try_superblock(tid, max_steps - steps, u64::MAX);
                if fused > 0 {
                    steps += fused;
                    continue;
                }
                self.step(tid)?;
                steps += 1;
            }
            return Ok(steps);
        }
        while steps < max_steps && self.t(tid).state == ThreadState::Running {
            if self.t(sib).state == ThreadState::Running && self.t(sib).clock < self.t(tid).clock {
                // The per-step rule keeps choosing the sibling while its
                // clock stays strictly behind `tid`'s.
                let slack = self.t(tid).clock - self.t(sib).clock - 1;
                let fused = self.try_superblock(sib, max_steps - steps, slack);
                if fused > 0 {
                    steps += fused;
                    continue;
                }
                self.step(sib)?;
            } else {
                // `tid` runs while the sibling is not strictly behind.
                let slack = if self.t(sib).state == ThreadState::Running {
                    self.t(sib).clock - self.t(tid).clock
                } else {
                    u64::MAX
                };
                let fused = self.try_superblock(tid, max_steps - steps, slack);
                if fused > 0 {
                    steps += fused;
                    continue;
                }
                self.step(tid)?;
            }
            steps += 1;
        }
        Ok(steps)
    }

    /// Step the sibling's program until it is no longer strictly behind
    /// `tid`'s clock or stops running — the catch-up per-step execution
    /// runs before every injected instruction, and fused ops at every
    /// instruction boundary where the sibling is behind. The clock
    /// comparison is re-evaluated every step because stepping the sibling
    /// can advance `tid`'s clock too (a machine clear stalls the other
    /// thread).
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from the sibling's program, and fails with
    /// [`StepError::StepLimit`] when the sibling is still behind after
    /// [`STEP_BUDGET`] steps.
    pub fn catch_up_sibling(&mut self, tid: ThreadId) -> Result<(), StepError> {
        let sib = tid.sibling();
        let behind =
            |e: &Engine| e.t(sib).state == ThreadState::Running && e.t(sib).clock < e.t(tid).clock;
        let mut steps = 0u64;
        while steps < STEP_BUDGET && behind(self) {
            // The loop continues only while the sibling's clock stays
            // strictly below `tid`'s; superblock retirement on the sibling
            // may not overshoot that (fused ops never stall `tid`, so its
            // clock is stable across the batch).
            let slack = self.t(tid).clock - self.t(sib).clock - 1;
            let fused = self.try_superblock(sib, STEP_BUDGET - steps, slack);
            if fused > 0 {
                steps += fused;
                continue;
            }
            self.step(sib)?;
            steps += 1;
        }
        if behind(self) {
            return Err(StepError::StepLimit);
        }
        Ok(())
    }

    /// Try to retire a fused superblock on `tid`: up to `max_steps`
    /// instructions of the maximal straight-line fusable run starting at
    /// the current pc, executed with batched clock/counter/noise updates.
    /// Returns the number of instructions retired (0 = conditions not met;
    /// the caller falls back to [`Engine::step`]). A pc inside a counted
    /// loop goes to the loop executor ([`Engine::run_loop`]) instead, under
    /// the same contract.
    ///
    /// **Bit-identity argument.** Fusable micro-ops touch only the owning
    /// thread's registers/ready/flags/clock (see [`MicroOp`]), so batching
    /// them is exact as long as three *external* observation channels stay
    /// silent across the block:
    ///
    /// * **Fetch** happens at exactly the same points as per-step
    ///   execution: once per cache-line segment, guarded by the same
    ///   `last_fetch_line` check. Nothing inside the block can evict code
    ///   lines (no probes, and the noise guard below), so per-segment
    ///   fetch outcomes match the per-step schedule exactly.
    /// * **Noise**: `execute` feeds each instruction's execution cost (never
    ///   fetch cost — `clock0` is taken after fetch) through
    ///   [`NoiseSource::evictions_for`]. The schedule is exactly
    ///   partition-invariant, so one batched call with the block's total
    ///   cost leaves identical RNG/schedule state — provided no eviction
    ///   fires *inside* the block, which the
    ///   [`NoiseSource::cycles_to_next_eviction`] guard enforces by
    ///   truncating the block strictly before the next scheduled eviction.
    /// * **Causal order**: the burst scheduler re-picks a thread before
    ///   every step by clock comparison. `clock_slack` is the number of
    ///   cycles `tid`'s clock may grow *before its last batched
    ///   instruction begins* without changing any of those decisions; the
    ///   worst-case bound (exact exec costs plus worst-case fetch per line
    ///   switch) is truncated against it. Fusable ops never touch the
    ///   sibling, so the slack computed at entry stays valid.
    ///
    /// The run/segment boundaries come from decode-time fusion metadata;
    /// SMC patches keep it current ([`DecodedProgram::patch`] re-fuses on
    /// any fusability or cost change), and probe/branch/speculation
    /// boundaries end runs by construction (those instructions are not
    /// fusable). All guard math is prefix-sum lookups and one binary
    /// search; the executor itself is a branchless-per-op register loop.
    #[inline]
    fn try_superblock(&mut self, tid: ThreadId, max_steps: u64, clock_slack: u64) -> u64 {
        // This prologue is the *failure* fast path: the burst loops call it
        // before every step, and most instructions sit at a control transfer
        // or probe boundary where no fusable run starts. Everything up to the
        // cold call is a handful of loads and compares.
        if self.exec.tier != Tier::Fast {
            return 0;
        }
        let t = &self.threads[tid.index()];
        if t.spec.is_some() || t.pc == RETURN_SENTINEL {
            return 0;
        }
        let idx = match t.pc_idx {
            NO_IDX => {
                let resolved = self.decoded.index_of(t.pc);
                if resolved == NO_IDX {
                    return 0;
                }
                // Cache the hash probe exactly as `step` would, so a
                // rejected attempt does not force `step` to repeat it.
                self.threads[tid.index()].pc_idx = resolved;
                resolved
            }
            cached => cached,
        };
        let member = self.decoded.loop_member(idx);
        if member != NO_LOOP {
            return self.run_loop(tid, member, max_steps, clock_slack);
        }
        let run_end = self.decoded.run_end(idx);
        if u64::from(run_end - idx).min(max_steps) < 2 {
            // A one-instruction "batch" is pure overhead over `step`.
            return 0;
        }
        // Even n = 2 must fit the first instruction's exact exec cost in the
        // slack, plus a worst-case fetch when the block opens on a new line
        // — exactly the clock half of the full guard at n = 2 — so this
        // kills lockstep-tight calls (a sibling catching up a few cycles at
        // a time) before the cold guard's search.
        let opens_line = self.threads[tid.index()].last_fetch_line != self.decoded.get(idx).line;
        let first =
            self.decoded.block_cost(idx, idx + 1) + if opens_line { self.worst_fetch() } else { 0 };
        if clock_slack < first {
            return 0;
        }
        self.superblock_cold(tid, idx, run_end, max_steps, clock_slack)
    }

    /// Worst-case cycles a single line fetch can cost: full iTLB walk plus
    /// a DRAM-serviced instruction fetch.
    #[inline]
    fn worst_fetch(&self) -> u64 {
        self.profile.tlb_walk as u64 + self.hier.config().ifetch_extra_dram as u64
    }

    /// Cold half of [`Engine::try_superblock`]: full guard evaluation and the
    /// batched executor, reached only when a fusable run of ≥ 2 instructions
    /// starts at the current pc and the slack passes the cheap pre-filter.
    #[inline(never)]
    fn superblock_cold(
        &mut self,
        tid: ThreadId,
        idx: u32,
        run_end: u32,
        max_steps: u64,
        clock_slack: u64,
    ) -> u64 {
        let t = &self.threads[tid.index()];
        let avail = u64::from(run_end - idx).min(max_steps);
        let worst_fetch = self.worst_fetch();
        let init_fetch = u64::from(t.last_fetch_line != self.decoded.get(idx).line);
        let noise_budget = self.noise.cycles_to_next_eviction();
        // Predicate: retiring `n` instructions keeps every guard intact.
        // Both guard quantities grow monotonically with `n`, so the largest
        // admissible `n` is found by binary search.
        let ok = |n: u64| {
            let end = idx + n as u32;
            // Strict: the batched `evictions_for(total)` call must return 0.
            if self.decoded.block_cost(idx, end) >= noise_budget {
                return false;
            }
            if clock_slack == u64::MAX {
                return true;
            }
            // Clock growth before the last instruction begins: exact exec
            // costs of the first n−1, pessimistic fetch per line switch.
            let last = end - 1;
            let fetches = init_fetch + u64::from(self.decoded.block_breaks(idx, last));
            let growth = self.decoded.block_cost(idx, last) + worst_fetch * fetches;
            growth <= clock_slack
        };
        let n = if ok(avail) {
            avail
        } else if !ok(2) {
            return 0;
        } else {
            // Largest n in [2, avail] with ok(n): ok(lo) holds, ok(hi+1)
            // fails throughout.
            let (mut lo, mut hi) = (2u64, avail - 1);
            while lo < hi {
                let mid = lo + (hi - lo).div_ceil(2);
                if ok(mid) {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            lo
        };
        let end = idx + n as u32;
        // Execute, one cache-line segment at a time. Segment boundaries
        // are known up front, so the per-line fetches go through the
        // hierarchy's batched multi-line API in groups of up to
        // `FETCH_BATCH` lines — one resolution pass over the group — with
        // each segment's fetch cost charged at its boundary, exactly where
        // per-step execution charges it, before the tight register loop
        // over the segment's micro-ops runs with the clock in a local.
        // (Micro-ops touch only regs/flags/clock, never the hierarchy,
        // TLBs or counters, so hoisting the group's fetch effects ahead of
        // the intervening micro-ops is unobservable; the deferred clock
        // charge is what keeps the ready-stamp math bit-identical.)
        const FETCH_BATCH: usize = 8;
        let mut seg = idx;
        while seg < end {
            let mut seg_ends = [0u32; FETCH_BATCH];
            let mut lines = [0u64; FETCH_BATCH];
            let mut n_seg = 0usize;
            let mut s = seg;
            while s < end && n_seg < FETCH_BATCH {
                seg_ends[n_seg] = self.decoded.line_end(s).min(end);
                lines[n_seg] = self.decoded.get(s).line;
                s = seg_ends[n_seg];
                n_seg += 1;
            }
            // Lines strictly increase across a straight-line run, so only
            // the group's first segment can already be streaming.
            let skip = usize::from(self.threads[tid.index()].last_fetch_line == lines[0]);
            let mut infos = [COLD_ACCESS; FETCH_BATCH];
            self.hier.fetch_lines(&lines[skip..n_seg], &mut infos[skip..n_seg]);
            let mut costs = [0u64; FETCH_BATCH];
            for j in skip..n_seg {
                costs[j] = self.fetch_effects(tid, lines[j], infos[j]);
            }
            for (j, &seg_end) in seg_ends.iter().enumerate().take(n_seg) {
                let ops = self.decoded.micro_slice(seg, seg_end);
                let t = &mut self.threads[tid.index()];
                t.clock += costs[j];
                let mut clock = t.clock;
                for op in ops {
                    match *op {
                        MicroOp::Nop => clock += 1,
                        MicroOp::MovImm { dst, imm } => {
                            let d = usize::from(dst & 0xf);
                            clock += 1;
                            t.regs[d] = imm;
                            t.ready[d] = clock;
                        }
                        MicroOp::Mov { dst, src } => {
                            let d = usize::from(dst & 0xf);
                            let s = usize::from(src & 0xf);
                            clock += 1;
                            t.regs[d] = t.regs[s];
                            t.ready[d] = clock.max(t.ready[s]);
                        }
                        MicroOp::Add { dst, src } => {
                            let d = usize::from(dst & 0xf);
                            let s = usize::from(src & 0xf);
                            clock += 1;
                            t.regs[d] = t.regs[d].wrapping_add(t.regs[s]);
                            t.ready[d] = clock.max(t.ready[d]).max(t.ready[s]);
                        }
                        MicroOp::AddImm { dst, imm } => {
                            let d = usize::from(dst & 0xf);
                            clock += 1;
                            t.regs[d] = t.regs[d].wrapping_add(imm);
                            t.ready[d] = clock.max(t.ready[d]);
                        }
                        MicroOp::Sub { dst, src } => {
                            let d = usize::from(dst & 0xf);
                            let s = usize::from(src & 0xf);
                            clock += 1;
                            t.regs[d] = t.regs[d].wrapping_sub(t.regs[s]);
                            t.ready[d] = clock.max(t.ready[d]).max(t.ready[s]);
                        }
                        MicroOp::Mul { dst, src } => {
                            let d = usize::from(dst & 0xf);
                            let s = usize::from(src & 0xf);
                            clock += 3;
                            t.regs[d] = t.regs[d].wrapping_mul(t.regs[s]);
                            t.ready[d] = clock.max(t.ready[d]).max(t.ready[s]);
                        }
                        MicroOp::And { dst, src } => {
                            let d = usize::from(dst & 0xf);
                            let s = usize::from(src & 0xf);
                            clock += 1;
                            t.regs[d] &= t.regs[s];
                            t.ready[d] = clock.max(t.ready[d]).max(t.ready[s]);
                        }
                        MicroOp::Or { dst, src } => {
                            let d = usize::from(dst & 0xf);
                            let s = usize::from(src & 0xf);
                            clock += 1;
                            t.regs[d] |= t.regs[s];
                            t.ready[d] = clock.max(t.ready[d]).max(t.ready[s]);
                        }
                        MicroOp::Xor { dst, src } => {
                            let d = usize::from(dst & 0xf);
                            let s = usize::from(src & 0xf);
                            clock += 1;
                            t.regs[d] ^= t.regs[s];
                            t.ready[d] = clock.max(t.ready[d]).max(t.ready[s]);
                        }
                        MicroOp::ShlImm { dst, amount } => {
                            let d = usize::from(dst & 0xf);
                            clock += 1;
                            t.regs[d] = t.regs[d].wrapping_shl(amount);
                            t.ready[d] = clock.max(t.ready[d]);
                        }
                        MicroOp::ShrImm { dst, amount } => {
                            let d = usize::from(dst & 0xf);
                            clock += 1;
                            t.regs[d] = t.regs[d].wrapping_shr(amount);
                            t.ready[d] = clock.max(t.ready[d]);
                        }
                        MicroOp::Cmp { a, b } => {
                            let ia = usize::from(a & 0xf);
                            let ib = usize::from(b & 0xf);
                            clock += 1;
                            t.flags = Flags::compare(t.regs[ia], t.regs[ib]);
                            t.flags_ready = clock.max(t.ready[ia]).max(t.ready[ib]);
                        }
                        MicroOp::CmpImm { a, imm } => {
                            let ia = usize::from(a & 0xf);
                            clock += 1;
                            t.flags = Flags::compare(t.regs[ia], imm);
                            t.flags_ready = clock.max(t.ready[ia]);
                        }
                        MicroOp::Delay { cycles } => clock += cycles,
                        MicroOp::NotFused => unreachable!("inside a fused run"),
                    }
                }
                t.clock = clock;
                seg = seg_end;
            }
        }
        // Batched retire: pc/pc_idx from the last instruction's successor
        // links, one counter update, one noise-schedule advance (which the
        // guard proved emits nothing — but the schedule must still move).
        let last = self.decoded.get(end - 1);
        let t = &mut self.threads[tid.index()];
        t.pc = last.pc + last.len;
        t.pc_idx = last.fall;
        t.counters.add(PerfEvent::InstRetired, n);
        let evictions = self.noise.evictions_for(self.decoded.block_cost(idx, end));
        debug_assert_eq!(evictions, 0, "noise guard must stop the block before an eviction");
        n
    }

    /// The counted-loop executor: retire slots of the
    /// [`crate::decoded::CountedLoop`] that `member` (a
    /// [`DecodedProgram::loop_member`] entry) names, starting at its slot,
    /// under the same `max_steps` / `clock_slack` contract as
    /// [`Engine::try_superblock`]. Returns the number of instructions
    /// retired; 0 leaves the slot to [`Engine::step`]. Out of line, like
    /// [`Engine::superblock_cold`], so the step loops' code stays as it was
    /// for programs without counted loops.
    ///
    /// **Per-slot path.** Each slot has exactly `step`'s effects: the real
    /// [`Engine::fetch`] on a line switch, the register, ready-stamp and
    /// flags updates of its `execute` arm, and for the `je` the predictor
    /// update and `BrInstRetired`. The loop stops, leaving the slot to
    /// `step`, before a slot that would begin past the causal slack, past
    /// the step budget, at a `je` that exits the loop or that the
    /// predictor calls taken (a misprediction), or whose cost would reach
    /// the next scheduled noise eviction. Nothing else draws from the
    /// noise source inside the span, so the per-slot draws collapse into
    /// one provably empty draw at the end (partition invariance, as in
    /// [`Engine::charge`]).
    ///
    /// **Closed form.** At the head, [`Engine::loop_iterations`] may admit
    /// `k` whole iterations, retired by [`Engine::retire_iterations`].
    #[inline(never)]
    fn run_loop(&mut self, tid: ThreadId, member: u32, max_steps: u64, clock_slack: u64) -> u64 {
        let id = member >> 3;
        let mut s = (member & 7) as usize;
        let lp = self.decoded.counted_loop(id);
        let (n, add, je) = (usize::from(lp.len), usize::from(lp.add), lp.je());
        let (r, je_pc) = (usize::from(lp.counter), lp.pcs[je]);
        let ti = tid.index();
        // A slot may begin while the thread clock is at most `limit`.
        let limit = self.threads[ti].clock.saturating_add(clock_slack);
        let noise_budget = self.noise.cycles_to_next_eviction();
        let mut debt = 0u64;
        let mut done = 0u64;
        while done < max_steps && self.threads[ti].clock <= limit {
            if s == 0 {
                let k = self.loop_iterations(tid, id, limit, noise_budget - debt, max_steps - done);
                if k > 0 {
                    debt += self.retire_iterations(tid, id, k);
                    done += k * n as u64;
                    continue;
                }
            }
            let lp = self.decoded.counted_loop(id);
            let (cost, line) = (lp.costs[s], lp.line(s));
            if debt + cost >= noise_budget {
                break;
            }
            if s == je {
                if self.threads[ti].flags.eq || self.bpu.predict(je_pc) {
                    break;
                }
                self.bpu.update(je_pc, false);
                self.threads[ti].counters.add(PerfEvent::BrInstRetired, 1);
            }
            if self.threads[ti].last_fetch_line != line {
                self.fetch(tid, line);
            }
            let t = &mut self.threads[ti];
            if s == add {
                t.regs[r] = t.regs[r].wrapping_sub(1);
                t.ready[r] = (t.clock + 1).max(t.ready[r]);
            } else if s == add + 1 {
                t.flags = Flags::compare(t.regs[r], 0);
                t.flags_ready = (t.clock + 1).max(t.ready[r]);
            }
            t.clock += cost;
            debt += cost;
            done += 1;
            s = if s + 1 == n { 0 } else { s + 1 };
        }
        if done == 0 {
            return 0;
        }
        let lp = self.decoded.counted_loop(id);
        let (pc, pc_idx) = (lp.pcs[s], lp.slots[s]);
        let t = &mut self.threads[ti];
        t.pc = pc;
        t.pc_idx = pc_idx;
        t.counters.add(PerfEvent::InstRetired, done);
        t.counters.add(PerfEvent::SimLoopFused, done);
        let evictions = self.noise.evictions_for(debt);
        debug_assert_eq!(evictions, 0, "the loop stops before a noise crossing");
        done
    }

    /// How many whole iterations of loop `id` the closed form may retire
    /// from its head now: the largest `k` that keeps the exit iteration,
    /// the causal `limit`, the `noise_left` budget and `steps_left` out of
    /// reach, or 0 (also for `k` = 1, where the closed form saves
    /// nothing) unless every iteration provably repeats one schedule:
    ///
    /// * the counter is ready (`ready[r] ≤ clock`), so each decrement,
    ///   compare and `je` resolves at a fixed offset into its iteration;
    /// * the predictor calls the `je` not-taken, and stays so while it
    ///   is trained not-taken;
    /// * the front end stands at the steady state (`last_fetch_line` is
    ///   the last slot's line), and each line the iteration fetches is a
    ///   zero-cost iTLB and L1i hit whose fetch only re-stamps LRU state
    ///   ([`CacheHierarchy::fetch_is_stamp_only`]) — so one iteration's
    ///   fetch sequence leaves every set's and the iTLB's recency order as
    ///   `k` would;
    /// * no fetch log is recording (it would record `k` copies).
    fn loop_iterations(
        &self,
        tid: ThreadId,
        id: u32,
        limit: u64,
        noise_left: u64,
        steps_left: u64,
    ) -> u64 {
        let lp = self.decoded.counted_loop(id);
        let t = &self.threads[tid.index()];
        let (n, r) = (usize::from(lp.len), usize::from(lp.counter));
        if t.ready[r] > t.clock
            || t.last_fetch_line != lp.line(n - 1)
            || self.fetch_log.is_some()
            || self.bpu.predict(lp.pcs[lp.je()])
        {
            return 0;
        }
        let c = lp.iter_cost;
        // Iteration `k`'s last slot begins at `clock + k·c − costs[n−1]`.
        let k = t.regs[r]
            .wrapping_sub(1)
            .min((noise_left - 1) / c)
            .min(steps_left / n as u64)
            .min((limit - t.clock).saturating_add(lp.costs[n - 1]) / c);
        if k < 2 {
            return 0;
        }
        let quiet = (0..n).filter(|s| lp.fetch_mask & (1 << s) != 0).all(|s| {
            let line = Addr(lp.line(s));
            self.itlb[tid.index()].contains(line) && self.hier.fetch_is_stamp_only(line)
        });
        if quiet {
            k
        } else {
            0
        }
    }

    /// Retire `k` whole iterations of loop `id` from its head in closed
    /// form (preconditions: [`Engine::loop_iterations`]): one iteration's
    /// real fetch sequence, the fetch-window ring as `k` iterations leave
    /// it, `clock += k·c`, `r −= k`, the ready stamp and flags of the last
    /// iteration's decrement and compare, `BrInstRetired += k` and the
    /// `je`'s predictor counter trained not-taken. Returns the
    /// execution cycles for the caller's noise debt; the caller counts
    /// the `k·len` retired instructions.
    fn retire_iterations(&mut self, tid: ThreadId, id: u32, k: u64) -> u64 {
        let lp = self.decoded.counted_loop(id);
        let (n, r, c) = (usize::from(lp.len), usize::from(lp.counter), lp.iter_cost);
        let (je_pc, prefix) = (lp.pcs[lp.je()], lp.prefix_cost());
        let mut lines = [0u64; LOOP_MAX_SLOTS];
        let mut f = 0;
        for s in (0..n).filter(|s| lp.fetch_mask & (1 << s) != 0) {
            lines[f] = lp.line(s);
            f += 1;
        }
        let mut infos = [COLD_ACCESS; LOOP_MAX_SLOTS];
        self.hier.fetch_lines(&lines[..f], &mut infos[..f]);
        for j in 0..f {
            let cost = self.fetch_effects(tid, lines[j], infos[j]);
            debug_assert_eq!(cost, 0, "closed-form fetches are free");
        }
        let t = &mut self.threads[tid.index()];
        if f > 0 {
            // The `(k − 1)·f` further pushes: only the last `FETCH_WINDOW`
            // land in the ring.
            let (w, f) = (FETCH_WINDOW as u64, f as u64);
            let (next, extra) = (t.fetch_window_next as u64, (k - 1) * f);
            for p in extra.saturating_sub(w)..extra {
                t.fetch_window[((next + p % w) % w) as usize] = lines[(p % f) as usize];
            }
            t.fetch_window_next = ((next + extra % w) % w) as usize;
        }
        let start = t.clock;
        t.regs[r] = t.regs[r].wrapping_sub(k);
        t.ready[r] = start + (k - 1) * c + prefix + 1;
        t.flags = Flags::compare(t.regs[r], 0);
        t.flags_ready = t.ready[r] + 1;
        t.clock = start + k * c;
        t.counters.add(PerfEvent::BrInstRetired, k);
        // The 2-bit counter predicts not-taken, so it is at most 1: one
        // not-taken update saturates it at 0, as `k` updates would.
        self.bpu.update(je_pc, false);
        k * c
    }

    /// Execute one injected instruction (attacker-style straight-line code;
    /// no fetch modeling for the injected code itself).
    ///
    /// # Errors
    ///
    /// Fails for branch instructions, unsupported probe classes and
    /// non-idle threads.
    pub fn exec_injected(
        &mut self,
        tid: ThreadId,
        instr: &Instr,
    ) -> Result<InjectedNext, StepError> {
        if self.t(tid).state == ThreadState::Running {
            return Err(StepError::NotRunning { tid });
        }
        // Injected attacker code executes from elsewhere: the front-end is
        // no longer streaming whatever program line was fetched last, so a
        // subsequent call re-checks the L1i like real re-entry would.
        self.t_mut(tid).last_fetch_line = u64::MAX;
        match instr {
            Instr::Jmp { .. } | Instr::Jcc { .. } => Err(StepError::ControlFlowInjected),
            Instr::Call { target } => Ok(InjectedNext::EnterCall { target: *target }),
            Instr::CallReg { target } => {
                let t = self.reg(tid, *target);
                Ok(InjectedNext::EnterCall { target: t })
            }
            _ => {
                self.t_mut(tid).counters.add(PerfEvent::InstRetired, 1);
                self.execute(tid, instr, true)?;
                Ok(InjectedNext::Done)
            }
        }
    }

    /// The guard every fused entry shares: the [`Tier::Fast`] tier, `tid`
    /// idle (it runs injected attacker code), no live speculation on it,
    /// and neither tracing nor fetch logging (both observe per-step
    /// execution). A running sibling is no reason to refuse: fused ops
    /// interleave it exactly as per-step execution does (see
    /// [`Engine::sync_sibling`]).
    fn fusable(&self, tid: ThreadId) -> bool {
        let t = self.t(tid);
        self.exec.tier == Tier::Fast
            && t.state != ThreadState::Running
            && t.spec.is_none()
            && !self.tracer.is_enabled()
            && self.fetch_log.is_none()
    }

    /// Count a refused fused attempt; the caller runs it per-step.
    fn refuse<T>(&mut self, tid: ThreadId) -> Option<T> {
        self.t_mut(tid).counters.add(PerfEvent::SimProbeFallback, 1);
        None
    }

    /// Count `n` fused attempts and report the op's outcome since `start`.
    fn fused_done(&mut self, tid: ThreadId, start: u64, n: u64) -> SeqOutcome {
        let t = self.t_mut(tid);
        t.counters.add(PerfEvent::SimProbeFastPath, n);
        SeqOutcome { cycles: t.clock - start, end_clock: t.clock }
    }

    /// An instruction boundary of a fused op. When the sibling is running
    /// and strictly behind `tid` — exactly when per-step execution would
    /// step the sibling next ([`Engine::catch_up_sibling`] before each
    /// injected instruction, [`Engine::run_burst`]'s causal pick inside a
    /// call) — settle the deferred noise draw so the sibling's draws see
    /// the schedule per-step execution leaves, then run that same
    /// catch-up. Otherwise this is a no-op and the fused op runs on: the
    /// sibling's clock is the horizon.
    #[inline]
    fn sync_sibling(&mut self, tid: ThreadId, debt: &mut u64) -> Result<(), StepError> {
        let sib = self.t(tid.sibling());
        if sib.state == ThreadState::Running && sib.clock < self.t(tid).clock {
            self.settle(debt);
            self.catch_up_sibling(tid)?;
        }
        Ok(())
    }

    /// Retire a whole compiled probe sequence in one specialized pass: the
    /// fused probe tier. Returns `None` (after bumping `SimProbeFallback`)
    /// when a guard, or an `Execute` probe's callee shape, requires
    /// per-step execution — the caller then injects `probe.instrs()` one
    /// instruction at a time — and `Some(outcome)` with the same
    /// `SeqOutcome` per-step injection would have produced.
    ///
    /// Bit-identical to per-step injection by construction: each
    /// instruction is replicated from the corresponding `execute` arm
    /// (same cost formulas, counter bumps, hierarchy calls and noise-draw
    /// order; the equivalence proptests lock this), and a running sibling
    /// is caught up at exactly the boundaries where per-step execution
    /// catches it up ([`Engine::sync_sibling`]). What fusion saves is the
    /// per-instruction machine/engine round trip — injected-state checks,
    /// the outer dispatch, per-step decoding of an `Execute` probe's
    /// callee — and, between sibling steps, the eviction draws of
    /// instructions that provably fire none ([`Engine::charge`]).
    ///
    /// Guards: see [`Engine::fusable`]. There is no pending-SMC state to
    /// guard separately: a probe whose store/flush conflicts with the
    /// front-end takes the machine clear *inside* `probe_effects`,
    /// identically on both paths.
    ///
    /// # Errors
    ///
    /// `Some(Err(_))` propagates the middle operation's error (e.g. an
    /// [`StepError::Unsupported`] probe class) or the sibling's, with the
    /// same partial state per-step execution leaves behind.
    pub fn run_fused_probe(
        &mut self,
        tid: ThreadId,
        probe: &CompiledProbe,
    ) -> Option<Result<SeqOutcome, StepError>> {
        if !self.fusable(tid) {
            return self.refuse(tid);
        }
        let call = match probe.op {
            Instr::CallReg { target } => {
                let dest = self.reg(tid, target);
                match self.call_shape(dest) {
                    Some(shape) => Some((dest, shape)),
                    None => return self.refuse(tid),
                }
            }
            _ => None,
        };
        let start = self.t(tid).clock;
        let mut debt = 0;
        let res = self.fused_probe_body(tid, probe, call, &mut debt);
        self.settle(&mut debt);
        Some(res.map(|()| self.fused_done(tid, start, 1)))
    }

    /// The five instructions of [`Engine::run_fused_probe`], each preceded
    /// by its sibling sync point, plus the one after the last. An
    /// `Execute` probe's `call *reg` retires nothing itself; its callee's
    /// body runs in its place.
    fn fused_probe_body(
        &mut self,
        tid: ThreadId,
        probe: &CompiledProbe,
        call: Option<(u64, CallShape)>,
        debt: &mut u64,
    ) -> Result<(), StepError> {
        self.sync_sibling(tid, debt)?;
        self.fused_mfence(tid, debt);
        self.sync_sibling(tid, debt)?;
        self.fused_rdtsc(tid, probe.t_start, debt);
        match call {
            Some((target, shape)) => self.fused_call_body(tid, target, shape, debt)?,
            None => {
                self.sync_sibling(tid, debt)?;
                self.fused_probe_op(tid, &probe.op, debt)?;
            }
        }
        self.sync_sibling(tid, debt)?;
        self.fused_mfence(tid, debt);
        self.sync_sibling(tid, debt)?;
        self.fused_rdtsc(tid, probe.t_end, debt);
        self.sync_sibling(tid, debt)
    }

    /// Skip `cycles` idle cycles in batched updates — the fused
    /// replacement for injecting [`DELAY_CHUNK`]-cycle `Delay` chunks.
    /// Returns `None` (caller falls back to per-step chunking) when a
    /// guard refuses (see [`Engine::fusable`]).
    ///
    /// Equivalent to the per-step path by construction: the chunks that
    /// start while the sibling is idle or not behind `tid` need no
    /// catch-up between them, so they retire as one batch — `Delay` draws
    /// no `rdtsc` jitter, `evictions_for` is exactly partition-invariant,
    /// and nothing observes state between those chunks. The sibling is
    /// caught up before each batch and after the last, where per-step
    /// execution catches it up.
    ///
    /// # Errors
    ///
    /// `Some(Err(_))` propagates the sibling's errors.
    pub fn advance_idle(&mut self, tid: ThreadId, cycles: u64) -> Option<Result<(), StepError>> {
        self.fusable(tid).then(|| self.fused_advance(tid, cycles))
    }

    fn fused_advance(&mut self, tid: ThreadId, cycles: u64) -> Result<(), StepError> {
        const CHUNK: u64 = DELAY_CHUNK as u64;
        // `fused_retire` draws each batch's evictions at once: no debt.
        let debt = &mut 0;
        let mut left = cycles;
        while left > 0 {
            self.sync_sibling(tid, debt)?;
            // Chunk `j` of the batch starts `j * CHUNK` cycles in; it needs
            // no catch-up while that start is not past the sibling's clock.
            let sib = self.t(tid.sibling());
            let horizon = match sib.state {
                ThreadState::Running => sib.clock - self.t(tid).clock,
                _ => u64::MAX,
            };
            let chunks = left.div_ceil(CHUNK).min(horizon / CHUNK + 1);
            let run = left.min(chunks.saturating_mul(CHUNK));
            let t = self.t_mut(tid);
            t.last_fetch_line = u64::MAX;
            t.counters.add(PerfEvent::InstRetired, chunks);
            self.fused_retire(tid, run);
            left -= run;
        }
        self.sync_sibling(tid, debt)
    }

    /// Retire an injected `call` of an attacker-owned one-line `nop*; ret`
    /// routine in one fused pass — the shape of every eviction-set way and
    /// oracle line, whose priming calls dominate a covert-channel trial's
    /// injected-instruction count: a one-target [`Engine::run_fused_calls`].
    /// Returns `None` (after bumping `SimProbeFallback`) when a guard or
    /// the callee's shape requires per-step execution; the caller then
    /// injects the `call` normally.
    ///
    /// Bit-identical to per-step injection by construction:
    ///
    /// * The injected `Call` itself retires nothing and charges nothing
    ///   (`exec_injected` returns `EnterCall` before reaching `execute`), and
    ///   the return sentinel push/pop nets out; the thread ends idle with
    ///   `pc`/`pc_idx` parked at the `ret` — the exact per-step end state.
    /// * The callee line is fetched through the same hierarchy calls and
    ///   `fetch_effects` the per-step path uses, whenever `last_fetch_line`
    ///   says per-step would (once, unless a sibling machine clear resets
    ///   the front end mid-call), so iTLB, fetch-window, hit-level counter
    ///   and stall effects match.
    /// * `nop` (cost 1) and `ret` (cost 2, sentinel pop) draw no `rdtsc`
    ///   jitter, and a running sibling is synced before every one of them
    ///   ([`Engine::fused_call_body`]).
    ///
    /// # Errors
    ///
    /// `Some(Err(_))` propagates the sibling's errors.
    pub fn run_fused_call(
        &mut self,
        tid: ThreadId,
        target: u64,
    ) -> Option<Result<SeqOutcome, StepError>> {
        self.run_fused_calls(tid, std::slice::from_ref(&target)).or_else(|| self.refuse(tid))
    }

    /// Retire a batch of injected calls to attacker-owned one-line
    /// `nop*; ret` routines in one fused pass (see
    /// [`Engine::run_fused_call`]) — `EvictionSet::prime`'s eight
    /// way-calls land here as a single engine entry instead of eight.
    /// Returns `None` (with *no* counter side effects) when a guard
    /// refuses or any callee's shape is not fusable; the caller then runs
    /// the calls one at a time, each of which may still fuse individually
    /// and counts its own fast-path or fallback event.
    ///
    /// When no sibling step can happen inside the batch and the noise
    /// schedule fires no eviction in it, the calls retire with one batched
    /// `fetch_lines` and one coalesced eviction draw: consecutive injected
    /// calls execute back-to-back with nothing observing thread state
    /// between them, the per-call hierarchy fetches keep their order
    /// (retirements between them touch no hierarchy state), and the
    /// per-call draws, jitter-free and provably zero, collapse into one by
    /// partition invariance. Otherwise each call runs
    /// [`Engine::fused_call_body`] with its sibling sync points.
    ///
    /// # Errors
    ///
    /// `Some(Err(_))` propagates the sibling's errors.
    pub fn run_fused_calls(
        &mut self,
        tid: ThreadId,
        targets: &[u64],
    ) -> Option<Result<SeqOutcome, StepError>> {
        if targets.is_empty() || targets.len() > CALL_BATCH_MAX || !self.fusable(tid) {
            return None;
        }
        let n = targets.len();
        let mut shapes = [(0u64, 0u64, 0u32); CALL_BATCH_MAX];
        for (slot, &target) in shapes.iter_mut().zip(targets) {
            *slot = self.call_shape(target)?;
        }
        let shapes = &shapes[..n];
        let start = self.t(tid).clock;
        // No sibling step can happen inside the batch when the sibling is
        // idle, or ahead of the batch's worst-case end clock.
        let sib = self.t(tid.sibling());
        let unsynced = sib.state != ThreadState::Running || {
            let worst: u64 = shapes.iter().map(|s| self.worst_fetch() + s.0 + 2).sum();
            sib.clock.saturating_sub(start) >= worst
        };
        if unsynced && self.fused_calls_batched(tid, targets, shapes) {
            return Some(Ok(self.fused_done(tid, start, n as u64)));
        }
        let mut debt = 0;
        let res = targets
            .iter()
            .zip(shapes)
            .try_for_each(|(&target, &shape)| self.fused_call_body(tid, target, shape, &mut debt))
            .and_then(|()| self.sync_sibling(tid, &mut debt));
        self.settle(&mut debt);
        Some(res.map(|()| self.fused_done(tid, start, n as u64)))
    }

    /// The batched half of [`Engine::run_fused_calls`]: returns `false`,
    /// touching nothing, when the noise schedule could fire an eviction
    /// inside the batch.
    fn fused_calls_batched(
        &mut self,
        tid: ThreadId,
        targets: &[u64],
        shapes: &[CallShape],
    ) -> bool {
        let n = targets.len();
        let sum_instr: u64 = shapes.iter().map(|s| s.0 + 2).sum();
        if sum_instr >= self.noise.cycles_to_next_eviction() {
            return false;
        }
        let mut lines = [0u64; CALL_BATCH_MAX];
        for (line, &target) in lines.iter_mut().zip(targets) {
            *line = Addr(target).line().0;
        }
        let mut infos = [COLD_ACCESS; CALL_BATCH_MAX];
        self.hier.fetch_lines(&lines[..n], &mut infos[..n]);
        for i in 0..n {
            let fetch_cost = self.fetch_effects(tid, lines[i], infos[i]);
            let nops = shapes[i].0;
            let t = self.t_mut(tid);
            t.clock += fetch_cost + nops + 2;
            t.counters.add(PerfEvent::InstRetired, nops + 1);
        }
        let (_, ret_pc, ret_idx) = shapes[n - 1];
        let t = self.t_mut(tid);
        t.pc = ret_pc;
        t.pc_idx = ret_idx;
        // Provably zero evictions; the one call advances the schedule
        // exactly as the per-call draws would.
        let _ = self.noise.evictions_for(sum_instr);
        true
    }

    /// Retire one injected call to a `nop*; ret` routine of `shape`
    /// instruction by instruction: the per-step path's catch-up before the
    /// injected `call`, then `begin_injected_call` + `drive_to_idle`,
    /// whose burst loop makes the same causal pick — a sibling sync point
    /// — before every callee step. On a sibling error mid-call the thread
    /// is left with the call in flight, exactly as per-step execution
    /// leaves it.
    fn fused_call_body(
        &mut self,
        tid: ThreadId,
        target: u64,
        (nops, ret_pc, ret_idx): CallShape,
        debt: &mut u64,
    ) -> Result<(), StepError> {
        self.sync_sibling(tid, debt)?;
        // The `call` retires nothing; it only makes the front end refetch
        // (see `exec_injected`).
        self.t_mut(tid).last_fetch_line = u64::MAX;
        let line = Addr(target).line().0;
        for i in 0..=nops {
            if let Err(e) = self.sync_sibling(tid, debt) {
                let t = self.t_mut(tid);
                t.state = ThreadState::Running;
                t.stack.push(RETURN_SENTINEL);
                t.pc = target + i * Instr::Nop.len();
                t.pc_idx = NO_IDX;
                return Err(e);
            }
            if self.t(tid).last_fetch_line != line {
                self.fetch(tid, line);
            }
            self.t_mut(tid).counters.add(PerfEvent::InstRetired, 1);
            // `nop` costs one cycle, the sentinel-popping `ret` two.
            self.charge(tid, if i < nops { 1 } else { 2 }, debt);
        }
        let t = self.t_mut(tid);
        t.pc = ret_pc;
        t.pc_idx = ret_idx;
        Ok(())
    }

    /// Resolve (and memoize) the fused-call shape of the routine at
    /// `target`: `Some((nops, ret_pc, ret_idx))` when the callee is
    /// `nop*; ret` entirely on its entry line, `None` for anything else —
    /// other opcodes, a line crossing, a decode hole left by a corrupting
    /// probe. Negative results are not memoized (they fall back to
    /// per-step execution, where one redundant walk is noise).
    fn call_shape(&mut self, target: u64) -> Option<CallShape> {
        if self.call_shapes_gen != self.decode_gen {
            self.call_shapes = [EMPTY_SHAPE; CALL_SHAPE_SLOTS];
            self.call_shapes_gen = self.decode_gen;
        }
        let slot = (target.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58) as usize;
        let (t, nops, ret_pc, ret_idx) = self.call_shapes[slot];
        if t == target {
            return Some((nops, ret_pc, ret_idx));
        }
        let line = Addr(target).line().0;
        let shape = 'walk: {
            let mut idx = self.decoded.index_of(target);
            let mut nops = 0u64;
            let mut ret_pc = target;
            loop {
                if idx == NO_IDX {
                    break 'walk None;
                }
                let d = self.decoded.get(idx);
                if d.line != line {
                    break 'walk None;
                }
                match d.instr {
                    Instr::Nop => {
                        nops += 1;
                        ret_pc += d.len;
                        idx = d.fall;
                    }
                    Instr::Ret => break 'walk Some((nops, ret_pc, idx)),
                    _ => break 'walk None,
                }
            }
        };
        let (nops, ret_pc, ret_idx) = shape?;
        self.call_shapes[slot] = (target, nops, ret_pc, ret_idx);
        Some((nops, ret_pc, ret_idx))
    }

    /// Fused-tier `mfence`: the `execute` arm plus the injected-retirement
    /// bookkeeping of `exec_injected`.
    fn fused_mfence(&mut self, tid: ThreadId, debt: &mut u64) {
        let mfence_cost = self.profile.mfence_cost as u64;
        let t = self.t_mut(tid);
        t.last_fetch_line = u64::MAX;
        t.counters.add(PerfEvent::InstRetired, 1);
        let wait = t.pending_mem.saturating_sub(t.clock);
        if wait > 0 {
            t.counters.add(PerfEvent::CycleActivityStallsTotal, wait);
        }
        self.charge(tid, wait + mfence_cost, debt);
    }

    /// Fused-tier `rdtsc`. The jitter draw happens before the retire's
    /// eviction draw, matching per-step RNG order.
    fn fused_rdtsc(&mut self, tid: ThreadId, dst: Reg, debt: &mut u64) {
        let cost = self.profile.rdtsc_cost as u64;
        let res = self.profile.tsc_resolution as u64;
        let jitter = self.noise.jitter();
        let t = self.t_mut(tid);
        t.counters.add(PerfEvent::InstRetired, 1);
        let clock0 = t.clock;
        let raw = (clock0 + cost).saturating_add_signed(jitter);
        t.regs[dst.index()] = (raw / res) * res;
        t.ready[dst.index()] = clock0 + cost;
        self.charge(tid, cost, debt);
    }

    /// Fused-tier timed middle operation: each arm replicates the
    /// non-speculative branch of the corresponding `execute` arm (fusion
    /// guards guarantee `spec.is_none()`). On error the partial state
    /// (retire counter, dTLB fills) matches per-step execution — the
    /// clock/noise epilogue is skipped exactly like `execute`'s early return.
    /// The `Execute` probe's call never gets here (see
    /// [`Engine::fused_call_body`]).
    fn fused_probe_op(
        &mut self,
        tid: ThreadId,
        op: &Instr,
        debt: &mut u64,
    ) -> Result<(), StepError> {
        self.t_mut(tid).counters.add(PerfEvent::InstRetired, 1);
        let clock0 = self.t(tid).clock;
        let mut cost: u64 = 1;
        match op {
            Instr::Load { dst, mem, size } => {
                let addr = self.mem_addr(tid, *mem);
                cost += self.dtlb_cost(tid, addr);
                let info = self.hier.read(addr.line());
                self.count_data_level(tid, info.level);
                let val = self.read_mem_value(addr, *size);
                let t = self.t_mut(tid);
                t.regs[dst.index()] = val;
                let done = (clock0 + cost).max(t.ready[mem.base.index()]) + info.latency as u64;
                t.ready[dst.index()] = done;
                t.pending_mem = t.pending_mem.max(done);
            }
            Instr::StoreImm { mem, imm } => {
                let addr = self.mem_addr(tid, *mem);
                cost += self.dtlb_cost(tid, addr);
                let res = self.hier.residency(addr.line());
                let (_fired, c) = self.probe_effects(tid, ProbeKind::Store, addr.line(), res)?;
                self.count_data_level(tid, res.data_level());
                self.hier.write_resident(addr.line(), res);
                self.write_mem_value(addr, *imm as u64, MemSize::Byte);
                cost += c;
            }
            Instr::LockInc { mem } => {
                let addr = self.mem_addr(tid, *mem);
                let t = self.t_mut(tid);
                let wait = t.pending_mem.saturating_sub(t.clock);
                cost += wait;
                cost += self.dtlb_cost(tid, addr);
                let res = self.hier.residency(addr.line());
                let (_fired, c) = self.probe_effects(tid, ProbeKind::Lock, addr.line(), res)?;
                self.count_data_level(tid, res.data_level());
                self.hier.write_resident(addr.line(), res);
                let val = self.mem.read_u8(addr).wrapping_add(1);
                self.mem.write_u8(addr, val);
                cost += c;
            }
            Instr::Clflush { mem } | Instr::Clflushopt { mem } => {
                let kind = if matches!(op, Instr::Clflush { .. }) {
                    ProbeKind::Flush
                } else {
                    ProbeKind::FlushOpt
                };
                let addr = self.mem_addr(tid, *mem);
                cost += self.dtlb_cost(tid, addr);
                let res = self.hier.residency(addr.line());
                let (_fired, c) = self.probe_effects(tid, kind, addr.line(), res)?;
                self.hier.flush(addr.line());
                cost += c;
            }
            Instr::Clwb { mem } => {
                let addr = self.mem_addr(tid, *mem);
                cost += self.dtlb_cost(tid, addr);
                let res = self.hier.residency(addr.line());
                let (_fired, c) = self.probe_effects(tid, ProbeKind::Clwb, addr.line(), res)?;
                self.hier.writeback(addr.line());
                cost += c;
            }
            Instr::PrefetchT0 { mem } | Instr::PrefetchNta { mem } => {
                let kind = if matches!(op, Instr::PrefetchT0 { .. }) {
                    ProbeKind::Prefetch
                } else {
                    ProbeKind::PrefetchNta
                };
                let addr = self.mem_addr(tid, *mem);
                cost += self.dtlb_cost(tid, addr);
                let res = self.hier.residency(addr.line());
                let (fired, c) = self.probe_effects(tid, kind, addr.line(), res)?;
                if !fired {
                    self.hier.prefetch(addr.line());
                }
                cost += c;
            }
            // `CompiledProbe::compile` whitelists the arms above plus
            // `CallReg`, which `fused_probe_body` routes elsewhere.
            _ => unreachable!("non-probe op in CompiledProbe"),
        }
        self.charge(tid, cost, debt);
        Ok(())
    }

    /// Charge one retired instruction's `cost` cycles and its noise
    /// epilogue (`execute`'s last four lines), deferring the eviction draw
    /// into `debt` while the deferred total provably fires none. A zero
    /// draw touches no RNG or hierarchy state, and `evictions_for` is
    /// exactly partition-invariant, so the draw that does fire — for the
    /// deferred total plus this instruction — lands right after this
    /// instruction with the per-step count, as does every `rdtsc` jitter
    /// draw in between. Only the schedule's progress is deferred, so it
    /// must be settled ([`Engine::settle`]) before anything else draws.
    #[inline]
    fn charge(&mut self, tid: ThreadId, cost: u64, debt: &mut u64) {
        self.t_mut(tid).clock += cost;
        *debt += cost;
        if *debt >= self.noise.cycles_to_next_eviction() {
            self.draw_debt(debt);
        }
    }

    /// The draw [`Engine::charge`] stops deferring: it fires.
    #[cold]
    #[inline(never)]
    fn draw_debt(&mut self, debt: &mut u64) {
        let evictions = self.noise.evictions_for(std::mem::take(debt));
        self.apply_evictions(evictions);
    }

    /// Advance the noise schedule by the deferred `debt` (which provably
    /// fires no eviction; see [`Engine::charge`]).
    fn settle(&mut self, debt: &mut u64) {
        let evictions = self.noise.evictions_for(std::mem::take(debt));
        debug_assert_eq!(evictions, 0, "deferred draws never fire");
    }

    /// Charge `cost` cycles and apply the noise epilogue at once — for a
    /// batch of instructions where that is provably exact: no sibling
    /// step, `rdtsc` jitter draw or hierarchy access between them.
    fn fused_retire(&mut self, tid: ThreadId, cost: u64) {
        self.t_mut(tid).clock += cost;
        let evictions = self.noise.evictions_for(cost);
        self.apply_evictions(evictions);
    }

    /// Inject `n` spurious background L1i evictions (the noise epilogue's
    /// application half — one `random_set` draw per eviction).
    fn apply_evictions(&mut self, n: u32) {
        for _ in 0..n {
            let set = self.noise.random_set(self.profile.hierarchy.l1i.sets);
            self.hier.evict_lru_l1i(set);
        }
    }

    /// Model the front-end fetch of the (pre-computed) line holding the
    /// current instruction. Callers have already checked `last_fetch_line`,
    /// so this only runs on an actual line switch. Routed through the
    /// hierarchy's batched multi-line API (as a one-line batch) so every
    /// fetch path — per-step, injected calls, probes — shares the exact
    /// front-end sequence the superblock path batches over whole groups.
    fn fetch(&mut self, tid: ThreadId, line: u64) {
        let mut info = [COLD_ACCESS];
        self.hier.fetch_lines(std::slice::from_ref(&line), &mut info);
        let cost = self.fetch_effects(tid, line, info[0]);
        self.t_mut(tid).clock += cost;
    }

    /// Per-line bookkeeping for an already-performed hierarchy fetch,
    /// shared by the per-step path and the superblock batched path:
    /// fetch-log append, iTLB access, hit-level counters, the stall
    /// counter, and fetch-window tracking. Returns the fetch's cycle
    /// cost, which the caller charges to the thread clock at the point
    /// per-step execution would (immediately for [`Engine::fetch`], at
    /// the segment boundary for the superblock executor) — nothing here
    /// reads the thread clock, which is what makes deferring the charge
    /// exact.
    fn fetch_effects(&mut self, tid: ThreadId, line: u64, info: AccessInfo) -> u64 {
        if let Some(log) = &mut self.fetch_log {
            log.push(line);
        }
        let mut cost: u64 = 0;
        if !self.itlb[tid.index()].access(Addr(line)) {
            cost += self.profile.tlb_walk as u64;
            self.t_mut(tid).counters.add(PerfEvent::ItlbMisses, 1);
        }
        match info.level {
            Level::L1i => {}
            Level::L1d | Level::L2 => {
                self.t_mut(tid).counters.add(PerfEvent::L1iMisses, 1);
            }
            Level::Llc => {
                let c = &mut self.t_mut(tid).counters;
                c.add(PerfEvent::L1iMisses, 1);
                c.add(PerfEvent::L2Misses, 1);
                c.add(PerfEvent::LlcReferences, 1);
            }
            Level::Dram => {
                let c = &mut self.t_mut(tid).counters;
                c.add(PerfEvent::L1iMisses, 1);
                c.add(PerfEvent::L2Misses, 1);
                c.add(PerfEvent::LlcReferences, 1);
                c.add(PerfEvent::LlcMisses, 1);
            }
        }
        // For instruction fetches the hierarchy reports `ifetch_extra` as
        // the access latency.
        let extra = u64::from(info.latency);
        cost += extra;
        let t = self.t_mut(tid);
        if extra > 0 {
            t.counters.add(PerfEvent::CycleActivityStallsTotal, extra);
        }
        t.last_fetch_line = line;
        t.fetch_window[t.fetch_window_next] = line;
        t.fetch_window_next = (t.fetch_window_next + 1) % FETCH_WINDOW;
        cost
    }

    fn mem_addr(&self, tid: ThreadId, m: MemRef) -> Addr {
        Addr(self.reg(tid, m.base).wrapping_add(m.disp as u64))
    }

    fn dtlb_cost(&mut self, tid: ThreadId, addr: Addr) -> u64 {
        if self.dtlb[tid.index()].access(addr) {
            0
        } else {
            self.t_mut(tid).counters.add(PerfEvent::DtlbMisses, 1);
            self.profile.tlb_walk as u64
        }
    }

    fn count_data_level(&mut self, tid: ThreadId, level: Level) {
        match level {
            Level::L1i | Level::L1d | Level::L2 => {}
            Level::Llc => {
                let c = &mut self.t_mut(tid).counters;
                c.add(PerfEvent::L2Misses, 1);
                c.add(PerfEvent::LlcReferences, 1);
            }
            Level::Dram => {
                let c = &mut self.t_mut(tid).counters;
                c.add(PerfEvent::L2Misses, 1);
                c.add(PerfEvent::LlcReferences, 1);
                c.add(PerfEvent::LlcMisses, 1);
            }
        }
    }

    /// Does a write/flush/prefetch-class access to `line` conflict with the
    /// front-end? True when the line is in L1i or in either thread's
    /// in-flight fetch window.
    ///
    /// Prefiltered through [`CacheHierarchy::maybe_in_l1i`]: the filter is
    /// a superset of every line ever *fetched* (fetch-window entries all
    /// went through `Engine::fetch`, so they are marked too), which means a
    /// clear filter bit disproves both conditions at the cost of one
    /// shift-and-mask. Data-heavy victims issue nearly all their stores at
    /// provably-data lines, so the exact L1i set walk becomes cold.
    fn smc_conflict(&self, line: Addr, in_l1i: bool) -> bool {
        if !self.hier.maybe_in_l1i(line) {
            return false;
        }
        if in_l1i {
            return true;
        }
        self.threads.iter().any(|t| t.fetch_window.contains(&line.0))
    }

    /// Probe-class bookkeeping shared by stores, flushes, prefetches and
    /// clwb. Returns `(smc_fired, cost_cycles)`. `res` is the caller's
    /// residency snapshot of `line` — every probe arm reads it for the
    /// cost model anyway, so the SMC check reuses its L1i bit instead of
    /// re-scanning the set.
    fn probe_effects(
        &mut self,
        tid: ThreadId,
        kind: ProbeKind,
        line: Addr,
        res: Residency,
    ) -> Result<(bool, u64), StepError> {
        let behavior = self.profile.smc.get(kind);
        if behavior == SmcBehavior::Unsupported {
            return Err(StepError::Unsupported { kind });
        }
        let costs = self.profile.probe_costs.get(kind);
        let fires = behavior == SmcBehavior::Triggers && self.smc_conflict(line, res.l1i);
        let cost = if fires {
            (costs.base + costs.smc_extra) as u64
        } else {
            (costs.base + costs.level_extra(res.data_level())) as u64
        };
        if fires {
            self.machine_clear(tid, kind, line);
        }
        Ok((fires, cost))
    }

    /// Apply the architectural and counter effects of an SMC machine clear.
    fn machine_clear(&mut self, tid: ThreadId, kind: ProbeKind, line: Addr) {
        let clear = self.profile.clear;
        let smc_inc = self.profile.smc_count_increment(kind);
        let vendor = self.profile.vendor;
        let at = self.t(tid).clock;
        {
            let c = &mut self.t_mut(tid).counters;
            c.add(PerfEvent::CycleActivityStallsTotal, clear.stalls_total[kind.index()] as u64);
            match vendor {
                Vendor::Intel => {
                    c.add(PerfEvent::MachineClearsCount, 1);
                    c.add(PerfEvent::MachineClearsSmc, smc_inc);
                    c.add(PerfEvent::FrontendIdq4Bubbles, clear.frontend_bubbles as u64);
                    c.add(PerfEvent::IntMiscClearResteerCycles, clear.resteer as u64);
                    c.add(
                        PerfEvent::PartialRatStallsScoreboard,
                        clear.scoreboard[kind.index()] as u64,
                    );
                }
                Vendor::Amd => {
                    c.add(PerfEvent::AmdPipeStallBackPressure, clear.amd_back_pressure as u64);
                    if kind.writes_target() {
                        c.add(PerfEvent::AmdIcLinesInvalidated, 1);
                        c.add(PerfEvent::AmdL2FillBusy, clear.amd_l2_fill_busy as u64);
                    }
                }
            }
        }
        // The modified line leaves the instruction cache.
        self.hier.invalidate_l1i(line);
        // Pipeline flush: both threads refetch, and the sibling stalls.
        for t in &mut self.threads {
            t.fetch_window = [u64::MAX; FETCH_WINDOW];
            t.fetch_window_next = 0;
            t.last_fetch_line = u64::MAX;
        }
        let sib = tid.sibling();
        if self.t(sib).spec.is_some() {
            self.squash_silent(sib);
        }
        self.t_mut(sib).clock += clear.sibling_stall as u64;
        self.t_mut(sib)
            .counters
            .add(PerfEvent::CycleActivityStallsTotal, clear.sibling_stall as u64);
        if self.tracer.is_enabled() {
            self.tracer.record(Event::MachineClear { tid, kind, line, at });
        }
    }

    /// Roll back mispredicted speculation, with the misprediction penalty.
    fn squash(&mut self, tid: ThreadId) {
        let clock = self.t(tid).clock;
        let penalty = self.profile.spec.mispredict_penalty as u64;
        let t = self.t_mut(tid);
        let spec = t.spec.take().expect("squash requires active speculation");
        t.regs = spec.ckpt_regs;
        t.ready = spec.ckpt_ready;
        t.flags = spec.ckpt_flags;
        t.flags_ready = spec.ckpt_flags_ready;
        t.stack.truncate(spec.ckpt_stack_len);
        t.pc = spec.correct_pc;
        t.pc_idx = NO_IDX;
        t.clock = clock.max(spec.resolve_at) + penalty;
        t.last_fetch_line = u64::MAX;
        t.fetch_window = [u64::MAX; FETCH_WINDOW];
        t.fetch_window_next = 0;
        if self.tracer.is_enabled() {
            let at = self.t(tid).clock;
            self.tracer.record(Event::BranchSquash {
                tid,
                pc: spec.branch_pc,
                wrong_path_instrs: spec.wrong_path,
                at,
            });
        }
    }

    /// Roll back speculation without charging the misprediction penalty
    /// (used when a sibling machine clear flushes the pipeline).
    fn squash_silent(&mut self, tid: ThreadId) {
        let t = self.t_mut(tid);
        if let Some(spec) = t.spec.take() {
            t.regs = spec.ckpt_regs;
            t.ready = spec.ckpt_ready;
            t.flags = spec.ckpt_flags;
            t.flags_ready = spec.ckpt_flags_ready;
            t.stack.truncate(spec.ckpt_stack_len);
            t.pc = spec.correct_pc;
            t.pc_idx = NO_IDX;
            t.fetch_window = [u64::MAX; FETCH_WINDOW];
            t.fetch_window_next = 0;
            t.last_fetch_line = u64::MAX;
        }
    }

    fn read_mem_value(&self, addr: Addr, size: MemSize) -> u64 {
        match size {
            MemSize::Byte => self.mem.read_u8(addr) as u64,
            MemSize::Quad => self.mem.read_u64(addr),
        }
    }

    fn write_mem_value(&mut self, addr: Addr, val: u64, size: MemSize) {
        match size {
            MemSize::Byte => self.mem.write_u8(addr, val as u8),
            MemSize::Quad => self.mem.write_u64(addr, val),
        }
    }

    /// Execute one instruction's semantics and timing on thread `tid`.
    #[allow(clippy::too_many_lines)]
    // Force-inlined: `execute` has exactly two callers — the hot `step` loop
    // and the cold injected-sequence path. Left to its own devices the
    // optimizer sees the second caller and outlines this (large) match,
    // costing ~30% steady-state throughput; always-inlining restores the
    // single-caller codegen regardless of what else links in.
    #[inline(always)]
    fn execute(&mut self, tid: ThreadId, instr: &Instr, injected: bool) -> Result<Next, StepError> {
        let mut cost: u64 = 1;
        let mut next = Next::Seq;
        let clock0 = self.t(tid).clock;
        let in_spec = self.t(tid).spec.is_some();
        match instr {
            Instr::Nop => {}
            Instr::Halt => {
                if in_spec {
                    // Wrong-path halt: close the window; the squash happens
                    // on the next step.
                    if let Some(s) = &mut self.t_mut(tid).spec {
                        s.budget = 0;
                    }
                } else {
                    let t = self.t_mut(tid);
                    t.state = ThreadState::Halted;
                    let at = t.clock;
                    if self.tracer.is_enabled() {
                        self.tracer.record(Event::Halted { tid, at });
                    }
                    next = Next::Stop;
                }
            }
            Instr::MovImm { dst, imm } => {
                let t = self.t_mut(tid);
                t.regs[dst.index()] = *imm;
                t.ready[dst.index()] = clock0 + 1;
            }
            Instr::Mov { dst, src } => {
                let t = self.t_mut(tid);
                t.regs[dst.index()] = t.regs[src.index()];
                t.ready[dst.index()] = (clock0 + 1).max(t.ready[src.index()]);
            }
            Instr::Load { dst, mem, size } => {
                let addr = self.mem_addr(tid, *mem);
                cost += self.dtlb_cost(tid, addr);
                let info = self.hier.read(addr.line());
                self.count_data_level(tid, info.level);
                let val = self.read_mem_value(addr, *size);
                let t = self.t_mut(tid);
                t.regs[dst.index()] = val;
                let done = (clock0 + cost).max(t.ready[mem.base.index()]) + info.latency as u64;
                t.ready[dst.index()] = done;
                t.pending_mem = t.pending_mem.max(done);
            }
            Instr::Store { .. } | Instr::StoreImm { .. } => {
                let (mem, val, size) = match instr {
                    Instr::Store { src, mem, size } => (*mem, self.reg(tid, *src), *size),
                    Instr::StoreImm { mem, imm } => (*mem, *imm as u64, MemSize::Byte),
                    _ => unreachable!(),
                };
                let addr = self.mem_addr(tid, mem);
                if in_spec {
                    // Stores do not issue to the memory system speculatively.
                    if let Some(s) = &mut self.t_mut(tid).spec {
                        s.buffered_stores.push((addr, val, size));
                    }
                } else {
                    cost += self.dtlb_cost(tid, addr);
                    let res = self.hier.residency(addr.line());
                    let (_fired, c) =
                        self.probe_effects(tid, ProbeKind::Store, addr.line(), res)?;
                    self.count_data_level(tid, res.data_level());
                    self.hier.write_resident(addr.line(), res);
                    self.write_mem_value(addr, val, size);
                    cost += c;
                }
            }
            Instr::LockInc { mem } => {
                let addr = self.mem_addr(tid, *mem);
                if in_spec {
                    let val = (self.mem.read_u8(addr) as u64).wrapping_add(1);
                    if let Some(s) = &mut self.t_mut(tid).spec {
                        s.buffered_stores.push((addr, val, MemSize::Byte));
                    }
                } else {
                    // Atomic RMW: serializes outstanding memory operations.
                    let t = self.t_mut(tid);
                    let wait = t.pending_mem.saturating_sub(t.clock);
                    cost += wait;
                    cost += self.dtlb_cost(tid, addr);
                    let res = self.hier.residency(addr.line());
                    let (_fired, c) = self.probe_effects(tid, ProbeKind::Lock, addr.line(), res)?;
                    self.count_data_level(tid, res.data_level());
                    self.hier.write_resident(addr.line(), res);
                    let val = self.mem.read_u8(addr).wrapping_add(1);
                    self.mem.write_u8(addr, val);
                    cost += c;
                }
            }
            Instr::Add { dst, src } => {
                let t = self.t_mut(tid);
                let v = t.regs[dst.index()].wrapping_add(t.regs[src.index()]);
                t.regs[dst.index()] = v;
                t.ready[dst.index()] =
                    (clock0 + 1).max(t.ready[dst.index()]).max(t.ready[src.index()]);
            }
            Instr::AddImm { dst, imm } => {
                let t = self.t_mut(tid);
                let v = t.regs[dst.index()].wrapping_add(*imm as u64);
                t.regs[dst.index()] = v;
                t.ready[dst.index()] = (clock0 + 1).max(t.ready[dst.index()]);
            }
            Instr::Sub { dst, src } => {
                let t = self.t_mut(tid);
                let v = t.regs[dst.index()].wrapping_sub(t.regs[src.index()]);
                t.regs[dst.index()] = v;
                t.ready[dst.index()] =
                    (clock0 + 1).max(t.ready[dst.index()]).max(t.ready[src.index()]);
            }
            Instr::Mul { dst, src } => {
                cost += 2;
                let t = self.t_mut(tid);
                let v = t.regs[dst.index()].wrapping_mul(t.regs[src.index()]);
                t.regs[dst.index()] = v;
                t.ready[dst.index()] =
                    (clock0 + 3).max(t.ready[dst.index()]).max(t.ready[src.index()]);
            }
            Instr::And { dst, src } | Instr::Or { dst, src } | Instr::Xor { dst, src } => {
                let t = self.t_mut(tid);
                let a = t.regs[dst.index()];
                let b = t.regs[src.index()];
                let v = match instr {
                    Instr::And { .. } => a & b,
                    Instr::Or { .. } => a | b,
                    _ => a ^ b,
                };
                t.regs[dst.index()] = v;
                t.ready[dst.index()] =
                    (clock0 + 1).max(t.ready[dst.index()]).max(t.ready[src.index()]);
            }
            Instr::ShlImm { dst, amount } => {
                let t = self.t_mut(tid);
                t.regs[dst.index()] = t.regs[dst.index()].wrapping_shl(*amount as u32);
                t.ready[dst.index()] = (clock0 + 1).max(t.ready[dst.index()]);
            }
            Instr::ShrImm { dst, amount } => {
                let t = self.t_mut(tid);
                t.regs[dst.index()] = t.regs[dst.index()].wrapping_shr(*amount as u32);
                t.ready[dst.index()] = (clock0 + 1).max(t.ready[dst.index()]);
            }
            Instr::Cmp { a, b } => {
                let t = self.t_mut(tid);
                let fa = t.regs[a.index()];
                let fb = t.regs[b.index()];
                t.flags = Flags::compare(fa, fb);
                t.flags_ready = (clock0 + 1).max(t.ready[a.index()]).max(t.ready[b.index()]);
            }
            Instr::CmpImm { a, imm } => {
                let t = self.t_mut(tid);
                let fa = t.regs[a.index()];
                t.flags = Flags::compare(fa, *imm);
                t.flags_ready = (clock0 + 1).max(t.ready[a.index()]);
            }
            Instr::Jmp { target } => {
                if injected {
                    return Err(StepError::ControlFlowInjected);
                }
                next = Next::Jump(*target);
            }
            Instr::Jcc { cond, target } => {
                if injected {
                    return Err(StepError::ControlFlowInjected);
                }
                next = self.exec_jcc(tid, *cond, *target)?;
            }
            Instr::Call { target } => {
                cost += 1;
                let ret = self.t(tid).pc + instr.len();
                self.t_mut(tid).stack.push(ret);
                next = Next::Jump(*target);
            }
            Instr::CallReg { target } => {
                cost += 1;
                let dest = self.reg(tid, *target);
                let wait = self.t(tid).ready[target.index()].saturating_sub(clock0);
                cost += wait;
                let ret = self.t(tid).pc + instr.len();
                self.t_mut(tid).stack.push(ret);
                next = Next::Jump(dest);
            }
            Instr::Ret => {
                cost += 1;
                match self.t_mut(tid).stack.pop() {
                    Some(RETURN_SENTINEL) => {
                        if in_spec {
                            if let Some(s) = &mut self.t_mut(tid).spec {
                                s.budget = 0;
                            }
                        } else {
                            self.t_mut(tid).state = ThreadState::Idle;
                            next = Next::Stop;
                        }
                    }
                    Some(ret) => next = Next::Jump(ret),
                    None => {
                        if in_spec {
                            if let Some(s) = &mut self.t_mut(tid).spec {
                                s.budget = 0;
                            }
                        } else {
                            // Returning with an empty stack ends the program.
                            self.t_mut(tid).state = ThreadState::Halted;
                            if self.tracer.is_enabled() {
                                let at = self.t(tid).clock;
                                self.tracer.record(Event::Halted { tid, at });
                            }
                            next = Next::Stop;
                        }
                    }
                }
            }
            Instr::Rdtsc { dst } => {
                cost = self.profile.rdtsc_cost as u64;
                let jitter = self.noise.jitter();
                let raw = (clock0 + cost).saturating_add_signed(jitter);
                let res = self.profile.tsc_resolution as u64;
                let val = (raw / res) * res;
                let t = self.t_mut(tid);
                t.regs[dst.index()] = val;
                t.ready[dst.index()] = clock0 + cost;
            }
            Instr::Mfence => {
                let t = self.t_mut(tid);
                let wait = t.pending_mem.saturating_sub(t.clock);
                cost = wait + self.profile.mfence_cost as u64;
                if wait > 0 {
                    self.t_mut(tid).counters.add(PerfEvent::CycleActivityStallsTotal, wait);
                }
            }
            Instr::Lfence => {
                let t = self.t_mut(tid);
                let wait = t.pending_mem.saturating_sub(t.clock);
                cost = wait + 2;
            }
            Instr::Clflush { mem } | Instr::Clflushopt { mem } => {
                let kind = if matches!(instr, Instr::Clflush { .. }) {
                    ProbeKind::Flush
                } else {
                    ProbeKind::FlushOpt
                };
                if in_spec {
                    // Flushes are not executed speculatively.
                } else {
                    let addr = self.mem_addr(tid, *mem);
                    cost += self.dtlb_cost(tid, addr);
                    let res = self.hier.residency(addr.line());
                    let (_fired, c) = self.probe_effects(tid, kind, addr.line(), res)?;
                    self.hier.flush(addr.line());
                    cost += c;
                }
            }
            Instr::Clwb { mem } => {
                if !in_spec {
                    let addr = self.mem_addr(tid, *mem);
                    cost += self.dtlb_cost(tid, addr);
                    let res = self.hier.residency(addr.line());
                    let (_fired, c) = self.probe_effects(tid, ProbeKind::Clwb, addr.line(), res)?;
                    self.hier.writeback(addr.line());
                    cost += c;
                }
            }
            Instr::PrefetchT0 { mem } | Instr::PrefetchNta { mem } => {
                let kind = if matches!(instr, Instr::PrefetchT0 { .. }) {
                    ProbeKind::Prefetch
                } else {
                    ProbeKind::PrefetchNta
                };
                if !in_spec {
                    let addr = self.mem_addr(tid, *mem);
                    cost += self.dtlb_cost(tid, addr);
                    let res = self.hier.residency(addr.line());
                    let (fired, c) = self.probe_effects(tid, kind, addr.line(), res)?;
                    if !fired {
                        self.hier.prefetch(addr.line());
                    }
                    cost += c;
                }
            }
            Instr::Delay { cycles } => {
                cost = *cycles as u64;
            }
        }
        self.t_mut(tid).clock += cost;
        let delta = self.t(tid).clock - clock0;
        let evictions = self.noise.evictions_for(delta);
        for _ in 0..evictions {
            let set = self.noise.random_set(self.profile.hierarchy.l1i.sets);
            self.hier.evict_lru_l1i(set);
        }
        Ok(next)
    }

    #[inline]
    fn exec_jcc(&mut self, tid: ThreadId, cond: Cond, target: u64) -> Result<Next, StepError> {
        let pc = self.t(tid).pc;
        let fallthrough = pc + Instr::Jcc { cond, target }.len();
        let t = self.t(tid);
        let actual = t.flags.eval(cond);
        let resolved = t.flags_ready <= t.clock;
        let in_spec = t.spec.is_some();
        self.t_mut(tid).counters.add(PerfEvent::BrInstRetired, 1);
        let correct = if actual { target } else { fallthrough };
        if in_spec {
            // No nested speculation: wrong-path branches resolve eagerly.
            return Ok(Next::Jump(correct));
        }
        let predicted = self.bpu.predict(pc);
        self.bpu.update(pc, actual);
        if resolved {
            if predicted != actual {
                self.t_mut(tid).counters.add(PerfEvent::BrMispRetired, 1);
                let penalty = self.profile.spec.mispredict_penalty as u64;
                self.t_mut(tid).clock += penalty;
            }
            return Ok(Next::Jump(correct));
        }
        if predicted == actual {
            // Correct speculation: proceeds without a bubble.
            return Ok(Next::Jump(correct));
        }
        // Wrong-path speculation begins.
        self.t_mut(tid).counters.add(PerfEvent::BrMispRetired, 1);
        let wrong = if predicted { target } else { fallthrough };
        let window = self.profile.spec.window_instrs;
        let t = self.t_mut(tid);
        t.spec = Some(Box::new(SpecState {
            ckpt_regs: t.regs,
            ckpt_ready: t.ready,
            ckpt_flags: t.flags,
            ckpt_flags_ready: t.flags_ready,
            ckpt_stack_len: t.stack.len(),
            correct_pc: correct,
            resolve_at: t.flags_ready,
            budget: window,
            wrong_path: 0,
            branch_pc: pc,
            buffered_stores: Vec::new(),
        }));
        Ok(Next::Jump(wrong))
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("arch", &self.profile.arch)
            .field("t0_clock", &self.threads[0].clock)
            .field("t1_clock", &self.threads[1].clock)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::machine::Machine;
    use crate::profile::MicroArch;

    const T0: ThreadId = ThreadId::T0;
    const T1: ThreadId = ThreadId::T1;

    /// Where a test loop's `tail: jmp body; done: ret` sits.
    #[derive(Copy, Clone, Debug)]
    enum Tail {
        /// Right after the body.
        After,
        /// At the start of the line after the body's last (the victims'
        /// layout).
        NextLine,
        /// Before the routine, on the head's line.
        Before,
    }

    /// The loop layouts the white-box tests walk, with the lines one
    /// iteration fetches: the whole loop on one line (none), the victims'
    /// two-line layout (two), the body straddling a line with the tail on
    /// a third (three: an odd count, so the fetch-window ring's position
    /// depends on the iteration count), and a straddling body whose tail
    /// jumps back to the head's line (two, with the head line last).
    const LAYOUTS: [(usize, Tail); 4] =
        [(0, Tail::After), (0, Tail::NextLine), (40, Tail::NextLine), (40, Tail::Before)];

    /// A `sqr_n`-style counted loop at `base`, called twice, `pad` nops
    /// into its routine line. With `slow`, the driver loads the counter
    /// from a flushed line and calls the loop head directly, so the first
    /// iterations run while the counter is not ready and the predictor
    /// still calls the `je` taken.
    fn counted_loop(base: u64, (pad, tail): (usize, Tail), delay: u32, slow: bool) -> Program {
        let mut a = Assembler::new(base);
        a.mov_imm(Reg::R4, 2).mov_imm(Reg::R12, base + 0x800).label("drive");
        if slow {
            let cell = MemRef::base(Reg::R12);
            a.mov_imm(Reg::R5, 37).store(Reg::R5, cell).clflush(cell).load(Reg::R11, cell);
            a.call("body");
        } else {
            a.call("loop_n");
        }
        a.add_imm(Reg::R4, -1).cmp_imm(Reg::R4, 0).jne("drive").halt();
        a.org(base + 0x100);
        if let Tail::Before = tail {
            a.label("tail").jmp("body").label("done").ret();
        }
        a.nops(pad)
            .label("loop_n")
            .mov_imm(Reg::R11, 37)
            .label("body")
            .delay(delay)
            .add_imm(Reg::R11, -1)
            .cmp_imm(Reg::R11, 0)
            .je("done")
            .jmp("tail");
        match tail {
            Tail::After => {}
            Tail::NextLine => {
                a.align(64);
            }
            Tail::Before => return a.assemble().unwrap(),
        }
        a.label("tail").jmp("body").label("done").ret();
        a.assemble().unwrap()
    }

    /// A sibling that trains `prog`'s loop `je` taken in the shared
    /// predictor: every 400 cycles two taken `jne`s whose addresses differ
    /// from the `je`'s only in bits the index hash drops (25 and 26). The
    /// victim then meets its head with the `je` predicted taken and a
    /// 400-cycle slack.
    fn aliasing_sibling(prog: &Program) -> Program {
        let je = prog
            .iter()
            .find(|(_, i)| matches!(i, Instr::Jcc { cond: Cond::Eq, .. }))
            .map(|(pc, _)| pc)
            .unwrap();
        let (x1, x2) = (je | 1 << 25, je | 1 << 26);
        let mut a = Assembler::new(x2 - 5);
        a.label("hop").cmp_imm(Reg::R0, 0).jne("spin");
        a.org(x1 - 14).label("spin").delay(400).add_imm(Reg::R0, 1).cmp_imm(Reg::R0, 60);
        a.jne("hop").halt();
        a.org(x1 + 0x100).label("start").mov_imm(Reg::R0, 0).jmp("spin");
        a.entry("start");
        let sib = a.assemble().unwrap();
        assert!(matches!(sib.instr_at(x1), Some(Instr::Jcc { .. })));
        assert!(matches!(sib.instr_at(x2), Some(Instr::Jcc { .. })));
        sib
    }

    /// Everything the loop executor writes on both threads, with cache
    /// recency compared by order (each L1i set's LRU line) rather than by
    /// absolute stamp.
    fn state(m: &Machine) -> impl PartialEq + fmt::Debug {
        let e = m.engine();
        let thread = |t: &Thread| {
            let hw: Vec<u64> = PerfEvent::ALL
                .iter()
                .filter(|ev| !ev.is_simulated())
                .map(|ev| t.counters.read(*ev))
                .collect();
            let ring = (t.last_fetch_line, t.fetch_window, t.fetch_window_next);
            ((t.regs, t.ready, t.flags, t.flags_ready, t.pc, t.clock), ring, hw)
        };
        let sets = e.profile.hierarchy.l1i.sets;
        let lru: Vec<Option<Addr>> = (0..sets).map(|s| e.hier.l1i().lru_line(s)).collect();
        (thread(&e.threads[0]), thread(&e.threads[1]), e.bpu.clone(), lru)
    }

    /// One machine per tier with `progs[i]` started on thread `i` (`None`
    /// leaves it idle), fed through `drive` round by round; after every
    /// round both must hold the same state. Returns the fast machine's
    /// loop-path retirements.
    fn lockstep(
        progs: [Option<&Program>; 2],
        noise: NoiseConfig,
        burst: u64,
        mut drive: impl FnMut(&mut Machine, usize) -> bool,
    ) -> u64 {
        let machine = |tier| {
            let mut m = Machine::with_noise(MicroArch::CascadeLake.profile(), noise, 3);
            m.set_exec(ExecConfig::new(tier, burst));
            for (tid, prog) in [T0, T1].into_iter().zip(progs) {
                if let Some(prog) = prog {
                    m.load_program(prog);
                    m.start_program(tid, prog.entry(), &[]);
                }
            }
            m
        };
        let (mut fast, mut stepped) = (machine(Tier::Fast), machine(Tier::Decoded));
        for round in 0.. {
            let more = drive(&mut fast, round);
            assert_eq!(drive(&mut stepped, round), more);
            assert_eq!(state(&fast), state(&stepped), "round {round}, burst {burst}");
            if !more {
                break;
            }
        }
        fast.counters_total().read(PerfEvent::SimLoopFused)
    }

    const HEAVY: NoiseConfig = NoiseConfig { timing_jitter: 12, evictions_per_kcycle: 50.0 };

    /// The closed form and the per-slot path leave exactly the state
    /// per-step execution leaves — ready stamps, flags, the fetch-window
    /// ring, predictor counters and L1i recency included, none of which the
    /// black-box equivalence tests see directly — at every burst boundary
    /// of a lone loop, of two loops co-running, and of a loop beside a
    /// sibling that trains its `je` taken, under heavy noise too.
    #[test]
    fn loop_executor_leaves_per_step_state() {
        let other = counted_loop(0x9000, LAYOUTS[1], 7, false);
        for layout in LAYOUTS {
            for slow in [false, true] {
                let prog = counted_loop(0x4000, layout, if slow { 7 } else { 41 }, slow);
                let aliasing = aliasing_sibling(&prog);
                for noise in [NoiseConfig::quiet(), HEAVY] {
                    for burst in [1, 2, 3, 7, 50, 333, 4096] {
                        let run = |m: &mut Machine, _| {
                            let running = |m: &Machine, tid| m.state(tid) == ThreadState::Running;
                            m.run_burst(if running(m, T0) { T0 } else { T1 }, burst).unwrap();
                            running(m, T0) || running(m, T1)
                        };
                        assert!(lockstep([Some(&prog), None], noise, burst, run) > 0);
                        assert!(lockstep([Some(&prog), Some(&other)], noise, burst, run) > 0);
                        assert!(lockstep([Some(&prog), Some(&aliasing)], noise, burst, run) > 0);
                    }
                }
            }
        }
    }

    /// The same with the loop as the victim of an injected attacker: idle
    /// waits of every length catch it up with finite causal slack (fused
    /// on the fast tier, chunked per step on the decoded one), and every
    /// fourth round the attacker stores into its own L1i-resident code
    /// line, a machine clear that stalls the victim and resets its front
    /// end mid-loop.
    #[test]
    fn loop_executor_matches_per_step_beside_an_attacker() {
        const ORACLE: u64 = 0x7000;
        let mut a = Assembler::new(ORACLE);
        a.nop().nop().ret();
        let oracle = a.assemble().unwrap();
        let clear = [Instr::StoreImm { mem: MemRef::base(Reg::R13), imm: 0x90 }];
        let waits = [1u64, 3, 40, 45, 46, 90, 139, 200, 201, 333, 1000];
        for layout in LAYOUTS {
            for slow in [false, true] {
                let prog = counted_loop(0x4000, layout, if slow { 7 } else { 41 }, slow);
                for noise in [NoiseConfig::quiet(), HEAVY] {
                    let run = |m: &mut Machine, round: usize| {
                        if round == 0 {
                            m.load_program(&oracle);
                            m.set_reg(T0, Reg::R13, ORACLE);
                        }
                        if round % 4 == 3 {
                            m.call(T0, ORACLE, &[]).unwrap();
                            m.run_sequence(T0, &clear).unwrap();
                        }
                        m.advance(T0, waits[round % waits.len()]).unwrap();
                        m.state(T1) == ThreadState::Running
                    };
                    assert!(lockstep([None, Some(&prog)], noise, 4096, run) > 0);
                }
            }
        }
    }
}
