//! The IR interpreter.
//!
//! Executes optimized IR against a [`SyncBackend`], mapping the
//! decomposed STM operations onto the backend's session operations and
//! handling atomic-region retry: on a conflict the session is aborted,
//! the region's register snapshot is restored, and execution re-enters
//! at `TxBegin` with randomized backoff.
//!
//! [`Vm::with_config`] decodes the program once, up front, into a flat
//! array of small `Copy` ops, one per IR instruction and one per block
//! terminator, every function's ops back to back. Jumps carry absolute
//! op indices and a precomputed back-edge bit (the target block does
//! not come after the source block); the register lists of calls and
//! `new` sit in a side table; IR class ids are already heap
//! [`ClassId`]s. The dispatch loop then runs those ops on one register
//! stack the `Vm` keeps across calls and runs: each call frame is a
//! window of it, a call copies its arguments into the callee's window,
//! and calls nest on an explicit frame stack instead of the native one.
//! A region's `TxBegin` snapshot goes to one reusable buffer, from
//! which a retry restores the region frame's window.
//!
//! Two pieces of managed-runtime *sandboxing* from the paper are
//! reproduced here:
//!
//! - a runtime error raised inside a doomed ("zombie") transaction —
//!   division by zero, null dereference, type confusion — triggers
//!   validation first; if the transaction is invalid the error is
//!   converted into a retry instead of surfacing to the user;
//! - loop back-edges inside a transaction optionally re-validate every
//!   *n* iterations, bounding how long a zombie can run.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::Arc;

use omt_heap::{ClassDesc, ClassId, FieldDesc, FieldMut, Heap, Word};
use omt_ir::{BinOpKind, BlockId, FuncId, Inst, IrProgram, Reg, Terminator, UnOpKind};

use crate::backend::{Session, SyncBackend, Trap};
use crate::counters::{VmCounters, VmCountersSnapshot};

/// Interpreter configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmConfig {
    /// Re-validate the active transaction every `n` loop back-edges
    /// (zombie containment). `None` disables.
    pub validate_backedges_every: Option<u32>,
    /// Give up after this many retries of one atomic region.
    pub max_region_retries: u32,
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig { validate_backedges_every: Some(1024), max_region_retries: 10_000_000 }
    }
}

/// Errors surfaced to the caller of [`Vm::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// No function with that name in the program.
    UnknownFunction(String),
    /// A runtime trap (null dereference, arithmetic error, retry budget
    /// exhausted, ...).
    Trap(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
            VmError::Trap(msg) => write!(f, "runtime trap: {msg}"),
        }
    }
}

impl std::error::Error for VmError {}

/// A single-threaded interpreter instance.
///
/// Multiple `Vm`s may share one program, heap, and backend across
/// threads (see [`crate::run_parallel`]).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use omt_heap::{Heap, Word};
/// use omt_opt::{compile, OptLevel};
/// use omt_vm::{BackendKind, SyncBackend, Vm};
///
/// let (ir, _) = compile("
///     class C { var x: int; }
///     fn main() -> int {
///         let c = new C();
///         atomic { c.x = 41; c.x = c.x + 1; }
///         return c.x;
///     }
/// ", OptLevel::O2)?;
/// let heap = Arc::new(Heap::new());
/// let backend = Arc::new(SyncBackend::new(BackendKind::DirectStm, heap.clone()));
/// let vm = Vm::new(Arc::new(ir), heap, backend);
/// let result = vm.run("main", &[])?;
/// assert_eq!(result.unwrap().as_scalar(), Some(42));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Vm {
    program: Arc<IrProgram>,
    heap: Arc<Heap>,
    backend: Arc<SyncBackend>,
    code: Code,
    machine: RefCell<Machine>,
    counters: VmCounters,
    callee_backedges: Cell<u32>,
    config: VmConfig,
}

/// Deepest call nesting a run may reach before it traps.
const MAX_FRAMES: usize = 1 << 18;

/// "No register": a call whose result is dropped, a bare `return`.
const NO_REG: u32 = u32::MAX;

/// A program decoded for dispatch.
#[derive(Debug)]
struct Code {
    /// Every function's ops, back to back.
    ops: Vec<Op>,
    /// Register lists of calls and `new`, and the reference fields a
    /// zero-argument `new` nulls.
    side: Vec<u32>,
    /// Indexed by [`FuncId`].
    funcs: Vec<FuncInfo>,
}

#[derive(Debug, Clone, Copy)]
struct FuncInfo {
    /// Index of the entry block's first op.
    start: usize,
    /// Registers in a frame: every register the function names, and at
    /// least its parameters.
    window: usize,
}

/// A run of [`Code::side`].
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// Operands of `dst = op src`.
#[derive(Debug, Clone, Copy)]
struct Un {
    dst: u32,
    src: u32,
}

/// Operands of `dst = lhs op rhs`.
#[derive(Debug, Clone, Copy)]
struct Bin {
    dst: u32,
    lhs: u32,
    rhs: u32,
}

/// One decoded instruction or terminator. Registers are frame-relative;
/// jump targets are absolute op indices.
#[derive(Debug, Clone, Copy)]
enum Op {
    Const {
        dst: u32,
        value: i64,
    },
    Null {
        dst: u32,
    },
    Copy(Un),
    Neg(Un),
    Not(Un),
    Add(Bin),
    Sub(Bin),
    Mul(Bin),
    Div(Bin),
    Mod(Bin),
    Eq(Bin),
    Ne(Bin),
    Lt(Bin),
    Le(Bin),
    Gt(Bin),
    Ge(Bin),
    /// `new` with one initializer register per field.
    NewInit {
        dst: u32,
        class: ClassId,
        args: Span,
    },
    /// Zero-argument `new`: the span lists the fields to null.
    NewZero {
        dst: u32,
        class: ClassId,
        nulls: Span,
    },
    GetField {
        dst: u32,
        obj: u32,
        field: u32,
    },
    SetField {
        obj: u32,
        field: u32,
        src: u32,
    },
    OpenForRead {
        obj: u32,
    },
    OpenForUpdate {
        obj: u32,
    },
    LogForUndo {
        obj: u32,
        field: u32,
    },
    Call {
        dst: u32,
        func: u32,
        args: Span,
    },
    TxBegin,
    TxCommit,
    Jump {
        to: u32,
        back: bool,
    },
    Branch {
        cond: u32,
        then_to: u32,
        else_to: u32,
        then_back: bool,
        else_back: bool,
    },
    Return {
        src: u32,
    },
}

impl Code {
    fn decode(program: &IrProgram, class_map: &[ClassId]) -> Code {
        let mut code = Code { ops: Vec::new(), side: Vec::new(), funcs: Vec::new() };
        for f in &program.functions {
            let start = code.ops.len();
            let mut block_start = Vec::with_capacity(f.blocks.len());
            let mut next = start;
            for block in &f.blocks {
                block_start.push(next);
                next += block.insts.len() + 1;
            }
            let mut window = f.reg_count.max(f.param_count);
            let mut name = |r: Reg| {
                window = window.max(r.0 + 1);
                r.0
            };
            // An out-of-range block never decodes to a valid index, so
            // the jump fails when it runs, as it always has.
            let target = |b: BlockId| block_start.get(b.index()).map_or(u32::MAX, |&s| s as u32);
            for (from, block) in f.blocks.iter().enumerate() {
                for inst in &block.insts {
                    let op = code.decode_inst(program, class_map, inst, &mut name);
                    code.ops.push(op);
                }
                let back = |b: BlockId| b.index() <= from;
                code.ops.push(match &block.term {
                    Terminator::Jump(b) => Op::Jump { to: target(*b), back: back(*b) },
                    Terminator::Branch { cond, then_b, else_b } => Op::Branch {
                        cond: name(*cond),
                        then_to: target(*then_b),
                        else_to: target(*else_b),
                        then_back: back(*then_b),
                        else_back: back(*else_b),
                    },
                    Terminator::Return(r) => Op::Return { src: r.map_or(NO_REG, &mut name) },
                });
            }
            code.funcs.push(FuncInfo { start, window: window as usize });
        }
        code
    }

    fn decode_inst(
        &mut self,
        program: &IrProgram,
        class_map: &[ClassId],
        inst: &Inst,
        name: &mut impl FnMut(Reg) -> u32,
    ) -> Op {
        match inst {
            Inst::Const { dst, value } => Op::Const { dst: name(*dst), value: *value },
            Inst::Null { dst } => Op::Null { dst: name(*dst) },
            Inst::Copy { dst, src } => Op::Copy(Un { dst: name(*dst), src: name(*src) }),
            Inst::UnOp { dst, op, src } => {
                let un = Un { dst: name(*dst), src: name(*src) };
                match op {
                    UnOpKind::Neg => Op::Neg(un),
                    UnOpKind::Not => Op::Not(un),
                }
            }
            Inst::BinOp { dst, op, lhs, rhs } => {
                let bin = Bin { dst: name(*dst), lhs: name(*lhs), rhs: name(*rhs) };
                match op {
                    BinOpKind::Add => Op::Add(bin),
                    BinOpKind::Sub => Op::Sub(bin),
                    BinOpKind::Mul => Op::Mul(bin),
                    BinOpKind::Div => Op::Div(bin),
                    BinOpKind::Mod => Op::Mod(bin),
                    BinOpKind::Eq => Op::Eq(bin),
                    BinOpKind::Ne => Op::Ne(bin),
                    BinOpKind::Lt => Op::Lt(bin),
                    BinOpKind::Le => Op::Le(bin),
                    BinOpKind::Gt => Op::Gt(bin),
                    BinOpKind::Ge => Op::Ge(bin),
                }
            }
            Inst::New { dst, class, args } => {
                let heap_class = class_map[class.0 as usize];
                if args.is_empty() {
                    // Ints and bools keep the heap's zero fill;
                    // class-typed fields start null.
                    let fields = &program.class(*class).fields;
                    let nulls = fields.iter().enumerate().filter(|(_, f)| f.is_ref);
                    let nulls = self.span(nulls.map(|(i, _)| i as u32));
                    Op::NewZero { dst: name(*dst), class: heap_class, nulls }
                } else {
                    let args = self.span(args.iter().map(|&a| name(a)));
                    Op::NewInit { dst: name(*dst), class: heap_class, args }
                }
            }
            Inst::GetField { dst, obj, field, .. } => {
                Op::GetField { dst: name(*dst), obj: name(*obj), field: *field }
            }
            Inst::SetField { obj, field, src, .. } => {
                Op::SetField { obj: name(*obj), field: *field, src: name(*src) }
            }
            Inst::OpenForRead { obj } => Op::OpenForRead { obj: name(*obj) },
            Inst::OpenForUpdate { obj } => Op::OpenForUpdate { obj: name(*obj) },
            Inst::LogForUndo { obj, field, .. } => {
                Op::LogForUndo { obj: name(*obj), field: *field }
            }
            Inst::Call { dst, func, args } => {
                let args = self.span(args.iter().map(|&a| name(a)));
                Op::Call { dst: dst.map_or(NO_REG, &mut *name), func: func.0, args }
            }
            Inst::TxBegin => Op::TxBegin,
            Inst::TxCommit => Op::TxCommit,
        }
    }

    fn span(&mut self, items: impl Iterator<Item = u32>) -> Span {
        let start = self.side.len();
        self.side.extend(items);
        Span { start: start as u32, len: (self.side.len() - start) as u32 }
    }
}

/// The run-time stacks, kept by the `Vm` so runs reuse their capacity.
#[derive(Debug, Default)]
struct Machine {
    /// Register windows, one per frame, the innermost last.
    regs: Vec<Word>,
    /// Active calls, the innermost last.
    frames: Vec<Frame>,
    /// `TxBegin` snapshots of the open regions' windows, innermost last.
    saved: Vec<Word>,
}

/// The innermost frame's register window.
fn window<'r>(regs: &'r mut [Word], frames: &[Frame]) -> &'r mut [Word] {
    let frame = frames.last().expect("a run has a frame");
    &mut regs[frame.base..frame.base + frame.size]
}

impl Machine {
    /// Enters `callee` above the innermost frame, its parameters
    /// copied from the caller registers `args` and its other registers
    /// zeroed. The caller resumes at `ret_pc` with the result in
    /// `ret_dst`.
    #[inline(never)]
    fn push_frame(
        &mut self,
        callee: FuncInfo,
        args: &[u32],
        ret_pc: usize,
        ret_dst: u32,
    ) -> Result<(), Trap> {
        if self.frames.len() >= MAX_FRAMES {
            return Err(error("call stack overflow"));
        }
        let caller = self.frames.last().expect("a call runs inside a frame");
        let (caller_base, base) = (caller.base, caller.base + caller.size);
        let top = base + callee.window;
        if self.regs.len() < top {
            self.regs.resize(top, Word::default());
        }
        for (i, &arg) in args.iter().enumerate() {
            self.regs[base + i] = self.regs[caller_base + arg as usize];
        }
        self.regs[base + args.len()..top].fill(Word::default());
        self.frames.push(Frame { base, size: callee.window, ret_pc, ret_dst, region: None });
        Ok(())
    }

    /// Leaves the innermost frame with its result `value`. Returns the
    /// op the caller resumes at, or `None` when the outermost frame
    /// returned.
    #[inline(never)]
    fn pop_frame(&mut self, value: Option<Word>) -> Result<Option<usize>, Trap> {
        let frame = self.frames.pop().expect("a return runs inside a frame");
        if let Some(region) = frame.region {
            // Raised in the caller's frame, as a call that failed.
            self.saved.truncate(region.saved_at);
            return Err(error("return inside an atomic region"));
        }
        let Some(caller) = self.frames.last() else { return Ok(None) };
        if frame.ret_dst != NO_REG {
            let Some(value) = value else { return Err(error("function returned no value")) };
            self.regs[caller.base + frame.ret_dst as usize] = value;
        }
        Ok(Some(frame.ret_pc))
    }
}

#[derive(Debug)]
struct Frame {
    /// First register of the window in [`Machine::regs`].
    base: usize,
    /// Window length.
    size: usize,
    /// Op the caller resumes at.
    ret_pc: usize,
    /// Caller register receiving the result, or [`NO_REG`].
    ret_dst: u32,
    /// The atomic region this frame began, if one is open.
    region: Option<RegionState>,
}

#[derive(Debug)]
struct RegionState {
    /// The region's `TxBegin` op, where a retry re-enters.
    begin: usize,
    /// Where the window's snapshot starts in [`Machine::saved`].
    saved_at: usize,
    attempt: u32,
    backedges: u32,
}

impl Vm {
    /// Creates a VM with the default configuration, registering the
    /// program's classes with the heap.
    pub fn new(program: Arc<IrProgram>, heap: Arc<Heap>, backend: Arc<SyncBackend>) -> Vm {
        Vm::with_config(program, heap, backend, VmConfig::default())
    }

    /// Creates a VM with an explicit configuration, registering the
    /// program's classes with the heap and decoding its functions.
    pub fn with_config(
        program: Arc<IrProgram>,
        heap: Arc<Heap>,
        backend: Arc<SyncBackend>,
        config: VmConfig,
    ) -> Vm {
        let class_map: Vec<ClassId> = program
            .classes
            .iter()
            .map(|c| {
                heap.define_class(ClassDesc::new(
                    c.name.clone(),
                    c.fields
                        .iter()
                        .map(|f| {
                            FieldDesc::new(
                                f.name.clone(),
                                if f.immutable { FieldMut::Val } else { FieldMut::Var },
                            )
                        })
                        .collect(),
                ))
            })
            .collect();
        let code = Code::decode(&program, &class_map);
        Vm {
            program,
            heap,
            backend,
            code,
            machine: RefCell::default(),
            counters: VmCounters::default(),
            callee_backedges: Cell::new(0),
            config,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &Arc<IrProgram> {
        &self.program
    }

    /// The shared heap.
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    /// The synchronization backend.
    pub fn backend(&self) -> &Arc<SyncBackend> {
        &self.backend
    }

    /// Dynamic counters accumulated so far.
    pub fn counters(&self) -> VmCountersSnapshot {
        self.counters.snapshot()
    }

    /// Zeroes the dynamic counters.
    pub fn reset_counters(&self) {
        self.counters.reset();
    }

    /// Runs the named function with `args`.
    ///
    /// # Errors
    ///
    /// [`VmError::UnknownFunction`] for a bad name; [`VmError::Trap`]
    /// for runtime errors (including a wrong argument count and an
    /// exhausted retry budget).
    pub fn run(&self, name: &str, args: &[Word]) -> Result<Option<Word>, VmError> {
        let Some(func) = self.program.function_id(name) else {
            return Err(VmError::UnknownFunction(name.to_owned()));
        };
        let f = self.program.function(func);
        if args.len() != f.param_count as usize {
            return Err(VmError::Trap(format!(
                "`{name}` expects {} argument(s), got {}",
                f.param_count,
                args.len()
            )));
        }
        let backend = self.backend.clone();
        let mut session = Session::Idle;
        let mut machine = self.machine.borrow_mut();
        let mut counts = VmCountersSnapshot::default();
        let result = self.exec(&backend, &mut session, &mut machine, func, args, &mut counts);
        self.counters.add(&counts);
        session.abort(); // releases locks/ownership on error paths
        result.map_err(|t| match t {
            Trap::Conflict => VmError::Trap("conflict escaped all atomic regions".into()),
            Trap::Error(msg) => VmError::Trap(msg),
        })
    }

    /// Runs `func` to completion, re-entering the dispatch loop after
    /// every trap an open region absorbs.
    fn exec<'b>(
        &self,
        backend: &'b SyncBackend,
        session: &mut Session<'b>,
        m: &mut Machine,
        func: FuncId,
        args: &[Word],
        n: &mut VmCountersSnapshot,
    ) -> Result<Option<Word>, Trap> {
        let f = self.code.funcs[func.0 as usize];
        // A run that panicked may have left frames behind.
        m.frames.clear();
        m.saved.clear();
        if m.regs.len() < f.window {
            m.regs.resize(f.window, Word::default());
        }
        m.regs[..args.len()].copy_from_slice(args);
        m.regs[args.len()..f.window].fill(Word::default());
        m.frames.push(Frame { base: 0, size: f.window, ret_pc: 0, ret_dst: NO_REG, region: None });
        let mut pc = f.start;
        loop {
            match self.dispatch(backend, session, m, pc, n) {
                Ok(value) => return Ok(value),
                Err(trap) => pc = self.recover(trap, session, m, n)?,
            }
        }
    }

    /// Executes ops from `pc` in the innermost frame until the outermost
    /// frame returns or an op traps. A trap leaves the trapping frame
    /// innermost.
    #[inline(never)]
    fn dispatch<'b>(
        &self,
        backend: &'b SyncBackend,
        session: &mut Session<'b>,
        m: &mut Machine,
        mut pc: usize,
        n: &mut VmCountersSnapshot,
    ) -> Result<Option<Word>, Trap> {
        let ops = &self.code.ops[..];
        let side = &self.code.side[..];
        let heap = &*self.heap;
        // The innermost frame's window; every register index is checked
        // against it.
        let mut regs = window(&mut m.regs, &m.frames);
        // Instructions are counted a straight-line run at a time: the
        // ops in `seg..pc` have all run and are uncounted.
        let mut seg = pc;

        // Counts the run up to `end` and starts a new one at `next`.
        macro_rules! settle {
            ($end:expr, $next:expr) => {{
                n.insts += ($end - seg) as u64;
                pc = $next;
                seg = pc;
            }};
        }
        // Raises a trap in the op just dispatched, counting it; a
        // terminator's trap leaves the terminator uncounted.
        macro_rules! trap {
            ($t:expr) => {{
                n.insts += (pc - seg) as u64;
                return Err($t);
            }};
        }
        macro_rules! term_trap {
            ($t:expr) => {{
                n.insts += (pc - 1 - seg) as u64;
                return Err($t);
            }};
        }
        macro_rules! tri {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(t) => trap!(t),
                }
            };
        }

        macro_rules! scalars {
            ($lhs:expr, $rhs:expr) => {
                match (regs[$lhs as usize].as_scalar(), regs[$rhs as usize].as_scalar()) {
                    (Some(x), Some(y)) => (x, y),
                    _ => trap!(error("arithmetic on a reference")),
                }
            };
        }
        macro_rules! region {
            () => {
                m.frames.last_mut().expect("an op runs inside a frame").region
            };
        }

        loop {
            let op = ops[pc];
            pc += 1;
            match op {
                Op::Const { dst, value } => regs[dst as usize] = Word::from_scalar(value),
                Op::Null { dst } => regs[dst as usize] = Word::null(),
                Op::Copy(Un { dst, src }) => regs[dst as usize] = regs[src as usize],
                Op::Neg(Un { dst, src }) => {
                    let Some(v) = regs[src as usize].as_scalar() else {
                        trap!(error("unary operator on a reference"));
                    };
                    regs[dst as usize] = Word::from_scalar_wrapping(v.wrapping_neg());
                }
                Op::Not(Un { dst, src }) => {
                    let Some(v) = regs[src as usize].as_scalar() else {
                        trap!(error("unary operator on a reference"));
                    };
                    regs[dst as usize] = Word::from_scalar(i64::from(v == 0));
                }
                Op::Add(Bin { dst, lhs, rhs }) => {
                    let (x, y) = scalars!(lhs, rhs);
                    regs[dst as usize] = Word::from_scalar_wrapping(x.wrapping_add(y));
                }
                Op::Sub(Bin { dst, lhs, rhs }) => {
                    let (x, y) = scalars!(lhs, rhs);
                    regs[dst as usize] = Word::from_scalar_wrapping(x.wrapping_sub(y));
                }
                Op::Mul(Bin { dst, lhs, rhs }) => {
                    let (x, y) = scalars!(lhs, rhs);
                    regs[dst as usize] = Word::from_scalar_wrapping(x.wrapping_mul(y));
                }
                Op::Div(Bin { dst, lhs, rhs }) => {
                    let (x, y) = scalars!(lhs, rhs);
                    if y == 0 {
                        trap!(error("division by zero"));
                    }
                    regs[dst as usize] = Word::from_scalar_wrapping(x.wrapping_div(y));
                }
                Op::Mod(Bin { dst, lhs, rhs }) => {
                    let (x, y) = scalars!(lhs, rhs);
                    if y == 0 {
                        trap!(error("remainder by zero"));
                    }
                    regs[dst as usize] = Word::from_scalar_wrapping(x.wrapping_rem(y));
                }
                // Equality is bitwise: scalars by value, references by
                // identity.
                Op::Eq(Bin { dst, lhs, rhs }) => {
                    let eq = regs[lhs as usize] == regs[rhs as usize];
                    regs[dst as usize] = Word::from_scalar(i64::from(eq));
                }
                Op::Ne(Bin { dst, lhs, rhs }) => {
                    let ne = regs[lhs as usize] != regs[rhs as usize];
                    regs[dst as usize] = Word::from_scalar(i64::from(ne));
                }
                Op::Lt(Bin { dst, lhs, rhs }) => {
                    let (x, y) = scalars!(lhs, rhs);
                    regs[dst as usize] = Word::from_scalar(i64::from(x < y));
                }
                Op::Le(Bin { dst, lhs, rhs }) => {
                    let (x, y) = scalars!(lhs, rhs);
                    regs[dst as usize] = Word::from_scalar(i64::from(x <= y));
                }
                Op::Gt(Bin { dst, lhs, rhs }) => {
                    let (x, y) = scalars!(lhs, rhs);
                    regs[dst as usize] = Word::from_scalar(i64::from(x > y));
                }
                Op::Ge(Bin { dst, lhs, rhs }) => {
                    let (x, y) = scalars!(lhs, rhs);
                    regs[dst as usize] = Word::from_scalar(i64::from(x >= y));
                }
                Op::NewInit { dst, class, args } => {
                    n.allocs += 1;
                    let obj = tri!(session.alloc(heap, class));
                    for (i, &arg) in side[args.range()].iter().enumerate() {
                        heap.store(obj, i, regs[arg as usize]);
                    }
                    regs[dst as usize] = Word::from_ref(obj);
                }
                Op::NewZero { dst, class, nulls } => {
                    n.allocs += 1;
                    let obj = tri!(session.alloc(heap, class));
                    for &field in &side[nulls.range()] {
                        heap.store(obj, field as usize, Word::null());
                    }
                    regs[dst as usize] = Word::from_ref(obj);
                }
                Op::GetField { dst, obj, field } => {
                    n.get_field += 1;
                    let r = tri!(object_of(regs[obj as usize]));
                    regs[dst as usize] = tri!(session.load(heap, r, field as usize));
                }
                Op::SetField { obj, field, src } => {
                    n.set_field += 1;
                    let r = tri!(object_of(regs[obj as usize]));
                    tri!(session.store(heap, r, field as usize, regs[src as usize]));
                }
                // Barriers are null-tolerant (hoisting safety).
                Op::OpenForRead { obj } => {
                    n.open_read += 1;
                    if let Some(r) = regs[obj as usize].as_ref() {
                        tri!(session.open_for_read(r));
                    }
                }
                Op::OpenForUpdate { obj } => {
                    n.open_update += 1;
                    if let Some(r) = regs[obj as usize].as_ref() {
                        tri!(session.open_for_update(r));
                    }
                }
                Op::LogForUndo { obj, field } => {
                    n.log_undo += 1;
                    if let Some(r) = regs[obj as usize].as_ref() {
                        tri!(session.log_for_undo(r, field as usize));
                    }
                }
                Op::Call { dst, func, args } => {
                    n.calls += 1;
                    let callee = self.code.funcs[func as usize];
                    tri!(m.push_frame(callee, &side[args.range()], pc, dst));
                    regs = window(&mut m.regs, &m.frames);
                    settle!(pc, callee.start);
                }
                Op::TxBegin => {
                    let region = &mut region!();
                    if region.is_none() {
                        n.tx_begun += 1;
                        let saved_at = m.saved.len();
                        m.saved.extend_from_slice(regs);
                        *region =
                            Some(RegionState { begin: pc - 1, saved_at, attempt: 0, backedges: 0 });
                    }
                    if session.is_active() {
                        trap!(error("nested tx_begin"));
                    }
                    *session = Session::begin(backend);
                }
                Op::TxCommit => {
                    tri!(session.commit());
                    n.tx_committed += 1;
                    if let Some(region) = region!().take() {
                        m.saved.truncate(region.saved_at);
                    }
                }
                // Terminators are not instructions: they end a counted
                // run without joining it.
                Op::Jump { to, back } => {
                    if back {
                        if let Err(t) = self.on_edge(session, &mut region!(), n) {
                            term_trap!(t);
                        }
                    }
                    settle!(pc - 1, to as usize);
                }
                Op::Branch { cond, then_to, else_to, then_back, else_back } => {
                    // A reference where a bool was expected: only possible
                    // in a zombie, which the trap handler sandboxes.
                    let Some(v) = regs[cond as usize].as_scalar() else {
                        term_trap!(error("branch on a non-boolean value"));
                    };
                    let (to, back) =
                        if v != 0 { (then_to, then_back) } else { (else_to, else_back) };
                    if back {
                        if let Err(t) = self.on_edge(session, &mut region!(), n) {
                            term_trap!(t);
                        }
                    }
                    settle!(pc - 1, to as usize);
                }
                Op::Return { src } => {
                    let value = (src != NO_REG).then(|| regs[src as usize]);
                    match m.pop_frame(value) {
                        Ok(Some(ret_pc)) => settle!(pc - 1, ret_pc),
                        Ok(None) => {
                            n.insts += (pc - 1 - seg) as u64;
                            return Ok(value);
                        }
                        Err(t) => term_trap!(t),
                    }
                    regs = window(&mut m.regs, &m.frames);
                }
            }
        }
    }

    /// Offers `trap` to each frame from the innermost out, popping the
    /// frames that cannot absorb it. Returns the op to resume at, with
    /// the absorbing region's window restored from its snapshot.
    #[cold]
    fn recover(
        &self,
        mut trap: Trap,
        session: &mut Session<'_>,
        m: &mut Machine,
        n: &mut VmCountersSnapshot,
    ) -> Result<usize, Trap> {
        while let Some(frame) = m.frames.last_mut() {
            match self.handle_trap(trap, session, &mut frame.region, n) {
                Ok(()) => {
                    let region = frame.region.as_ref().expect("a retry needs a region");
                    let snapshot = &m.saved[region.saved_at..region.saved_at + frame.size];
                    m.regs[frame.base..frame.base + frame.size].copy_from_slice(snapshot);
                    return Ok(region.begin);
                }
                Err(t) => {
                    if let Some(region) = m.frames.pop().and_then(|f| f.region) {
                        m.saved.truncate(region.saved_at);
                    }
                    trap = t;
                }
            }
        }
        Err(trap)
    }

    /// Back-edge hook: count and periodically validate (zombie
    /// containment).
    fn on_edge(
        &self,
        session: &mut Session<'_>,
        region: &mut Option<RegionState>,
        n: &mut VmCountersSnapshot,
    ) -> Result<(), Trap> {
        if !session.is_active() {
            return Ok(());
        }
        let Some(every) = self.config.validate_backedges_every else { return Ok(()) };
        if let Some(state) = region {
            state.backedges += 1;
            if state.backedges >= every {
                state.backedges = 0;
                n.backedge_validations += 1;
                session.validate()?;
            }
        } else {
            // We are in a callee of the region frame; use a VM-level
            // counter so callee loops are bounded the same way.
            let count = self.callee_backedges.get() + 1;
            if count >= every {
                self.callee_backedges.set(0);
                n.backedge_validations += 1;
                session.validate()?;
            } else {
                self.callee_backedges.set(count);
            }
        }
        Ok(())
    }

    /// Decides whether the frame owning `region` absorbs `trap`: `Ok`
    /// to retry its region, `Err` with the trap to pass to the caller.
    fn handle_trap(
        &self,
        trap: Trap,
        session: &mut Session<'_>,
        region: &mut Option<RegionState>,
        n: &mut VmCountersSnapshot,
    ) -> Result<(), Trap> {
        if let Trap::Error(msg) = trap {
            // Managed-runtime sandboxing: a runtime error inside an
            // invalid transaction is an artifact — retry instead.
            if !(session.is_active() && session.validate().is_err()) {
                return Err(Trap::Error(msg));
            }
        }

        let Some(state) = region else {
            // The region began in a caller frame; unwind to it.
            return Err(Trap::Conflict);
        };
        session.abort();
        n.tx_retries += 1;
        state.attempt += 1;
        if state.attempt > self.config.max_region_retries {
            return Err(Trap::Error("atomic region retry budget exhausted".into()));
        }
        backoff(state.attempt);
        Ok(())
    }
}

#[cold]
fn error(msg: &str) -> Trap {
    Trap::Error(msg.to_owned())
}

#[inline]
fn object_of(w: Word) -> Result<omt_heap::ObjRef, Trap> {
    if w.is_null() {
        return Err(error("null dereference"));
    }
    w.as_ref().ok_or_else(|| error("field access on a non-object"))
}

fn backoff(attempt: u32) {
    let cap = 1u32 << attempt.min(12);
    let spins = omt_util::rng::thread_rng().gen_range(0..=cap);
    for _ in 0..spins {
        std::hint::spin_loop();
    }
    if attempt > 8 {
        std::thread::yield_now();
    }
}
