//! Instruction traces and the builder workloads use to emit them.

use crate::instr::{Instr, OpClass, Reg, VAddr};

/// Aggregate counts over a trace, used by workloads and the experiment
/// harness to report operation mixes and MFLOPS.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total micro-operations.
    pub instrs: u64,
    /// Memory loads.
    pub loads: u64,
    /// Memory stores.
    pub stores: u64,
    /// Floating-point operations (fmadd counts two).
    pub flops: u64,
    /// Integer ALU/multiply/divide operations.
    pub int_ops: u64,
    /// Branches.
    pub branches: u64,
}

impl TraceStats {
    /// Accumulates one instruction into the counts.
    pub fn record(&mut self, i: &Instr) {
        self.instrs += 1;
        match i.op {
            OpClass::Load => self.loads += 1,
            OpClass::Store => self.stores += 1,
            OpClass::Branch => self.branches += 1,
            OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv => self.int_ops += 1,
            _ => {}
        }
        self.flops += i.op.flops();
    }
}

/// A materialised instruction stream plus its aggregate statistics.
///
/// # Examples
///
/// ```
/// use pm_isa::{Trace, Instr, Reg, VAddr};
///
/// let t = Trace::from_instrs(vec![
///     Instr::load(Reg(0), VAddr(0), 8, None),
///     Instr::store(Reg(0), VAddr(8), 8),
/// ]);
/// assert_eq!(t.stats().loads, 1);
/// assert_eq!(t.stats().stores, 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    instrs: Vec<Instr>,
    stats: TraceStats,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a trace from a vector of instructions, computing stats.
    pub fn from_instrs(instrs: Vec<Instr>) -> Self {
        let mut stats = TraceStats::default();
        for i in &instrs {
            stats.record(i);
        }
        Trace { instrs, stats }
    }

    /// Appends one instruction.
    pub fn push(&mut self, i: Instr) {
        self.stats.record(&i);
        self.instrs.push(i);
    }

    /// The instructions in program order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Aggregate operation counts.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// Iterates instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instr> {
        self.instrs.iter()
    }
}

impl IntoIterator for Trace {
    type Item = Instr;
    type IntoIter = std::vec::IntoIter<Instr>;
    fn into_iter(self) -> Self::IntoIter {
        self.instrs.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Instr;
    type IntoIter = std::slice::Iter<'a, Instr>;
    fn into_iter(self) -> Self::IntoIter {
        self.instrs.iter()
    }
}

impl FromIterator<Instr> for Trace {
    fn from_iter<I: IntoIterator<Item = Instr>>(iter: I) -> Self {
        Trace::from_instrs(iter.into_iter().collect())
    }
}

impl Extend<Instr> for Trace {
    fn extend<I: IntoIterator<Item = Instr>>(&mut self, iter: I) {
        for i in iter {
            self.push(i);
        }
    }
}

/// The register-name sequence a [`TraceBuilder`] hands out: `r0, r1, …`,
/// wrapping at 4096 (the rename stage in `pm-cpu` keys on names, and
/// kernels never keep 4096 values live).
///
/// Lazy kernel emitters use it directly so a streamed loop nest names its
/// registers exactly as the builder-made trace of the same nest does.
///
/// # Examples
///
/// ```
/// use pm_isa::{Reg, RegNames};
///
/// let mut names = RegNames::new();
/// assert_eq!(names.fresh(), Reg(0));
/// assert_eq!(names.fresh(), Reg(1));
/// // Resuming mid-stream: the sequence after 4097 names.
/// assert_eq!(RegNames::after(4097).fresh(), Reg(1));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegNames {
    next: u16,
}

impl RegNames {
    /// Number of distinct names before the sequence wraps.
    const COUNT: u64 = 4096;

    /// A sequence starting at `r0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sequence as it stands after `allocated` names were handed out.
    pub fn after(allocated: u64) -> Self {
        RegNames {
            next: (allocated % Self::COUNT) as u16,
        }
    }

    /// Hands out the next name.
    pub fn fresh(&mut self) -> Reg {
        let r = Reg(self.next);
        self.next = ((self.next as u64 + 1) % Self::COUNT) as u16;
        r
    }
}

/// Emits instruction sequences with automatic register naming.
///
/// Kernels obtain fresh register names with [`TraceBuilder::reg`], then emit
/// operations; each value-producing emitter returns the destination register
/// so dependences chain naturally.
///
/// # Examples
///
/// ```
/// use pm_isa::TraceBuilder;
///
/// let mut tb = TraceBuilder::new();
/// let acc0 = tb.reg();
/// let a = tb.load(0x100, 8);
/// let b = tb.load(0x200, 8);
/// let acc1 = tb.fmadd(a, b, acc0);
/// tb.branch(1, true, None);
/// let t = tb.finish();
/// assert_eq!(t.stats().loads, 2);
/// assert_eq!(t.stats().flops, 2); // one fmadd
/// assert_eq!(t.stats().branches, 1);
/// # let _ = acc1;
/// ```
#[derive(Clone, Debug, Default)]
pub struct TraceBuilder {
    trace: Trace,
    names: RegNames,
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh register name (see [`RegNames`]).
    pub fn reg(&mut self) -> Reg {
        self.names.fresh()
    }

    /// Emits a load of `bytes` at `addr`; returns the loaded value's register.
    pub fn load(&mut self, addr: u64, bytes: u8) -> Reg {
        let dst = self.reg();
        self.trace.push(Instr::load(dst, VAddr(addr), bytes, None));
        dst
    }

    /// Emits a store of `src` to `addr`.
    pub fn store(&mut self, src: Reg, addr: u64, bytes: u8) {
        self.trace.push(Instr::store(src, VAddr(addr), bytes));
    }

    /// Emits an integer ALU op over up to two sources; returns the result.
    pub fn iadd(&mut self, a: Reg, b: Reg) -> Reg {
        self.emit2(OpClass::IntAlu, a, b)
    }

    /// Emits an integer multiply; returns the result.
    pub fn imul(&mut self, a: Reg, b: Reg) -> Reg {
        self.emit2(OpClass::IntMul, a, b)
    }

    /// Emits an integer divide; returns the result.
    pub fn idiv(&mut self, a: Reg, b: Reg) -> Reg {
        self.emit2(OpClass::IntDiv, a, b)
    }

    /// Emits a floating-point add; returns the result.
    pub fn fadd(&mut self, a: Reg, b: Reg) -> Reg {
        self.emit2(OpClass::FpAdd, a, b)
    }

    /// Emits a floating-point multiply; returns the result.
    pub fn fmul(&mut self, a: Reg, b: Reg) -> Reg {
        self.emit2(OpClass::FpMul, a, b)
    }

    /// Emits a fused multiply-add `a*b + acc`; returns the result.
    ///
    /// Modelled with `acc` as the second source so the loop-carried
    /// dependence of a dot-product reduction is visible to the scheduler.
    pub fn fmadd(&mut self, a: Reg, b: Reg, acc: Reg) -> Reg {
        let dst = self.reg();
        // a enters via src1; the multiplier operand b is folded into the
        // unit occupancy, the accumulate dependence rides on src2.
        let _ = b;
        self.trace
            .push(Instr::alu(OpClass::FpMadd, Some(dst), Some(a), Some(acc)));
        dst
    }

    /// Emits a floating-point divide; returns the result.
    pub fn fdiv(&mut self, a: Reg, b: Reg) -> Reg {
        self.emit2(OpClass::FpDiv, a, b)
    }

    /// Emits a branch with static id `pc`, actual outcome `taken`, optionally
    /// condition-dependent on `cond`.
    pub fn branch(&mut self, pc: u64, taken: bool, cond: Option<Reg>) {
        self.trace.push(Instr::branch_at(pc, taken, cond));
    }

    /// Emits a no-op.
    pub fn nop(&mut self) {
        self.trace.push(Instr::nop());
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Finishes the build and returns the trace.
    pub fn finish(self) -> Trace {
        self.trace
    }

    fn emit2(&mut self, op: OpClass, a: Reg, b: Reg) -> Reg {
        let dst = self.reg();
        self.trace.push(Instr::alu(op, Some(dst), Some(a), Some(b)));
        dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_dependences() {
        let mut tb = TraceBuilder::new();
        let a = tb.load(0, 8);
        let b = tb.load(8, 8);
        let c = tb.fadd(a, b);
        tb.store(c, 16, 8);
        let t = tb.finish();
        assert_eq!(t.len(), 4);
        let add = t.instrs()[2];
        assert_eq!(add.src1, Some(a));
        assert_eq!(add.src2, Some(b));
        assert_eq!(t.instrs()[3].src1, Some(c));
    }

    #[test]
    fn stats_count_all_classes() {
        let mut tb = TraceBuilder::new();
        let a = tb.load(0, 8);
        let b = tb.load(64, 8);
        let s = tb.fmadd(a, b, a);
        let i = tb.iadd(a, b);
        let _ = tb.idiv(i, i);
        tb.store(s, 128, 8);
        tb.branch(0, false, None);
        tb.nop();
        let st = tb.finish().stats();
        assert_eq!(st.instrs, 8);
        assert_eq!(st.loads, 2);
        assert_eq!(st.stores, 1);
        assert_eq!(st.flops, 2);
        assert_eq!(st.int_ops, 2);
        assert_eq!(st.branches, 1);
    }

    #[test]
    fn trace_from_iterator_and_extend() {
        let t: Trace = (0..4)
            .map(|k| Instr::load(Reg(k), VAddr(64 * k as u64), 8, None))
            .collect();
        assert_eq!(t.stats().loads, 4);
        let mut t2 = Trace::new();
        t2.extend(t.clone());
        t2.extend(t);
        assert_eq!(t2.len(), 8);
        assert_eq!(t2.stats().loads, 8);
    }

    #[test]
    fn register_names_wrap() {
        let mut tb = TraceBuilder::new();
        let first = tb.reg();
        for _ in 0..4095 {
            tb.reg();
        }
        let wrapped = tb.reg();
        assert_eq!(first, wrapped);
    }
}
