//! The HINT benchmark, reimplemented (Gustafson & Snell, HICS'95).
//!
//! HINT approximates the integral of `f(x) = (1-x)/(1+x)` over `[0,1]` by
//! subdividing the interval and bounding the area from inside (lower
//! bound) and outside (upper bound) with counted squares. The *quality*
//! of the answer is the reciprocal of the gap between the bounds; because
//! of the function's self-similarity, quality grows linearly with both
//! storage and operations — the property that makes HINT scalable.
//!
//! The reimplementation runs the real computation over real interval
//! records (so working-set growth and address patterns are genuine). One
//! [`Hint::pass`] splits every current interval in two, doubling memory
//! and quality, and hands the timing model the micro-ops of that inner
//! loop as a lazy [`HintEmitter`].

use pm_isa::{Instr, OpClass, Reg, RegNames, VAddr};

/// Data type the benchmark computes with (Figure 6a vs 6b).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HintType {
    /// 64-bit floating point.
    Double,
    /// Fixed-point integer arithmetic (scaled by 2^30).
    Int,
}

/// One interval record: bounds of x and the function values at its ends.
/// Stored contiguously; 32 bytes for DOUBLE, 16 for INT — the unit the
/// cache hierarchy sees.
#[derive(Clone, Copy, Debug)]
struct Interval {
    x0: f64,
    x1: f64,
    f0: f64,
    f1: f64,
}

/// The result of one refinement pass.
#[derive(Clone, Debug)]
pub struct HintPass {
    /// The micro-ops of the pass's inner loop, streamed one split at a
    /// time.
    pub ops: HintEmitter,
    /// Quality after the pass (1 / (upper − lower)).
    pub quality: f64,
    /// Working-set bytes after the pass.
    pub memory_bytes: u64,
    /// Quality improvements performed in this pass (one per split).
    pub improvements: u64,
}

/// The HINT benchmark state.
///
/// # Examples
///
/// ```
/// use pm_workloads::hint::{Hint, HintType};
///
/// let mut h = Hint::new(HintType::Double);
/// for _ in 0..6 {
///     h.pass();
/// }
/// // 2^6 intervals: quality ~ 64, integral bracketed.
/// assert!((h.lower_bound()..=h.upper_bound()).contains(&h.exact()));
/// ```
#[derive(Clone, Debug)]
pub struct Hint {
    dtype: HintType,
    intervals: Vec<Interval>,
    base_addr: u64,
    passes: u32,
    /// The previous generation's interval storage, which the next pass
    /// builds into instead of allocating.
    spare_intervals: Vec<Interval>,
}

impl Hint {
    /// Creates the benchmark with the single interval `[0, 1]`.
    pub fn new(dtype: HintType) -> Self {
        Hint {
            dtype,
            intervals: vec![Interval {
                x0: 0.0,
                x1: 1.0,
                f0: f(0.0),
                f1: f(1.0),
            }],
            base_addr: 0x1000_0000,
            passes: 0,
            spare_intervals: Vec::new(),
        }
    }

    /// The data type under test.
    pub fn dtype(&self) -> HintType {
        self.dtype
    }

    /// Bytes per interval record as laid out in memory.
    pub fn record_bytes(&self) -> u64 {
        match self.dtype {
            HintType::Double => 32,
            HintType::Int => 16,
        }
    }

    /// Current number of intervals.
    pub fn intervals(&self) -> usize {
        self.intervals.len()
    }

    /// Current working-set size in bytes (old + new generation during a
    /// pass; steady-state storage after).
    pub fn memory_bytes(&self) -> u64 {
        self.intervals.len() as u64 * self.record_bytes()
    }

    /// Lower bound of the integral from the current subdivision.
    ///
    /// `f` is decreasing on `[0,1]`, so the inscribed rectangle of each
    /// interval uses the right-end value.
    pub fn lower_bound(&self) -> f64 {
        self.intervals
            .iter()
            .map(|iv| (iv.x1 - iv.x0) * iv.f1)
            .sum()
    }

    /// Upper bound (circumscribed rectangles, left-end values).
    pub fn upper_bound(&self) -> f64 {
        self.intervals
            .iter()
            .map(|iv| (iv.x1 - iv.x0) * iv.f0)
            .sum()
    }

    /// The exact value, `2 ln 2 − 1`.
    pub fn exact(&self) -> f64 {
        2.0 * std::f64::consts::LN_2 - 1.0
    }

    /// Quality of the current answer: `1 / (upper − lower)`.
    pub fn quality(&self) -> f64 {
        1.0 / (self.upper_bound() - self.lower_bound())
    }

    /// Performs one refinement pass: every interval splits at its
    /// midpoint (the equal-subinterval, largest-removable-error schedule
    /// HINT follows on this self-similar function). The split itself
    /// runs here; the returned emitter yields the micro-ops it stands for.
    pub fn pass(&mut self) -> HintPass {
        let old_base = self.base_addr;
        // Generations ping-pong between two arenas so the addresses the
        // timing model sees match a real implementation.
        // The arenas sit 65 MB apart: real allocators do not hand out
        // blocks that alias perfectly in a direct-mapped L2, so neither
        // do we (65 MB mod 2 MB = 1 MB — the arenas land in different
        // halves of the L2).
        const ARENA_STRIDE: u64 = 65 * 1024 * 1024;
        let new_base = if self.passes.is_multiple_of(2) {
            self.base_addr + ARENA_STRIDE
        } else {
            self.base_addr - ARENA_STRIDE
        };

        let mut next = std::mem::take(&mut self.spare_intervals);
        next.clear();
        next.reserve(self.intervals.len() * 2);
        for iv in &self.intervals {
            let xm = 0.5 * (iv.x0 + iv.x1);
            let fm = f(xm);
            next.push(Interval {
                x0: iv.x0,
                x1: xm,
                f0: iv.f0,
                f1: fm,
            });
            next.push(Interval {
                x0: xm,
                x1: iv.x1,
                f0: fm,
                f1: iv.f1,
            });
        }
        let improvements = self.intervals.len() as u64;
        let ops = HintEmitter {
            dtype: self.dtype,
            old_base,
            new_base,
            rec: self.record_bytes(),
            splits: improvements,
            next_split: 0,
            names: RegNames::new(),
            buf: [Instr::nop(); SPLIT_OPS],
            len: 0,
            pos: 0,
        };
        self.spare_intervals = std::mem::replace(&mut self.intervals, next);
        self.base_addr = new_base;
        self.passes += 1;
        HintPass {
            ops,
            quality: self.quality(),
            memory_bytes: self.memory_bytes(),
            improvements,
        }
    }
}

/// The integrand.
fn f(x: f64) -> f64 {
    (1.0 - x) / (1.0 + x)
}

/// Micro-ops in one DOUBLE split, the longer of the two.
const SPLIT_OPS: usize = 22;

/// Lazy micro-op emitter of one HINT pass (see [`Hint::pass`]).
///
/// Split `i` reads record `i` of the old arena and writes records `2i`
/// and `2i + 1` of the new one. The emitter writes one split at a time
/// into a fixed buffer; its register names run on across splits, as one
/// `TraceBuilder` over the whole pass would hand them out.
#[derive(Clone, Debug)]
pub struct HintEmitter {
    dtype: HintType,
    old_base: u64,
    new_base: u64,
    rec: u64,
    splits: u64,
    next_split: u64,
    names: RegNames,
    buf: [Instr; SPLIT_OPS],
    len: usize,
    pos: usize,
}

impl HintEmitter {
    /// Fills the buffer with the micro-ops of the next split.
    ///
    /// DOUBLE: load the record, midpoint (`fadd`, `fmul` by 0.5), evaluate
    /// `f(xm)` (`fadd`, `fadd`, `fdiv`), rectangle-bound updates (`fmadd`s),
    /// store two child records. INT: the fixed-point equivalent with adds
    /// and multiplies.
    fn emit_split(&mut self) {
        let idx = self.next_split;
        self.next_split += 1;
        self.len = 0;
        self.pos = 0;
        let rec = self.rec;
        let old = self.old_base + idx * rec;
        let new = self.new_base + 2 * idx * rec;
        match self.dtype {
            HintType::Double => {
                let x0 = self.load(old);
                let x1 = self.load(old + 8);
                let f0 = self.load(old + 16);
                let f1 = self.load(old + 24);
                let sum = self.op(OpClass::FpAdd, x0, x1);
                let xm = self.op(OpClass::FpMul, sum, sum); // * 0.5 constant
                let num = self.op(OpClass::FpAdd, xm, xm); // 1 - xm
                let den = self.op(OpClass::FpAdd, xm, xm); // 1 + xm
                let fm = self.op(OpClass::FpDiv, num, den);
                // Bound updates (`fmadd`): the multiplier folds into the
                // unit occupancy, the accumulate dependence rides on src2.
                let e0 = self.op(OpClass::FpMadd, f0, x0); // left child
                self.op(OpClass::FpMadd, fm, x1); // right child
                self.store(x0, new);
                self.store(xm, new + 8);
                self.store(f0, new + 16);
                self.store(fm, new + 24);
                self.store(xm, new + rec);
                self.store(x1, new + rec + 8);
                self.store(fm, new + rec + 16);
                self.store(f1, new + rec + 24);
                self.store(e0, old); // error log write-back
            }
            HintType::Int => {
                // Fixed-point ports of HINT evaluate the integrand with a
                // shift-and-multiply reciprocal (Newton step on a table seed)
                // rather than a hardware divide, so the INT inner loop is
                // adds and multiplies.
                let x0 = self.load(old);
                let f0 = self.load(old + 8);
                let sum = self.op(OpClass::IntAlu, x0, f0);
                let xm = self.op(OpClass::IntAlu, sum, sum); // shift-average
                let seed = self.op(OpClass::IntMul, xm, f0); // reciprocal seed lookup + scale
                let corr = self.op(OpClass::IntMul, seed, xm); // Newton correction
                let fm = self.op(OpClass::IntAlu, seed, corr);
                let e0 = self.op(OpClass::IntAlu, fm, x0);
                self.store(x0, new);
                self.store(fm, new + 8);
                self.store(xm, new + rec);
                self.store(e0, new + rec + 8);
            }
        }
        // Loop control: index increment and a backward branch, well
        // predicted except at the pass boundary.
        let i = self.names.fresh();
        let one = self.names.fresh();
        let ni = self.op(OpClass::IntAlu, i, one);
        self.push(Instr::branch_at(0x40, true, Some(ni)));
    }

    fn push(&mut self, i: Instr) {
        self.buf[self.len] = i;
        self.len += 1;
    }

    /// An 8-byte load; returns the loaded value's register.
    fn load(&mut self, addr: u64) -> Reg {
        let dst = self.names.fresh();
        self.push(Instr::load(dst, VAddr(addr), 8, None));
        dst
    }

    /// An 8-byte store of `src`.
    fn store(&mut self, src: Reg, addr: u64) {
        self.push(Instr::store(src, VAddr(addr), 8));
    }

    /// A two-source op; returns its result's register.
    fn op(&mut self, op: OpClass, a: Reg, b: Reg) -> Reg {
        let dst = self.names.fresh();
        self.push(Instr::alu(op, Some(dst), Some(a), Some(b)));
        dst
    }
}

impl Iterator for HintEmitter {
    type Item = Instr;

    #[inline]
    fn next(&mut self) -> Option<Instr> {
        if self.pos == self.len {
            if self.next_split == self.splits {
                return None;
            }
            self.emit_split();
        }
        self.pos += 1;
        Some(self.buf[self.pos - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_isa::Trace;

    #[test]
    fn bounds_bracket_the_exact_integral() {
        let mut h = Hint::new(HintType::Double);
        for _ in 0..10 {
            h.pass();
            assert!(h.lower_bound() <= h.exact());
            assert!(h.upper_bound() >= h.exact());
        }
    }

    #[test]
    fn quality_doubles_per_pass() {
        // On this self-similar integrand, the bound gap halves each pass:
        // quality after k passes is 2^k.
        let mut h = Hint::new(HintType::Double);
        let mut prev = h.quality();
        for _ in 0..12 {
            h.pass();
            let q = h.quality();
            let ratio = q / prev;
            assert!(
                (1.99..2.01).contains(&ratio),
                "quality ratio per pass {ratio:.4} should be 2"
            );
            prev = q;
        }
    }

    #[test]
    fn quality_is_linear_in_memory() {
        let mut h = Hint::new(HintType::Double);
        for _ in 0..8 {
            h.pass();
        }
        let q_per_byte = h.quality() / h.memory_bytes() as f64;
        let mut h2 = Hint::new(HintType::Double);
        for _ in 0..12 {
            h2.pass();
        }
        let q_per_byte2 = h2.quality() / h2.memory_bytes() as f64;
        assert!(
            (q_per_byte / q_per_byte2 - 1.0).abs() < 0.01,
            "QUIPS-per-byte should be scale-free"
        );
    }

    #[test]
    fn pass_trace_covers_the_working_set() {
        let mut h = Hint::new(HintType::Double);
        for _ in 0..6 {
            h.pass();
        }
        let before = h.intervals();
        let pass = h.pass();
        assert_eq!(pass.improvements, before as u64);
        // Each split loads its old record and stores two new ones.
        let stats = pass.ops.collect::<Trace>().stats();
        assert_eq!(stats.loads, before as u64 * 4);
        assert!(stats.stores >= before as u64 * 8);
        assert!(stats.flops > 0);
    }

    #[test]
    fn int_variant_uses_integer_ops() {
        let mut h = Hint::new(HintType::Int);
        let pass = h.pass();
        let stats = pass.ops.collect::<Trace>().stats();
        assert_eq!(stats.flops, 0);
        assert!(stats.int_ops > 0);
        assert_eq!(h.record_bytes(), 16);
    }

    #[test]
    fn generations_ping_pong_addresses() {
        let mut h = Hint::new(HintType::Double);
        let addr_of = |mut p: HintPass| p.ops.find_map(|i| i.mem.map(|m| m.addr.0));
        let first = addr_of(h.pass());
        // Consecutive passes read from different arenas.
        assert_ne!(first, addr_of(h.pass()));
    }

    #[test]
    fn memory_grows_geometrically() {
        let mut h = Hint::new(HintType::Double);
        let m0 = h.memory_bytes();
        h.pass();
        assert_eq!(h.memory_bytes(), m0 * 2);
        h.pass();
        assert_eq!(h.memory_bytes(), m0 * 4);
    }
}
