//! The MatMult matrix-multiplication benchmark (§5.1.1, Figures 7–8).
//!
//! Two versions, exactly as the paper runs them:
//!
//! * **naive** — `C = A * B` with both matrices in row order, so the
//!   inner loop walks `B` down a column (stride = one row). The long
//!   64-byte lines of the MPC620 prefetch mostly useless data here.
//! * **transposed** — transpose `B` first, then multiply by rows; the
//!   runtime *includes* the transposition. Accesses become sequential
//!   and the long cache lines pay off.
//!
//! Matrices use the figure captions' *odd strides*: the row stride is
//! padded to an odd number of elements so columns do not all collide in
//! the same cache set.
//!
//! The kernels emit exact address traces; large sizes are simulated by
//! *row sampling* — emit a handful of `i`-rows after a warm-up row and
//! extrapolate, validated against full simulation at small sizes.
//!
//! Each loop nest exists once, as a lazy emitter ([`MultiplyEmitter`],
//! [`TransposeEmitter`]) that yields one instruction at a time, so the
//! cycle engine can run it without a trace buffer; the `Trace`-returning
//! functions just collect an emitter.

use pm_isa::{Instr, OpClass, Reg, RegNames, Trace, VAddr};

/// Which MatMult version (Figure 7a vs 7b).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MatMultVersion {
    /// Row-by-column, both matrices row-major.
    Naive,
    /// Multiply by the transposed second matrix (transposition included
    /// in the measured work).
    Transposed,
}

/// A MatMult kernel for an `n x n` double-precision problem.
///
/// # Examples
///
/// ```
/// use pm_workloads::matmult::{MatMult, MatMultVersion};
///
/// let mm = MatMult::new(64, MatMultVersion::Naive);
/// let trace = mm.trace_rows(0, 2);
/// assert!(trace.stats().flops > 0);
/// assert_eq!(mm.flops_total(), 2 * 64 * 64 * 64);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatMult {
    n: usize,
    version: MatMultVersion,
    /// Row stride in elements (odd-padded).
    stride: usize,
}

// The allocations are staggered by 64 KB steps so they do not alias in
// any direct-mapped cache level up to 2 MB (real allocators do not hand
// out large blocks at identical cache offsets either).
const A_BASE: u64 = 0x1000_0000;
const B_BASE: u64 = 0x2001_0000;
const BT_BASE: u64 = 0x3002_0000;
const C_BASE: u64 = 0x4003_0000;
const ELEM: u64 = 8;

impl MatMult {
    /// Creates a kernel for an `n x n` problem.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, version: MatMultVersion) -> Self {
        assert!(n > 0, "matrix dimension must be nonzero");
        // Odd stride: pad the row to the next odd element count.
        let stride = if n % 2 == 1 { n } else { n + 1 };
        MatMult { n, version, stride }
    }

    /// The matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The version under test.
    pub fn version(&self) -> MatMultVersion {
        self.version
    }

    /// Row stride in elements (odd, per the figure captions).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Total floating-point operations of the full multiply
    /// (`2 n^3`; the transposition adds no flops).
    pub fn flops_total(&self) -> u64 {
        2 * (self.n as u64).pow(3)
    }

    /// Working set in bytes (three matrices at the padded stride).
    pub fn memory_bytes(&self) -> u64 {
        3 * (self.n as u64) * (self.stride as u64) * ELEM
    }

    /// Emits the trace of rows `[row_begin, row_end)` of the multiply
    /// loop (inner `j`/`k` loops complete per row).
    ///
    /// # Panics
    ///
    /// Panics if the row range is out of bounds or empty.
    pub fn trace_rows(&self, row_begin: usize, row_end: usize) -> Trace {
        assert!(row_begin < row_end && row_end <= self.n, "bad row range");
        self.emit_rows(row_begin, row_end).collect()
    }

    /// Streams rows `[row_begin, row_end)` of the multiply loop: the same
    /// instructions and register names as [`MatMult::trace_rows`], one at
    /// a time. An empty range yields nothing (an idle SMP lane).
    ///
    /// # Panics
    ///
    /// Panics if the range is reversed or out of bounds.
    pub fn emit_rows(&self, row_begin: usize, row_end: usize) -> MultiplyEmitter {
        assert!(row_begin <= row_end && row_end <= self.n, "bad row range");
        let n = self.n;
        let stride_b = self.stride as u64 * ELEM;
        let (b_base, b_k_step, b_j_step) = match self.version {
            // B[k][j]: walk down a column, stride = row.
            MatMultVersion::Naive => (B_BASE, stride_b, ELEM),
            // BT[j][k]: walk along a row, sequential.
            MatMultVersion::Transposed => (BT_BASE, ELEM, stride_b),
        };
        MultiplyEmitter {
            n,
            stride_b,
            b_base,
            b_k_step,
            b_j_step,
            i: row_begin,
            j: 0,
            k: 0,
            step: 0,
            names: RegNames::new(),
            acc: Reg(0),
            a: Reg(0),
            left: (row_end - row_begin) * n * (4 * n + 1),
        }
    }

    /// Emits the transposition pass `BT[j][k] = B[k][j]` (only meaningful
    /// for [`MatMultVersion::Transposed`]; the paper includes it in the
    /// runtime).
    pub fn transpose_trace(&self) -> Trace {
        self.emit_transpose(0, self.transpose_len()).collect()
    }

    /// Instructions in the whole transposition pass (three per element).
    pub fn transpose_len(&self) -> usize {
        3 * self.n * self.n
    }

    /// Streams instructions `[begin, end)` of the transposition pass with
    /// the register names they carry in [`MatMult::transpose_trace`]. A
    /// split anywhere — mid-iteration included — yields two streams whose
    /// concatenation is the whole pass.
    ///
    /// # Panics
    ///
    /// Panics if the range is reversed or past [`MatMult::transpose_len`].
    pub fn emit_transpose(&self, begin: usize, end: usize) -> TransposeEmitter {
        assert!(
            begin <= end && end <= self.transpose_len(),
            "bad transpose range"
        );
        // Each (j, k) element is a load (naming one register), a store and
        // a branch; resume inside the element holding instruction `begin`.
        let element = begin / 3;
        let step = (begin % 3) as u8;
        let mut names = RegNames::after(element as u64);
        let v = if step == 0 { Reg(0) } else { names.fresh() };
        TransposeEmitter {
            n: self.n,
            stride_b: self.stride as u64 * ELEM,
            j: element / self.n,
            k: element % self.n,
            step,
            names,
            v,
            left: end - begin,
        }
    }
}

/// Lazy multiply-loop emitter (see [`MatMult::emit_rows`]).
///
/// Per `(i, j)`: name the accumulator, then per `k` load `A[i][k]`, load
/// the `B` operand, `fmadd` into the accumulator and branch back; finally
/// store `C[i][j]`.
#[derive(Clone, Debug)]
pub struct MultiplyEmitter {
    n: usize,
    stride_b: u64,
    b_base: u64,
    b_k_step: u64,
    b_j_step: u64,
    i: usize,
    j: usize,
    k: usize,
    /// Next instruction of the `k` body: 0 load A, 1 load B, 2 fmadd,
    /// 3 branch; 4 is the store closing the `j` iteration.
    step: u8,
    names: RegNames,
    acc: Reg,
    a: Reg,
    left: usize,
}

impl Iterator for MultiplyEmitter {
    type Item = Instr;

    #[inline]
    fn next(&mut self) -> Option<Instr> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (i, j, k) = (self.i as u64, self.j as u64, self.k as u64);
        Some(match self.step {
            0 => {
                if self.k == 0 {
                    self.acc = self.names.fresh();
                }
                self.a = self.names.fresh();
                self.step = 1;
                let addr = A_BASE + i * self.stride_b + k * ELEM;
                Instr::load(self.a, VAddr(addr), 8, None)
            }
            1 => {
                self.step = 2;
                let addr = self.b_base + k * self.b_k_step + j * self.b_j_step;
                Instr::load(self.names.fresh(), VAddr(addr), 8, None)
            }
            2 => {
                // The multiplier operand folds into the unit occupancy;
                // the accumulate dependence rides on src2.
                let dst = self.names.fresh();
                let fmadd = Instr::alu(OpClass::FpMadd, Some(dst), Some(self.a), Some(self.acc));
                self.acc = dst;
                self.step = 3;
                fmadd
            }
            3 => {
                // Loop control, well predicted except the last trip.
                self.k += 1;
                let taken = self.k != self.n;
                self.step = if taken { 0 } else { 4 };
                Instr::branch_at(0x100, taken, None)
            }
            _ => {
                self.k = 0;
                self.j += 1;
                if self.j == self.n {
                    self.j = 0;
                    self.i += 1;
                }
                self.step = 0;
                let addr = C_BASE + i * self.stride_b + j * ELEM;
                Instr::store(self.acc, VAddr(addr), 8)
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// Lazy transposition-pass emitter (see [`MatMult::emit_transpose`]).
///
/// Per `(j, k)`: load `B[k][j]`, store it to `BT[j][k]`, branch back.
#[derive(Clone, Debug)]
pub struct TransposeEmitter {
    n: usize,
    stride_b: u64,
    j: usize,
    k: usize,
    /// Next instruction of the element: 0 load, 1 store, 2 branch.
    step: u8,
    names: RegNames,
    v: Reg,
    left: usize,
}

impl Iterator for TransposeEmitter {
    type Item = Instr;

    #[inline]
    fn next(&mut self) -> Option<Instr> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (j, k) = (self.j as u64, self.k as u64);
        Some(match self.step {
            0 => {
                self.v = self.names.fresh();
                self.step = 1;
                Instr::load(
                    self.v,
                    VAddr(B_BASE + k * self.stride_b + j * ELEM),
                    8,
                    None,
                )
            }
            1 => {
                self.step = 2;
                Instr::store(self.v, VAddr(BT_BASE + j * self.stride_b + k * ELEM), 8)
            }
            _ => {
                self.k += 1;
                let taken = self.k != self.n;
                if !taken {
                    self.k = 0;
                    self.j += 1;
                }
                self.step = 0;
                Instr::branch_at(0x200, taken, None)
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_isa::OpClass;

    #[test]
    fn trace_counts_match_loop_structure() {
        let mm = MatMult::new(8, MatMultVersion::Naive);
        let t = mm.trace_rows(0, 8);
        let s = t.stats();
        // Per (i,j,k): 2 loads + 1 fmadd + 1 branch; per (i,j): 1 store.
        assert_eq!(s.loads, 2 * 8 * 8 * 8);
        assert_eq!(s.flops, 2 * 8 * 8 * 8); // fmadd = 2 flops
        assert_eq!(s.stores, 8 * 8);
        assert_eq!(s.branches, 8 * 8 * 8);
    }

    #[test]
    fn naive_b_walks_columns_transposed_walks_rows() {
        let n = 16;
        let naive = MatMult::new(n, MatMultVersion::Naive).trace_rows(0, 1);
        let trans = MatMult::new(n, MatMultVersion::Transposed).trace_rows(0, 1);
        let strides = |t: &Trace, base: u64| -> Vec<i64> {
            let addrs: Vec<u64> = t
                .instrs()
                .iter()
                .filter(|i| i.op == OpClass::Load)
                .filter_map(|i| i.mem.map(|m| m.addr.0))
                .filter(|&a| a >= base && a < base + 0x1000_0000)
                .take(8)
                .collect();
            addrs
                .windows(2)
                .map(|w| w[1] as i64 - w[0] as i64)
                .collect()
        };
        let naive_strides = strides(&naive, B_BASE);
        let trans_strides = strides(&trans, BT_BASE);
        // Naive: B accesses jump a whole (odd) row per k.
        assert!(naive_strides.iter().all(|&d| d >= 17 * 8));
        // Transposed: BT accesses are element-sequential.
        assert!(trans_strides.iter().all(|&d| d == 8));
    }

    #[test]
    fn odd_stride_padding() {
        assert_eq!(MatMult::new(16, MatMultVersion::Naive).stride(), 17);
        assert_eq!(MatMult::new(17, MatMultVersion::Naive).stride(), 17);
    }

    #[test]
    fn row_sampling_is_self_consistent() {
        // The trace of rows [0,2) is exactly the concatenation of [0,1)
        // and [1,2) in op counts.
        let mm = MatMult::new(12, MatMultVersion::Transposed);
        let both = mm.trace_rows(0, 2).stats();
        let first = mm.trace_rows(0, 1).stats();
        let second = mm.trace_rows(1, 2).stats();
        assert_eq!(both.instrs, first.instrs + second.instrs);
        assert_eq!(both.loads, first.loads + second.loads);
    }

    #[test]
    fn transpose_moves_every_element_once() {
        let mm = MatMult::new(10, MatMultVersion::Transposed);
        let t = mm.transpose_trace();
        assert_eq!(t.stats().loads, 100);
        assert_eq!(t.stats().stores, 100);
        assert_eq!(t.stats().flops, 0);
    }

    #[test]
    fn flops_and_memory_accounting() {
        let mm = MatMult::new(100, MatMultVersion::Naive);
        assert_eq!(mm.flops_total(), 2_000_000);
        // 3 matrices x 100 rows x 101 elements x 8 bytes.
        assert_eq!(mm.memory_bytes(), 3 * 100 * 101 * 8);
    }

    #[test]
    #[should_panic(expected = "bad row range")]
    fn bad_row_range_panics() {
        MatMult::new(4, MatMultVersion::Naive).trace_rows(3, 3);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        MatMult::new(0, MatMultVersion::Naive);
    }
}
