//! Cache-blocked (tiled) MatMult — the road the paper did not take.
//!
//! §5.1.1 fixes the naive multiply by transposing `B`; the classic
//! alternative is *tiling*: processing `T x T` blocks so the working set
//! of the inner loops stays inside the cache and the TLB reach. This
//! kernel exists as an ablation (experiment `tiling`): it shows how much
//! of the naive version's collapse on PowerMANNA was avoidable in
//! software, which sharpens the paper's hardware story (the long cache
//! lines punish exactly the codes that do neither transform).

use pm_isa::{Instr, OpClass, Reg, RegNames, Trace, VAddr};

/// A tiled `C = A * B` kernel over row-major matrices with odd strides.
///
/// # Examples
///
/// ```
/// use pm_workloads::blocked::BlockedMatMult;
///
/// let k = BlockedMatMult::new(64, 16);
/// let t = k.trace_block_rows(0, 1);
/// assert!(t.stats().flops > 0);
/// assert_eq!(k.flops_total(), 2 * 64 * 64 * 64);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockedMatMult {
    n: usize,
    tile: usize,
    stride: usize,
}

const A_BASE: u64 = 0x1000_0000;
const B_BASE: u64 = 0x2001_0000;
const C_BASE: u64 = 0x4003_0000;
const ELEM: u64 = 8;

impl BlockedMatMult {
    /// Creates an `n x n` multiply processed in `tile x tile` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `tile` is zero, or if `tile` does not divide `n`
    /// (ragged edges would complicate the sampling arithmetic without
    /// adding model fidelity).
    pub fn new(n: usize, tile: usize) -> Self {
        assert!(n > 0 && tile > 0, "dimensions must be nonzero");
        assert!(
            n.is_multiple_of(tile),
            "tile must divide the matrix dimension"
        );
        let stride = if n % 2 == 1 { n } else { n + 1 };
        BlockedMatMult { n, tile, stride }
    }

    /// The matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The tile edge.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Total floating-point operations (`2 n^3`).
    pub fn flops_total(&self) -> u64 {
        2 * (self.n as u64).pow(3)
    }

    /// Number of block-rows (`n / tile`).
    pub fn block_rows(&self) -> usize {
        self.n / self.tile
    }

    /// Bytes touched by one `(jj, kk)` tile pair of `B` — the quantity
    /// that must fit in cache for tiling to work.
    pub fn tile_working_set(&self) -> u64 {
        (self.tile * self.tile) as u64 * ELEM
    }

    /// Emits the trace of block-rows `[bi_begin, bi_end)`: for each, the
    /// full `jj`/`kk` tile sweep with the `i`-rows of that block.
    ///
    /// # Panics
    ///
    /// Panics on an empty or out-of-range block-row range.
    pub fn trace_block_rows(&self, bi_begin: usize, bi_end: usize) -> Trace {
        assert!(bi_begin < bi_end, "bad block-row range");
        self.emit_block_rows(bi_begin, bi_end).collect()
    }

    /// Streams block-rows `[bi_begin, bi_end)`: the same instructions and
    /// register names as [`BlockedMatMult::trace_block_rows`], one at a
    /// time. An empty range yields nothing.
    ///
    /// # Panics
    ///
    /// Panics on a reversed or out-of-range block-row range.
    pub fn emit_block_rows(&self, bi_begin: usize, bi_end: usize) -> BlockRowsEmitter {
        assert!(
            bi_begin <= bi_end && bi_end <= self.block_rows(),
            "bad block-row range"
        );
        let (n, t) = (self.n, self.tile);
        BlockRowsEmitter {
            n,
            t,
            stride_b: self.stride as u64 * ELEM,
            bi: bi_begin,
            jj: 0,
            kk: 0,
            i: bi_begin * t,
            j: 0,
            k: 0,
            step: 0,
            names: RegNames::new(),
            acc: Reg(0),
            a: Reg(0),
            // Per block-row, every (jj, kk, i, j) — n² of them — loads C,
            // runs t four-instruction k-iterations and stores C.
            left: (bi_end - bi_begin) * n * n * (4 * t + 2),
        }
    }
}

/// Lazy tiled-multiply emitter (see [`BlockedMatMult::emit_block_rows`]).
///
/// Loop order per block-row `bi`: tiles `jj`, `kk`, then rows `i` of the
/// block and columns `j` of the tile. Per `(i, j)` the running `C` value
/// carries across `kk` tiles: load it, per `k` load `A[i][k]` and
/// `B[k][j]`, `fmadd` and branch back, then store it.
#[derive(Clone, Debug)]
pub struct BlockRowsEmitter {
    n: usize,
    t: usize,
    stride_b: u64,
    bi: usize,
    jj: usize,
    kk: usize,
    i: usize,
    j: usize,
    k: usize,
    /// Next instruction: 0 load C; of the `k` body 1 load A, 2 load B,
    /// 3 fmadd, 4 branch; 5 the store of C.
    step: u8,
    names: RegNames,
    acc: Reg,
    a: Reg,
    left: usize,
}

impl BlockRowsEmitter {
    /// Moves to the next `(i, j)` of the nest after a store.
    fn advance(&mut self) {
        let (n, t) = (self.n, self.t);
        self.j += 1;
        if self.j == self.jj + t {
            self.i += 1;
            if self.i == (self.bi + 1) * t {
                self.kk += t;
                if self.kk == n {
                    self.kk = 0;
                    self.jj += t;
                    if self.jj == n {
                        self.jj = 0;
                        self.bi += 1;
                    }
                }
                self.i = self.bi * t;
            }
            self.j = self.jj;
        }
        self.k = self.kk;
    }
}

impl Iterator for BlockRowsEmitter {
    type Item = Instr;

    #[inline]
    fn next(&mut self) -> Option<Instr> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let (i, j, k) = (self.i as u64, self.j as u64, self.k as u64);
        let c_addr = C_BASE + i * self.stride_b + j * ELEM;
        Some(match self.step {
            0 => {
                self.acc = self.names.fresh();
                self.step = 1;
                Instr::load(self.acc, VAddr(c_addr), 8, None)
            }
            1 => {
                self.a = self.names.fresh();
                self.step = 2;
                Instr::load(
                    self.a,
                    VAddr(A_BASE + i * self.stride_b + k * ELEM),
                    8,
                    None,
                )
            }
            2 => {
                self.step = 3;
                let addr = B_BASE + k * self.stride_b + j * ELEM;
                Instr::load(self.names.fresh(), VAddr(addr), 8, None)
            }
            3 => {
                let dst = self.names.fresh();
                let fmadd = Instr::alu(OpClass::FpMadd, Some(dst), Some(self.a), Some(self.acc));
                self.acc = dst;
                self.step = 4;
                fmadd
            }
            4 => {
                self.k += 1;
                let taken = self.k != self.kk + self.t;
                self.step = if taken { 1 } else { 5 };
                Instr::branch_at(0x300, taken, None)
            }
            _ => {
                self.advance();
                self.step = 0;
                Instr::store(self.acc, VAddr(c_addr), 8)
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

    #[test]
    fn op_counts_match_the_untiled_multiply() {
        let k = BlockedMatMult::new(32, 8);
        let t = k.trace_block_rows(0, k.block_rows());
        let s = t.stats();
        // Same fmadd count as untiled; extra C loads per tile pass.
        assert_eq!(s.flops, 2 * 32 * 32 * 32);
        let kk_tiles = 32 / 8;
        assert_eq!(s.stores, (32 * 32 * kk_tiles) as u64);
    }

    #[test]
    fn block_rows_partition_the_work() {
        let k = BlockedMatMult::new(24, 8);
        let all = k.trace_block_rows(0, 3).stats();
        let parts: u64 = (0..3)
            .map(|b| k.trace_block_rows(b, b + 1).stats().instrs)
            .sum();
        assert_eq!(all.instrs, parts);
    }

    #[test]
    fn tile_addresses_stay_inside_tile_pages() {
        // Within one (jj, kk) tile, B accesses span at most
        // tile * stride bytes of B — the locality tiling buys.
        let k = BlockedMatMult::new(16, 4);
        let t = k.trace_block_rows(0, 1);
        let b_addrs: Vec<u64> = t
            .instrs()
            .iter()
            .filter_map(|i| i.mem.map(|m| m.addr.0))
            .filter(|&a| (0x2001_0000..0x4003_0000).contains(&a))
            .take(16) // first tile's worth
            .collect();
        let min = *b_addrs.iter().min().unwrap();
        let max = *b_addrs.iter().max().unwrap();
        assert!(max - min <= 4 * 17 * 8, "tile span {}", max - min);
    }

    #[test]
    fn working_set_accounting() {
        let k = BlockedMatMult::new(128, 32);
        assert_eq!(k.tile_working_set(), 32 * 32 * 8);
        assert_eq!(k.block_rows(), 4);
    }

    #[test]
    #[should_panic(expected = "tile must divide")]
    fn ragged_tiles_rejected() {
        BlockedMatMult::new(100, 32);
    }

    #[test]
    #[should_panic(expected = "bad block-row range")]
    fn bad_range_rejected() {
        BlockedMatMult::new(32, 8).trace_block_rows(4, 5);
    }
}
