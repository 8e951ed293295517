//! The STREAM triad micro-kernel.
//!
//! It is not a paper figure by itself; it drives the node-scaling
//! ablation (experiment X1: how many CPUs the node design sustains).

use pm_isa::{Trace, TraceBuilder};

/// A STREAM-style triad: `a[i] = b[i] + s * c[i]` over `elements`
/// doubles, starting at `base`.
///
/// # Examples
///
/// ```
/// use pm_workloads::stream::triad;
///
/// let t = triad(0x1000, 1024);
/// assert_eq!(t.stats().loads, 2 * 1024);
/// assert_eq!(t.stats().stores, 1024);
/// ```
pub fn triad(base: u64, elements: usize) -> Trace {
    let mut tb = TraceBuilder::new();
    let stride = elements as u64 * 8;
    let (b_base, c_base, a_base) = (base, base + stride, base + 2 * stride);
    for i in 0..elements as u64 {
        let b = tb.load(b_base + i * 8, 8);
        let c = tb.load(c_base + i * 8, 8);
        let v = tb.fmadd(c, c, b);
        tb.store(v, a_base + i * 8, 8);
        tb.branch(0x300, i + 1 != elements as u64, None);
    }
    tb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_shape() {
        let t = triad(0, 100);
        let s = t.stats();
        assert_eq!(s.loads, 200);
        assert_eq!(s.stores, 100);
        assert_eq!(s.flops, 200);
        assert_eq!(s.branches, 100);
    }
}
