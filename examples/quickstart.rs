//! Quickstart: build the PowerMANNA node, run a kernel on one and then
//! both processors, and send a message between two nodes.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use powermanna::comm::duplex::{DuplexChannel, Message, Side};
use powermanna::isa::TraceBuilder;
use powermanna::node::ni::NiConfig;
use powermanna::node::node::Node;
use powermanna::sim::time::Time;

fn main() {
    // --- 1. A dual-MPC620 PowerMANNA node --------------------------------
    let mut node = Node::powermanna();
    println!(
        "node: {} — {} @ {:.0} MHz, {} KB L1 / {} MB L2",
        node.config().name,
        node.cpu.name,
        node.cpu.clock.mhz(),
        node.config().mem.l1.size_bytes() / 1024,
        node.config().mem.l2.size_bytes() / (1024 * 1024),
    );

    // --- 2. A small dot-product kernel on one processor ------------------
    let kernel = |base: u64, n: usize| {
        let mut tb = TraceBuilder::new();
        let mut acc = tb.reg();
        for i in 0..n as u64 {
            let a = tb.load(base + i * 8, 8);
            let b = tb.load(base + 0x10_0000 + i * 8, 8);
            acc = tb.fmadd(a, b, acc);
        }
        tb.store(acc, base + 0x20_0000, 8);
        tb.finish()
    };
    let single = node.run_single(kernel(0x100_0000, 4096));
    println!(
        "single CPU: {} instrs in {} ({:.1} MFLOPS, IPC {:.2})",
        single.instrs,
        single.elapsed,
        single.mflops(),
        single.ipc()
    );

    // --- 3. The same work split across both processors of a cold node ----
    let mut node = Node::powermanna();
    let results = node.run_smp(vec![kernel(0x100_0000, 2048), kernel(0x900_0000, 2048)]);
    let slowest = results
        .iter()
        .map(|r| r.elapsed.as_secs_f64())
        .fold(0.0f64, f64::max);
    println!(
        "dual CPU: speedup {:.2} (cold-cache streaming; cache-resident work reaches ~2.0 — see examples/matmult_smp.rs)",
        single.elapsed.as_secs_f64() / slowest
    );

    // --- 4. User-level messaging over the link interface -----------------
    let mut channel = DuplexChannel::new(NiConfig::powermanna());
    let payload: Vec<u8> = (0..128).collect();
    let sent = channel.send(Side::A, Time::ZERO, Message::new(payload.clone()));
    let (arrived, msg) = channel.recv(Side::B, sent).expect("message delivered");
    assert_eq!(msg.payload(), payload.as_slice());
    println!(
        "message: {} bytes node A -> node B in {} (CRC ok: {})",
        msg.len(),
        arrived,
        msg.verify()
    );
}
