//! The assembled PowerMANNA node computer (Figure 1).
//!
//! A [`NodeConfig`] bundles everything §2 and Table 1 specify about one
//! single-board node: the CPU timing model, the memory hierarchy (caches,
//! ADSP/dispatcher bus, DRAM), the network-interface geometry, and the
//! dispatcher parameters. [`Node`] instantiates live state from it and
//! offers the workload-facing run helpers.

use crate::dispatcher::DispatcherConfig;
use crate::ni::NiConfig;
use pm_cpu::{run_smp, CpuConfig, RunResult};
use pm_isa::Trace;
use pm_mem::{HierarchyConfig, MemorySystem};

/// Static description of one node variant.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeConfig {
    /// Human-readable node name for reports.
    pub name: &'static str,
    /// Per-CPU timing model (both processors are identical).
    pub cpu: CpuConfig,
    /// Memory hierarchy, including the bus model.
    pub mem: HierarchyConfig,
    /// Network-interface geometry (two identical interfaces per node).
    pub ni: NiConfig,
    /// Dispatcher parameters.
    pub dispatcher: DispatcherConfig,
    /// Number of link interfaces (2 on PowerMANNA, 1 on the PC cluster).
    pub links: u32,
}

impl NodeConfig {
    /// The PowerMANNA dual-MPC620 node.
    pub fn powermanna() -> Self {
        NodeConfig {
            name: "PowerMANNA node",
            cpu: CpuConfig::mpc620(),
            mem: HierarchyConfig::mpc620_node(2),
            ni: NiConfig::powermanna(),
            dispatcher: DispatcherConfig::powermanna(),
            links: 2,
        }
    }

    /// The SUN Ultra-I comparison node of Table 1 (no PowerMANNA NI; the
    /// NI config is only used when the node is placed in a network).
    pub fn sun_ultra() -> Self {
        NodeConfig {
            name: "SUN Ultra-I node",
            cpu: CpuConfig::ultrasparc_i(),
            mem: HierarchyConfig::sun_ultra_node(2),
            ni: NiConfig::powermanna(),
            dispatcher: DispatcherConfig::powermanna(),
            links: 0,
        }
    }

    /// The Pentium II cluster node of Table 1, at the clock-matched
    /// 180/60 MHz or original 266/66 MHz operating point.
    pub fn pentium(cpu_mhz: f64, bus_mhz: f64) -> Self {
        NodeConfig {
            name: if cpu_mhz >= 250.0 {
                "PC PentiumII/266 node"
            } else {
                "PC PentiumII/180 node"
            },
            cpu: CpuConfig::pentium_ii(cpu_mhz),
            mem: HierarchyConfig::pentium_node(2, cpu_mhz, bus_mhz),
            ni: NiConfig::powermanna(),
            dispatcher: DispatcherConfig::powermanna(),
            links: 1,
        }
    }

    /// The same node with a different processor count (the §2 design
    /// study goes to four).
    pub fn with_cpus(mut self, cpus: usize) -> Self {
        self.mem.cpus = cpus;
        self
    }
}

/// A live node: configuration plus its memory system.
///
/// # Examples
///
/// ```
/// use pm_node::node::Node;
/// use pm_isa::TraceBuilder;
///
/// let mut node = Node::powermanna();
/// let mut tb = TraceBuilder::new();
/// tb.load(0, 8);
/// let r = node.run_single(tb.finish());
/// assert_eq!(r.loads, 1);
/// ```
#[derive(Clone, Debug)]
pub struct Node {
    /// The CPU configuration (exposed for experiment harnesses).
    pub cpu: CpuConfig,
    config: NodeConfig,
    mem: MemorySystem,
}

impl Node {
    /// Instantiates a node from its configuration.
    pub fn new(config: NodeConfig) -> Self {
        Node {
            cpu: config.cpu.clone(),
            mem: MemorySystem::new(config.mem),
            config,
        }
    }

    /// Shorthand for [`NodeConfig::powermanna`].
    pub fn powermanna() -> Self {
        Self::new(NodeConfig::powermanna())
    }

    /// The static configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The live memory system.
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Runs one trace on CPU 0 with the other processor idle.
    pub fn run_single(&mut self, trace: Trace) -> RunResult {
        let results = run_smp(
            std::slice::from_ref(&self.config.cpu),
            vec![trace],
            &mut self.mem,
        );
        results.into_iter().next().expect("one lane")
    }

    /// Runs one trace per processor concurrently (Figure 8's setup).
    ///
    /// # Panics
    ///
    /// Panics if more traces than processors are supplied.
    pub fn run_smp(&mut self, traces: Vec<Trace>) -> Vec<RunResult> {
        let configs = vec![self.config.cpu.clone(); traces.len()];
        run_smp(&configs, traces, &mut self.mem)
    }

    /// Publishes the node's memory-system counters under `{prefix}/mem`
    /// (see [`MemorySystem::publish_metrics`]).
    pub fn publish_metrics(&self, reg: &mut pm_sim::metrics::MetricRegistry, prefix: &str) {
        self.mem.publish_metrics(reg, &format!("{prefix}/mem"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_isa::TraceBuilder;

    fn fmadd_kernel(base: u64, n: usize) -> Trace {
        let mut tb = TraceBuilder::new();
        let a = tb.load(base, 8);
        let b = tb.load(base + 8, 8);
        let mut acc = tb.reg();
        for _ in 0..n {
            acc = tb.fmadd(a, b, acc);
        }
        tb.store(acc, base + 16, 8);
        tb.finish()
    }

    #[test]
    fn node_presets_construct() {
        for cfg in [
            NodeConfig::powermanna(),
            NodeConfig::sun_ultra(),
            NodeConfig::pentium(180.0, 60.0),
            NodeConfig::pentium(266.0, 66.0),
        ] {
            let node = Node::new(cfg.clone());
            assert_eq!(node.config().name, cfg.name);
        }
    }

    #[test]
    fn run_single_and_smp() {
        let mut node = Node::powermanna();
        let single = node.run_single(fmadd_kernel(0, 1000));
        let mut node = Node::powermanna();
        let both = node.run_smp(vec![fmadd_kernel(0, 500), fmadd_kernel(1 << 20, 500)]);
        assert_eq!(both.len(), 2);
        let smp_time = both
            .iter()
            .map(|r| r.elapsed.as_secs_f64())
            .fold(0.0f64, f64::max);
        let speedup = single.elapsed.as_secs_f64() / smp_time;
        assert!(
            speedup > 1.7,
            "cache-resident SMP speedup {speedup:.2} should be near 2"
        );
    }

    #[test]
    fn with_cpus_extends_the_node() {
        let cfg = NodeConfig::powermanna().with_cpus(4);
        let mut node = Node::new(cfg);
        let traces: Vec<Trace> = (0..4).map(|i| fmadd_kernel(i << 20, 100)).collect();
        let results = node.run_smp(traces);
        assert_eq!(results.len(), 4);
    }

    #[test]
    #[should_panic(expected = "more CPUs than memory ports")]
    fn too_many_traces_panics() {
        let mut node = Node::powermanna();
        node.run_smp(vec![Trace::new(), Trace::new(), Trace::new()]);
    }

    #[test]
    fn new_node_starts_cold() {
        let mut node = Node::powermanna();
        let cold = node.run_single(fmadd_kernel(0, 1));
        let warm = node.run_single(fmadd_kernel(0, 1));
        assert!(warm.elapsed < cold.elapsed, "second run should hit caches");
        let cold_again = Node::powermanna().run_single(fmadd_kernel(0, 1));
        assert_eq!(cold_again.elapsed, cold.elapsed);
    }
}
