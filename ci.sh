#!/usr/bin/env sh
# Local CI gate. Mirrors what the tier-1 verify runs, plus lints.
# Must pass offline with an empty cargo registry (no external deps).
set -eu

cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs =="
# Deleting or renaming a public item leaves dangling intra-doc links;
# rustdoc reports them (and links to private items) as warnings.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== build (release) =="
cargo build --workspace --release

echo "== test =="
cargo test --workspace -q

echo "== parity (release) =="
# The per-flit-vs-batched, flat-vs-per-set and fresh-vs-reused
# equivalence proofs rerun under optimisation: release codegen is what
# the benchmarks and the figure bundle actually execute, and
# debug_asserts compiled out must not be what held the two paths
# together.
cargo test --release -q --test parity

echo "== figure shape checks (quick) =="
cargo run --release -p pm-bench --bin figures -- --quick --checks

echo "== fault injection example =="
# The example drives the self-healing loop through transients and a
# plane death, and asserts zero loss and in-order delivery per link
# interface: a recovery regression exits non-zero here.
cargo run --release --example fault_injection > /dev/null

echo "== pmbench unit tests =="
# pmbench is its own package (outside the workspace), so the workspace
# test run above does not reach it. Its reduced-scale workload test
# checks that the traced run, which materialises every MatMult trace,
# matches the streamed measure path bit for bit.
cargo test --offline --manifest-path pmbench/Cargo.toml

echo "== quick CSV goldens =="
# One golden per line: the file under tests/goldens/, then the experiment
# ids that produce it. Together they pin the MatMult kernels, cycle engine
# and memory hierarchy (Fig 7/8, X9 tiling), the connection and stop-wire
# models (X5/X6), the fault layer (X8), the heavy-traffic stack (X12),
# the RouteSim wormhole model and route policies (X13), the
# self-healing layer under both failover modes (X14), the NI FIFOs and
# communication stack (Fig 9-12, X3, X7, X10, X11), and HINT, node
# scaling and the network design studies (Table 1, Fig 6, X1, X2, X4).
# Every id `figures --list` prints sits in exactly one golden, checked
# below before any golden runs. Regenerate an intentional change with:
#   cargo run --release -p pm-bench --bin figures -- --quick --csv \
#     <ids> > tests/goldens/<golden>.csv
QUICK_GOLDENS='matmult_quick fig7a fig7b fig8a fig8b tiling
x5_x6_quick blocking mesh_vs_xbar
x8_quick faults
x12_quick traffic
x13_quick hierarchy
x14_quick resilience
comm_quick fig9 fig10 fig11 fig12 fifo_ablation collectives earth app_stencil
node_quick table1 fig6a fig6b scale4 routing duallink'
cargo run --release -p pm-bench --bin figures -- --list | cut -d' ' -f1 | sort \
  > target/ids_listed.txt
printf '%s\n' "$QUICK_GOLDENS" | cut -d' ' -f2- | tr ' ' '\n' | sort \
  > target/ids_tabled.txt
if uniq -d target/ids_tabled.txt | grep .; then
  echo "the experiment ids above sit in more than one quick golden" >&2
  exit 1
fi
diff -u target/ids_listed.txt target/ids_tabled.txt
while read -r golden ids; do
  echo "-- $golden: $ids"
  # $ids is unquoted on purpose: one argument per experiment id.
  cargo run --release -p pm-bench --bin figures -- --quick --csv $ids \
    < /dev/null > "target/$golden.csv"
  diff -u "tests/goldens/$golden.csv" "target/$golden.csv"
done <<GOLDENS
$QUICK_GOLDENS
GOLDENS

echo "== full-size CSV goldens =="
# The quick goldens stop short of the sizes EXPERIMENTS.md quotes. These
# run the same experiments at full size, one golden per line as above:
# fig6_full holds Fig 6a/6b to 24 MB (node_quick.csv stops at 128 KiB,
# before the HINT working set spills the 2 MB L2), about 12 s on 2
# workers; net_full holds the network experiments (X2, X4, X5, X6, X12
# and X13, including the X12 knees and the 8x8 mesh series), about 3 s;
# comm_full holds the communication and node studies (Fig 9-12, X3, X7,
# X10, X11, X1 and Table 1) to 64 KB messages and 128 ranks, under 1 s;
# matmult_full holds Fig 7a/7b, Fig 8a/8b and X9 tiling to N = 512
# (matmult_quick.csv stops at N = 128, before any TLB's reach is
# overrun and the PII's and UltraSPARC's L2s thrash), about 11 s.
# Regenerate an intentional change with:
#   cargo run --release -p pm-bench --bin figures -- --csv \
#     <ids> > tests/goldens/<golden>.csv
while read -r golden ids; do
  echo "-- $golden: $ids"
  # $ids is unquoted on purpose: one argument per experiment id.
  cargo run --release -p pm-bench --bin figures -- --csv $ids \
    < /dev/null > "target/$golden.csv"
  diff -u "tests/goldens/$golden.csv" "target/$golden.csv"
done <<'GOLDENS'
fig6_full fig6a fig6b
net_full routing duallink blocking mesh_vs_xbar traffic hierarchy
comm_full fig9 fig10 fig11 fig12 fifo_ablation collectives earth app_stencil scale4 table1
matmult_full fig7a fig7b fig8a fig8b tiling
GOLDENS

echo "== observability golden (quick metrics registry) =="
# The --metrics collection drives one deterministic scenario through
# every substrate and dumps the registry as sorted CSV; any counter
# drift anywhere in the machine shows up as a diff. Regenerate an
# intentional change with:
#   cargo run --release -p pm-bench --bin figures -- --metrics --quick \
#     > /dev/null && cp out/metrics.csv tests/goldens/metrics_quick.csv
cargo run --release -p pm-bench --bin figures -- --metrics --quick > /dev/null
diff -u tests/goldens/metrics_quick.csv out/metrics.csv

echo "== pmbench digests (seed 1) =="
# Every output of the four pmbench workloads must match the digests in
# pmbench/pinned.txt; pmbench exits non-zero on any mismatch. The MatMult
# digests pin N = 32-64 and 160-288 on all three machines, past where
# matmult_quick.csv stops; the network ones pin every RouteSim::run and
# run_resilient output on the 1024-node hierarchy. --seconds 0 runs the
# minimum passes.
for workload in matmult_l2 matmult_tlb hier1024_clean hier1024_faults; do
  cargo run --release --quiet --offline --manifest-path pmbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 0
done

echo "== engine hand-off stays inlined =="
# Cpu::step must inline into the lane loop, or every streamed instruction
# is stored by one call and reloaded by the next (DESIGN.md §7, "The
# instruction hand-off"). The digest runs above built the release binary.
nm -C pmbench/target/release/pmbench > target/pmbench_symbols.txt
if grep -F 'pm_cpu::engine::Cpu::step' target/pmbench_symbols.txt; then
  echo "Cpu::step is out of line in the release pmbench binary" >&2
  exit 1
fi

echo "== pmbench network digests (holdout seed 2) =="
# The route simulator's candidate enumeration and dead-link bookkeeping
# are pinned on a second traffic and fault-plan seed too: the seed-2
# digests of both network workloads are in pmbench/pinned.txt.
for workload in hier1024_clean hier1024_faults; do
  cargo run --release --quiet --offline --manifest-path pmbench/Cargo.toml -- \
    --workload "$workload" --seed 2 --seconds 0
done

echo "CI OK"
