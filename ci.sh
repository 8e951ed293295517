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
# The fresh-vs-reused / per-flit-vs-batched equivalence proofs rerun
# under optimisation: release codegen is what the benchmarks and the
# figure bundle actually execute, and debug_asserts compiled out must
# not be what held the two paths together.
cargo test --release -q --test parity

echo "== figure shape checks (quick) =="
cargo run --release -p pm-bench --bin figures -- --quick --checks

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
# the RouteSim wormhole model and route policies (X13), and the
# self-healing layer under both failover modes (X14). Regenerate an
# intentional change with:
#   cargo run --release -p pm-bench --bin figures -- --quick --csv \
#     <ids> > tests/goldens/<golden>.csv
while read -r golden ids; do
  echo "-- $golden: $ids"
  # $ids is unquoted on purpose: one argument per experiment id.
  cargo run --release -p pm-bench --bin figures -- --quick --csv $ids \
    < /dev/null > "target/$golden.csv"
  diff -u "tests/goldens/$golden.csv" "target/$golden.csv"
done <<'GOLDENS'
matmult_quick fig7a fig7b fig8a fig8b tiling
x5_x6_quick blocking mesh_vs_xbar
x8_quick faults
x12_quick traffic
x13_quick hierarchy
x14_quick resilience
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

echo "== pmbench route digests (seed 1) =="
# Every RouteSim::run and run_resilient output of the 1024-node network
# workloads must match the digests in pmbench/pinned.txt; pmbench exits
# non-zero on any mismatch. --seconds 0 runs the minimum passes.
for workload in hier1024_clean hier1024_faults; do
  cargo run --release --quiet --offline --manifest-path pmbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 0
done

echo "CI OK"
