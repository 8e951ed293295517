#!/usr/bin/env sh
# Local CI gate. Mirrors what the tier-1 verify runs, plus lints.
# Must pass offline with an empty cargo registry (no external deps).
set -eu

cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

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

echo "== MatMult golden (quick Fig 7/8 + X9 tiling) =="
# The quick MatMult curves cover both the full-simulation (N <= 96) and
# the row-sampled paths of matmultrun: the kernels' instruction streams,
# the cycle engine, the memory hierarchy and the dual-CPU interleaving.
# Regenerate an intentional change with:
#   cargo run --release -p pm-bench --bin figures -- --quick --csv \
#     fig7a fig7b fig8a fig8b tiling > tests/goldens/matmult_quick.csv
cargo run --release -p pm-bench --bin figures -- --quick --csv \
  fig7a fig7b fig8a fig8b tiling > target/matmult_quick.csv
diff -u tests/goldens/matmult_quick.csv target/matmult_quick.csv

echo "== connection-model goldens (quick X5/X6) =="
# The network/mesh connection models feed the X5/X6 artifacts; any
# timing change in open/transfer/close or the stop-wire composition
# shows up here as a CSV diff against the committed goldens. To accept
# an intentional change, regenerate with:
#   cargo run --release -p pm-bench --bin figures -- --quick --csv \
#     blocking mesh_vs_xbar > tests/goldens/x5_x6_quick.csv
cargo run --release -p pm-bench --bin figures -- --quick --csv \
  blocking mesh_vs_xbar > target/x5_x6_quick.csv
diff -u tests/goldens/x5_x6_quick.csv target/x5_x6_quick.csv

echo "== fault-injection golden (quick X8) =="
# The X8 degradation curve pins the whole fault layer: the seeded
# FaultPlan schedule, the transient-injector decision stream, the
# retransmission/backoff timing and the plane-failover path. Regenerate
# an intentional change with:
#   cargo run --release -p pm-bench --bin figures -- --quick --csv \
#     faults > tests/goldens/x8_quick.csv
cargo run --release -p pm-bench --bin figures -- --quick --csv \
  faults > target/x8_quick.csv
diff -u tests/goldens/x8_quick.csv target/x8_quick.csv

echo "== traffic-collapse golden (quick X12) =="
# The X12 collapse curves pin the whole heavy-traffic stack: the seeded
# multi-tenant generator streams, the scenario driver's queue/deadline
# accounting, and the contention the Network/Mesh fabrics resolve under
# saturation — serial and par_sweep runs must both match. Regenerate an
# intentional change with:
#   cargo run --release -p pm-bench --bin figures -- --quick --csv \
#     traffic > tests/goldens/x12_quick.csv
cargo run --release -p pm-bench --bin figures -- --quick --csv \
  traffic > target/x12_quick.csv
diff -u tests/goldens/x12_quick.csv target/x12_quick.csv

echo "== hierarchy golden (quick X13) =="
# The X13 curves pin the 1024-node hierarchical topology, the
# multi-crossbar RouteSim wormhole model (blocking, waiter wake-up,
# adaptive vs oblivious path choice) and the 8x8 mesh reference — any
# timing or policy drift shows up as a CSV diff. Regenerate an
# intentional change with:
#   cargo run --release -p pm-bench --bin figures -- --quick --csv \
#     hierarchy > tests/goldens/x13_quick.csv
cargo run --release -p pm-bench --bin figures -- --quick --csv \
  hierarchy > target/x13_quick.csv
diff -u tests/goldens/x13_quick.csv target/x13_quick.csv

echo "== resilience golden (quick X14) =="
# The X14 campaign curves pin the whole self-healing layer: the seeded
# fault campaigns (transient stream, link-death roll, repair schedule),
# the health-table learning and quarantine windows, the jittered
# retransmission backoff and the watchdog's recovery decisions, under
# both oracle and detected failover. Regenerate an intentional change
# with:
#   cargo run --release -p pm-bench --bin figures -- --quick --csv \
#     resilience > tests/goldens/x14_quick.csv
cargo run --release -p pm-bench --bin figures -- --quick --csv \
  resilience > target/x14_quick.csv
diff -u tests/goldens/x14_quick.csv target/x14_quick.csv

echo "== observability golden (quick metrics registry) =="
# The --metrics collection drives one deterministic scenario through
# every substrate and dumps the registry as sorted CSV; any counter
# drift anywhere in the machine shows up as a diff. Regenerate an
# intentional change with:
#   cargo run --release -p pm-bench --bin figures -- --metrics --quick \
#     > /dev/null && cp out/metrics.csv tests/goldens/metrics_quick.csv
cargo run --release -p pm-bench --bin figures -- --metrics --quick > /dev/null
diff -u tests/goldens/metrics_quick.csv out/metrics.csv

echo "CI OK"
