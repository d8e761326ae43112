#!/usr/bin/env bash
# Full CI gate: build, tests, lints, formatting. Run locally before
# pushing; .github/workflows/ci.yml runs the same steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo build --release ==="
cargo build --release

echo "=== cargo test -q (tier-1: root package) ==="
cargo test -q

echo "=== cargo test --workspace -q ==="
cargo test --workspace -q

echo "=== cargo test --workspace --features trace -q (obs rings compiled in) ==="
# The trace feature swaps the no-op macros for real per-thread event
# rings; the whole suite must stay green with them armed.
cargo test --workspace --features trace -q

echo "=== bucket-cache stress under debug assertions ==="
# Arm the allocator's debug_assert!s while the stress suite hammers
# home pops, steals, batched GETs, concurrent collective inserts, and
# the refill gate's cache-memory bound.
RUSTFLAGS="-C debug-assertions=on" \
  cargo test --release -q -p alligator --test cache_stress

echo "=== ward: concurrency analyzer (lock order, pairing, counters, audit) ==="
# Detection power first (every check must catch its seeded fixture),
# then the real scan: lock-rank graph, Release/Acquire pairs-with
# labels, counter plumbing, unsafe-audit freshness. --check also
# emits the machine-readable report, which must validate against the
# wafl.ward.v1 schema. See DESIGN.md §15 for the annotation contract.
cargo run --release -q -p ward -- --self-test
cargo run --release -q -p ward -- --check
cargo run --release -q -p ward -- --validate results/ward.json

echo "=== model checker: mc suite (10k schedules/invariant, debug assertions) ==="
# Every invariant in crates/mc/tests explores at least MC_SCHEDULES
# interleavings; failures print a replayable seed (MC_REPLAY=<seed>).
MC_SCHEDULES=10000 RUSTFLAGS="-C debug-assertions=on" \
  cargo test --release -q -p mc

echo "=== cargo clippy --all-targets -- -D warnings ==="
cargo clippy --all-targets -- -D warnings

echo "=== cargo clippy (workspace minus vendor; incl. mc shim mode) ==="
cargo clippy --workspace --all-targets \
  --exclude criterion --exclude crossbeam --exclude parking_lot \
  --exclude proptest --exclude rand --exclude rand_chacha \
  --exclude serde --exclude serde_derive --exclude serde_json \
  -- -D warnings
cargo clippy -p mc -p alligator --features alligator/mc --all-targets \
  -- -D warnings

echo "=== cargo fmt --check ==="
cargo fmt --check

echo "=== exp_cache_contention smoke (tiny config) + schema validation ==="
# Quick sweep into a scratch dir so CI numbers never clobber the
# committed trajectory record, then validate both the fresh record and
# the committed one against the wafl.cache_contention.v3 schema.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
WAFL_BENCH_QUICK=1 WAFL_BENCH_ROOT="$SMOKE_DIR" WAFL_RESULTS_DIR="$SMOKE_DIR" \
  cargo run --release -q -p wafl-bench --bin exp_cache_contention
cargo run --release -q -p wafl-bench --bin exp_cache_contention -- \
  --validate "$SMOKE_DIR/BENCH_cache_contention.json"
cargo run --release -q -p wafl-bench --bin exp_cache_contention -- \
  --validate BENCH_cache_contention.json

echo "=== exp_put_convoy smoke (traced build) + schema validation ==="
# Runs the real cleaner pool under tracing: exercises the obs rings,
# the Chrome-trace exporter, and the convoy-ratio schema end to end.
WAFL_BENCH_QUICK=1 WAFL_BENCH_ROOT="$SMOKE_DIR" WAFL_RESULTS_DIR="$SMOKE_DIR" \
  cargo run --release -q -p wafl-bench --features trace --bin exp_put_convoy
cargo run --release -q -p wafl-bench --features trace --bin exp_put_convoy -- \
  --validate "$SMOKE_DIR/BENCH_put_convoy.json"
cargo run --release -q -p wafl-bench --features trace --bin exp_put_convoy -- \
  --validate BENCH_put_convoy.json

echo "=== exp_scrub smoke + schema validation ==="
# Online scrub over the Waffinity pool: detection, clean-image false
# positives, foreground interference, and checkpoint/resume gates.
WAFL_BENCH_ROOT="$SMOKE_DIR" WAFL_RESULTS_DIR="$SMOKE_DIR" \
  cargo run --release -q -p wafl-bench --bin exp_scrub -- --smoke
cargo run --release -q -p wafl-bench --bin exp_scrub -- \
  --validate "$SMOKE_DIR/BENCH_scrub.json"
cargo run --release -q -p wafl-bench --bin exp_scrub -- \
  --validate BENCH_scrub.json

echo "=== file-backend tests on a real tmpdir (O_DIRECT probe) ==="
# The aio file backend prefers O_DIRECT and quietly falls back to
# buffered I/O where the filesystem refuses it (tmpfs, some overlays).
# Probe the scratch dir first: with O_DIRECT available, re-run the
# file-backend suites pointed there so CI exercises the aligned-buffer
# path; otherwise skip with a notice (the buffered fallback is already
# covered by the workspace suite above).
if dd if=/dev/zero of="$SMOKE_DIR/.direct-probe" bs=4096 count=1 \
     oflag=direct conv=fsync status=none 2>/dev/null; then
  rm -f "$SMOKE_DIR/.direct-probe"
  TMPDIR="$SMOKE_DIR" cargo test --release -q -p wafl-blockdev --lib file_backend
  TMPDIR="$SMOKE_DIR" cargo test --release -q -p wafl \
    --test crash_recovery_prop file_backend_torn_stripe_remount
else
  echo "NOTICE: O_DIRECT unavailable under $SMOKE_DIR; skipping the \
file-backend re-run (buffered-fallback coverage still ran in the \
workspace suite)"
fi

echo "=== exp_io_engine smoke + schema validation ==="
# Async-engine pipelining gates: tickets balance at every depth, deep
# queues really overlap, and depth ≥ 8 beats the depth-1 synchronous
# baseline — ≥ 1.5× on the committed full record; the quick smoke
# gates at a 1.05× sanity floor because scratch filesystems make the
# amortized fsync nearly free.
WAFL_BENCH_QUICK=1 WAFL_BENCH_ROOT="$SMOKE_DIR" WAFL_RESULTS_DIR="$SMOKE_DIR" \
  cargo run --release -q -p wafl-bench --bin exp_io_engine
cargo run --release -q -p wafl-bench --bin exp_io_engine -- \
  --validate "$SMOKE_DIR/BENCH_io_engine.json"
cargo run --release -q -p wafl-bench --bin exp_io_engine -- \
  --validate BENCH_io_engine.json

echo "=== exp_telemetry smoke (traced build) + schema validation ==="
# Continuous-telemetry gates: CP phase attribution (≥ 95% of wall time
# named), the drive-death blackbox bundle, and the sampler-overhead
# A/B. The < 5% sampler budget is enforced on full multi-core runs and
# reported-only (skip-with-notice) on quick smokes or 1-core boxes.
WAFL_BENCH_QUICK=1 WAFL_BENCH_ROOT="$SMOKE_DIR" WAFL_RESULTS_DIR="$SMOKE_DIR" \
  cargo run --release -q -p wafl-bench --features trace --bin exp_telemetry
cargo run --release -q -p wafl-bench --features trace --bin exp_telemetry -- \
  --validate "$SMOKE_DIR/BENCH_telemetry.json"
cargo run --release -q -p wafl-bench --features trace --bin exp_telemetry -- \
  --validate BENCH_telemetry.json

echo "=== miri: undefined-behavior check on the aio completion ring ==="
# The static analyzer proves annotation discipline; Miri checks the
# actual unsafe cell accesses of blockdev::aio's completion ring (the
# workspace's remaining library unsafe outside the aligned I/O buffer)
# under the interpreter's aliasing and validity rules. Nightly-only:
# skip with a notice where no nightly+miri toolchain is installed — the
# stanza arms itself on hosts that have it.
if command -v rustup >/dev/null 2>&1 \
   && rustup toolchain list 2>/dev/null | grep -q nightly \
   && rustup component list --toolchain nightly 2>/dev/null \
      | grep -q 'miri.*(installed)'; then
  # Interpreter is ~1000x slower than native: keep to the in-memory
  # ring unit tests (the file-backend tests need real O_DIRECT files).
  MIRIFLAGS="-Zmiri-ignore-leaks" \
    cargo +nightly miri test -q -p wafl-blockdev --lib ring_
else
  echo "NOTICE: nightly+miri not installed; skipping the Miri pass \
(ward --check and the mc schedule exploration still gate this tree)"
fi

echo "=== tsan: data-race check on the cache stress suite ==="
# ThreadSanitizer needs -Z sanitizer=thread plus a rebuilt std
# (-Zbuild-std), both nightly-only; same skip-with-notice contract as
# the Miri stanza above.
HOST_TRIPLE="$(rustc -vV | sed -n 's/^host: //p')"
if command -v rustup >/dev/null 2>&1 \
   && rustup toolchain list 2>/dev/null | grep -q nightly \
   && rustup component list --toolchain nightly 2>/dev/null \
      | grep -q 'rust-src.*(installed)'; then
  RUSTFLAGS="-Z sanitizer=thread" \
    cargo +nightly test --release -q -p alligator --test cache_stress \
      -Z build-std --target "$HOST_TRIPLE"
else
  echo "NOTICE: nightly+rust-src not installed; skipping the TSan pass \
(the debug-assertion stress run above still covers conservation)"
fi

echo "CI green."
