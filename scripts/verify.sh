#!/usr/bin/env bash
# Tier-1 verification gate: everything CI runs, runnable locally.
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> concurrency tests, repeated (5 runs, default test-thread count)"
# Scheduling-dependent tests must pass on any core count and any
# interleaving, so run them several times with the harness's own
# parallelism rather than a pinned RUST_TEST_THREADS.
for run in 1 2 3 4 5; do
  echo "    run $run/5"
  env -u RUST_TEST_THREADS cargo test -q -p freesketch-cli \
    --lib --test serve_shutdown --test serve_stress
  env -u RUST_TEST_THREADS cargo test -q -p freesketch-suite \
    --test serve_e2e --test concurrent_equivalence
  env -u RUST_TEST_THREADS cargo test -q -p freesketch --lib
done

echo "==> perfbench tests (the benchmark's own unit tests; its own package)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> freesketch-analyzer (ordering-audit, unsafe-gate, lock-discipline, serde-sync, atomic-protocol, lock-order, hot-path-hygiene)"
# Hard gate: any finding (including stale allowlist entries) fails the build.
./target/release/freesketch-analyzer
# CLI contract: pass listing, single-pass selection, unknown pass = usage error.
./target/release/freesketch-analyzer --list-passes | grep -q '^hot-path-hygiene$' || {
  echo "--list-passes missing hot-path-hygiene"; exit 1;
}
./target/release/freesketch-analyzer --pass lock-order > /dev/null
if ./target/release/freesketch-analyzer --pass no-such-pass > /dev/null 2>&1; then
  echo "unknown --pass should be a usage error"; exit 1
fi

echo "==> cargo bench --no-run"
cargo bench --no-run --workspace

echo "==> cli smoke"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
printf 'alice a\nalice b\nalice b\nbob a\n' > "$tmp/edges.tsv"
# Drive the binary the release build just produced; `cargo run` without
# --release would recompile the whole workspace in the dev profile.
./target/release/freesketch --help > /dev/null
./target/release/freesketch estimate "$tmp/edges.tsv" --top 2 > /dev/null
# Batch and scalar ingest paths must agree through the CLI.
./target/release/freesketch estimate "$tmp/edges.tsv" --batch 0 > /dev/null
# Sharded parallel ingest drives the same report.
./target/release/freesketch estimate "$tmp/edges.tsv" --threads 2 > /dev/null

echo "==> convert -> estimate roundtrip smoke (TSV and fedge must be identical)"
./target/release/freesketch convert "$tmp/edges.tsv" "$tmp/edges.fedge" > /dev/null
./target/release/freesketch estimate "$tmp/edges.tsv"   --top 3 > "$tmp/est-tsv.txt"
./target/release/freesketch estimate "$tmp/edges.fedge" --top 3 > "$tmp/est-fedge.txt"
diff -u "$tmp/est-tsv.txt" "$tmp/est-fedge.txt" || {
  echo "fedge estimate differs from TSV estimate"; exit 1;
}

echo "==> TSV edge-case smoke (CRLF, tabs, space runs, leading blanks, comments, U+00A0, no final newline)"
# The in-place decoder's fast path and its exact fallback must read the
# same edges as the plain file: the two reports must be identical.
printf '# messy\r\nalice\ta\r\n  alice   b\n\tbob \t a  \n\n  # indented comment\nalice\xc2\xa0c\r\ncarol d' \
  > "$tmp/messy.tsv"
printf 'alice a\nalice b\nbob a\nalice c\ncarol d\n' > "$tmp/plain.tsv"
./target/release/freesketch estimate "$tmp/messy.tsv" --top 3 > "$tmp/est-messy.txt"
./target/release/freesketch estimate "$tmp/plain.tsv" --top 3 > "$tmp/est-plain.txt"
diff -u "$tmp/est-plain.txt" "$tmp/est-messy.txt" || {
  echo "edge-case TSV estimate differs from the plain TSV estimate"; exit 1;
}
grep -q "5 edges" "$tmp/est-messy.txt" || {
  echo "edge-case TSV lost edges:"; cat "$tmp/est-messy.txt"; exit 1;
}

echo "==> streaming-estimate smoke (multi-chunk file, bounded reader buffer)"
./target/release/freesketch synth livejournal --scale 4000 --out "$tmp/synth.tsv" > /dev/null
./target/release/freesketch convert "$tmp/synth.tsv" "$tmp/synth.fedge" > /dev/null
# --chunk 1024 forces many reader chunks on both formats; the reports must
# still be identical (chunking never changes what was ingested).
./target/release/freesketch estimate "$tmp/synth.tsv"   --chunk 1024 > "$tmp/synth-tsv.txt"
./target/release/freesketch estimate "$tmp/synth.fedge" --chunk 1024 > "$tmp/synth-fedge.txt"
diff -u "$tmp/synth-tsv.txt" "$tmp/synth-fedge.txt" || {
  echo "multi-chunk fedge estimate differs from TSV estimate"; exit 1;
}
grep -q "edges processed" "$tmp/synth-tsv.txt" || {
  echo "streaming estimate produced no report"; exit 1;
}

echo "==> read-ahead failure smoke (errors surface in order, no hung decode thread)"
# A malformed line after several --chunk 64 chunks: the run must fail with
# the line's own diagnostic, and must not hang (timeout exits 124).
{ for i in $(seq 1 300); do echo "user$(( i % 7 )) item$i"; done
  echo "broken"
  for i in $(seq 1 300); do echo "user$(( i % 5 )) late$i"; done; } > "$tmp/malformed.tsv"
status=0
timeout 20 ./target/release/freesketch estimate "$tmp/malformed.tsv" --chunk 64 \
  > /dev/null 2> "$tmp/malformed-err.txt" || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
  echo "malformed TSV: exit $status, want a prompt non-zero exit"; exit 1
fi
grep -q 'line 301: expected `user item`, got `broken`' "$tmp/malformed-err.txt" || {
  echo "malformed TSV error lost its line:"; cat "$tmp/malformed-err.txt"; exit 1;
}
# A checkpoint write that fails mid-stream stops the drive while the
# decode thread is a chunk ahead: the run must still exit promptly.
status=0
FREESKETCH_CRASH_AFTER_CHECKPOINTS=1 timeout 20 ./target/release/freesketch estimate \
  "$tmp/synth.tsv" --chunk 1024 --checkpoint "$tmp/ra-crash.fsnp" --checkpoint-every 2048 \
  > /dev/null 2> "$tmp/ra-crash-err.txt" || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
  echo "checkpoint crash: exit $status, want a prompt non-zero exit"; exit 1
fi
grep -q "simulated crash" "$tmp/ra-crash-err.txt" || {
  echo "checkpoint crash error not typed:"; cat "$tmp/ra-crash-err.txt"; exit 1;
}

echo "==> checkpoint / crash / restore / resume smoke (~1M-edge trace)"
./target/release/freesketch synth livejournal --out "$tmp/big.tsv" > /dev/null
./target/release/freesketch convert "$tmp/big.tsv" "$tmp/big.fedge" > /dev/null
edges=$(grep -vc '^#' "$tmp/big.tsv")
every=$(( edges / 5 + 1 ))
# Uninterrupted reference run.
./target/release/freesketch estimate "$tmp/big.fedge" --top 5 > "$tmp/ref.txt"
# Inject a crash after the second checkpoint write: the run must fail with
# the typed fault-injection error, leaving the last good checkpoint behind.
if FREESKETCH_CRASH_AFTER_CHECKPOINTS=2 ./target/release/freesketch estimate "$tmp/big.fedge" \
     --top 5 --checkpoint "$tmp/state.fsnp" --checkpoint-every "$every" \
     > /dev/null 2> "$tmp/crash-err.txt"; then
  echo "injected crash did not fail the run"; exit 1
fi
grep -q "simulated crash" "$tmp/crash-err.txt" || {
  echo "crash error not typed:"; cat "$tmp/crash-err.txt"; exit 1;
}
test -s "$tmp/state.fsnp" || { echo "no checkpoint left behind after crash"; exit 1; }
# Restart the same command: it must restore the checkpoint, resume the
# trace at the recorded offset, and match the uninterrupted run exactly.
./target/release/freesketch estimate "$tmp/big.fedge" --top 5 \
  --checkpoint "$tmp/state.fsnp" --checkpoint-every "$every" > "$tmp/resumed.txt"
grep -q "restored checkpoint" "$tmp/resumed.txt" || {
  echo "resumed run did not restore the checkpoint:"; cat "$tmp/resumed.txt"; exit 1;
}
tail -n +2 "$tmp/resumed.txt" | diff -u "$tmp/ref.txt" - || {
  echo "resumed estimate differs from uninterrupted run"; exit 1;
}

echo "==> legacy sharded snapshots (written before shards were owned engines) restore unchanged"
# Each fixture's `restore --top 20` output was recorded by the binary
# that wrote it; see crates/core/tests/fixtures/legacy-sharded/README.md.
legacy=crates/core/tests/fixtures/legacy-sharded
for name in freebs-t2 freers-t2 serve-t1; do
  ./target/release/freesketch restore "$legacy/$name.fsnp" --top 20 > "$tmp/legacy-$name.txt"
  diff -u "$legacy/$name.restore.txt" "$tmp/legacy-$name.txt" || {
    echo "legacy snapshot $name restores differently"; exit 1;
  }
done

echo "==> snapshot merge smoke (split halves vs whole trace)"
half=$(( (edges + 1) / 2 ))
# No `grep | head` here: under pipefail, head closing the pipe early turns
# grep's SIGPIPE into a spurious gate failure. Split from a plain file.
grep -v '^#' "$tmp/big.tsv" > "$tmp/body.tsv"
head -n "$half" "$tmp/body.tsv" > "$tmp/half1.tsv"
tail -n +"$(( half + 1 ))" "$tmp/body.tsv" > "$tmp/half2.tsv"
./target/release/freesketch checkpoint "$tmp/half1.tsv" "$tmp/h1.fsnp" > /dev/null
./target/release/freesketch checkpoint "$tmp/half2.tsv" "$tmp/h2.fsnp" > /dev/null
./target/release/freesketch merge "$tmp/h1.fsnp" "$tmp/h2.fsnp" "$tmp/union.fsnp" > /dev/null
./target/release/freesketch restore "$tmp/union.fsnp" --top 5 > "$tmp/union.txt"
grep -q "$edges edges in freebs snapshot" "$tmp/union.txt" || {
  echo "merged snapshot lost edges:"; cat "$tmp/union.txt"; exit 1;
}

echo "==> ingest throughput smoke (1M synthetic edges through the batch path)"
./target/release/exp_ingest --quick --json --out "$tmp/BENCH_ingest.json" \
  --threads 2 --scaling-out "$tmp/BENCH_scaling.json"
test -s "$tmp/BENCH_ingest.json" || { echo "exp_ingest wrote no JSON"; exit 1; }
grep -q '"mode": "batch"' "$tmp/BENCH_ingest.json" || {
  echo "exp_ingest JSON missing batch results"; exit 1;
}
grep -q '"mode": "file-fedge"' "$tmp/BENCH_ingest.json" || {
  echo "exp_ingest JSON missing from-disk results"; exit 1;
}
grep -q '"available_parallelism"' "$tmp/BENCH_ingest.json" || {
  echo "exp_ingest JSON missing host context"; exit 1;
}
# 2-thread sharded-ingest smoke: the scaling JSON must carry both thread
# counts for both sharded methods.
test -s "$tmp/BENCH_scaling.json" || { echo "exp_ingest wrote no scaling JSON"; exit 1; }
grep -q '"method": "ShardedFreeBS", "threads": 2' "$tmp/BENCH_scaling.json" || {
  echo "scaling JSON missing 2-thread sharded results"; exit 1;
}

echo "==> serve daemon smoke (socket protocol, port conflict, shutdown drain)"
./target/release/freesketch serve "$tmp/edges.tsv" --port 0 --threads 2 \
  --checkpoint "$tmp/serve.fsnp" > "$tmp/serve-out.txt" 2>&1 &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$tmp/serve-out.txt")
  [ -n "$port" ] && break
  sleep 0.1
done
[ -n "$port" ] || {
  echo "serve daemon never reported its port:"; cat "$tmp/serve-out.txt";
  kill "$serve_pid" 2> /dev/null || true; exit 1;
}
# A second daemon on the taken port must fail fast with a nonzero exit.
if ./target/release/freesketch serve "$tmp/edges.tsv" --port "$port" > /dev/null 2>&1; then
  echo "second daemon on a taken port should exit nonzero"; exit 1
fi
# Three queries, one malformed line, and a shutdown over bash /dev/tcp.
exec 3<> "/dev/tcp/127.0.0.1/$port"
printf 'STATS\nESTIMATE alice\nTOPK 2\nBOGUS\nSHUTDOWN\n' >&3
read -r reply <&3
case "$reply" in "OK edges="*) ;; *) echo "bad STATS reply: $reply"; exit 1;; esac
read -r reply <&3
case "$reply" in "OK "*) ;; *) echo "bad ESTIMATE reply: $reply"; exit 1;; esac
read -r reply <&3
case "$reply" in "OK 2 #"*) ;; *) echo "bad TOPK reply: $reply"; exit 1;; esac
read -r reply <&3
case "$reply" in "ERR unknown-command"*) ;; *) echo "bad error reply: $reply"; exit 1;; esac
read -r reply <&3
case "$reply" in "OK draining"*) ;; *) echo "bad SHUTDOWN reply: $reply"; exit 1;; esac
exec 3<&- 3>&-
wait "$serve_pid" || {
  echo "serve daemon exited nonzero:"; cat "$tmp/serve-out.txt"; exit 1;
}
grep -q "drained:" "$tmp/serve-out.txt" || {
  echo "serve daemon never printed its drain report:"; cat "$tmp/serve-out.txt"; exit 1;
}
# The drain wrote a final checkpoint that restores cleanly.
test -s "$tmp/serve.fsnp" || { echo "serve left no final checkpoint"; exit 1; }
./target/release/freesketch restore "$tmp/serve.fsnp" > /dev/null

echo "==> serve latency-under-load smoke (BENCH_serve.json)"
./target/release/exp_serve --quick --json --out "$tmp/BENCH_serve.json" > /dev/null
test -s "$tmp/BENCH_serve.json" || { echo "exp_serve wrote no JSON"; exit 1; }
for key in '"ingest_edges_per_s"' '"query_p50_us"' '"query_p99_us"' \
           '"verb": "ESTIMATE"' '"verb": "TOPK"' '"available_parallelism"'; do
  grep -q "$key" "$tmp/BENCH_serve.json" || {
    echo "BENCH_serve.json missing $key"; exit 1;
  }
done

echo "verify: OK"
