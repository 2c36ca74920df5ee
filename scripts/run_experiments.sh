#!/usr/bin/env bash
# Regenerates every reconstructed table/figure into results/.
# Usage: scripts/run_experiments.sh [--quick | --smoke]
#   --quick  REX_QUICK=1 (scaled-down instances), outputs still written
#   --smoke  like --quick, but outputs go to a scratch dir: a fast
#            everything-still-runs gate for CI that leaves results/ alone
set -euo pipefail
cd "$(dirname "$0")/.."

outdir=results
case "${1:-}" in
    --quick)
        export REX_QUICK=1
        ;;
    --smoke)
        export REX_QUICK=1
        outdir=$(mktemp -d)
        trap 'rm -rf "$outdir"' EXIT
        ;;
    "")
        ;;
    *)
        echo "usage: $0 [--quick | --smoke]" >&2
        exit 2
        ;;
esac

cargo build --release -p rex-bench --bins
cargo build --release --bin rex
mkdir -p "$outdir"

for exp in workloads headline exchange_sweep lns_convergence migration \
           scalability optgap stringency ablation alpha qos longrun \
           closed_loop hotshard routing convergence heterogeneous; do
    echo "=== exp_${exp} ==="
    if ! ./target/release/exp_${exp} | tee "$outdir/exp_${exp}.md"; then
        echo "FAILED: exp_${exp} (see output above)" >&2
        exit 1
    fi
done

echo "=== trace determinism ==="
tracedir=$(mktemp -d)
./target/release/rex simulate --ticks 1500 --seed 7 --quiet --trace "$tracedir/a.jsonl"
./target/release/rex simulate --ticks 1500 --seed 7 --quiet --trace "$tracedir/b.jsonl"
cmp "$tracedir/a.jsonl" "$tracedir/b.jsonl"
test -s "$tracedir/a.jsonl"
REX_THREADS=1 ./target/release/rex trace --seed 42 --partitions 4 --depth 2 --iters 1500 --out "$tracedir/s1.jsonl" >/dev/null
REX_THREADS=8 ./target/release/rex trace --seed 42 --partitions 4 --depth 2 --iters 1500 --out "$tracedir/s8.jsonl" >/dev/null
cmp "$tracedir/s1.jsonl" "$tracedir/s8.jsonl"
REX_THREADS=1 ./target/release/rex trace --seed 42 --iters 1500 --out "$tracedir/e1.jsonl" >/dev/null
REX_THREADS=8 ./target/release/rex trace --seed 42 --iters 1500 --out "$tracedir/e8.jsonl" >/dev/null
cmp "$tracedir/e1.jsonl" "$tracedir/e8.jsonl"
test -s "$tracedir/e1.jsonl"
REX_THREADS=1 ./target/release/rex trace --seed 42 --partitions 4 --iters 1500 --out "$tracedir/d1.jsonl" >/dev/null
REX_THREADS=8 ./target/release/rex trace --seed 42 --partitions 4 --iters 1500 --out "$tracedir/d8.jsonl" >/dev/null
cmp "$tracedir/d1.jsonl" "$tracedir/d8.jsonl"
test -s "$tracedir/d1.jsonl"
hs_flags="--machines 8 --shards 48 --exchange 1 --ticks 800 --seed 5 --controller off \
  --hotshard --split-threshold 0.4 --hotshard-poll 20 \
  --spike-at 100 --spike-duration 300 --spike-factor 2.5 --spike-fraction 0.02 --no-drift --quiet"
./target/release/rex simulate $hs_flags --out "$tracedir/h1.json"
./target/release/rex simulate $hs_flags --out "$tracedir/h2.json"
cmp "$tracedir/h1.json" "$tracedir/h2.json"
./target/release/rex simulate $hs_flags --out "$tracedir/h3.json" --trace "$tracedir/h3.jsonl"
cmp "$tracedir/h1.json" "$tracedir/h3.json"   # recording never perturbs the run
test -s "$tracedir/h3.jsonl"
REX_THREADS=1 ./target/release/rex simulate $hs_flags --trace "$tracedir/ht1.jsonl"
REX_THREADS=8 ./target/release/rex simulate $hs_flags --trace "$tracedir/ht8.jsonl"
cmp "$tracedir/ht1.jsonl" "$tracedir/ht8.jsonl"
echo "=== routing determinism ==="
rt_flags="--machines 12 --shards 96 --seed 11 --policy prequal --horizon 30000 \
  --qps 20000 --service 400 --spike-at 8000 --spike-duration 8000 \
  --sra --sra-every 7000 --sra-iters 200 --quiet"
./target/release/rex route $rt_flags --out "$tracedir/r1.json"
./target/release/rex route $rt_flags --out "$tracedir/r2.json"
cmp "$tracedir/r1.json" "$tracedir/r2.json"
test -s "$tracedir/r1.json"
REX_THREADS=1 ./target/release/rex route $rt_flags --out "$tracedir/rt1.json"
REX_THREADS=8 ./target/release/rex route $rt_flags --out "$tracedir/rt8.json"
cmp "$tracedir/rt1.json" "$tracedir/rt8.json"
./target/release/rex route $rt_flags --out "$tracedir/r3.json" --trace "$tracedir/r3.jsonl"
cmp "$tracedir/r1.json" "$tracedir/r3.json"   # recording never perturbs the run
test -s "$tracedir/r3.jsonl"
echo "=== workload plane record/replay determinism ==="
wl=examples/workload_rackfault.json
# Record through the tick engine, replay the trace (the header embeds the
# spec and instance): the export must come back byte for byte, and
# recording must never perturb the run.
./target/release/rex simulate --workload $wl --quiet --out "$tracedir/wp0.json"
./target/release/rex simulate --workload $wl --quiet --record-trace "$tracedir/wp.jsonl" --out "$tracedir/wp1.json"
cmp "$tracedir/wp0.json" "$tracedir/wp1.json"   # recording never perturbs
test -s "$tracedir/wp.jsonl"
./target/release/rex simulate --replay-trace "$tracedir/wp.jsonl" --quiet --out "$tracedir/wp2.json"
cmp "$tracedir/wp1.json" "$tracedir/wp2.json"
# Thread-count independence of the recorded bytes.
REX_THREADS=1 ./target/release/rex simulate --workload $wl --quiet --record-trace "$tracedir/wp-1t.jsonl"
REX_THREADS=8 ./target/release/rex simulate --workload $wl --quiet --record-trace "$tracedir/wp-8t.jsonl"
cmp "$tracedir/wp-1t.jsonl" "$tracedir/wp-8t.jsonl"
# The same trace drives both engines: converge records through the tick
# engine and replays the stream through tick + event, re-checking the
# cross-engine gauge identity.
./target/release/rex converge --workload $wl --quiet --record-trace "$tracedir/wpc.jsonl" --out "$tracedir/wpc1.json"
./target/release/rex converge --replay-trace "$tracedir/wpc.jsonl" --quiet --out "$tracedir/wpc2.json"
cmp "$tracedir/wpc1.json" "$tracedir/wpc2.json"
REX_THREADS=1 ./target/release/rex converge --replay-trace "$tracedir/wpc.jsonl" --quiet --out "$tracedir/wpc-1t.json"
REX_THREADS=8 ./target/release/rex converge --replay-trace "$tracedir/wpc.jsonl" --quiet --out "$tracedir/wpc-8t.json"
cmp "$tracedir/wpc-1t.json" "$tracedir/wpc-8t.json"
echo "=== cross-engine convergence determinism (E16) ==="
./target/release/exp_convergence > "$tracedir/c1.md"
./target/release/exp_convergence > "$tracedir/c2.md"
cmp "$tracedir/c1.md" "$tracedir/c2.md"
REX_THREADS=1 ./target/release/exp_convergence > "$tracedir/ct1.md"
REX_THREADS=8 ./target/release/exp_convergence > "$tracedir/ct8.md"
cmp "$tracedir/ct1.md" "$tracedir/ct8.md"
test -s "$tracedir/c1.md"
rm -rf "$tracedir"
echo "traces byte-identical across runs and thread counts (serial spine, decomposed depth 1 and 2, hotshard, router, cross-engine)"

echo "All experiment outputs written to $outdir/."
