#!/usr/bin/env bash
# Full pre-merge check: the control-op lint, the regular build + test suite,
# then an ASan+UBSan-instrumented build of the same tests as a memory-safety
# smoke, bench_suite's determinism and per-job isolation gates, flag-rejection
# and tool usage-error smokes (malformed values, unknown xktrace subcommands,
# wrong argument counts, flags a subcommand does not take), the committed
# results and scenario gates, and the host benchmark's selftest and digest
# gates (untraced, and traced paper-rpc and session-churn) with the A/B
# script's selftest.
#
#   scripts/check.sh            # everything
#   scripts/check.sh --fast     # control-op lint + tier-1 tests only
#
# The sanitizer build lives in build-asan/ so it never pollutes the primary
# build/ tree.

set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

echo "== control-op lint: every ControlOp is handled and sent =="
# The paper's "on the order of two dozen" control ops stays a checked claim:
# each enumerator needs a handler in src/ (`case ControlOp::kX:` or
# `op == ControlOp::kX`) and at least one other use -- a sender -- somewhere
# in the tree. An op nothing sends, or nothing answers, is dead interface.
# Comments are stripped before counting: an op a comment names is not sent.
lint_fail=0
nops=0
count() { { grep -rhI '' "${@:2}" | sed 's|//.*||' | grep -Eo "$1" || true; } | wc -l; }
for op in $(sed -n '/^enum class ControlOp/,/^};/s/^ *\(k[A-Za-z0-9]*\),.*/\1/p' \
              src/core/control.h); do
  nops=$((nops + 1))
  handlers=$(count "case ControlOp::$op:|op == ControlOp::$op\b" src)
  senders=$(( $(count "ControlOp::$op\b" src bench tests examples hostbench) - handlers ))
  if [ "$handlers" -eq 0 ] || [ "$senders" -eq 0 ]; then
    echo "control op $op: handlers=$handlers senders=$senders"
    lint_fail=1
  fi
done
[ "$lint_fail" -eq 0 ] || exit 1
echo "$nops control ops, each handled and sent"

echo
echo "== tier-1: build + ctest (build/) =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

if [[ "${1:-}" == "--fast" ]]; then
  exit 0
fi

echo
echo "== sanitizer smoke: ASan+UBSan build + ctest (build-asan/) =="
cmake -B build-asan -S . -DXK_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$jobs"
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo
echo "== sanitizer smoke: bench_suite under ASan+UBSan =="
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
  ./build-asan/bench/bench_suite --out=/dev/null

obs=$(mktemp -d)
trap 'rm -rf "$obs"' EXIT
root=$PWD

echo
echo "== determinism: two observed bench_suite runs are bit-identical =="
# bench_suite reports simulated quantities only, so the results file, traces,
# captures and stdout (summary line and report) must be byte-identical run to
# run, no normalization needed, and so must the causal flows and folded stacks
# xktrace derives from each run's traces. Each run writes the same relative
# names in its own directory.
suite() {
  local dir="$obs/$1"
  shift
  mkdir -p "$dir"
  (cd "$dir" && "$root/build/bench/bench_suite" --out=r.json "$@" > report.txt)
}
for run in a b; do
  suite "$run" --trace=trace --pcap=pcap
  mkdir -p "$obs/$run/flow"
  for t in "$obs/$run"/trace/*.trace.jsonl; do
    stem=$(basename "$t" .trace.jsonl)
    ./build/src/xktrace flow "$t" > "$obs/$run/flow/$stem.flow.jsonl"
    ./build/src/xktrace folded "$t" > "$obs/$run/flow/$stem.folded.txt"
  done
done
# Zero observer effect: an unobserved run reports the same metrics and report.
suite plain
for run in b plain; do
  cmp "$obs/a/r.json" "$obs/$run/r.json"
  cmp "$obs/a/report.txt" "$obs/$run/report.txt"
done
for kind in trace pcap flow; do
  diff -r "$obs/a/$kind" "$obs/b/$kind"
done
grep -q "Table III: Cost of Individual RPC Layers" "$obs/a/report.txt"
r1="$obs/a/r.json"
# The committed results are this code's results: a change to the simulation
# must refresh BENCH_RESULTS.json in the same commit. One job per line, so a
# failure prints the jobs that moved.
diff -u BENCH_RESULTS.json "$r1"
# Negative test: an injected latency regression must fail that check and
# name a job it moved.
sed -E 's/"latency_ms": [0-9.eE+-]+/"latency_ms": 9999/' "$r1" > "$obs/tampered.json"
if diff -u BENCH_RESULTS.json "$obs/tampered.json" > "$obs/tampered.diff"; then
  echo "FAIL: the results check accepted an injected latency regression"
  exit 1
fi
grep -q '^+ *{"group": "table1_vip"' "$obs/tampered.diff" \
  || { echo "FAIL: the results diff does not name a table1_vip job"; exit 1; }
echo "negative test: injected latency regression correctly rejected"
trace1="$obs/a/trace"

echo
echo "== isolation: every job run alone reports what it reports in the suite =="
# The jobs run in order on one thread, so state one job leaves behind (a
# thread-default setting, a freelist) would shift the numbers of the jobs
# after it. Each job's result line, run alone, must appear verbatim in the
# full run (trailing commas stripped: the last line of a results list has
# none).
sed 's/,$//' "$r1" > "$obs/full.lines"
alone=0
leaks=0
while read -r job; do
  ./build/bench/bench_suite --filter="^${job//./\\.}\$" --out="$obs/alone.json" > /dev/null
  line=$(grep '{"group": ' "$obs/alone.json" | sed 's/,$//')
  alone=$((alone + 1))
  if [[ -z "$line" ]] || ! grep -Fxq -- "$line" "$obs/full.lines"; then
    echo "FAIL: $job run alone differs from the full run"
    leaks=$((leaks + 1))
  fi
done < <(./build/bench/bench_suite --list)
[ "$leaks" -eq 0 ] || exit 1
echo "$alone jobs report the same result alone as in the full run"

echo
echo "== observability smoke: Table III from the suite's per-job traces =="
# Depths go shallowest first; the two deltas are FRAGMENT's and CHANNEL's
# layer costs, and CHANNEL is the most expensive layer.
t3="$trace1/table3_layer_costs"
[[ -s "$obs/a/pcap/table3_layer_costs.VIP.pcap.jsonl" ]]
./build/src/xktrace layers "$t3.VIP.trace.jsonl" | grep -q "per-call"
./build/src/xktrace layer-costs "$t3.VIP.trace.jsonl" "$t3.FRAGMENT-VIP.trace.jsonl" \
  "$t3.CHANNEL-FRAGMENT-VIP.trace.jsonl" \
  | awk 'NR > 1 { d[NR] = $NF } END { exit !(NR == 4 && d[4] > d[3] && d[3] > 0) }'

# usage_error WANT CMD...: CMD must exit 2 with WANT on stderr.
usage_error() {
  local want=$1 status=0
  shift
  "$@" > /dev/null 2> "$obs/usage.txt" || status=$?
  [ "$status" -eq 2 ] && grep -qF -- "$want" "$obs/usage.txt" \
    || { echo "FAIL: '$*' exited $status, want 2 and \"$want\""; exit 1; }
}

echo
echo "== bench_suite: write failures and empty filters =="
# Observers never change a result: an unwritable --trace= directory warns on
# stderr, naming the directory and each file, and the run still exits 0.
touch "$obs/not-a-dir"
./build/bench/bench_suite --filter='^udp_crosskernel' --out=/dev/null \
  --trace="$obs/not-a-dir/t" > /dev/null 2> "$obs/warn.txt"
grep -q "cannot create directory $obs/not-a-dir/t" "$obs/warn.txt"
grep -q "failed to write $obs/not-a-dir/t/udp_crosskernel.UDP-sunos.trace.jsonl" "$obs/warn.txt"
# The results file is the result: a failed --out write exits 1 and names it.
status=0
./build/bench/bench_suite --filter='^udp_crosskernel' --out=/dev/full \
  > /dev/null 2> "$obs/full.txt" || status=$?
[ "$status" -eq 1 ] || { echo "FAIL: --out=/dev/full exited $status, want 1"; exit 1; }
grep -q "failed to write /dev/full" "$obs/full.txt"
# A --filter that matches no job exits 2 and writes no results file.
usage_error "'^nomatch' matches no job" \
  ./build/bench/bench_suite --filter='^nomatch' --out="$obs/nomatch.json"
[ ! -e "$obs/nomatch.json" ] || { echo "FAIL: --filter='^nomatch' wrote $obs/nomatch.json"; exit 1; }
# The deleted time-series observer's flag is rejected, not silently ignored.
usage_error "unknown flag '--stats=x'" ./build/bench/bench_suite --stats=x

echo
echo "== tool flags: a malformed value or a bad command line exits 2 naming it =="
usage_error "slowest: N: bad value 'abc'" \
  ./build/src/xktrace slowest "$t3.VIP.trace.jsonl" abc
usage_error "--calls: bad value 'abc'" ./build/src/xktrace layers "$t3.VIP.trace.jsonl" --calls=abc
# One table of subcommands: a name not in it, the wrong number of
# arguments, or a flag the subcommand does not take is refused, naming it.
usage_error "unknown subcommand 'waterfall'" ./build/src/xktrace waterfall "$t3.VIP.trace.jsonl"
usage_error "call takes TRACE ID, got 1 argument(s)" \
  ./build/src/xktrace call "$t3.VIP.trace.jsonl"
usage_error "rejected does not take --json" \
  ./build/src/xktrace rejected "$t3.VIP.trace.jsonl" --json
usage_error "layer-costs does not take --json" \
  ./build/src/xktrace layer-costs "$t3.VIP.trace.jsonl" "$t3.FRAGMENT-VIP.trace.jsonl" --json
usage_error "layer-costs does not take --calls=5" \
  ./build/src/xktrace layer-costs "$t3.VIP.trace.jsonl" "$t3.FRAGMENT-VIP.trace.jsonl" --calls=5

echo
echo "== xktrace call views: critical-path attribution reconstructs the bench RTT =="
# Stitch the sat-knee trace into per-call causal graphs and insist the mean
# of the reconstructed RTTs matches the benchmark's own histogram mean within
# 1% (the attribution partitions each call's [issue, done] exactly, so the
# agreement is exact in practice -- 1% is the ISSUE acceptance bound).
./build/src/xktrace calls "$trace1/datacenter.sat-knee.trace.jsonl" > "$obs/knee.flow.txt"
grep -q "aggregate attribution" "$obs/knee.flow.txt"
flow_ms=$(./build/src/xktrace critical-path "$trace1/datacenter.sat-knee.trace.jsonl" \
  --json | sed -E 's/.*"mean_rtt_ms":([0-9.eE+-]+).*/\1/')
bench_ms=$(grep '"name": "sat-knee"' "$r1" \
  | sed -E 's/.*"mean_ms": ([0-9.eE+-]+).*/\1/')
awk -v f="$flow_ms" -v b="$bench_ms" 'BEGIN {
  d = f > b ? f - b : b - f;
  if (b <= 0 || d > 0.01 * b) {
    printf "FAIL: xktrace mean rtt %.6f ms vs bench %.6f ms\n", f, b; exit 1;
  }
  printf "xktrace rtt %.6f ms vs bench %.6f ms (|delta| %.6f)\n", f, b, d;
}'
# The replica-crash campaign reads as a causal story: the crash, the VPOOL
# down/readmit cycle, and cause-attributed retransmissions all surface.
./build/src/xktrace critical-path "$trace1/datacenter.replica-crash-failover.trace.jsonl" \
  > "$obs/crash.flow.txt"
grep -q "crash" "$obs/crash.flow.txt"
grep -Eq "retransmits: [1-9]" "$obs/crash.flow.txt"
grep -Eq "replica_down" "$obs/crash.flow.txt"

echo
echo "== chaos campaigns: oracle-clean crash/recovery =="
# The scheduled mid-workload server crash must recover (boot_resets = 1) with
# the at-most-once oracle reporting zero double executions and zero silent
# failures. Byte-identity of the chaos jobs run to run, and alone versus in
# the suite, is already enforced by the determinism and isolation gates.
crash_line=$(grep '"name": "server-crash"' "$r1")
echo "$crash_line" | grep -q '"oracle_double_exec": 0' \
  || { echo "FAIL: chaos.server-crash reported double executions"; exit 1; }
echo "$crash_line" | grep -q '"oracle_silent": 0' \
  || { echo "FAIL: chaos.server-crash reported silent failures"; exit 1; }
echo "$crash_line" | grep -q '"boot_resets": 1' \
  || { echo "FAIL: chaos.server-crash never observed the server reboot"; exit 1; }
# A custom plan from the command line drives the same machinery.
./build/bench/bench_suite \
  --faults='crash:host=server,at=250ms,restart=600ms;drop:seg=0,from=0ms,until=200ms,rate=0.05;seed:5' \
  --filter='^chaos\.custom' --out="$obs/chaos_custom.json" >/dev/null
grep -q '"oracle_double_exec": 0' "$obs/chaos_custom.json"
grep -q '"oracle_silent": 0' "$obs/chaos_custom.json"
# A clause naming a host or segment the chaos topology lacks is a usage error.
usage_error "bad --faults spec: unknown host 'nohost'" \
  ./build/bench/bench_suite --faults='crash:host=nohost,at=1ms' --out="$obs/bad.json"
usage_error "bad --faults spec: unknown segment 99" \
  ./build/bench/bench_suite --faults='drop:seg=99,from=0ms,until=1ms,rate=0.5' \
  --out="$obs/bad.json"
echo "server-crash and --faults= campaigns oracle-clean"

echo
echo "== datacenter cluster: round-robin balance + oracle-clean failover =="
# The sub-saturation saturation-sweep job must complete every call with the
# round-robin share spread across the 4 replicas inside 10% (100000 ppm).
sat_line=$(grep '"name": "sat-low"' "$r1")
echo "$sat_line" | grep -q '"success_rate_ppm": 1000000' \
  || { echo "FAIL: datacenter.sat-low dropped calls below saturation"; exit 1; }
spread=$(echo "$sat_line" | sed -nE 's/.*"share_spread_ppm": ([0-9]+).*/\1/p')
[ -n "$spread" ] && [ "$spread" -le 100000 ] \
  || { echo "FAIL: datacenter.sat-low replica share spread ${spread:-?} ppm > 10%"; exit 1; }
# The replica-crash job must stay oracle-clean, mark the dead replica down,
# readmit it, and fully recover in the post-restart phase of the timeline.
dc_line=$(grep '"name": "replica-crash-failover"' "$r1")
echo "$dc_line" | grep -q '"oracle_double_exec": 0' \
  || { echo "FAIL: datacenter.replica-crash-failover reported double executions"; exit 1; }
echo "$dc_line" | grep -q '"oracle_silent": 0' \
  || { echo "FAIL: datacenter.replica-crash-failover reported silent failures"; exit 1; }
echo "$dc_line" | grep -Eq '"readmits": [1-9]' \
  || { echo "FAIL: datacenter.replica-crash-failover never readmitted the replica"; exit 1; }
post_ppm=$(echo "$dc_line" | sed -nE 's/.*"post": \{[^}]*"success_ppm": ([0-9]+).*/\1/p')
[ "${post_ppm:-0}" -eq 1000000 ] \
  || { echo "FAIL: post-restart phase success ${post_ppm:-?} ppm != 1000000"; exit 1; }
# A custom arrival process from the command line drives the same machinery.
./build/bench/bench_suite --arrivals='poisson:rate=120,horizon=300ms,seed=3' \
  --filter='^datacenter\.custom' --out="$obs/dc_custom.json" >/dev/null
grep -q '"success_rate_ppm": 1000000' "$obs/dc_custom.json"
grep -q '"oracle_silent": 0' "$obs/dc_custom.json"
echo "saturation balance, replica-crash failover, and --arrivals= campaigns clean"

echo
echo "== overload control: graceful degradation at 2.5x the knee =="
# sat-overload-controlled offers the same 400 cps/client that collapses the
# uncontrolled sat-overload job, but with deadlines + retry budget + caps +
# backlog-bounded admission armed it must sustain >= 85% of the knee's
# goodput, and >= 99% of the calls the system admitted must complete.
knee_good=$(grep '"name": "sat-knee"' "$r1" \
  | sed -nE 's/.*"goodput_cps": ([0-9.eE+-]+).*/\1/p')
ctrl_line=$(grep '"name": "sat-overload-controlled"' "$r1")
ctrl_good=$(echo "$ctrl_line" | sed -nE 's/.*"goodput_cps": ([0-9.eE+-]+).*/\1/p')
awk -v c="$ctrl_good" -v k="$knee_good" 'BEGIN { exit !(k > 0 && c >= 0.85 * k) }' \
  || { echo "FAIL: controlled goodput ${ctrl_good:-?} cps < 85% of knee ${knee_good:-?}"; \
       exit 1; }
adm_ppm=$(echo "$ctrl_line" \
  | sed -nE 's/.*"oracle_admitted_success_ppm": ([0-9]+).*/\1/p')
[ "${adm_ppm:-0}" -ge 990000 ] \
  || { echo "FAIL: admitted-call success ${adm_ppm:-?} ppm < 990000"; exit 1; }
echo "$ctrl_line" | grep -q '"oracle_double_exec": 0' \
  || { echo "FAIL: sat-overload-controlled reported double executions"; exit 1; }
echo "$ctrl_line" | grep -q '"oracle_silent": 0' \
  || { echo "FAIL: sat-overload-controlled reported silent failures"; exit 1; }
# Hedged failover across a replica crash: at-most-once must hold even with
# deliberate duplicate attempts in flight (hedged duplicates are reported as
# their own class, never as violations).
hedge_line=$(grep '"name": "hedged-crash-failover"' "$r1")
echo "$hedge_line" | grep -Eq '"hedges": [1-9]' \
  || { echo "FAIL: hedged-crash-failover never hedged"; exit 1; }
echo "$hedge_line" | grep -q '"oracle_double_exec": 0' \
  || { echo "FAIL: hedged-crash-failover reported double executions"; exit 1; }
echo "$hedge_line" | grep -q '"oracle_silent": 0' \
  || { echo "FAIL: hedged-crash-failover reported silent failures"; exit 1; }
echo "controlled goodput ${ctrl_good} cps (knee ${knee_good})," \
     "admitted success ${adm_ppm} ppm, hedged failover oracle-clean"

echo
echo "== session scale: churn soak evicts everything =="
# Three open -> drain cycles of 20k sessions each. The sweep timer must
# reclaim every session (live_after = 0, evictions > 0). That the slab slots
# and map geometry plateau across cycles is a tier-1 test
# (SessionScaleSoak in tests/idle_eviction_test.cc).
soak_line=$(grep '"name": "soak"' "$r1")
echo "$soak_line" | grep -Eq '"client_evicted": [1-9]' \
  || { echo "FAIL: session_scale.soak never evicted a session"; exit 1; }
echo "$soak_line" | grep -q '"client_live_after": 0' \
  || { echo "FAIL: session_scale.soak left client sessions live after drain"; exit 1; }
echo "$soak_line" | grep -q '"server_live_after": 0' \
  || { echo "FAIL: session_scale.soak left server sessions live after drain"; exit 1; }
echo "soak: full reclamation"

echo
echo "== host benchmark digest gate: hostbench builds and its simulation is unchanged =="
# The benchmark's own tests first, then each run checks every episode's
# simulated digest against hostbench/reference.txt and exits 1 on a mismatch,
# so a src/ change that breaks hostbench's build or moves its simulation
# fails here as in CI.
python3 hostbench/run.py --selftest
python3 scripts/host_ab.py --selftest
for w in paper-rpc cluster-openloop session-churn; do
  python3 hostbench/run.py --workload "$w" --seconds 2 --trace 0
done
# Observer effect: a traced run must still match the reference digests
# (tracing, trace ids included, never moves the simulation). session-churn is
# the traced workload whose demux maps fill and drain every cycle.
python3 hostbench/run.py --workload paper-rpc --seconds 2 --trace 1
python3 hostbench/run.py --workload session-churn --seconds 2 --trace 1

echo
echo "All checks passed."
