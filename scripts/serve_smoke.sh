#!/usr/bin/env bash
# Tier-1 serve smoke: boot the serving daemon on an accelerated (turbo)
# clock, drive it with the smoke client over loopback (120 requests in
# batches of 12), and check the clean shutdown end to end — the client's
# byte reconciliation (offered = delivered + lost + rejected), the
# daemon's JSONL trace via trace-summary, the request-latency quantile
# report, and that the captured workload replays through the batch
# pipeline. A second, manual-clock daemon exercises the Prometheus
# scrape and the SIGTERM shutdown path (trace flushed and fsynced).
set -euo pipefail

serve=$1 client=$2 sim=$3
dir=$(mktemp -d)
daemon_pid=
cleanup() {
  if [ -n "$daemon_pid" ]; then kill "$daemon_pid" 2>/dev/null || true; fi
  rm -rf "$dir"
}
trap cleanup EXIT

# The help page renders cleanly: cmdliner reports markup errors in doc
# strings on stderr, and the --faults syntax shows its literal '@'.
"$serve" --help=plain >"$dir/help.out" 2>"$dir/help.err"
if [ -s "$dir/help.err" ]; then
  echo "serve smoke: --help wrote to stderr" >&2
  cat "$dir/help.err" >&2
  exit 1
fi
if ! grep -qF 'link:SRC-DST@SLOTS' "$dir/help.out"; then
  echo "serve smoke: --help does not show link:SRC-DST@SLOTS" >&2
  exit 1
fi

# Wait for "listening on 127.0.0.1:PORT" in $1 while pid $2 stays alive;
# prints the port.
await_port() {
  local out=$1 pid=$2 port=
  for _ in $(seq 1 200); do
    port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$out")
    if [ -n "$port" ]; then echo "$port"; return 0; fi
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "serve smoke: daemon died before announcing a port" >&2
      return 1
    fi
    sleep 0.05
  done
  echo "serve smoke: daemon never announced a port" >&2
  return 1
}

"$serve" --clock turbo --scheduler direct --nodes 6 --capacity 35 --seed 0 \
  --slots 64 --port 0 --capture "$dir/capture.json" --metrics --spans \
  --trace "$dir/serve.jsonl" >"$dir/serve.out" 2>"$dir/serve.err" &
daemon_pid=$!

if ! port=$(await_port "$dir/serve.out" "$daemon_pid"); then
  cat "$dir/serve.out" "$dir/serve.err" >&2
  exit 1
fi

"$client" smoke --port "$port" -n 120 --batch 12 --seed 42

if ! wait "$daemon_pid"; then
  echo "serve smoke: daemon exited non-zero" >&2
  cat "$dir/serve.out" "$dir/serve.err" >&2
  exit 1
fi
daemon_pid=

# With --metrics on, the shutdown summary reports queued->completed
# latency quantiles from the serve.request_ms histogram.
if ! grep -q 'request latency: p50 .* p95 .* p99 ' "$dir/serve.out"; then
  echo "serve smoke: no request-latency quantile line" >&2
  cat "$dir/serve.out" >&2
  exit 1
fi

"$sim" trace-summary "$dir/serve.jsonl"
"$sim" custom --workload "$dir/capture.json" --nodes 6 --capacity 35 \
  --seed 0 --slots 64 --schedulers direct >/dev/null

# --- Prometheus scrape + SIGTERM shutdown, on a manual clock (the slot
# clock must not run between the scrape and the signal). ---
"$serve" --clock manual --scheduler direct --nodes 6 --capacity 35 --seed 0 \
  --slots 64 --port 0 --metrics --spans --trace "$dir/serve2.jsonl" \
  >"$dir/serve2.out" 2>"$dir/serve2.err" &
daemon_pid=$!

if ! port=$(await_port "$dir/serve2.out" "$daemon_pid"); then
  cat "$dir/serve2.out" "$dir/serve2.err" >&2
  exit 1
fi

"$client" scrape --port "$port" --prom >"$dir/scrape.prom"
# Prometheus text exposition: TYPE lines, the serve latency histogram
# with its +Inf bucket, and a sample on every non-comment line.
grep -q '^# TYPE serve_request_ms histogram$' "$dir/scrape.prom"
grep -q '^serve_request_ms_bucket{le="+Inf"} ' "$dir/scrape.prom"
if grep -v '^#' "$dir/scrape.prom" | grep -qv '^[a-zA-Z_:][a-zA-Z0-9_:]*\({[^}]*}\)\? [0-9.e+-]*$'; then
  echo "serve smoke: malformed Prometheus exposition line" >&2
  cat "$dir/scrape.prom" >&2
  exit 1
fi

kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
  echo "serve smoke: daemon exited non-zero after SIGTERM" >&2
  cat "$dir/serve2.out" "$dir/serve2.err" >&2
  exit 1
fi
daemon_pid=

# The signal path flushed and fsynced the trace: it must still pass the
# strict reader (zero runs is fine — no slot ever ticked).
"$sim" trace-summary "$dir/serve2.jsonl" >/dev/null
echo "serve smoke: OK"
