#!/usr/bin/env bash
# top_smoke.sh — boot a 2-shard stingd cluster with no SLO configuration,
# drive fabric traffic, and assert that `stingtop -slo … -once -json`
# alone evaluates the objectives over its own store: a quantile objective
# on the cluster series breaches, a summed gauge breaches on the cluster
# series while each node's own value holds, and the merged count is
# exactly the sum of the per-shard counts. The nodes stay ready and serve
# no SLO endpoint. Run via `make top-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
pids=()
trap 'for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$tmp"' EXIT

go build -o "$tmp/stingd" ./cmd/stingd
go build -o "$tmp/sting" ./cmd/sting
go build -o "$tmp/stingtop" ./cmd/stingtop

mapfile -t ports < <(go run ./scripts/freeport 4)
# The same nodes.json routes the fabric AND names each node's
# observability endpoint — stingtop needs no other configuration, and
# stingd picks its -http address up from its own cluster entry.
cat >"$tmp/nodes.json" <<EOF
{"nodes": [
  {"id": "n1", "addr": "127.0.0.1:${ports[0]}", "http": "127.0.0.1:${ports[2]}"},
  {"id": "n2", "addr": "127.0.0.1:${ports[1]}", "http": "127.0.0.1:${ports[3]}"}
]}
EOF

for i in 1 2; do
    port="${ports[$((i - 1))]}"
    "$tmp/stingd" -addr "127.0.0.1:$port" -cluster "$tmp/nodes.json" >"$tmp/shard$i.log" 2>&1 &
    pids+=($!)
done
for i in 1 2; do
    ok=""
    for _ in $(seq 1 50); do
        grep -q "observability on" "$tmp/shard$i.log" && { ok=1; break; }
        kill -0 "${pids[$((i - 1))]}" 2>/dev/null || { echo "FAIL: shard $i exited early"; cat "$tmp/shard$i.log"; exit 1; }
        sleep 0.1
    done
    [ -n "$ok" ] || { echo "FAIL: shard $i never announced observability"; cat "$tmp/shard$i.log"; exit 1; }
done
obs1="127.0.0.1:${ports[2]}"
obs2="127.0.0.1:${ports[3]}"
echo "cluster up: fabric ${ports[0]}/${ports[1]}, obs $obs1/$obs2"

# Keyed puts spread over both shards; wildcard rds fan out so every shard
# serves latency-histogram traffic.
cat >"$tmp/traffic.scm" <<'EOF'
(define sp (remote-open *cluster* "jobs"))
(define (fill i)
  (if (< i 16)
      (begin (remote-put sp (list i "payload")) (fill (+ i 1)))))
(fill 0)
(display (remote-rd sp '(?k ?v))) (newline)
(display (tuple-space-size sp)) (newline)
EOF
"$tmp/sting" -cluster "$tmp/nodes.json" "$tmp/traffic.scm" >/dev/null

fail=0
for obsaddr in "$obs1" "$obs2"; do
    health="$(curl -fsS "http://$obsaddr/healthz")"
    [ "$health" = "ok" ] || { echo "FAIL: $obsaddr /healthz = '$health'"; fail=1; }
    code="$(curl -s -o "$tmp/ready" -w '%{http_code}' "http://$obsaddr/readyz")"
    [ "$code" = 200 ] || { echo "FAIL: $obsaddr /readyz = $code, want 200 (drain is its only gate)"; cat "$tmp/ready"; fail=1; }
    code="$(curl -s -o /dev/null -w '%{http_code}' "http://$obsaddr/debug/slo")"
    [ "$code" = 404 ] || { echo "FAIL: $obsaddr /debug/slo = $code, want 404 (SLOs live in stingtop)"; fail=1; }
done

# bad-put is engineered to breach on the cluster series (no real fabric
# does a 1ns p99). The 16 keyed puts all stay in "jobs", so the cluster
# depth is 16 and jobs-depth breaches, while each shard holds only its
# share and the {node=…} objectives hold: only the summed series can
# breach it.
slo='bad-put: remote.put p99 < 1ns over 60s
jobs-depth: sting_tspace_depth{space=jobs,kind=hash} value < 16 over 60s
n1-jobs-depth: sting_tspace_depth{space=jobs,kind=hash,node=n1} value < 16 over 60s
n2-jobs-depth: sting_tspace_depth{space=jobs,kind=hash,node=n2} value < 16 over 60s'
"$tmp/stingtop" -nodes "$tmp/nodes.json" -slo "$slo" -once -json >"$tmp/top.json" \
    || { echo "FAIL: stingtop -once exited nonzero (a node looked down)"; cat "$tmp/top.json"; fail=1; }

# slo_field NAME FIELD prints FIELD of objective NAME in the report.
slo_field() {
    awk -v name="\"$1\"," -v field="\"$2\":" '
        $1 == "\"name\":" { cur = $2 }
        cur == name && $1 == field { v = $2; sub(/,$/, "", v); gsub(/"/, "", v); print v; exit }
    ' "$tmp/top.json"
}
for name in bad-put jobs-depth; do
    [ "$(slo_field "$name" state)" = breach ] \
        || { echo "FAIL: cluster objective $name is '$(slo_field "$name" state)', want breach"; cat "$tmp/top.json"; fail=1; }
done
for name in n1-jobs-depth n2-jobs-depth; do
    state="$(slo_field "$name" state)"
    value="$(slo_field "$name" value)"
    [ "$state" != breach ] && [ "$state" != nodata ] && awk -v v="$value" 'BEGIN { exit (v < 16 ? 0 : 1) }' \
        || { echo "FAIL: $name = $state ($value), want each node within the threshold"; cat "$tmp/top.json"; fail=1; }
done
grep -q '"slo_state": "breach"' "$tmp/top.json" \
    || { echo "FAIL: stingtop rollup shows no breach"; cat "$tmp/top.json"; fail=1; }

# Cluster-wide quantiles: merged count must be exactly the per-shard sum,
# and the merged p99 must be a real latency (> 0).
counts="$(grep -o '"remote_count": [0-9]*' "$tmp/top.json" | awk '{print $2}')"
n="$(wc -l <<<"$counts")"
[ "$n" = 3 ] || { echo "FAIL: expected 3 remote_count rows (2 nodes + cluster), got $n"; cat "$tmp/top.json"; fail=1; }
if [ "$n" = 3 ]; then
    read -r c1 c2 ctotal <<<"$(tr '\n' ' ' <<<"$counts")"
    [ "$ctotal" = "$((c1 + c2))" ] \
        || { echo "FAIL: cluster remote_count $ctotal != $c1 + $c2 (merged buckets must sum exactly)"; fail=1; }
    [ "$c1" -gt 0 ] && [ "$c2" -gt 0 ] \
        || { echo "FAIL: a shard served no histogram traffic (c1=$c1 c2=$c2)"; fail=1; }
fi
p99="$(grep -o '"remote_p99_s": [0-9.e+-]*' "$tmp/top.json" | tail -1 | awk '{print $2}')"
awk -v v="$p99" 'BEGIN { exit (v > 0 ? 0 : 1) }' \
    || { echo "FAIL: cluster remote_p99_s = '$p99', want > 0"; fail=1; }

for i in 1 2; do
    kill -TERM "${pids[$((i - 1))]}"
done
for i in 1 2; do
    wait "${pids[$((i - 1))]}" 2>/dev/null || true
done
pids=()

if [ "$fail" -ne 0 ]; then
    echo "top-smoke: FAILED"
    exit 1
fi
echo "top-smoke: OK (2 shards, cluster SLOs breached in stingtop alone, nodes ready, cluster p99 from merged buckets)"
