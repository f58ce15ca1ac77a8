#!/usr/bin/env sh
# Smoke test for earmac-serve: start the daemon over a disk cache,
# submit one Table 1 config twice, and assert the second response is
# served from the content-addressed cache byte-identical to the first;
# post hostile configs (a leaky bucket that overflows int64, a burst
# above earmac.MaxBeta) and assert a 400 for each from a server that
# keeps serving; check that SIGTERM drains
# gracefully; then restart on the same
# -cache-dir and assert the preloaded disk tier serves the config again,
# byte-identical, without simulating it. The CI serve-smoke job runs
# this script; locally: make smoke-serve.
set -eu

ADDR="${EARMAC_SERVE_ADDR:-127.0.0.1:8321}"
WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

# start_server LOG: start earmac-serve over $WORK/cache, logging to
# $WORK/LOG, and wait until /v1/healthz answers.
start_server() {
    "$WORK/earmac-serve" -addr "$ADDR" -parallel 2 -cache-dir "$WORK/cache" 2>"$WORK/$1" &
    SERVE_PID=$!
    echo "serve-smoke: waiting for /v1/healthz"
    i=0
    until curl -sf "http://$ADDR/v1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "serve-smoke: server never became healthy" >&2
            cat "$WORK/$1" >&2
            exit 1
        fi
        sleep 0.2
    done
}

# drain_server LOG: SIGTERM the server and wait for its graceful exit.
drain_server() {
    kill -TERM "$SERVE_PID"
    i=0
    while kill -0 "$SERVE_PID" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve-smoke: server did not drain within 20s" >&2
            cat "$WORK/$1" >&2
            exit 1
        fi
        sleep 0.2
    done
    wait "$SERVE_PID" 2>/dev/null || true
    SERVE_PID=""
    grep -q 'drained, bye' "$WORK/$1" || {
        echo "serve-smoke: no graceful-drain message in server log:" >&2
        cat "$WORK/$1" >&2
        exit 1
    }
}

echo "serve-smoke: building earmac-serve"
go build -o "$WORK/earmac-serve" ./cmd/earmac-serve

start_server serve.log

# Table 1, row "orchestra, ρ=1, β=2": the full-rate adversary the paper's
# O(n²+β) latency bound is exercised against.
CONFIG='{"algorithm":"orchestra","n":8,"rho_num":1,"rho_den":1,"beta":2,"rounds":200000}'

echo "serve-smoke: first submission (expect cache miss)"
curl -sf -D "$WORK/h1" -o "$WORK/r1.json" -X POST "http://$ADDR/v1/run" -d "$CONFIG"
grep -qi '^x-earmac-cache: *miss' "$WORK/h1" || {
    echo "serve-smoke: first response not a cache miss:" >&2
    cat "$WORK/h1" >&2
    exit 1
}

echo "serve-smoke: second submission (expect cache hit, byte-identical)"
curl -sf -D "$WORK/h2" -o "$WORK/r2.json" -X POST "http://$ADDR/v1/run" -d "$CONFIG"
grep -qi '^x-earmac-cache: *hit' "$WORK/h2" || {
    echo "serve-smoke: second response not served from cache:" >&2
    cat "$WORK/h2" >&2
    exit 1
}
cmp "$WORK/r1.json" "$WORK/r2.json" || {
    echo "serve-smoke: cached response is not byte-identical" >&2
    exit 1
}
grep -q '"algorithm":"orchestra"' "$WORK/r1.json" || {
    echo "serve-smoke: response does not look like a Report:" >&2
    cat "$WORK/r1.json" >&2
    exit 1
}

# Two hostile configs, each of which used to kill the process and is
# now a 400 with the server still serving: (ρ, β) = (1/10, 10^18), whose
# bucket overflows int64 (it panicked in the job goroutine), and
# (1/3, 3·10^18), which fits int64 but exceeds earmac.MaxBeta (round 0
# injected the whole burst and exhausted memory).
echo "serve-smoke: hostile configs (expect 400, server still serving)"
for HOSTILE in \
    '{"algorithm":"orchestra","n":8,"rho_num":1,"rho_den":10,"beta":1000000000000000000,"rounds":10}' \
    '{"algorithm":"orchestra","n":8,"rho_num":1,"rho_den":3,"beta":3000000000000000000,"rounds":10}'; do
    code=$(curl -s -o "$WORK/hostile.json" -w '%{http_code}' -X POST "http://$ADDR/v1/run" -d "$HOSTILE" || true)
    [ "$code" = 400 ] || {
        echo "serve-smoke: hostile config $HOSTILE answered $code, want 400:" >&2
        cat "$WORK/hostile.json" >&2
        exit 1
    }
done
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/healthz" || true)
[ "$code" = 200 ] || {
    echo "serve-smoke: /v1/healthz answered $code after the hostile configs, want 200" >&2
    exit 1
}
curl -sf -D "$WORK/h4" -o "$WORK/r4.json" -X POST "http://$ADDR/v1/run" -d "$CONFIG"
grep -qi '^x-earmac-cache: *hit' "$WORK/h4" && cmp -s "$WORK/r1.json" "$WORK/r4.json" || {
    echo "serve-smoke: the smoke config after the hostile ones is not a byte-identical cache hit" >&2
    cat "$WORK/h4" >&2
    exit 1
}

echo "serve-smoke: SIGTERM drain"
drain_server serve.log

echo "serve-smoke: restart on the same -cache-dir"
start_server serve2.log
curl -sf -X POST "http://$ADDR/v1/cache/preload" >"$WORK/preload.json"
grep -q '"loaded":1[,}]' "$WORK/preload.json" || {
    echo "serve-smoke: preload did not load the one cached report:" >&2
    cat "$WORK/preload.json" >&2
    exit 1
}

echo "serve-smoke: submission after restart (expect cache hit, byte-identical)"
curl -sf -D "$WORK/h3" -o "$WORK/r3.json" -X POST "http://$ADDR/v1/run" -d "$CONFIG"
grep -qi '^x-earmac-cache: *hit' "$WORK/h3" || {
    echo "serve-smoke: response after restart not served from cache:" >&2
    cat "$WORK/h3" >&2
    exit 1
}
cmp "$WORK/r1.json" "$WORK/r3.json" || {
    echo "serve-smoke: response after restart is not byte-identical" >&2
    exit 1
}
curl -sf "http://$ADDR/v1/healthz" >"$WORK/health.json"
grep -q '"misses":0[,}]' "$WORK/health.json" && grep -Eq '"jobs":\{[^}]*"done":0[,}]' "$WORK/health.json" || {
    echo "serve-smoke: the restarted server simulated again:" >&2
    cat "$WORK/health.json" >&2
    exit 1
}
drain_server serve2.log

echo "serve-smoke: OK (cache hit byte-identical, hostile configs rejected, graceful drain, disk tier across a restart)"
