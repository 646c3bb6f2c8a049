#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the test suite, then a
# smoke run of the microbenchmarks with the --stats registry dump.
#
# By default this runs the fast test slice (`ctest -L fast`, seconds
# per suite — includes torture_smoke, a seconds-scale run of the
# crash-torture harness). Set PRISM_VERIFY_ALL=1 for the full suite
# including the slow property/stress tests; CI sets it.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j"$(nproc)"
if [[ "${PRISM_VERIFY_ALL:-0}" == "1" ]]; then
    ctest --test-dir build --output-on-failure -j"$(nproc)"
else
    ctest --test-dir build --output-on-failure -j"$(nproc)" -L fast
fi

# Smoke: one fast microbench iteration must exit cleanly and the
# registry dump must mention known metrics (BM_PwbAppend1K touches the
# pmem layer and the PWB, so sim.nvm.*, pmem.* and prism.pwb.* appear).
./build/bench/bench_micro --stats \
    --benchmark_filter=BM_PwbAppend1K \
    --benchmark_min_time=0.01 2> /tmp/prism_stats_smoke.txt
grep -q "prism\.pwb\.appends" /tmp/prism_stats_smoke.txt || {
    echo "verify.sh: --stats dump missing registry metrics" >&2
    exit 1
}

# Optional wire-level smoke (PRISM_VERIFY_SERVER=1): boot prism_server
# on an ephemeral port, run the raw-socket conformance script, check the
# listener section of /healthz, run a short open-loop prism_loadgen
# burst, and check the exit summary — the local mirror of CI's `server`
# job (docs/SERVER.md).
if [[ "${PRISM_VERIFY_SERVER:-0}" == "1" ]]; then
    SRV_OUT=$(mktemp) SRV_ERR=$(mktemp)
    ./build/examples/prism_server --port=0 --obs-port=0 \
        > "${SRV_OUT}" 2> "${SRV_ERR}" &
    SRV_PID=$!
    trap 'kill "${SRV_PID}" 2>/dev/null || true' EXIT
    PORT=""
    for _ in $(seq 1 50); do
        PORT=$(grep -oam1 'resp listening on 127.0.0.1:[0-9]*' \
               "${SRV_OUT}" | grep -oE '[0-9]+$' || true)
        [[ -n "${PORT}" ]] && break
        sleep 0.2
    done
    [[ -n "${PORT}" ]] || {
        echo "verify.sh: prism_server never announced a port" >&2
        cat "${SRV_ERR}" >&2
        exit 1
    }
    python3 scripts/resp_conformance.py "${PORT}"
    OBS_PORT=$(grep -oam1 'ops endpoint at http://127.0.0.1:[0-9]*' \
               "${SRV_OUT}" | grep -oE '[0-9]+$' || true)
    curl -sf "127.0.0.1:${OBS_PORT}/healthz" | grep -q '"listener":{' || {
        echo "verify.sh: /healthz has no listener section" >&2
        exit 1
    }
    ./build/bench/prism_loadgen --port="${PORT}" --load \
        --records=5000 --conns=2
    ./build/bench/prism_loadgen --port="${PORT}" --mix=c --rate=2000 \
        --duration=5 --records=5000 --conns=2
    kill -TERM "${SRV_PID}"
    wait "${SRV_PID}"
    trap - EXIT
    grep 'prism_server: served' "${SRV_ERR}" || {
        echo "verify.sh: prism_server printed no exit summary" >&2
        exit 1
    }
fi
echo "verify.sh: OK"
