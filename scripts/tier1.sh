#!/usr/bin/env bash
# ConGrid tier-1 gate: full build + test suite, then a sanitizer pass over
# the reliability/chaos/observability tests (the code most exposed to
# lifetime bugs -- retransmit timers and fault hooks firing into torn-down
# objects, and the metrics instruments they report into).
#
# Usage: tier1.sh [BUILD_DIR] [ASAN_BUILD_DIR]
#   BUILD_DIR      normal build tree (default: build)
#   ASAN_BUILD_DIR sanitizer build tree (default: ${BUILD_DIR}-asan)
# CI passes distinct directories so the two trees cache independently.
#
# Usage: tier1.sh tsan [TSAN_BUILD_DIR]
#   Builds the tree under ThreadSanitizer and runs the tests that exercise
#   the wave scheduler and the thread pool (the code that actually shares
#   state across threads). CI runs this as its own job; locally it is the
#   fastest way to vet a scheduler change for races.
set -euo pipefail
cd "$(dirname "$0")/.."

# One way to build a network: outside src/net/, worlds come from a
# NetworkBackend (net/backend.hpp), which also owns the clock, the timers
# and fault injection. Fail on a hand-built SimNetwork or FaultInjector, or
# a hand-written TimerQueue class. SimNetwork's own unit tests and its
# message-rate micro-benchmark measure the simulator itself and stay exempt.
seam_pattern='(SimNetwork|FaultInjector)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*[({;]'
seam_pattern+='|make_(unique|shared)<[^>]*(SimNetwork|FaultInjector)[[:space:]]*>'
seam_pattern+='|new[[:space:]]+[A-Za-z_:]*(SimNetwork|FaultInjector)[[:space:]]*[({]'
seam_pattern+='|(class|struct)[[:space:]]+TimerQueue[^A-Za-z0-9_]'
if grep -rnE --include='*.cpp' --include='*.hpp' "${seam_pattern}" \
     src tests bench examples tools perfbench |
   grep -vE '^(src/net/|tests/test_net\.cpp:|bench/bench_micro\.cpp:)'; then
  echo "tier-1: build worlds through net::SimBackend / TcpLoopbackBackend" >&2
  exit 1
fi

if [[ "${1:-}" == "tsan" ]]; then
  TSAN_DIR="${2:-build-tsan}"
  echo "== tier-1: TSan pass over the parallel engine (${TSAN_DIR}) =="
  cmake -B "${TSAN_DIR}" -S . -DCONGRID_SANITIZE=thread >/dev/null
  # test_wire joins the TSan tier for its cross-thread socket test: the
  # epoll reactor's handler runs against sends from another thread.
  # test_overlay rides along: single-threaded by design, but the overlay's
  # timer closures must stay race-free if a threaded scheduler hosts them.
  # test_obs_http scrapes /metrics from client threads while a mutator
  # thread pounds the instruments -- the exact race surface of the obs
  # HTTP plane.
  # test_integration runs whole services on separate threads, one
  # TcpTransport each: every counter cell must stay on its owner's thread.
  # test_dsp: the FFT's process-wide plan cache, which threads first-use
  # concurrently.
  cmake --build "${TSAN_DIR}" -j --target \
    test_parallel_runtime test_rm test_core_runtime test_cas test_chaos \
    test_wire test_overlay test_obs_http test_integration test_dsp
  for t in test_parallel_runtime test_rm test_core_runtime test_cas \
           test_chaos test_wire test_overlay test_obs_http \
           test_integration test_dsp; do
    "./${TSAN_DIR}/tests/${t}"
  done
  echo "tier-1 (tsan): OK"
  exit 0
fi

BUILD_DIR="${1:-build}"
ASAN_DIR="${2:-${BUILD_DIR}-asan}"

echo "== tier-1: build + ctest (${BUILD_DIR}) =="
cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" -j
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

echo "== tier-1: ASan/UBSan chaos pass (${ASAN_DIR}) =="
# test_wire and test_tcp_parity run the real-socket tier under ASan too:
# the epoll reactor and the zero-copy decoder path are exactly where a
# lifetime bug would hide (buffers retired mid-writev, spans into a
# decoder that reallocated).
cmake -B "${ASAN_DIR}" -S . -DCONGRID_SANITIZE=address,undefined >/dev/null
# test_overlay joins the ASan tier: lookup/find state machines erase their
# own entries from inside timer closures, the classic shape for a
# use-after-free when a late reply races a timeout.
# test_integration: whole services on separate threads over sockets.
# test_dsp: the FFT's real-transform split step pairs bin k with bin n/2-k,
# and its k = 0 and k = n/2 ends are where an index would run past a buffer.
# test_serial, test_core_types, test_p2p: the bulk f64 codec writes and reads
# through raw pointers, and envelopes and pipe frames are unwrapped by
# erasing a prefix in place -- a miscounted length reads past a buffer there.
cmake --build "${ASAN_DIR}" -j --target test_reliable test_chaos test_net \
  test_obs test_obs_http test_wire test_tcp_parity test_overlay \
  test_integration test_dsp test_serial test_core_types test_p2p
for t in test_reliable test_chaos test_net test_obs test_obs_http \
         test_wire test_tcp_parity test_overlay test_integration test_dsp \
         test_serial test_core_types test_p2p; do
  "./${ASAN_DIR}/tests/${t}"
done

echo "tier-1: OK"
