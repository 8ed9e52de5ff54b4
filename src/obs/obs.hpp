// ConGrid -- observability façade: metrics registry + event tracer.
//
// Include this one header to instrument a component. The pattern every
// instrumented subsystem follows (SimNetwork, ReliableTransport,
// ContentStore, ModuleCache, PeerNode, PipeServe, CodeExchange,
// OverlayNode, GraphRuntime, TrianaService, RunSupervisor):
//
//   * declare each counted fact once, as a field of the component's stats
//     struct inside CONGRID_COUNTERS(...), one name per line. Each field is
//     an obs::Count cell: its value is what stats() returns, and ++ / +=
//     also feed the registry counter once bound;
//   * hold unbound GaugeRef / HistogramRef / TracerRef members for
//     everything else -- all no-ops until bound, all compiled out entirely
//     under -DCONGRID_OBS=OFF (where a Count is one plain uint64_t);
//   * expose set_obs(Registry&, Tracer*, scope): one
//     bind_counters(registry, scope, "<prefix>", stats_) call registers
//     every field as "<scope>.<prefix>.<field>", then each gauge, histogram
//     and tracer is resolved once by name -- no lock or lookup ever runs on
//     the hot path afterwards;
//   * benches call Registry::snapshot().to_json() and write BENCH_*.json,
//     which CI uploads and validates;
//   * for live inspection, obs/http_server.hpp serves the registry (and
//     sampler-window rates, obs/sampler.hpp) over loopback HTTP -- in
//     Prometheus text exposition (obs/prometheus.hpp) and JSON.
//
// See DESIGN.md section 4c for the metric name inventory and 4j for the
// HTTP plane.
#pragma once

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
