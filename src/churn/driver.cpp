#include "churn/driver.hpp"

namespace cg::churn {

void apply_trace(net::NetworkBackend& net, std::uint32_t node,
                 const Trace& trace, obs::Registry* registry,
                 obs::Tracer* tracer) {
  obs::CounterRef ups, downs;
  if (registry) {
    ups = registry->counter("churn.node_up");
    downs = registry->counter("churn.node_down");
  }
  obs::TracerRef trc(tracer);
  const std::string node_scope = "sim:" + std::to_string(node);

  const bool up_at_zero = !trace.empty() && trace.front().start <= 0.0;
  net.set_up(node, up_at_zero);
  for (const auto& iv : trace) {
    if (iv.start > 0.0) {
      net.schedule(iv.start, [&net, node, ups, trc, node_scope] {
        net.set_up(node, true);
        ups.inc();
        trc.event(node_scope, "churn.up");
      });
    }
    net.schedule(iv.end, [&net, node, downs, trc, node_scope] {
      net.set_up(node, false);
      downs.inc();
      trc.event(node_scope, "churn.down");
    });
  }
}

Trace apply_model(net::NetworkBackend& net, std::uint32_t node,
                  const AvailabilityModel& model, double duration_s,
                  dsp::Rng& rng, obs::Registry* registry,
                  obs::Tracer* tracer) {
  Trace t = model.sample(duration_s, rng);
  apply_trace(net, node, t, registry, tracer);
  return t;
}

}  // namespace cg::churn
