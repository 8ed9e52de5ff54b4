// churn-stormy: the E12 churn campaign in its stormy climate.
//
// Home + 40 fragment hosts + 80 spares on a star overlay stream work for
// four simulated minutes while every non-home peer follows its own Poisson
// availability trace (up ~90 s, down ~45 s); a RunSupervisor at the default
// phi threshold detects, fences and recovers. Everything runs on SimBackend,
// so a campaign replays bit for bit from its seed; the wall time to
// simulate it is what the program's speed changes. Small control messages
// dominate: retransmits, acks, probes, fences and bounced payloads.
//
// Operation: one campaign (seeds derived from the workload seed).
// Correctness: a campaign fails when it overruns its wall budget, delivers
// an item twice, or -- re-run with the same seed -- does not reproduce the
// same completion count and recovery ledger.
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <set>

#include "churn/availability.hpp"
#include "core/service/supervisor.hpp"
#include "core/unit/builtin.hpp"
#include "net/backend.hpp"
#include "obs/obs.hpp"
#include "stats.hpp"
#include "traced.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace core = cg::core;
namespace net = cg::net;

constexpr std::size_t kWorkers = 40;
constexpr std::size_t kSpares = 80;
constexpr double kMeanUpS = 90.0;
constexpr double kMeanDownS = 45.0;
constexpr double kPhiDead = 8.0;  // SupervisorOptions default
constexpr double kWarmupS = 20.0;
constexpr double kChurnS = 220.0;
constexpr double kDrainS = 40.0;
constexpr double kBurstPeriodS = 5.0;
constexpr std::uint64_t kBurstItems = 12;
constexpr double kCampaignWallBudgetS = 60.0;
/// Campaigns a section runs at least, main or probe. About one campaign in
/// five wedges and loses most of its later items, so the pooled completion
/// rate needs a couple of dozen campaigns a run to be steady.
constexpr std::size_t kMinCampaigns = 8;

const core::UnitRegistry& base_registry() {
  static const core::UnitRegistry r = core::UnitRegistry::with_builtins();
  return r;
}

core::TaskGraph farm_graph() {
  core::TaskGraph inner("inner");
  core::ParamSet sp;
  sp.set_double("factor", 3.0);
  inner.add_task("Scale", "Scaler", sp);
  core::TaskGraph g("churn");
  core::ParamSet wp;
  wp.set_int("samples", 64);
  // An incommensurate frequency makes every tick's phase, and so every
  // delivered item, distinct: a double delivery is visible by value.
  wp.set_double("freq", 50.0 * 1.6180339887498949);
  g.add_task("Wave", "Wave", wp);
  core::TaskDef& grp = g.add_group("G", std::move(inner), "parallel");
  grp.group_inputs = {core::GroupPort{"Scale", 0}};
  grp.group_outputs = {core::GroupPort{"Scale", 0}};
  g.add_task("Sink", "Grapher");
  g.connect("Wave", 0, "G", 0);
  g.connect("G", 0, "Sink", 0);
  return g;
}

/// Availability trace -> scheduled up/down toggles over the churn window;
/// everyone is forced back up when the drain begins.
void apply_trace(net::SimNetwork& sim, std::uint32_t node,
                 const cg::churn::Trace& t, double t0, double window_s) {
  const auto at = [&](double rel, bool up) {
    if (rel < window_s) {
      sim.schedule(t0 + rel, [&sim, node, up] { sim.set_up(node, up); });
    }
  };
  if (t.empty()) {
    at(0.0, false);
  } else {
    if (t.front().start > 0.0) {
      at(0.0, false);
      at(t.front().start, true);
    }
    for (std::size_t i = 0; i < t.size(); ++i) {
      at(t[i].end, false);
      if (i + 1 < t.size()) at(t[i + 1].start, true);
    }
  }
  sim.schedule(t0 + window_s, [&sim, node] { sim.set_up(node, true); });
}

struct Campaign {
  std::uint64_t seed = 0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t expected = 0;
  std::uint64_t done = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t ledger = 0;  ///< digest of everything that must replay
  std::vector<double> recovery_s;
  core::SupervisorStats sup;
  std::uint64_t jobs_fenced = 0, payloads_bounced = 0, payloads_fenced = 0,
                payloads_received = 0;
  bool deployed = false;
  std::string home_error;  ///< why the home job failed, if it did
  std::uint64_t messages = 0;  ///< frames the simulator carried
};

Campaign run_campaign(std::uint64_t seed, SpanRecorder& rec,
                      cg::obs::Registry* obs) {
  Campaign c;
  c.seed = seed;
  const double t_setup = wall_now();
  net::SimBackend be({}, seed);
  net::SimNetwork& sim = be.net();
  const bool traced = rec.enabled();
  std::vector<std::unique_ptr<TracedTransport>> tts;
  const auto transport = [&]() -> net::Transport& {
    net::Transport& raw = be.add_node();
    if (!traced) return raw;
    tts.push_back(std::make_unique<TracedTransport>(raw, rec));
    return *tts.back();
  };
  const net::Scheduler sched =
      traced ? traced_scheduler(be.scheduler(), rec) : be.scheduler();
  // Data must survive multi-round outages: the campaign's retry budget.
  net::ReliableConfig rel;
  rel.deadline_s = 60.0;
  rel.max_retries = 12;

  core::ServiceConfig hc;
  hc.peer_id = "home";
  hc.reliable = rel;
  core::TrianaService home(transport(), be.clock(), sched, base_registry(), hc);
  std::vector<std::unique_ptr<core::TrianaService>> peers;
  std::vector<net::Endpoint> worker_eps, spare_eps;
  for (std::size_t i = 0; i < kWorkers + kSpares; ++i) {
    core::ServiceConfig cfg;
    cfg.peer_id = (i < kWorkers ? "w" : "s") + std::to_string(i);
    cfg.reliable = rel;
    peers.push_back(std::make_unique<core::TrianaService>(
        transport(), be.clock(), sched, base_registry(), cfg));
    home.node().add_neighbor(peers.back()->endpoint());
    peers.back()->node().add_neighbor(home.endpoint());
    (i < kWorkers ? worker_eps : spare_eps).push_back(peers.back()->endpoint());
  }
  if (obs != nullptr) {
    home.set_obs(*obs, nullptr, "home");
    for (auto& p : peers) p->set_obs(*obs, nullptr, p->id());
  }

  const core::TaskGraph g = farm_graph();
  home.publish_graph_modules(g);
  core::TrianaController ctl(home);
  auto run = ctl.distribute(g, "G", worker_eps);

  core::SupervisorOptions opt;
  opt.checkpoint_period_s = 8.0;
  opt.probe_period_s = 2.0;
  opt.max_missed = 12;
  opt.detector_min_std_s = 2.0;
  opt.phi_suspect = kPhiDead / 2.0;
  opt.phi_dead = kPhiDead;
  opt.lease_s = 8.0;
  opt.redeploy_timeout_s = 10.0;
  auto sup = std::make_shared<core::RunSupervisor>(ctl, run, spare_eps, opt);
  // Recovery spans give exact detection -> recovery durations on the sim
  // clock; only the supervisor is bound, so the rest of the stack runs as
  // it ships.
  cg::obs::Registry sup_reg;
  cg::obs::Tracer sup_tracer(1 << 14);
  sup_tracer.set_clock([&sim] { return sim.now(); });
  sup->set_obs(sup_reg, &sup_tracer, "sup");

  cg::churn::PoissonChurnModel model(kMeanUpS, kMeanDownS);
  cg::dsp::Rng churn_rng(seed ^ 0xC4A2u);
  for (std::size_t i = 0; i < peers.size(); ++i) {
    apply_trace(sim, static_cast<std::uint32_t>(i + 1),
                model.sample(kChurnS, churn_rng), kWarmupS, kChurnS);
  }
  for (double t = kWarmupS; t < kWarmupS + kChurnS - 10.0; t += kBurstPeriodS) {
    sim.schedule(t, [&ctl, &run] { ctl.tick(*run, kBurstItems); });
    c.expected += kBurstItems;
  }
  c.setup_s = wall_now() - t_setup;

  const auto advance = [&](double until) {
    const std::uint32_t op = rec.begin_op("net.sim");
    be.run_until(until);
    rec.end_op(op);
  };
  const double t0 = wall_now();
  advance(5.0);
  c.deployed = run->deployed_ok();
  if (c.deployed) {
    sup->start();
    const double horizon = kWarmupS + kChurnS + kDrainS;
    advance(horizon);
    sup->stop();
    c.wall_s = wall_now() - t0;
    c.messages = sim.stats().messages_sent;

    std::set<std::uint64_t> seen;
    std::uint64_t ledger = 1469598103934665603ull;
    const auto mix = [&ledger](std::uint64_t v) {
      ledger = (ledger ^ v) * 1099511628211ull;
    };
    for (const auto& item :
         ctl.home_runtime(*run)->unit_as<core::GrapherUnit>("Sink")->items()) {
      std::uint64_t b = 0;
      const double v = item.samples().samples.at(0);
      std::memcpy(&b, &v, sizeof b);
      if (!seen.insert(b).second) ++c.duplicates;
      ++c.done;
      mix(b);
    }
    c.sup = sup->stats();
    mix(c.sup.failures_detected);
    mix(c.sup.recoveries);
    mix(c.sup.recoveries_failed);
    mix(c.sup.fences_sent);
    c.ledger = ledger;
    std::map<std::uint64_t, double> open;
    for (const auto& ev : sup_tracer.events()) {
      if (ev.name != "supervisor.recover") continue;
      if (ev.kind == cg::obs::EventKind::kSpanBegin) {
        open[ev.span] = ev.t;
      } else if (ev.kind == cg::obs::EventKind::kSpanEnd &&
                 ev.detail.rfind("recovered", 0) == 0 && open.count(ev.span)) {
        c.recovery_s.push_back(ev.t - open[ev.span]);
      }
    }
    home.job_failed(run->home_job, &c.home_error);
    c.jobs_fenced = home.stats().jobs_fenced;
    c.payloads_fenced = home.pipes().stats().payloads_fenced;
    c.payloads_received = home.pipes().stats().payloads_received;
    for (const auto& p : peers) {
      c.jobs_fenced += p->stats().jobs_fenced;
      c.payloads_bounced += p->stats().payloads_bounced;
      c.payloads_fenced += p->pipes().stats().payloads_fenced;
      c.payloads_received += p->pipes().stats().payloads_received;
    }
    // Cancel the remotes and let the cancels drain (untimed).
    ctl.shutdown(*run);
    advance(horizon + 30.0);
  }
  return c;
}

}  // namespace

Section run_churn(const Options& o, Size size, double budget_s,
                  SpanRecorder& rec) {
  Section out;
  const bool traced = rec.enabled();
  cg::obs::Registry obs_reg;
  std::vector<Campaign> cs;
  std::vector<double> timers, timer_busy, handler_self, sim_self;
  SendTally sent;
  std::map<std::string, double> shares;
  std::string tree_error;
  const double start = wall_now();
  // The first campaign of a section's process runs on a cold heap and is
  // markedly slower: its wall time is left out of the timings, its items
  // and recoveries (deterministic per seed) are not. The determinism check
  // runs once a workload run, in its first segment.
  const std::size_t warmup = 1;
  const bool replay_check = o.segment == 0;
  for (std::uint64_t k = 0;
       cs.size() < kMinCampaigns ||
       (size == Size::kMain && wall_now() - start < budget_s);
       ++k) {
    cs.push_back(run_campaign(derive_seed(section_seed(o), 100 + k), rec,
                              traced ? &obs_reg : nullptr));
    if (!traced) continue;
    // Summarise this campaign's spans and drop them: a campaign records
    // well over 10^5 spans.
    const std::vector<Span> spans = rec.spans();
    const std::vector<double> self = self_times(spans);
    double nt = 0, tb = 0, hs = 0, ss = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& sp = spans[i];
      if (sp.layer == "timer") {
        ++nt;
        tb += sp.end - sp.start;
      } else if (sp.layer == "service.handler") {
        hs += self[i];
      } else if (sp.layer == "net.sim") {
        ss += self[i];
      } else {
        sent.add(sp);
      }
    }
    timers.push_back(nt);
    timer_busy.push_back(tb);
    handler_self.push_back(hs);
    sim_self.push_back(ss);
    std::map<std::string, double> sh;
    const std::string err = span_shares(spans, sh);
    if (tree_error.empty()) tree_error = err;
    for (const auto& [name, v] : sh) shares[name] += v;
    rec.clear();
  }

  // Determinism: the run's first campaign again, from scratch.
  SpanRecorder off(false);
  Campaign again;
  if (replay_check) again = run_campaign(cs.front().seed, off, nullptr);

  std::vector<double> setups, rec_s, items_done, items_expected, wall_s;
  std::uint64_t done = 0, expected = 0, wedged = 0;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const Campaign& c = cs[i];
    ++out.attempted;
    if (!c.deployed) {
      out.fail("churn: campaign " + std::to_string(c.seed) + " never deployed");
      continue;
    }
    if (c.wall_s > kCampaignWallBudgetS) {
      out.fail("churn: campaign " + std::to_string(c.seed) + " overran its budget");
    } else if (c.duplicates > 0 || c.done > c.expected) {
      out.fail("churn: campaign " + std::to_string(c.seed) +
               " delivered an item twice");
    } else if (replay_check && i == 0 &&
               (again.done != c.done || again.ledger != c.ledger)) {
      out.fail("churn: campaign " + std::to_string(c.seed) +
               " did not replay identically");
    }
    std::fprintf(stderr,
                 "  campaign %llu: %llu/%llu items, %zu recoveries, %llu msgs, %.3f s%s%s\n",
                 static_cast<unsigned long long>(c.seed),
                 static_cast<unsigned long long>(c.done),
                 static_cast<unsigned long long>(c.expected),
                 c.recovery_s.size(), static_cast<unsigned long long>(c.messages), c.wall_s,
                 c.home_error.empty() ? "" : ", home job failed: ",
                 c.home_error.c_str());
    if (!c.home_error.empty()) ++wedged;
    rec_s.insert(rec_s.end(), c.recovery_s.begin(), c.recovery_s.end());
    done += c.done;
    expected += c.expected;
    items_done.push_back(static_cast<double>(c.done));
    items_expected.push_back(static_cast<double>(c.expected));
    if (i < warmup) continue;
    wall_s.push_back(c.wall_s);
    setups.push_back(c.setup_s);
  }
  out.setup_s = setups;
  out.samples["churn.items_done"] = items_done;
  out.samples["churn.items_expected"] = items_expected;
  out.samples["churn.recovery_s"] = rec_s;
  out.samples["churn.wall_s"] = wall_s;
  char meta[320];
  std::snprintf(meta, sizeof meta,
                "{\"campaign_seeds\":[%llu,...],\"campaigns\":%zu,"
                "\"items_done\":%llu,\"items_expected\":%llu,"
                "\"wedged\":%llu,\"recoveries\":%zu}",
                static_cast<unsigned long long>(cs.front().seed), cs.size(),
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(wedged), rec_s.size());
  out.meta.push_back(meta);

  if (traced) {
    const double n = static_cast<double>(cs.size());
    double probes = 0, detected = 0, recovered = 0, rfailed = 0, fenced = 0,
           bounced = 0, pf = 0, pr = 0;
    for (const Campaign& c : cs) {
      probes += static_cast<double>(c.sup.probes_sent);
      detected += static_cast<double>(c.sup.failures_detected);
      recovered += static_cast<double>(c.sup.recoveries);
      rfailed += static_cast<double>(c.sup.recoveries_failed);
      fenced += static_cast<double>(c.jobs_fenced);
      bounced += static_cast<double>(c.payloads_bounced);
      pf += static_cast<double>(c.payloads_fenced);
      pr += static_cast<double>(c.payloads_received);
    }
    out.layer["supervisor.probes_sent"] = probes / n;
    out.layer["supervisor.failures_detected"] = detected / n;
    out.layer["supervisor.recoveries"] = recovered / n;
    out.layer["supervisor.recoveries_failed"] = rfailed / n;
    out.layer["service.jobs_fenced"] = fenced / n;
    out.layer["service.payloads_bounced"] = bounced / n;
    out.layer["churn.wasted_frac"] = pf + pr > 0 ? pf / (pf + pr) : 0.0;
    out.layer["churn.wedged_frac"] = static_cast<double>(wedged) / n;
    out.layer["net.timers_fired"] = median(timers);
    out.layer["net.timer_busy_s"] = median(timer_busy);
    out.layer["service.handler_self_s"] = median(handler_self);
    sent.report(n, out.layer);
    // The simulator's event loop is the churn workload's "poll": every
    // frame it moves is small.
    out.layer["net.poll_s.small"] = median(sim_self);
    out.layer["net.poll_s.bulk"] = 0.0;
    for (const auto& [name, v] : shares) out.layer[name] = v / n;
    if (!tree_error.empty()) out.fail("churn: span tree: " + tree_error);
    reliable_metrics(obs_reg.snapshot(), n, out.layer);
    ReplayInputs in;
    for (const auto& [c, b] : sent.bytes) {
      in.frame_payloads.push_back(
          static_cast<std::size_t>(b / sent.frames.at(c)));
    }
    replay_kernels(o, in, out.layer);
  }
  return out;
}

}  // namespace perfbench
