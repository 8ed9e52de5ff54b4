// case1-farm: the paper's Case 1 (section 3.6.1) over real loopback TCP.
//
// A home peer and nproc - 1 worker peers on TcpLoopbackBackend, pumped by
// one thread, run the parallel-policy RenderFrame farm with 256 kB
// synthetic modules. Two kinds of operation:
//
//   deploy  distribute() -> deployed_ok on a fresh world. Cold deploys give
//           the workers empty content stores, so every module is fetched,
//           hashed, compressed and written; warm deploys give fresh workers
//           the store directories a cold deploy filled (a restart), so the
//           modules resolve by digest from disk, decompressed and re-hashed.
//   frame   a closed loop keeps a fixed window of frames outstanding, one
//           controller.tick(run, 1) per free slot; a frame is a grid-256
//           column-density image (~512 kB) returned to the home sink.
//
// The deploys distribute one farm over all the workers. The frame loop runs
// one single-replica farm per worker instead: the parallel policy funnels
// each group output of every replica into one home channel, and
// AnimationSink pairs its index and image inputs in arrival order, so with
// frames of two replicas in flight an image can be filed under the other's
// index. With one replica per farm each channel carries that replica's
// results in the order it rendered them, and the pairing holds.
//
// Correctness: a deploy that is not acked fails; a frame that never
// arrives, arrives twice, or whose pixels are not a local render of its own
// index fails.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include "apps/galaxy/snapshot.hpp"
#include "apps/galaxy/sph.hpp"
#include "apps/galaxy/units.hpp"
#include "cas/store.hpp"
#include "core/service/controller.hpp"
#include "core/service/protocol.hpp"
#include "core/unit/builtin.hpp"
#include "net/loopback.hpp"
#include "obs/obs.hpp"
#include "repo/artifact.hpp"
#include "stats.hpp"
#include "traced.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace core = cg::core;
namespace fs = std::filesystem;
namespace galaxy = cg::galaxy;
namespace net = cg::net;

constexpr std::size_t kModuleBytes = 256 * 1024;
constexpr int kGrid = 256;
/// A render then costs a few milliseconds, the same order as moving its
/// ~512 kB image over the loopback wire.
constexpr int kParticles = 600;
/// RenderFrame's collapse timeline. Far longer than any run, so every frame
/// a run renders sits near the start of the collapse and costs the same:
/// a faster program must not buy itself cheaper (more collapsed) frames.
constexpr int kAnimationFrames = 1 << 20;
constexpr double kDeployTimeoutS = 10.0;
constexpr double kDrainTimeoutS = 10.0;
/// Idle back-off between pumps: the backend's own run_until loop sleeps
/// this long when nothing moved, so the closed loop sees the same latency.
constexpr auto kIdleSleep = std::chrono::microseconds(200);

struct Params {
  std::uint64_t render_seed = 42;
  double azimuth = 0.0;
};

core::TaskGraph farm_graph(const Params& p) {
  core::TaskGraph inner("render");
  core::ParamSet rp;
  rp.set_int("particles", kParticles);
  rp.set_int("frames", kAnimationFrames);
  rp.set_int("grid", kGrid);
  rp.set_int("seed", static_cast<std::int64_t>(p.render_seed));
  rp.set_double("azimuth", p.azimuth);
  inner.add_task("Render", "RenderFrame", rp);

  core::TaskGraph g("case1_farm");
  core::ParamSet fp;
  fp.set_int("frames", std::int64_t{1} << 40);  // the loop decides when to stop
  g.add_task("Frames", "FrameSource", fp);
  core::TaskDef& grp = g.add_group("Farm", std::move(inner), "parallel");
  grp.group_inputs = {core::GroupPort{"Render", 0}};
  grp.group_outputs = {core::GroupPort{"Render", 0},
                       core::GroupPort{"Render", 1}};
  g.add_task("Anim", "AnimationSink");
  g.connect("Frames", 0, "Farm", 0);
  g.connect("Farm", 0, "Anim", 0);
  g.connect("Farm", 1, "Anim", 1);
  return g;
}

const core::UnitRegistry& base_registry() {
  static const core::UnitRegistry r = [] {
    core::UnitRegistry reg = core::UnitRegistry::with_builtins();
    galaxy::register_galaxy_units(reg);
    return reg;
  }();
  return r;
}

std::uint64_t frame_checksum(const core::ImageFrame& f) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  mix(f.width);
  mix(f.height);
  for (double v : f.pixels) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    mix(b);
  }
  return h;
}

core::ServiceConfig peer_config(const std::string& id, cg::cas::ContentStore* cas) {
  core::ServiceConfig c;
  c.peer_id = id;
  c.cas = cas;
  // A long loop ships far more than the default per-job network budget.
  c.sandbox_policy.max_network_bytes = std::uint64_t{1} << 42;
  c.sandbox_policy.max_cpu_seconds = 1e12;
  return c;
}

/// One farm: backend, home, workers, their stores. Members are declared in
/// the order they must be built; destruction runs the other way, so the
/// services die before the stores and transports they borrow.
struct World {
  World(const core::UnitRegistry& reg, SpanRecorder& rec,
        cg::obs::Registry* obs, const std::vector<std::string>& cas_dirs,
        const core::TaskGraph& g) {
    const std::size_t n = cas_dirs.size();
    for (std::size_t i = 0; i <= n; ++i) {
      net::Transport& raw = be.add_node();
      if (rec.enabled()) {
        traced.push_back(std::make_unique<TracedTransport>(raw, rec));
        transports.push_back(traced.back().get());
      } else {
        transports.push_back(&raw);
      }
    }
    const net::Scheduler sched = rec.enabled()
                                     ? traced_scheduler(be.scheduler(), rec)
                                     : be.scheduler();
    for (const std::string& dir : cas_dirs) {
      cg::cas::CasConfig cc;
      cc.dir = dir;
      stores.push_back(std::make_unique<cg::cas::ContentStore>(cc));
    }
    home = std::make_unique<core::TrianaService>(
        *transports[0], be.clock(), sched, reg,
        peer_config("home", nullptr));
    for (std::size_t i = 0; i < n; ++i) {
      workers.push_back(std::make_unique<core::TrianaService>(
          *transports[i + 1], be.clock(), sched, reg,
          peer_config("w" + std::to_string(i), stores[i].get())));
      home->node().add_neighbor(workers.back()->endpoint());
      workers.back()->node().add_neighbor(home->endpoint());
      endpoints.push_back(workers.back()->endpoint());
    }
    if (obs != nullptr) {
      home->set_obs(*obs, nullptr, "home");
      for (auto& w : workers) w->set_obs(*obs, nullptr, w->id());
    }
    home->publish_graph_modules(g, kModuleBytes);
    ctl = std::make_unique<core::TrianaController>(*home);
  }

  /// One pump of the backend as an operation of its own.
  bool pump(SpanRecorder& rec) {
    const std::uint32_t op = rec.begin_op("net.pump");
    const bool moved = be.pump();
    rec.end_op(op);
    return moved;
  }

  /// Pump until `done` or `timeout_s` of wall time passes.
  template <typename Done>
  bool pump_until(SpanRecorder& rec, double timeout_s, Done done) {
    const double until = wall_now() + timeout_s;
    while (!done()) {
      if (wall_now() >= until) return false;
      if (!pump(rec)) std::this_thread::sleep_for(kIdleSleep);
    }
    return true;
  }

  net::TcpLoopbackBackend be;
  std::vector<std::unique_ptr<TracedTransport>> traced;
  std::vector<net::Transport*> transports;
  std::vector<std::unique_ptr<cg::cas::ContentStore>> stores;
  std::unique_ptr<core::TrianaService> home;
  std::vector<std::unique_ptr<core::TrianaService>> workers;
  std::vector<net::Endpoint> endpoints;
  std::unique_ptr<core::TrianaController> ctl;
};

struct FrameRecord {
  std::size_t farm = 0;
  std::int64_t index = 0;
  double latency_ms = 0.0;
  std::uint64_t checksum = 0;
};

}  // namespace

Section run_case1(const Options& o, Size size, double budget_s,
                  SpanRecorder& rec) {
  Section out;
  const bool traced = rec.enabled();
  const std::uint64_t s = derive_seed(section_seed(o), 1);
  const auto params = [](std::uint64_t k) {
    Params p;
    p.render_seed = k % 1000003;
    p.azimuth = static_cast<double>((k >> 20) % 6283) / 1000.0;
    return p;
  };
  const core::TaskGraph g = farm_graph(params(s));
  const std::size_t n_workers =
      std::max<std::size_t>(1, std::min<std::size_t>(3, o.host.nproc - 1));
  // The frame loop's farms, one a worker, each with a view of its own so
  // no two farms return the same image.
  std::vector<Params> farms;
  for (std::size_t f = 0; f < n_workers; ++f) {
    farms.push_back(params(derive_seed(s, f + 1)));
  }
  /// Frames outstanding on each farm.
  constexpr std::size_t kFarmWindow = 2;

  cg::obs::Registry obs_reg;
  cg::obs::Registry* obs = traced ? &obs_reg : nullptr;
  const core::UnitRegistry traced_reg =
      traced ? timed_registry(base_registry(), rec,
                              {{"RenderFrame", {"galaxy", "galaxy.config"}}})
             : core::UnitRegistry{};
  const core::UnitRegistry& reg = traced ? traced_reg : base_registry();
  const fs::path root = fs::path(o.work_dir) / ("case1-" + std::to_string(o.seed));
  std::error_code ec;
  fs::remove_all(root, ec);
  int dir_gen = 0;
  const auto fresh_dirs = [&] {
    std::vector<std::string> dirs;
    const fs::path base = root / ("gen" + std::to_string(dir_gen++));
    for (std::size_t i = 0; i < n_workers; ++i) {
      dirs.push_back((base / ("w" + std::to_string(i))).string());
    }
    return dirs;
  };

  ReplayInputs replay;
  // One set-up sample per section: every world it builds, timed together,
  // so a sample is large enough not to be one scheduling hiccup.
  double setup_total_s = 0.0;
  std::size_t worlds = 0;
  std::vector<double> cold_ms, warm_ms;
  std::uint64_t modules_fetched = 0, bytes_fetched = 0, disk_hits = 0,
                bytes_read_disk = 0;

  // Build a world (timed as set-up) and deploy the farm over all its
  // workers. The world is torn down on return, as soon as it has acked: the
  // next deploy needs fresh workers, not the cancels of this one.
  const auto deploy = [&](const std::vector<std::string>& dirs, bool warm) {
    const double t_setup = wall_now();
    auto w = std::make_unique<World>(reg, rec, obs, dirs, g);
    setup_total_s += wall_now() - t_setup;
    ++worlds;
    if (traced && replay.module_bytes.empty()) {
      if (const auto a = w->home->local_repo().latest("RenderFrame")) {
        replay.module_bytes = cg::repo::encode_artifact(*a);
      }
    }
    if (traced && replay.deploy_frame.empty() && !w->traced.empty()) {
      w->traced[1]->set_tap([&replay](const cg::serial::Frame& f) {
        if (!replay.deploy_frame.empty() ||
            f.type != cg::serial::FrameType::kReliable) {
          return;
        }
        try {
          const auto env = cg::serial::decode_envelope(f);
          if (env.inner.type == cg::serial::FrameType::kControl &&
              core::control_type(env.inner) == core::ControlType::kDeploy) {
            replay.deploy_frame.assign(env.inner.payload.begin(),
                                       env.inner.payload.end());
          }
        } catch (const std::exception&) {
        }
      });
    }
    ++out.attempted;
    const std::uint32_t op = rec.begin_op("service.distribute");
    const double t0 = wall_now();
    auto run = w->ctl->distribute(g, "Farm", w->endpoints);
    rec.end_op(op);
    const bool acked = w->pump_until(rec, kDeployTimeoutS,
                                     [&] { return run->all_acked(); });
    const double ms = (wall_now() - t0) * 1000.0;
    if (!acked || !run->deployed_ok()) {
      out.fail(std::string("case1: ") + (warm ? "warm" : "cold") +
               " deploy not acked" +
               (run->errors.empty() ? "" : ": " + run->errors[0]));
      return;
    }
    (warm ? warm_ms : cold_ms).push_back(ms);
    if (warm) {
      for (const auto& st : w->stores) {
        disk_hits += st->stats().disk_hits;
        bytes_read_disk += st->stats().bytes_read_disk;
      }
    } else {
      for (const auto& wk : w->workers) {
        modules_fetched += wk->stats().modules_fetched;
        bytes_fetched += wk->module_cache().stats().bytes_fetched;
      }
    }
  };

  // Phase A: deploy cycles, cold then warm over the dirs it filled.
  const double start = wall_now();
  const int min_pairs = 8;
  const double deploy_budget = size == Size::kMain ? 0.2 * budget_s : 0.0;
  std::vector<std::string> warm_dirs;
  for (int pair = 0;
       pair < min_pairs || wall_now() - start < deploy_budget; ++pair) {
    const auto dirs = fresh_dirs();
    deploy(dirs, false);
    deploy(dirs, true);
    warm_dirs = dirs;
  }

  // Phase B: the closed frame loop on one more warm world, one
  // single-replica farm a worker (see the top of this file).
  std::vector<FrameRecord> frames;
  double loop_s = 0.0;
  std::size_t peer_links = 0;
  {
    const double t_setup = wall_now();
    World w(reg, rec, obs, warm_dirs, g);
    setup_total_s += wall_now() - t_setup;
    ++worlds;
    std::vector<core::TaskGraph> graphs;
    std::vector<std::shared_ptr<core::DistributedRun>> runs;
    for (std::size_t f = 0; f < n_workers; ++f) {
      ++out.attempted;
      graphs.push_back(farm_graph(farms[f]));
      const std::uint32_t op = rec.begin_op("service.distribute");
      runs.push_back(w.ctl->distribute(graphs.back(), "Farm", {w.endpoints[f]}));
      rec.end_op(op);
    }
    w.pump_until(rec, kDeployTimeoutS, [&] {
      for (const auto& r : runs) {
        if (!r->all_acked()) return false;
      }
      return true;
    });
    std::vector<galaxy::AnimationSinkUnit*> sinks;
    for (const auto& r : runs) {
      if (!r->all_acked() || !r->deployed_ok()) {
        out.fail("case1: frame-loop deploy not acked" +
                 (r->errors.empty() ? std::string() : ": " + r->errors[0]));
        continue;
      }
      sinks.push_back(w.ctl->home_runtime(*r)->unit_as<galaxy::AnimationSinkUnit>(
          "Anim"));
    }
    if (sinks.size() == runs.size()) {
      const double frame_budget =
          size == Size::kMain ? std::max(1.0, budget_s - (wall_now() - start))
                              : 1.5;
      // Per farm: index -> tick time of the frames in flight.
      std::vector<std::map<std::int64_t, double>> outstanding(n_workers);
      std::vector<std::set<std::int64_t>> seen(n_workers);
      std::vector<std::int64_t> next(n_workers, 0);
      const auto in_flight = [&] {
        std::size_t n = 0;
        for (const auto& m : outstanding) n += m.size();
        return n;
      };
      const auto collect = [&] {
        for (std::size_t f = 0; f < n_workers; ++f) {
          galaxy::AnimationSinkUnit* sink = sinks[f];
          if (sink->frames().empty()) continue;
          const double now = wall_now();
          for (const auto& [idx, img] : sink->frames()) {
            const auto i = static_cast<std::int64_t>(idx);
            const auto it = outstanding[f].find(i);
            if (it == outstanding[f].end() || !seen[f].insert(i).second) {
              out.fail("case1: farm " + std::to_string(f) + " frame " +
                       std::to_string(i) + " delivered twice");
              continue;
            }
            frames.push_back(
                {f, i, (now - it->second) * 1000.0, frame_checksum(img)});
            outstanding[f].erase(it);
          }
          sink->reset();
        }
      };
      const double t_loop = wall_now();
      while (wall_now() - t_loop < frame_budget) {
        for (std::size_t f = 0; f < n_workers; ++f) {
          while (outstanding[f].size() < kFarmWindow) {
            const std::uint32_t op = rec.begin_op("service.tick");
            outstanding[f][next[f]++] = wall_now();
            w.ctl->tick(*runs[f], 1);
            rec.end_op(op);
          }
        }
        const bool moved = w.pump(rec);
        collect();
        if (!moved) std::this_thread::sleep_for(kIdleSleep);
      }
      loop_s = wall_now() - t_loop;
      const std::size_t in_loop = frames.size();
      w.pump_until(rec, kDrainTimeoutS, [&] {
        collect();
        return in_flight() == 0;
      });
      for (std::size_t f = 0; f < n_workers; ++f) {
        out.attempted += static_cast<std::uint64_t>(next[f]);
        for (const auto& [idx, t] : outstanding[f]) {
          out.fail("case1: farm " + std::to_string(f) + " frame " +
                   std::to_string(idx) + " never arrived");
        }
      }
      out.samples["case1.frames"].push_back(static_cast<double>(in_loop));
      out.samples["case1.loop_s"].push_back(loop_s);
      // Each link is open at both of its ends.
      for (std::size_t i = 0; i < w.transports.size(); ++i) {
        peer_links += w.be.tcp(i).connection_count();
      }
      peer_links /= 2;
    }
  }

  // Verify every frame against a local render of its own farm's view of its
  // own index; any other image fails.
  {
    std::vector<std::uint64_t> want(frames.size());
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < o.threads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = t; i < frames.size(); i += o.threads) {
          const Params& fp = farms[frames[i].farm];
          galaxy::SimulationSpec spec;
          spec.n_particles = kParticles;
          spec.n_frames = kAnimationFrames;
          spec.seed = fp.render_seed;
          galaxy::View view;
          view.grid = kGrid;
          view.azimuth_rad = fp.azimuth;
          const auto snap = galaxy::snapshot_at(
              spec, static_cast<std::size_t>(frames[i].index));
          want[i] = frame_checksum(galaxy::project_column_density(snap, view));
        }
      });
    }
    for (auto& t : pool) t.join();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (want[i] == frames[i].checksum) continue;
      out.fail("case1: farm " + std::to_string(frames[i].farm) + " frame " +
               std::to_string(frames[i].index) +
               " is not the render of its index");
    }
  }
  fs::remove_all(root, ec);

  if (worlds > 0) {
    out.setup_s.push_back(setup_total_s / static_cast<double>(worlds));
  }
  auto& lat = out.samples["case1.frame_ms"];
  for (const auto& f : frames) lat.push_back(f.latency_ms);
  out.samples["deploy.cold_ms"] = cold_ms;
  out.samples["deploy.warm_ms"] = warm_ms;
  std::string seeds;
  for (const Params& fp : farms) {
    seeds += (seeds.empty() ? "" : ",") + std::to_string(fp.render_seed);
  }
  char meta[320];
  std::snprintf(meta, sizeof meta,
                "{\"farm_render_seeds\":[%s],\"workers\":%zu,"
                "\"farm_window\":%zu,\"frames\":%zu,\"cold_deploys\":%zu,"
                "\"warm_deploys\":%zu,\"tcp_links\":%zu}",
                seeds.c_str(), n_workers, kFarmWindow, frames.size(),
                cold_ms.size(), warm_ms.size(), peer_links);
  out.meta.push_back(meta);

  if (traced) {
    const std::vector<Span> spans = rec.spans();
    const std::vector<double> self = self_times(spans);
    const double per_frame = frames.empty() ? 1.0 : static_cast<double>(frames.size());
    std::vector<double> render;
    double handler_self = 0.0;
    SendTally sent;
    std::map<std::string, double> poll;
    std::set<std::size_t> sizes;
    // Largest class delivered inside each pump decides its poll bucket.
    std::map<std::uint32_t, std::string> pump_class;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& sp = spans[i];
      if (sp.layer == "galaxy") render.push_back(sp.end - sp.start);
      if (sp.layer == "service.handler") {
        handler_self += self[i];
        const std::string c = size_class(sp.bytes);
        std::string& pc = pump_class[sp.op];
        if (pc.empty() || c == "bulk" || (c == "mid" && pc == "small")) pc = c;
      }
      sent.add(sp);
      if (sp.layer == "net.send" && sp.kind != "flush" && sizes.size() < 64) {
        sizes.insert(sp.bytes);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].layer != "net.pump") continue;
      const auto it = pump_class.find(spans[i].id);
      poll[it == pump_class.end() ? "small" : it->second] += self[i];
    }
    sent.report(per_frame, out.layer);
    for (const char* c : {"small", "bulk"}) {
      out.layer[std::string("net.poll_s.") + c] = poll[c] / per_frame;
    }
    out.layer["galaxy.render_s"] = median(render);
    out.layer["service.handler_self_s"] = handler_self / per_frame;
    out.layer["repo.modules_fetched"] =
        cold_ms.empty() ? 0.0 : static_cast<double>(modules_fetched) / cold_ms.size();
    out.layer["cache.bytes_fetched"] =
        cold_ms.empty() ? 0.0 : static_cast<double>(bytes_fetched) / cold_ms.size();
    out.layer["cas.disk_hits"] =
        warm_ms.empty() ? 0.0 : static_cast<double>(disk_hits) / warm_ms.size();
    out.layer["cas.bytes_read_disk"] =
        warm_ms.empty() ? 0.0 : static_cast<double>(bytes_read_disk) / warm_ms.size();
    const auto snap = obs_reg.snapshot();
    if (const auto* h = snap.histogram("home.service.deploy_rtt_s")) {
      out.layer["service.deploy_rtt_s"] = h->mean();
    }
    reliable_metrics(snap, per_frame, out.layer);
    for (std::size_t z : sizes) replay.frame_payloads.push_back(z);
    replay_kernels(o, replay, out.layer);
  }
  return out;
}

}  // namespace perfbench
