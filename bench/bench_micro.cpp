// M1 -- substrate micro-benchmarks (google-benchmark).
//
// Sanity numbers behind the experiment harnesses: complex and real FFTs,
// fast-vs-direct correlation and the matched filter at Case 2's 2^21-point
// padded chunk (the inspiral kernel), DataItem and frame codecs, CRC-32,
// XML task-graph parsing, simulated-network event throughput, and chirp/SPH
// generation costs.
#include <benchmark/benchmark.h>

#include "apps/gw/chirp.hpp"
#include "core/graph/taskgraph_xml.hpp"
#include "core/types/data_item.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/rng.hpp"
#include "net/sim_network.hpp"
#include "serial/crc32.hpp"
#include "serial/frame.hpp"

using namespace cg;

namespace {

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  dsp::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.gaussian();
  return v;
}

void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto sig = random_signal(n, 1);
  std::vector<dsp::Complex> a(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) a[i] = sig[i];
    dsp::fft(a);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_Rfft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto sig = random_signal(n, 1);
  for (auto _ : state) {
    auto half = dsp::rfft(sig);
    benchmark::DoNotOptimize(half.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
// 2^21 is the padded length of a Case 2 chunk (1.8 M samples).
BENCHMARK(BM_Rfft)->Arg(1 << 10)->Arg(1 << 18)->Arg(1 << 21);

void BM_FastCorrelate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto data = random_signal(n, 1);
  auto tmpl = random_signal(512, 2);
  for (auto _ : state) {
    auto r = dsp::fast_correlate(data, tmpl);
    benchmark::DoNotOptimize(r.data());
  }
}
BENCHMARK(BM_FastCorrelate)->Arg(1 << 12)->Arg(1 << 16);

void BM_DirectCorrelate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto data = random_signal(n, 1);
  auto tmpl = random_signal(512, 2);
  for (auto _ : state) {
    auto r = dsp::direct_correlate(data, tmpl);
    benchmark::DoNotOptimize(r.data());
  }
}
BENCHMARK(BM_DirectCorrelate)->Arg(1 << 12)->Arg(1 << 16);

// One template against a data spectrum computed once, as a bank scan runs
// it, at padded length n: the data is the longest that pads to n with a
// 40 k-sample template (a Case 2 chunk of 1.8 M samples pads to 2^21).
// Items are templates.
void BM_MatchedFilter(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t tmpl_len = 40000;
  const auto data = random_signal(n - tmpl_len + 1, 1);
  const auto tmpl = random_signal(tmpl_len, 2);
  const auto half = dsp::rfft(data, n);
  for (auto _ : state) {
    auto r = dsp::matched_filter(half, data.size(), tmpl);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MatchedFilter)->Arg(1 << 21)->Unit(benchmark::kMillisecond);

void BM_ChirpGeneration(benchmark::State& state) {
  gw::ChirpParams p;
  p.f_low_hz = 100.0;
  for (auto _ : state) {
    auto h = gw::make_chirp(p);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_ChirpGeneration);

// Arg > 0: a sample set of that many doubles. Arg 0: a 256x256 image, the
// shape of one Case-1 galaxy frame (512 KiB of pixels).
void BM_DataItemCodec(benchmark::State& state) {
  core::DataItem item;
  if (state.range(0) > 0) {
    core::SampleSet s;
    s.sample_rate = 2000;
    s.samples = random_signal(static_cast<std::size_t>(state.range(0)), 3);
    item = core::DataItem(std::move(s));
  } else {
    item = core::DataItem(
        core::ImageFrame{256, 256, random_signal(256 * 256, 3)});
  }
  for (auto _ : state) {
    auto bytes = core::encode_data_item(item);
    auto back = core::decode_data_item(bytes);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(item.byte_size()));
}
BENCHMARK(BM_DataItemCodec)->Arg(1 << 10)->Arg(1 << 16)->Arg(0);

void BM_Crc32(benchmark::State& state) {
  serial::Bytes data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131u + 7u);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(serial::crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// A control frame, a page, and one Case-1 image frame.
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4 << 10)->Arg(512 << 10);

void BM_FrameEncodeDecode(benchmark::State& state) {
  serial::Frame f;
  f.type = serial::FrameType::kData;
  f.payload.assign(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    auto wire = serial::encode_frame(f);
    serial::FrameDecoder d;
    d.feed(wire);
    auto out = d.next();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FrameEncodeDecode)->Arg(1 << 10)->Arg(1 << 20);

void BM_TaskGraphParse(benchmark::State& state) {
  core::TaskGraph g("bench");
  core::ParamSet wp;
  g.add_task("t0", "Wave", wp);
  for (int i = 1; i < state.range(0); ++i) {
    g.add_task("t" + std::to_string(i), "Scaler", wp);
    g.connect("t" + std::to_string(i - 1), 0, "t" + std::to_string(i), 0);
  }
  const std::string xml = core::write_taskgraph(g);
  for (auto _ : state) {
    auto back = core::parse_taskgraph(xml);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xml.size()));
}
BENCHMARK(BM_TaskGraphParse)->Arg(16)->Arg(128);

void BM_SimNetworkMessageRate(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    net::SimNetwork net({}, 1);
    auto& a = net.add_node();
    auto& b = net.add_node();
    int got = 0;
    b.set_handler([&](const net::Endpoint&, serial::Frame) { ++got; });
    serial::Frame f;
    f.type = serial::FrameType::kData;
    f.payload.assign(64, 1);
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i) a.send(b.local(), f);
    net.run_all();
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimNetworkMessageRate);

}  // namespace

BENCHMARK_MAIN();
