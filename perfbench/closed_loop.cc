#include "closed_loop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "oracle.h"
#include "util/stats.h"

namespace perfbench {

namespace service = dbsa::service;

namespace {

using Clock = std::chrono::steady_clock;

struct Sample {
  uint32_t request = 0;
  bool ok = false;
  double latency_ms = 0.0;
  uint64_t digest = 0;
};

struct LoopResult {
  std::vector<Sample> samples;
  double wall_s = 0.0;
};

/// kClients closed-loop clients, each walking its own pre-generated
/// sequence: send, wait for the answer, record, send the next. Latency is
/// Execute() to the future becoming ready; the digest is taken after.
LoopResult RunClients(service::QueryService& svc, const Inputs& inputs,
                      double seconds) {
  std::vector<std::vector<Sample>> per_client(kClients);
  std::vector<Clock::time_point> ends(kClients);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      const std::vector<uint32_t>& seq = inputs.client_sequences[c];
      std::vector<Sample>& out = per_client[c];
      out.reserve(seq.size());
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t i = 0; Clock::now() < deadline; ++i) {
        const uint32_t id = seq[i % seq.size()];
        const Request& r = inputs.distinct[id];
        const Clock::time_point t0 = Clock::now();
        const service::Result result = svc.Execute(r.query, r.options).get();
        const Clock::time_point t1 = Clock::now();
        out.push_back(Sample{id, result.ok(),
                             std::chrono::duration<double, std::milli>(t1 - t0).count(),
                             Digest(result)});
      }
      ends[c] = Clock::now();
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  LoopResult result;
  for (size_t c = 0; c < kClients; ++c) {
    result.samples.insert(result.samples.end(), per_client[c].begin(),
                          per_client[c].end());
    result.wall_s = std::max(
        result.wall_s, std::chrono::duration<double>(ends[c] - start).count());
  }
  return result;
}

/// Adds percentile `p` of `xs` as metric `name`. A percentile is only
/// reported with at least ten samples beyond it; with fewer the run is
/// not correct (the value is still printed, flagged).
void AddPercentile(const std::string& name, const std::vector<double>& xs, double p,
                   RunReport* report) {
  dbsa::Percentiles q;
  q.AddAll(xs);
  const double beyond = std::floor(static_cast<double>(xs.size()) * (1.0 - p / 100.0));
  if (beyond < 10.0) {
    report->errors.push_back(name + ": " + std::to_string(xs.size()) +
                             " samples leave fewer than 10 beyond p" +
                             std::to_string(static_cast<int>(p)));
  }
  report->Add(name, q.Percentile(p), "ms", xs.size());
}

std::string Fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

}  // namespace

RunReport RunEndToEnd(const Inputs& inputs, const Scale& scale, double seconds) {
  RunReport report;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  for (int rep = 0; rep < scale.setup_reps; ++rep) {
    dep.reset();  // The previous set-up is torn down off the clock.
    dep = SetUp(inputs, scale, {});
    setup_s.push_back(dep->times.total_s);
    if (!dep->setup_error.empty()) {
      report.errors.push_back(dep->setup_error);
      report.attempted = 1;
      return report;
    }
    const SetupTimes& t = dep->times;
    report.notes.push_back(
        Fmt("setup: dataset %.1f ms, engine/shards %.1f ms, ", t.dataset_ms,
            t.engine_build_ms) +
        Fmt("snapshot load %.1f ms, stand-up %.1f ms, warm %.1f ms", t.snapshot_load_ms,
            t.standup_ms, t.warm_ms) +
        Fmt(", %.1f of %.0f MB cached", static_cast<double>(t.cache_bytes) / (1 << 20),
            static_cast<double>(inputs.cache_budget_bytes >> 20)));
  }

  const std::vector<Expected> expected = BuildOracle(*dep->reference, inputs, kClients);
  const service::ApproxCache::Stats cache_before = dep->service->cache_stats();
  const LoopResult loop = RunClients(*dep->service, inputs, seconds);
  const service::ApproxCache::Stats cache_after = dep->service->cache_stats();

  // Every timed answer against its reference, after the timed window.
  std::vector<double> count_ms, agg_ms, select_ms;
  std::vector<char> answered(inputs.distinct.size(), 0);
  for (const Sample& s : loop.samples) {
    const Expected& e = expected[s.request];
    const bool good = s.ok && e.error.empty() && s.digest == e.digest;
    if (!good) {
      if (report.failed == 0) {
        report.notes.push_back("first failure: request " + std::to_string(s.request) +
                               (s.ok ? "" : " (status not OK)") +
                               (e.error.empty() ? "" : " (" + e.error + ")") +
                               (s.digest == e.digest ? "" : " (payload differs)"));
      }
      ++report.failed;
    }
    switch (inputs.distinct[s.request].query.kind()) {
      case service::QueryKind::kCount:
        count_ms.push_back(s.latency_ms);
        answered[s.request] = 1;
        break;
      case service::QueryKind::kAggregate:
        agg_ms.push_back(s.latency_ms);
        break;
      case service::QueryKind::kSelect:
        select_ms.push_back(s.latency_ms);
        break;
    }
  }
  report.attempted = std::max<size_t>(loop.samples.size(), 1);

  report.Add("qps", static_cast<double>(loop.samples.size()) / loop.wall_s, "queries/s",
             loop.samples.size());
  AddPercentile("count_p50_ms", count_ms, 50.0, &report);
  AddPercentile("count_p99_ms", count_ms, 99.0, &report);
  AddPercentile("agg_p50_ms", agg_ms, 50.0, &report);
  AddPercentile("agg_p90_ms", agg_ms, 90.0, &report);
  AddPercentile("select_p50_ms", select_ms, 50.0, &report);
  AddPercentile("select_p90_ms", select_ms, 90.0, &report);
  // Each distinct COUNT answered in the window weighs once: under Zipf
  // popularity a per-answer mean is the width of the few hottest
  // viewports, which change with the seed.
  double width_sum = 0.0;
  size_t width_n = 0;
  for (size_t i = 0; i < answered.size(); ++i) {
    if (!answered[i]) continue;
    width_sum += expected[i].width_rel;
    ++width_n;
  }
  report.Add("range_width_rel", width_sum / static_cast<double>(std::max<size_t>(width_n, 1)),
             "fraction", width_n);
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  report.Add("peak_rss_mb", PeakRssMb(), "MB");

  const size_t hits = cache_after.hits - cache_before.hits;
  const size_t misses = cache_after.misses - cache_before.misses;
  report.notes.push_back(
      Fmt("fail_ratio %.6g (fraction) over %.0f attempted",
          static_cast<double>(report.failed) / static_cast<double>(report.attempted),
          static_cast<double>(report.attempted)));
  report.notes.push_back(
      Fmt("timed window: %.3f s wall; ApproxCache hit ratio %.4f, %.0f evictions",
          loop.wall_s,
          hits + misses == 0 ? 1.0
                             : static_cast<double>(hits) / static_cast<double>(hits + misses),
          static_cast<double>(cache_after.evictions - cache_before.evictions)));
  return report;
}

}  // namespace perfbench
