#include "layers.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>

#include "core/decayed_aggregate.h"
#include "core/factory.h"
#include "decay/exponential.h"
#include "decay/polyexponential.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/spsc_ring.h"

namespace perfbench {
namespace {

/// Wall time each core loop runs for; long enough to swamp timer reads,
/// short enough that twelve loops stay well under a second.
constexpr double kCoreLoopSeconds = 0.06;

struct CoreCase {
  const char* name;
  tds::Backend backend;
  tds::DecayPtr decay;
};

std::vector<CoreCase> CoreCases() {
  // The decays bench/throughput.cc pairs with each backend, plus the
  // polyexponential family for the pipelined-register counter.
  return {
      {"ewma", tds::Backend::kEwma,
       tds::ExponentialDecay::Create(0.001).value()},
      {"recent_items", tds::Backend::kRecentItems,
       tds::ExponentialDecay::Create(0.001).value()},
      {"ceh", tds::Backend::kCeh,
       tds::SlidingWindowDecay::Create(1 << 16).value()},
      {"wbmh", tds::Backend::kWbmh, tds::PolynomialDecay::Create(1.0).value()},
      {"coarse_ceh", tds::Backend::kCoarseCeh,
       tds::PolynomialDecay::Create(1.0).value()},
      {"polyexp", tds::Backend::kPolyExp,
       tds::PolyExponentialDecay::Create(1, 0.001).value()},
  };
}

std::unique_ptr<tds::DecayedAggregate> MakeCore(const CoreCase& c,
                                                Result* result) {
  auto options =
      tds::AggregateOptions::Builder().backend(c.backend).epsilon(0.1).Build();
  if (!result->Check(options.status(), "core options")) return nullptr;
  auto sum = tds::MakeDecayedSum(c.decay, *options);
  if (!result->Check(sum.status(), "core MakeDecayedSum")) return nullptr;
  return std::move(sum).value();
}

}  // namespace

void MeasureCoreBackends(Result* result) {
  for (const CoreCase& c : CoreCases()) {
    const std::string prefix = std::string("core.") + c.name;
    // Update: one item per tick, as bench/throughput.cc's BM_Update does;
    // the clock is read once per 1024 updates.
    auto subject = MakeCore(c, result);
    if (subject == nullptr) continue;
    tds::Rng rng(1);
    tds::Tick t = 1;
    uint64_t updates = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    while (elapsed < kCoreLoopSeconds) {
      for (int i = 0; i < 1024; ++i) {
        subject->Update(t, 1 + (rng.Next() & 1));
        ++t;
      }
      updates += 1024;
      elapsed = SecondsSince(start);
    }
    result->Set(prefix + ".update_ns",
                elapsed * 1e9 / static_cast<double>(updates), "ns");

    // Query: a structure holding 2^15 ticks, queried at advancing ticks.
    auto queried = MakeCore(c, result);
    if (queried == nullptr) continue;
    for (tds::Tick u = 1; u <= (1 << 15); ++u) queried->Update(u, 1);
    tds::Tick now = 1 << 15;
    uint64_t queries = 0;
    double sink = 0.0;
    const auto qstart = Clock::now();
    elapsed = 0.0;
    while (elapsed < kCoreLoopSeconds) {
      for (int i = 0; i < 1024; ++i) {
        sink += queried->Query(now);
        ++now;
      }
      queries += 1024;
      elapsed = SecondsSince(qstart);
    }
    result->Expect(std::isfinite(sink) && sink >= 0.0,
                   prefix + " query results are finite and non-negative");
    result->Set(prefix + ".query_ns",
                elapsed * 1e9 / static_cast<double>(queries), "ns");
  }
}

double RingHandoffNsPerItem(size_t run_size, size_t queue_capacity,
                            Result* result) {
  constexpr size_t kItems = size_t{1} << 23;
  constexpr size_t kPopChunk = 4096;  // the engine writer's drain size
  run_size = std::max<size_t>(1, run_size);
  tds::SpscRing<tds::KeyedItem> ring(queue_capacity);
  std::vector<tds::KeyedItem> run(run_size);
  for (size_t i = 0; i < run_size; ++i) run[i] = tds::KeyedItem{i, 1, 1};
  uint64_t key_sum = 0;
  const auto start = Clock::now();
  std::thread consumer([&] {
    std::vector<tds::KeyedItem> out(kPopChunk);
    size_t popped = 0;
    while (popped < kItems) {
      const size_t n = ring.TryPopN(out.data(), out.size());
      for (size_t i = 0; i < n; ++i) key_sum += out[i].key;
      popped += n;
    }
  });
  size_t pushed = 0;
  while (pushed < kItems) {
    const size_t want = std::min(run_size, kItems - pushed);
    size_t done = 0;
    while (done < want) done += ring.TryPushN(run.data() + done, want - done);
    pushed += want;
  }
  consumer.join();
  const double seconds = SecondsSince(start);
  // Every run carries keys 0..run_size-1, so the popped key sum is exact.
  const uint64_t full_runs = kItems / run_size;
  const uint64_t tail = kItems % run_size;
  const uint64_t expected = full_runs * (run_size * (run_size - 1) / 2) +
                            tail * (tail - (tail > 0 ? 1 : 0)) / 2;
  result->Expect(key_sum == expected, "spsc ring delivered every item once");
  return seconds * 1e9 / static_cast<double>(kItems);
}

double ReplayRegistry(tds::DecayPtr decay,
                      const tds::AggregateRegistry::Options& options,
                      std::span<const tds::KeyedItem> warm,
                      std::span<const tds::KeyedItem> items) {
  constexpr size_t kChunk = 4096;  // the engine writer's drain size
  auto registry = tds::AggregateRegistry::Create(std::move(decay), options);
  if (!registry.ok()) return 0.0;
  for (size_t i = 0; i < warm.size(); i += kChunk) {
    registry->UpdateBatch(warm.subspan(i, std::min(kChunk, warm.size() - i)));
  }
  const auto start = Clock::now();
  for (size_t i = 0; i < items.size(); i += kChunk) {
    registry->UpdateBatch(
        items.subspan(i, std::min(kChunk, items.size() - i)));
  }
  return SecondsSince(start);
}

void MeasureRegistryBackends(
    const std::vector<std::vector<tds::KeyedItem>>& warm,
    const std::vector<std::vector<tds::KeyedItem>>& shard_items,
    Result* result) {
  struct Case {
    const char* name;
    tds::Backend backend;
    tds::DecayPtr decay;
  };
  const Case cases[] = {
      {"ceh", tds::Backend::kCeh,
       tds::SlidingWindowDecay::Create(4096).value()},
      {"wbmh", tds::Backend::kWbmh, tds::PolynomialDecay::Create(1.0).value()},
      {"ewma", tds::Backend::kEwma,
       tds::ExponentialDecay::Create(0.001).value()},
  };
  size_t total = 0;
  for (const auto& items : shard_items) total += items.size();
  for (const Case& c : cases) {
    tds::AggregateRegistry::Options options;
    options.aggregate = tds::AggregateOptions::Builder()
                            .backend(c.backend)
                            .epsilon(0.1)
                            .Build()
                            .value();
    options.expiry_weight_floor = -1.0;
    double seconds = 0.0;
    for (size_t s = 0; s < shard_items.size(); ++s) {
      seconds += ReplayRegistry(c.decay, options, warm[s], shard_items[s]);
    }
    result->Set(
        std::string("registry.") + c.name + ".update_batch_ns_per_item",
        total == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(total), "ns");
  }
}

}  // namespace perfbench
