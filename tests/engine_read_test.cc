// Point-read tests for ShardedAggregateEngine: QueryKey / QueryTotal are
// answered by the owning shard's writer against its live registry, and
// must agree exactly with the codec clones Snapshot() and ShardSnapshot()
// decode — for every backend, including WBMH counters that have not
// synced since the shared layout last merged. Reads must never perturb
// state, must stay correct while producers, migrations and other readers
// race them, and must keep serving the final state after Stop(). Run
// under TSan via tools/check.sh tsan.
#include "engine/engine.h"

#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "decay/exponential.h"
#include "decay/polyexponential.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/merged_snapshot.h"
#include "engine/producer_session.h"
#include "engine/registry.h"
#include "engine_test_util.h"
#include "util/random.h"

namespace tds {
namespace {

constexpr uint32_t kShards = 3;
constexpr uint32_t kSlices = 24;

struct Config {
  const char* label;
  DecayPtr decay;
  Backend backend;
};

/// The batch differential's backend configs: every backend the registry
/// can hold, WBMH at two decay exponents.
std::vector<Config> AllBackends() {
  return {
      {"EH", SlidingWindowDecay::Create(1024).value(), Backend::kCeh},
      {"CEH", PolynomialDecay::Create(1.0).value(), Backend::kCeh},
      {"WBMH-1", PolynomialDecay::Create(1.0).value(), Backend::kWbmh},
      {"WBMH-2.5", PolynomialDecay::Create(2.5).value(), Backend::kWbmh},
      {"CoarseCEH", PolynomialDecay::Create(1.0).value(), Backend::kCoarseCeh},
      {"EWMA", ExponentialDecay::Create(0.01).value(), Backend::kEwma},
      {"PolyExp", PolyExponentialDecay::Create(2, 0.05).value(),
       Backend::kPolyExp},
      {"RecentItems", ExponentialDecay::Create(0.01).value(),
       Backend::kRecentItems},
      {"Exact", PolynomialDecay::Create(1.0).value(), Backend::kExact},
  };
}

ShardedAggregateEngine::Options EngineOptions(Backend backend) {
  ShardedAggregateEngine::Options options;
  options.registry.aggregate = AggregateOptions::Builder()
                                   .backend(backend)
                                   .epsilon(0.1)
                                   .Build()
                                   .value();
  // Byte-equality oracles: no eviction, so state is a pure function of the
  // items and never of how the writer happened to chunk its drains.
  options.registry.expiry_weight_floor = -1.0;
  options.shards = kShards;
  options.route_slices = kSlices;
  options.rebalance_min_keys = 8;
  options.rebalance_skew = 1.2;
  return options;
}

std::unique_ptr<ShardedAggregateEngine> MakeEngine(const Config& config) {
  auto engine = ShardedAggregateEngine::Create(config.decay,
                                               EngineOptions(config.backend));
  EXPECT_TRUE(engine.ok());
  return std::move(engine).value();
}

/// A tick-ordered random stream over `keys` keys that ends with one item
/// per shard at the final tick, so every shard clock — and the merged
/// snapshot's cut — is that tick. Most keys' last item is many ticks
/// earlier, so their WBMH counters lag the layout's merges.
std::vector<KeyedItem> MakeStream(const ShardedAggregateEngine& engine,
                                  uint64_t seed, uint64_t keys, int items,
                                  Tick* last_tick) {
  Rng rng(seed);
  std::vector<KeyedItem> stream;
  Tick t = 1;
  for (int i = 0; i < items; ++i) {
    if (rng.NextBelow(3) == 0) t += 1 + static_cast<Tick>(rng.NextBelow(5));
    // Values wide enough that merged WBMH counts exceed the rounded
    // counters' mantissa and re-round.
    stream.push_back(
        KeyedItem{rng.NextBelow(keys), t, 1 + rng.NextBelow(1000)});
  }
  t += 40;
  std::vector<bool> touched(engine.shards(), false);
  for (uint64_t key = 0; key < keys; ++key) {
    const uint32_t shard = engine.RouteForKey(key);
    if (touched[shard]) continue;
    touched[shard] = true;
    stream.push_back(KeyedItem{key, t, 1});
  }
  *last_tick = t;
  return stream;
}

std::string MergedBlob(ShardedAggregateEngine& engine) {
  auto merged = engine.Snapshot();
  EXPECT_TRUE(merged.ok()) << merged.status().message();
  std::string blob;
  EXPECT_TRUE(merged->EncodeRegistryState(&blob).ok());
  return blob;
}

// Point reads served before any snapshot exists must equal, bit for bit,
// what the codec clones serve afterwards. For WBMH this is the unsynced
// case: no encode has synced the counters yet, so the read path's own
// per-key sync is all that stands between QueryKey and a value that
// replays pending merges without re-rounding.
TEST(EngineReadTest, QueryKeyEqualsSnapshotForEveryBackend) {
  constexpr uint64_t kKeys = 80;
  for (const Config& config : AllBackends()) {
    SCOPED_TRACE(config.label);
    auto engine = MakeEngine(config);
    Tick t = 0;
    const auto stream = MakeStream(*engine, 11, kKeys, 3000, &t);
    ASSERT_TRUE(SessionIngest(*engine, stream).ok());
    ASSERT_TRUE(engine->Flush().ok());

    std::vector<double> served;
    for (uint64_t key = 0; key < kKeys + 5; ++key) {  // +5 absent keys
      served.push_back(engine->QueryKey(key, t));
    }
    const double total = engine->QueryTotal(t);
    const size_t key_count = engine->KeyCount();

    auto merged = engine->Snapshot();
    ASSERT_TRUE(merged.ok()) << merged.status().message();
    ASSERT_EQ(merged->cut(), t);
    EXPECT_EQ(key_count, merged->KeyCount());
    EXPECT_NEAR(total, merged->QueryTotal(t), 1e-9 * std::abs(total));
    for (uint64_t key = 0; key < kKeys + 5; ++key) {
      EXPECT_EQ(served[key], merged->Query(key, t)) << "key=" << key;
      const auto clone = engine->ShardSnapshot(engine->RouteForKey(key));
      ASSERT_NE(clone, nullptr);
      EXPECT_EQ(served[key], clone->Query(key, t)) << "key=" << key;
    }
    // Reads evaluated ahead of the stream clock agree too.
    for (uint64_t key = 0; key < kKeys; key += 7) {
      EXPECT_EQ(engine->QueryKey(key, t + 100), merged->Query(key, t + 100))
          << "key=" << key;
    }
  }
}

// The per-key sync is a logical no-op: the same ingest with point reads
// interleaved (flushed and unflushed) ends byte-identical to a run with
// no reads at all.
TEST(EngineReadTest, InterleavedReadsLeaveStateByteIdentical) {
  constexpr uint64_t kKeys = 120;
  for (const Config& config :
       {Config{"WBMH", PolynomialDecay::Create(1.0).value(), Backend::kWbmh},
        Config{"CEH", PolynomialDecay::Create(1.0).value(), Backend::kCeh}}) {
    SCOPED_TRACE(config.label);
    auto quiet = MakeEngine(config);
    auto probed = MakeEngine(config);
    Tick t = 0;
    const auto stream = MakeStream(*quiet, 23, kKeys, 6000, &t);
    auto quiet_session = quiet->NewProducer();
    auto probed_session = probed->NewProducer();
    ASSERT_TRUE(quiet_session.ok());
    ASSERT_TRUE(probed_session.ok());
    Rng rng(5);
    constexpr size_t kChunk = 250;
    for (size_t i = 0; i < stream.size(); i += kChunk) {
      const size_t n = std::min(kChunk, stream.size() - i);
      const std::span<const KeyedItem> chunk(stream.data() + i, n);
      ASSERT_TRUE((*quiet_session)->AddBatch(chunk).ok());
      ASSERT_TRUE((*quiet_session)->Flush().ok());
      ASSERT_TRUE((*probed_session)->AddBatch(chunk).ok());
      ASSERT_TRUE((*probed_session)->Flush().ok());
      if (rng.NextBelow(2) == 0) {
        ASSERT_TRUE(probed->Flush().ok());
      }
      const Tick now = chunk.back().t;
      for (int r = 0; r < 8; ++r) {
        (void)probed->QueryKey(rng.NextBelow(kKeys), now);
      }
      (void)probed->QueryTotal(now);
    }
    ASSERT_TRUE(quiet->Flush().ok());
    ASSERT_TRUE(probed->Flush().ok());
    EXPECT_EQ(MergedBlob(*quiet), MergedBlob(*probed));
  }
}

// Reader threads hammer one shard's read channel while several producers
// ingest into it; the final state must still match a serially-fed
// reference byte for byte, and every read along the way must be sane.
TEST(EngineReadTest, ReadersHammerOneShardDuringMultiProducerIngest) {
  constexpr int kProducers = 3;
  constexpr int kReaders = 3;
  constexpr int kRounds = 40;
  constexpr int kItemsPerRound = 80;
  constexpr int kKeysPerProducer = 40;
  for (const Config& config :
       {Config{"WBMH", PolynomialDecay::Create(1.0).value(), Backend::kWbmh},
        Config{"EH", SlidingWindowDecay::Create(512).value(), Backend::kCeh}}) {
    SCOPED_TRACE(config.label);
    auto engine = MakeEngine(config);
    // Keys of shard 0 only, split disjointly between the producers (each
    // key's item order is then deterministic).
    std::vector<uint64_t> pool;
    for (uint64_t key = 0; pool.size() < kProducers * kKeysPerProducer;
         ++key) {
      if (engine->RouteForKey(key) == 0) pool.push_back(key);
    }
    std::vector<std::vector<std::vector<KeyedItem>>> schedule(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      Rng rng(300 + p);
      schedule[p].resize(kRounds);
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kItemsPerRound; ++i) {
          const uint64_t key =
              pool[p * kKeysPerProducer + rng.NextBelow(kKeysPerProducer)];
          schedule[p][r].push_back(KeyedItem{key, r + 1, rng.NextBelow(5)});
        }
      }
    }

    std::barrier round_barrier(kProducers);
    std::atomic<bool> done{false};
    std::atomic<uint64_t> reads{0};
    std::vector<std::thread> readers;
    for (int q = 0; q < kReaders; ++q) {
      readers.emplace_back([&, q] {
        Rng rng(900 + q);
        while (!done.load(std::memory_order_acquire)) {
          const double value =
              rng.NextBelow(8) == 0
                  ? engine->QueryTotal(0)
                  : engine->QueryKey(pool[rng.NextBelow(pool.size())], 0);
          EXPECT_TRUE(std::isfinite(value) && value >= 0.0) << value;
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        auto session = engine->NewProducer();
        ASSERT_TRUE(session.ok());
        for (int r = 0; r < kRounds; ++r) {
          EXPECT_TRUE((*session)->AddBatch(schedule[p][r]).ok());
          EXPECT_TRUE((*session)->Flush().ok());
          round_barrier.arrive_and_wait();
        }
      });
    }
    for (auto& thread : producers) thread.join();
    // Keep the readers on until they have demonstrably overlapped ingest.
    while (reads.load(std::memory_order_relaxed) < 100) {
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
    for (auto& thread : readers) thread.join();
    ASSERT_TRUE(engine->Flush().ok());

    auto reference = AggregateRegistry::Create(
        config.decay, EngineOptions(config.backend).registry);
    ASSERT_TRUE(reference.ok());
    for (int r = 0; r < kRounds; ++r) {
      for (int p = 0; p < kProducers; ++p) {
        for (const KeyedItem& item : schedule[p][r]) {
          reference->Update(item.key, item.t, item.value);
        }
      }
    }
    std::string reference_blob;
    ASSERT_TRUE(reference->EncodeState(&reference_blob).ok());
    EXPECT_EQ(MergedBlob(*engine), reference_blob);
    EXPECT_EQ(engine->KeyCount(), reference->KeyCount());
    for (const uint64_t key : pool) {
      EXPECT_EQ(engine->QueryKey(key, kRounds),
                reference->SyncedQuery(key, kRounds))
          << "key=" << key;
    }
  }
}

// Point reads race explicit migrations and the skew-triggered rebalancer
// over settled state. A migration moves keys bit-identically and the read
// holds the route lock shared, so every read must return exactly the
// value the key had before any migration — wherever it lives now.
TEST(EngineReadTest, QueryKeyRacesMigrations) {
  constexpr uint64_t kKeys = 150;
  constexpr int kReaders = 2;
  for (const Config& config :
       {Config{"WBMH", PolynomialDecay::Create(1.0).value(), Backend::kWbmh},
        Config{"CEH", PolynomialDecay::Create(1.0).value(), Backend::kCeh}}) {
    SCOPED_TRACE(config.label);
    auto engine = MakeEngine(config);
    Tick t = 0;
    const auto stream = MakeStream(*engine, 37, kKeys, 4000, &t);
    ASSERT_TRUE(SessionIngest(*engine, stream).ok());
    ASSERT_TRUE(engine->Flush().ok());
    std::vector<double> expected;
    for (uint64_t key = 0; key < kKeys; ++key) {
      expected.push_back(engine->QueryKey(key, t));
    }
    const double expected_total = engine->QueryTotal(t);

    std::atomic<bool> done{false};
    std::thread migrator([&] {
      Rng rng(77);
      for (int i = 0; i < 60; ++i) {
        if (i % 3 == 0) {
          auto moved = engine->RebalanceIfSkewed();
          EXPECT_TRUE(moved.ok()) << moved.status().message();
        }
        // Pile slices onto one shard so the skew trigger has work too.
        std::vector<uint32_t> slices;
        const uint32_t first = static_cast<uint32_t>(rng.NextBelow(kSlices));
        for (uint32_t s = 0; s < 4; ++s) {
          slices.push_back((first + s) % kSlices);
        }
        EXPECT_TRUE(engine
                        ->MigrateSlices(slices, static_cast<uint32_t>(
                                                    rng.NextBelow(kShards)))
                        .ok());
      }
      done.store(true, std::memory_order_release);
    });
    std::vector<std::thread> readers;
    for (int q = 0; q < kReaders; ++q) {
      readers.emplace_back([&, q] {
        Rng rng(500 + q);
        while (!done.load(std::memory_order_acquire)) {
          const uint64_t key = rng.NextBelow(kKeys);
          EXPECT_EQ(engine->QueryKey(key, t), expected[key]) << "key=" << key;
          if (rng.NextBelow(16) == 0) {
            EXPECT_NEAR(engine->QueryTotal(t), expected_total,
                        1e-9 * expected_total);
          }
        }
      });
    }
    migrator.join();
    for (auto& thread : readers) thread.join();
    EXPECT_GT(engine->Rebalances(), 0u);
    for (uint64_t key = 0; key < kKeys; ++key) {
      EXPECT_EQ(engine->QueryKey(key, t), expected[key]) << "key=" << key;
    }
  }
}

// After Stop() the mailbox is closed and readers answer from the
// quiescent registry themselves: same values as before the stop, from
// several threads at once, and reads racing Stop() itself never hang.
TEST(EngineReadTest, ReadsAfterStopServeTheFinalState) {
  constexpr uint64_t kKeys = 60;
  for (const Config& config :
       {Config{"WBMH", PolynomialDecay::Create(1.0).value(), Backend::kWbmh},
        Config{"EH", SlidingWindowDecay::Create(512).value(), Backend::kCeh}}) {
    SCOPED_TRACE(config.label);
    auto engine = MakeEngine(config);
    Tick t = 0;
    const auto stream = MakeStream(*engine, 51, kKeys, 2000, &t);
    ASSERT_TRUE(SessionIngest(*engine, stream).ok());
    ASSERT_TRUE(engine->Flush().ok());
    auto merged = engine->Snapshot();
    ASSERT_TRUE(merged.ok());
    const size_t key_count = engine->KeyCount();

    // Each reader thread makes `reads` reads from `seed`.
    const auto read_threads = [&](uint64_t seed, int reads) {
      std::vector<std::thread> readers;
      for (uint64_t q = 0; q < 3; ++q) {
        readers.emplace_back([&, q] {
          Rng rng(seed + q);
          for (int i = 0; i < reads; ++i) {
            const uint64_t key = rng.NextBelow(kKeys);
            EXPECT_EQ(engine->QueryKey(key, t), merged->Query(key, t))
                << "key=" << key;
          }
        });
      }
      return readers;
    };
    // Readers race Stop(), then late readers run concurrently against the
    // closed channel.
    auto racing = read_threads(700, 300);
    engine->Stop();
    for (auto& thread : racing) thread.join();
    auto late = read_threads(800, 100);
    for (auto& thread : late) thread.join();
    for (uint64_t key = 0; key < kKeys; ++key) {
      EXPECT_EQ(engine->QueryKey(key, t), merged->Query(key, t))
          << "key=" << key;
    }
    EXPECT_NEAR(engine->QueryTotal(t), merged->QueryTotal(t),
                1e-9 * merged->QueryTotal(t));
    EXPECT_EQ(engine->KeyCount(), key_count);
    auto after = engine->Snapshot();
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->KeyCount(), key_count);
  }
}

// Every kind of writer task — the test hook, a shard snapshot, a merged
// snapshot, point reads — still returns after Stop(): the writer has
// exited, so each runs in place against the final state. The calls run
// on a helper thread under a deadline, so a task that waits for a writer
// that no longer exists fails this test instead of hanging the suite.
TEST(EngineReadTest, WriterTasksAfterStopRunInPlace) {
  constexpr uint64_t kKeys = 40;
  const Config config{"EH", SlidingWindowDecay::Create(512).value(),
                      Backend::kCeh};
  auto engine = MakeEngine(config);
  Tick t = 0;
  const auto stream = MakeStream(*engine, 61, kKeys, 1500, &t);
  ASSERT_TRUE(SessionIngest(*engine, stream).ok());
  ASSERT_TRUE(engine->Flush().ok());
  const std::string merged_before = MergedBlob(*engine);
  // Shard state as the writer itself encodes it (the hook's task runs on
  // the writer before Stop, in place after).
  std::vector<std::string> shard_before(engine->shards());
  for (uint32_t s = 0; s < engine->shards(); ++s) {
    engine->RunOnWriterForTest(s, [&](AggregateRegistry& registry) {
      ASSERT_TRUE(registry.EncodeState(&shard_before[s]).ok());
    });
  }
  const double key_before = engine->QueryKey(3, t);
  const double total_before = engine->QueryTotal(t);
  engine->Stop();

  // Owned by the helper too, so a helper stuck past the deadline never
  // writes into a finished test's frame.
  struct Results {
    std::vector<std::string> shard_blobs;
    size_t snapshot_keys = 0;
    std::string merged_blob;
    double key = 0.0;
    double total = 0.0;
  };
  auto results = std::make_shared<Results>();
  auto finished = std::make_shared<std::promise<void>>();
  std::future<void> done = finished->get_future();
  ShardedAggregateEngine* raw = engine.get();
  std::thread helper([raw, results, finished, t] {
    for (uint32_t s = 0; s < raw->shards(); ++s) {
      std::string blob;
      raw->RunOnWriterForTest(s, [&blob](AggregateRegistry& registry) {
        (void)registry.EncodeState(&blob);
      });
      results->shard_blobs.push_back(std::move(blob));
      const auto shard = raw->ShardSnapshot(s);
      if (shard != nullptr) results->snapshot_keys += shard->KeyCount();
    }
    auto merged = raw->Snapshot();
    if (merged.ok()) (void)merged->EncodeRegistryState(&results->merged_blob);
    results->key = raw->QueryKey(3, t);
    results->total = raw->QueryTotal(t);
    finished->set_value();
  });
  if (done.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
    // The helper is blocked inside the engine: leak both rather than
    // destroy the engine under it.
    helper.detach();
    (void)engine.release();
    FAIL() << "a writer task posted after Stop() did not return";
  }
  helper.join();
  EXPECT_EQ(results->shard_blobs, shard_before);
  EXPECT_EQ(results->snapshot_keys, engine->KeyCount());
  EXPECT_GT(results->snapshot_keys, 0u);
  EXPECT_EQ(results->merged_blob, merged_before);
  EXPECT_EQ(results->key, key_before);
  EXPECT_EQ(results->total, total_before);
}

}  // namespace
}  // namespace tds
