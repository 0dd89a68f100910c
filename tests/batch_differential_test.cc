// Differential test for the batch-first API: UpdateBatch must leave every
// backend in a state bit-identical to feeding the same items through Update
// one at a time — equal StorageBits, equal Query results at several
// evaluation times, and green structural audits — under fuzzed batch
// shapes (same-tick runs, tick gaps, zero values, empty batches). The
// same holds one level up: a keyed AggregateRegistry fed through
// UpdateBatch must encode byte-for-byte like one fed item by item, which
// is what lets the engine's shard writers apply whole drain chunks.
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ceh.h"
#include "core/factory.h"
#include "core/wbmh.h"
#include "decay/exponential.h"
#include "decay/polyexponential.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "engine/registry.h"
#include "stream/stream.h"
#include "util/random.h"

namespace tds {
namespace {

Status BackendAudit(DecayedAggregate& aggregate) {
  if (auto* ceh = dynamic_cast<CehDecayedSum*>(&aggregate)) {
    return ceh->AuditInvariants();
  }
  if (auto* wbmh = dynamic_cast<WbmhDecayedSum*>(&aggregate)) {
    return wbmh->AuditInvariants();
  }
  return Status::OK();
}

TEST(BatchDifferentialTest, BatchBitIdenticalToPerItemUnderFuzz) {
  struct Config {
    DecayPtr decay;
    Backend backend;
  };
  const std::vector<Config> configs = {
      // Plain EH semantics (SLIWIN -> CEH degenerates to the EH).
      {SlidingWindowDecay::Create(1024).value(), Backend::kCeh},
      // CEH proper over a general decay.
      {PolynomialDecay::Create(1.0).value(), Backend::kCeh},
      // WBMH with its per-distinct-tick amortized batch path.
      {PolynomialDecay::Create(1.0).value(), Backend::kWbmh},
      {PolynomialDecay::Create(2.5).value(), Backend::kWbmh},
      // Coarse CEH shares the EH cascade through its own batch grouping.
      {PolynomialDecay::Create(1.0).value(), Backend::kCoarseCeh},
      // Register backends with fused same-tick batch paths.
      {ExponentialDecay::Create(0.01).value(), Backend::kEwma},
      {PolyExponentialDecay::Create(2, 0.05).value(), Backend::kPolyExp},
      // Backends on the default (loop) path, for interface coverage.
      {ExponentialDecay::Create(0.01).value(), Backend::kRecentItems},
      {PolynomialDecay::Create(1.0).value(), Backend::kExact},
  };
  for (const Config& config : configs) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const AggregateOptions options = AggregateOptions::Builder()
                                           .backend(config.backend)
                                           .epsilon(0.1)
                                           .Build()
                                           .value();
      auto per_item = MakeDecayedSum(config.decay, options);
      auto batched = MakeDecayedSum(config.decay, options);
      ASSERT_TRUE(per_item.ok());
      ASSERT_TRUE(batched.ok());

      Rng rng(seed * 7919 + static_cast<uint64_t>(config.backend));
      Tick t = 1;
      for (int round = 0; round < 30; ++round) {
        // Fuzzed batch shape: bursts of same-tick items with occasional
        // gaps, values including zero, sometimes an empty batch.
        std::vector<StreamItem> batch;
        const size_t size = rng.NextBelow(120);
        for (size_t i = 0; i < size; ++i) {
          if (rng.NextBelow(4) == 0) t += static_cast<Tick>(rng.NextBelow(9));
          batch.push_back(StreamItem{t, rng.NextBelow(6)});
        }
        for (const StreamItem& item : batch) {
          (*per_item)->Update(item.t, item.value);
        }
        (*batched)->UpdateBatch(batch);

        ASSERT_EQ((*per_item)->StorageBits(), (*batched)->StorageBits())
            << (*per_item)->Name() << "/" << config.decay->Name()
            << " seed=" << seed << " round=" << round;
        for (const Tick now : {t, t + 17, t + 1000}) {
          ASSERT_DOUBLE_EQ((*per_item)->Query(now), (*batched)->Query(now))
              << (*per_item)->Name() << "/" << config.decay->Name()
              << " seed=" << seed << " now=" << now;
        }
        ASSERT_TRUE(BackendAudit(**per_item).ok());
        ASSERT_TRUE(BackendAudit(**batched).ok());
      }
    }
  }
}

TEST(BatchDifferentialTest, EmptyAndSingletonBatches) {
  auto decay = PolynomialDecay::Create(1.0).value();
  const AggregateOptions options =
      AggregateOptions::Builder().backend(Backend::kWbmh).Build().value();
  auto subject = MakeDecayedSum(decay, options);
  ASSERT_TRUE(subject.ok());
  (*subject)->UpdateBatch({});  // no-op
  const StreamItem one{5, 3};
  (*subject)->UpdateBatch({&one, 1});
  EXPECT_DOUBLE_EQ((*subject)->Query(5), 3.0 * decay->Weight(1));
}

// Registry level: per-item Update versus UpdateBatch over the same keyed
// stream (the shard writer's apply step) must leave byte-equal EncodeState
// output, for the shared-layout WBMH and the per-key CEH alike.
TEST(BatchDifferentialTest, RegistryBatchBitIdenticalToPerItem) {
  struct Config {
    DecayPtr decay;
    Backend backend;
  };
  const std::vector<Config> configs = {
      {PolynomialDecay::Create(2.0).value(), Backend::kWbmh},
      {PolynomialDecay::Create(1.0).value(), Backend::kCeh},
      {SlidingWindowDecay::Create(512).value(), Backend::kCeh},
  };
  for (const Config& config : configs) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      AggregateRegistry::Options options;
      options.aggregate = AggregateOptions::Builder()
                              .backend(config.backend)
                              .epsilon(0.2)
                              .Build()
                              .value();
      auto per_item = AggregateRegistry::Create(config.decay, options);
      auto batched = AggregateRegistry::Create(config.decay, options);
      ASSERT_TRUE(per_item.ok());
      ASSERT_TRUE(batched.ok());

      Rng rng(seed * 104729 + static_cast<uint64_t>(config.backend));
      Tick t = 1;
      for (int round = 0; round < 20; ++round) {
        std::vector<KeyedItem> chunk;
        const size_t size = rng.NextBelow(400);
        for (size_t i = 0; i < size; ++i) {
          if (rng.NextBelow(4) == 0) t += static_cast<Tick>(rng.NextBelow(5));
          chunk.push_back(KeyedItem{rng.NextBelow(64), t, rng.NextBelow(3)});
        }
        for (const KeyedItem& item : chunk) {
          per_item->Update(item.key, item.t, item.value);
        }
        batched->UpdateBatch(chunk);

        std::string per_item_bytes;
        std::string batched_bytes;
        ASSERT_TRUE(per_item->EncodeState(&per_item_bytes).ok());
        ASSERT_TRUE(batched->EncodeState(&batched_bytes).ok());
        ASSERT_EQ(per_item_bytes, batched_bytes)
            << config.decay->Name() << " seed=" << seed
            << " round=" << round;
        ASSERT_EQ(per_item->KeyCount(), batched->KeyCount());
      }
    }
  }
}

}  // namespace
}  // namespace tds
