// Differential test for the flat (SoA) histogram layout: the library's
// ExponentialHistogram, CEH and CoarseCEH must stay bit-identical to the
// chain-layout reference in tests/reference/chain_histograms.h at every step
// of a randomized op sequence — equal query results (exact double equality,
// not ULP-tolerant), byte-identical EncodeState output, equal storage
// accounting, green audits — and snapshots must decode across
// implementations (a blob written by one side resumes on the other).
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ceh.h"
#include "core/coarse_ceh.h"
#include "core/factory.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"
#include "histogram/exponential_histogram.h"
#include "reference/chain_histograms.h"
#include "stream/stream.h"
#include "util/codec.h"
#include "util/random.h"

namespace tds {
namespace {

using reference::ChainCoarseCeh;
using reference::ChainEh;

ExponentialHistogram MakeEh(double epsilon, Tick window) {
  ExponentialHistogram::Options options;
  options.epsilon = epsilon;
  options.window = window;
  auto created = ExponentialHistogram::Create(options);
  TDS_CHECK(created.ok());
  return std::move(created).value();
}

ChainEh MakeChainEh(double epsilon, Tick window) {
  ChainEh::Options options;
  options.epsilon = epsilon;
  options.window = window;
  auto created = ChainEh::Create(options);
  TDS_CHECK(created.ok());
  return std::move(created).value();
}

template <typename T>
std::string Encoded(const T& structure) {
  Encoder encoder;
  structure.EncodeState(encoder);
  return encoder.Finish();
}

// Randomized Add/AdvanceTo/Query/Encode/Decode/Merge sequence over the flat
// histogram and its chain reference; every observable must match exactly at
// every step.
TEST(FlatLayoutDifferentialTest, EhFlatMatchesChainUnderFuzz) {
  struct Shape {
    double epsilon;
    Tick window;
  };
  const std::vector<Shape> shapes = {
      {0.1, 1024}, {0.5, 64}, {0.05, kInfiniteHorizon}, {1.0, 256}};
  for (const Shape& shape : shapes) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      ExponentialHistogram flat = MakeEh(shape.epsilon, shape.window);
      ChainEh chain = MakeChainEh(shape.epsilon, shape.window);
      Rng rng(seed * 1315423911u + static_cast<uint64_t>(shape.window));
      Tick t = 1;
      for (int step = 0; step < 400; ++step) {
        const uint64_t op = rng.NextBelow(10);
        if (op < 6) {
          // Bursty adds: occasionally large values to force deep cascades.
          t += static_cast<Tick>(rng.NextBelow(3));
          const uint64_t value =
              rng.NextBelow(8) == 0 ? rng.NextBelow(5000) : rng.NextBelow(7);
          flat.Add(t, value);
          chain.Add(t, value);
        } else if (op < 8) {
          // Jump the clock, sometimes far enough to expire whole classes.
          t += static_cast<Tick>(rng.NextBelow(8) == 0
                                     ? rng.NextBelow(4 * 1024)
                                     : rng.NextBelow(16));
          flat.AdvanceTo(t);
          chain.AdvanceTo(t);
        } else if (op == 8) {
          // Snapshot round-trip ACROSS implementations: the flat bytes
          // restore onto a fresh chain reference and the chain bytes onto a
          // fresh flat histogram, and both continue from the decoded state.
          const std::string flat_bytes = Encoded(flat);
          const std::string chain_bytes = Encoded(chain);
          ASSERT_EQ(flat_bytes, chain_bytes);
          ExponentialHistogram flat2 = MakeEh(shape.epsilon, shape.window);
          ChainEh chain2 = MakeChainEh(shape.epsilon, shape.window);
          Decoder to_chain(flat_bytes);
          Decoder to_flat(chain_bytes);
          ASSERT_TRUE(chain2.DecodeState(to_chain).ok());
          ASSERT_TRUE(flat2.DecodeState(to_flat).ok());
          flat = std::move(flat2);
          chain = std::move(chain2);
        } else {
          // Disjoint-substream merge from a freshly fuzzed donor pair.
          ExponentialHistogram flat_donor =
              MakeEh(shape.epsilon, shape.window);
          ChainEh chain_donor = MakeChainEh(shape.epsilon, shape.window);
          Tick dt = 1;
          const size_t donor_items = rng.NextBelow(40);
          for (size_t i = 0; i < donor_items; ++i) {
            dt += static_cast<Tick>(rng.NextBelow(5));
            const uint64_t value = rng.NextBelow(9);
            flat_donor.Add(dt, value);
            chain_donor.Add(dt, value);
          }
          ASSERT_TRUE(flat.MergeFrom(flat_donor).ok());
          ASSERT_TRUE(chain.MergeFrom(chain_donor).ok());
          t = std::max(t, dt);
        }
        ASSERT_TRUE(flat.AuditInvariants().ok()) << "step=" << step;
        ASSERT_TRUE(chain.AuditInvariants().ok()) << "step=" << step;
        ASSERT_EQ(flat.BucketCount(), chain.BucketCount()) << "step=" << step;
        ASSERT_EQ(flat.TotalCount(), chain.TotalCount()) << "step=" << step;
        ASSERT_EQ(flat.StorageBits(), chain.StorageBits()) << "step=" << step;
        ASSERT_EQ(flat.Estimate(), chain.Estimate()) << "step=" << step;
        if (shape.window != kInfiniteHorizon) {
          const Tick w = 1 + static_cast<Tick>(rng.NextBelow(
                                 static_cast<uint64_t>(shape.window)));
          ASSERT_EQ(flat.EstimateWindow(w), chain.EstimateWindow(w))
              << "step=" << step << " w=" << w;
        }
        ASSERT_EQ(Encoded(flat), Encoded(chain)) << "step=" << step;
      }
    }
  }
}

// The EH-family factory backends, driven through fuzzed batches, advances,
// queries and snapshot round-trips against the chain reference. A CEH batch
// coalesces same-tick items into one histogram insert while the reference
// adds them one at a time, so this also pins sequential-insertion
// equivalence through the aggregate surface.
TEST(FlatLayoutDifferentialTest, AggregateConfigsFlatMatchesChain) {
  struct Config {
    DecayPtr decay;
    Backend backend;
  };
  const std::vector<Config> configs = {
      {SlidingWindowDecay::Create(1024).value(), Backend::kCeh},
      {PolynomialDecay::Create(1.0).value(), Backend::kCeh},
      {PolynomialDecay::Create(1.0).value(), Backend::kCoarseCeh},
      {PolynomialDecay::Create(2.5).value(), Backend::kCoarseCeh},
  };
  for (const Config& config : configs) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      auto options = AggregateOptions::Builder()
                         .backend(config.backend)
                         .epsilon(0.1)
                         .Build();
      ASSERT_TRUE(options.ok());
      auto flat = MakeDecayedSum(config.decay, options.value());
      ASSERT_TRUE(flat.ok());
      const std::string label =
          (*flat)->Name() + "/" + config.decay->Name() +
          " seed=" + std::to_string(seed);
      // The reference twin matching the backend; the other stays empty.
      std::unique_ptr<ChainEh> chain_eh;
      std::unique_ptr<ChainCoarseCeh> chain_coarse;
      if (config.backend == Backend::kCeh) {
        chain_eh = std::make_unique<ChainEh>(
            MakeChainEh(0.1, config.decay->Horizon()));
      } else {
        chain_coarse = std::make_unique<ChainCoarseCeh>(
            config.decay, ChainCoarseCeh::Options{});
      }
      // The flat structure's own state bytes (without the snapshot
      // envelope), comparable to the reference's EncodeState.
      auto flat_state = [&]() {
        if (chain_eh) {
          return Encoded(static_cast<CehDecayedSum&>(**flat).histogram());
        }
        return Encoded(static_cast<CoarseCehDecayedSum&>(**flat));
      };
      auto chain_state = [&]() {
        return chain_eh ? Encoded(*chain_eh) : Encoded(*chain_coarse);
      };

      Rng rng(seed * 7919 + static_cast<uint64_t>(config.backend));
      Tick t = 1;
      for (int round = 0; round < 25; ++round) {
        std::vector<StreamItem> batch;
        const size_t size = rng.NextBelow(100);
        for (size_t i = 0; i < size; ++i) {
          if (rng.NextBelow(4) == 0) t += static_cast<Tick>(rng.NextBelow(9));
          batch.push_back(StreamItem{t, rng.NextBelow(6)});
        }
        (*flat)->UpdateBatch(batch);
        for (const StreamItem& item : batch) {
          if (chain_eh) {
            chain_eh->Add(item.t, item.value);
          } else {
            chain_coarse->Update(item.t, item.value);
          }
        }
        if (rng.NextBelow(3) == 0) {
          t += static_cast<Tick>(rng.NextBelow(200));
          (*flat)->Advance(t);
          if (chain_eh) {
            chain_eh->AdvanceTo(t);
          } else {
            chain_coarse->Advance(t);
          }
        }
        const size_t chain_bits =
            chain_eh ? chain_eh->StorageBits() : chain_coarse->StorageBits();
        ASSERT_EQ((*flat)->StorageBits(), chain_bits)
            << label << " round=" << round;
        if (chain_coarse) {
          for (const Tick now : {t, t + 13, t + 999}) {
            ASSERT_EQ((*flat)->Query(now), chain_coarse->Query(now))
                << label << " now=" << now;
          }
        }
        const std::string flat_bytes = flat_state();
        ASSERT_EQ(flat_bytes, chain_state()) << label << " round=" << round;
        if (round % 7 == 3) {
          // Cross-implementation resumption: the reference's bytes restore
          // onto a fresh flat aggregate (which must answer exactly as the
          // one it replaces) and the flat bytes onto a fresh reference, and
          // both carry on.
          auto resumed = MakeDecayedSum(config.decay, options.value());
          ASSERT_TRUE(resumed.ok());
          const std::string chain_bytes = chain_state();
          Decoder to_flat(chain_bytes);
          Decoder to_chain(flat_bytes);
          if (chain_eh) {
            ASSERT_TRUE(static_cast<CehDecayedSum&>(**resumed)
                            .DecodeState(to_flat)
                            .ok());
            chain_eh = std::make_unique<ChainEh>(
                MakeChainEh(0.1, config.decay->Horizon()));
            ASSERT_TRUE(chain_eh->DecodeState(to_chain).ok());
          } else {
            ASSERT_TRUE(static_cast<CoarseCehDecayedSum&>(**resumed)
                            .DecodeState(to_flat)
                            .ok());
            chain_coarse = std::make_unique<ChainCoarseCeh>(
                config.decay, ChainCoarseCeh::Options{});
            ASSERT_TRUE(chain_coarse->DecodeState(to_chain).ok());
          }
          for (const Tick now : {t, t + 13, t + 999}) {
            ASSERT_EQ((*resumed)->Query(now), (*flat)->Query(now))
                << label << " now=" << now;
          }
          flat = std::move(resumed);
        }
      }
    }
  }
}

// CEH-level disjoint merge keeps the flat histogram in lockstep with the
// reference (the distributed coordinator path goes through
// ForEachBucketOldestFirst + re-insertion, which both sides must drive
// identically).
TEST(FlatLayoutDifferentialTest, CehMergeBitIdenticalAcrossLayouts) {
  auto decay = PolynomialDecay::Create(1.0).value();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    auto flat = CehDecayedSum::Create(decay, {});
    auto flat_donor = CehDecayedSum::Create(decay, {});
    ASSERT_TRUE(flat.ok() && flat_donor.ok());
    ChainEh chain = MakeChainEh(0.1, decay->Horizon());
    ChainEh chain_donor = MakeChainEh(0.1, decay->Horizon());
    Rng rng(seed * 104729);
    Tick t = 1;
    for (int i = 0; i < 300; ++i) {
      t += static_cast<Tick>(rng.NextBelow(4));
      const uint64_t value = rng.NextBelow(10);
      if (rng.NextBelow(2) == 0) {
        (*flat)->Update(t, value);
        chain.Add(t, value);
      } else {
        (*flat_donor)->Update(t, value);
        chain_donor.Add(t, value);
      }
    }
    ASSERT_TRUE((*flat)->MergeFrom(**flat_donor).ok());
    ASSERT_TRUE(chain.MergeFrom(chain_donor).ok());
    ASSERT_TRUE((*flat)->AuditInvariants().ok());
    ASSERT_TRUE(chain.AuditInvariants().ok());
    ASSERT_EQ((*flat)->StorageBits(), chain.StorageBits());
    ASSERT_EQ(Encoded((*flat)->histogram()), Encoded(chain));
  }
}

// CoarseCEH consumes RNG words during its stochastic aging sweep; the flat
// layout must consume them in exactly the reference's (ascending-class)
// order, or the two drift apart silently. Long advance-heavy runs make any
// order mismatch surface quickly.
TEST(FlatLayoutDifferentialTest, CoarseCehRngConsumptionOrderMatches) {
  auto decay = PolynomialDecay::Create(1.5).value();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    CoarseCehDecayedSum::Options flat_options;
    flat_options.seed = 0x5eed + seed;
    auto flat = CoarseCehDecayedSum::Create(decay, flat_options);
    ASSERT_TRUE(flat.ok());
    ChainCoarseCeh::Options chain_options;
    chain_options.seed = flat_options.seed;
    ChainCoarseCeh chain(decay, chain_options);
    Rng rng(seed * 2654435761u);
    Tick t = 1;
    for (int i = 0; i < 500; ++i) {
      if (rng.NextBelow(3) != 0) {
        t += static_cast<Tick>(rng.NextBelow(3));
        const uint64_t value = 1 + rng.NextBelow(12);
        (*flat)->Update(t, value);
        chain.Update(t, value);
      } else {
        t += static_cast<Tick>(rng.NextBelow(64));
        (*flat)->Advance(t);
        chain.Advance(t);
      }
      ASSERT_EQ((*flat)->Query(t), chain.Query(t)) << "i=" << i;
      ASSERT_EQ((*flat)->BucketCount(), chain.BucketCount()) << "i=" << i;
      ASSERT_EQ((*flat)->BoundaryAges(), chain.BoundaryAges()) << "i=" << i;
      ASSERT_EQ(Encoded(**flat), Encoded(chain)) << "i=" << i;
      ASSERT_TRUE((*flat)->AuditInvariants().ok()) << "i=" << i;
      ASSERT_TRUE(chain.AuditInvariants().ok()) << "i=" << i;
    }
  }
}

}  // namespace
}  // namespace tds
