// Dual-mode fuzz driver for the flat (SoA) histogram layout: every run
// drives a library structure and its chain-layout reference
// (tests/reference/chain_histograms.h) through the same fuzzed op stream
// and requires them to stay bit-identical — equal estimates (exact, not
// ULP-tolerant: both sides share every arithmetic step), byte-equal
// EncodeState output, matching bucket counts, and green AuditInvariants()
// on both sides after every operation. Two harnesses share the input
// stream: an ExponentialHistogram vs ChainEh pair (Add / AdvanceTo /
// MergeFrom / snapshot round-trips that swap sides) and a
// CoarseCehDecayedSum vs ChainCoarseCeh pair (whose stochastic aging must
// consume RNG words in the same order on both sides). The gtest-free cores
// run both as deterministic ctest targets and — under -DTDS_LIBFUZZER — as
// coverage-guided harnesses (docs/CORRECTNESS.md, "Dual-mode fuzzing").
#include <algorithm>
#include <string>
#include <utility>

#include "core/coarse_ceh.h"
#include "decay/polynomial.h"
#include "fuzz_util.h"
#include "histogram/exponential_histogram.h"
#include "reference/chain_histograms.h"
#include "util/codec.h"
#include "util/common.h"

namespace tds {
namespace {

using reference::ChainCoarseCeh;
using reference::ChainEh;

// Creates either side of the EH pair (ExponentialHistogram or ChainEh).
template <typename Eh>
Eh MakeEh(double epsilon, Tick window, const FuzzInput& in) {
  ExponentialHistogram::Options options;
  options.epsilon = epsilon;
  options.window = window;
  auto eh = Eh::Create(options);
  TDS_FUZZ_CHECK(eh.ok(), in, "Create: ", eh.status().ToString());
  return std::move(eh).value();
}

template <typename T>
std::string Encoded(const T& structure) {
  Encoder encoder;
  structure.EncodeState(encoder);
  return encoder.Finish();
}

struct FlatEhFuzzConfig {
  double epsilon;
  Tick window;
  int max_ops;
};

// Harness 0: ExponentialHistogram vs ChainEh lockstep.
void RunFlatEhFuzz(const FlatEhFuzzConfig& config, FuzzInput& in) {
  auto flat = MakeEh<ExponentialHistogram>(config.epsilon, config.window, in);
  auto chain = MakeEh<ChainEh>(config.epsilon, config.window, in);
  Tick now = 0;

  auto check = [&](const char* op) {
    TDS_FUZZ_CHECK_OK(flat.AuditInvariants(), in, "flat after ", op);
    TDS_FUZZ_CHECK_OK(chain.AuditInvariants(), in, "chain after ", op);
    TDS_FUZZ_CHECK(flat.BucketCount() == chain.BucketCount(), in,
                   "bucket-count drift after ", op);
    TDS_FUZZ_CHECK(flat.TotalCount() == chain.TotalCount(), in,
                   "total-count drift after ", op);
    TDS_FUZZ_CHECK(flat.Estimate() == chain.Estimate(), in,
                   "estimate drift after ", op);
    TDS_FUZZ_CHECK(Encoded(flat) == Encoded(chain), in,
                   "snapshot bytes drift after ", op);
  };

  for (int op = 0; op < config.max_ops && !in.exhausted(); ++op) {
    const uint64_t kind = in.Below(100);
    if (kind < 55) {
      // Adds, with occasional large values so the digit cascade runs deep
      // and the flat store's suffix rebuild covers many classes.
      now += static_cast<Tick>(in.Below(3));
      if (now == 0) now = 1;
      const uint64_t value =
          in.Below(20) == 0 ? 1 + in.Below(5000) : in.Below(4);
      flat.Add(now, value);
      chain.Add(now, value);
      check("Add");
    } else if (kind < 72) {
      // Clock jumps past the window force wholesale front expiry — the flat
      // store's head_ compaction path.
      now += static_cast<Tick>(in.Below(
          static_cast<uint64_t>(config.window) + config.window / 2 + 2));
      flat.AdvanceTo(now);
      chain.AdvanceTo(now);
      check("AdvanceTo");
    } else if (kind < 85) {
      // Snapshot round-trip that SWAPS sides: the flat bytes restore onto a
      // fresh reference and the reference's bytes onto a fresh flat
      // histogram, then the run continues on the restored pair — codec
      // asymmetries poison every later comparison.
      const std::string flat_blob = Encoded(flat);
      const std::string chain_blob = Encoded(chain);
      auto flat2 =
          MakeEh<ExponentialHistogram>(config.epsilon, config.window, in);
      auto chain2 = MakeEh<ChainEh>(config.epsilon, config.window, in);
      Decoder to_flat(chain_blob);
      Decoder to_chain(flat_blob);
      TDS_FUZZ_CHECK_OK(flat2.DecodeState(to_flat), in, "flat decode");
      TDS_FUZZ_CHECK_OK(chain2.DecodeState(to_chain), in, "chain decode");
      TDS_FUZZ_CHECK(to_flat.Done() && to_chain.Done(), in,
                     "decoder not fully consumed");
      flat = std::move(flat2);
      chain = std::move(chain2);
      check("DecodeState");
    } else if (kind < 93) {
      // Disjoint-substream merge from a twin donor pair.
      auto flat_donor =
          MakeEh<ExponentialHistogram>(config.epsilon, config.window, in);
      auto chain_donor = MakeEh<ChainEh>(config.epsilon, config.window, in);
      const int burst = 1 + static_cast<int>(in.Below(40));
      Tick donor_now = std::max<Tick>(1, now - static_cast<Tick>(in.Below(20)));
      for (int i = 0; i < burst; ++i) {
        donor_now += static_cast<Tick>(in.Below(2));
        const uint64_t value = 1 + in.Below(3);
        flat_donor.Add(donor_now, value);
        chain_donor.Add(donor_now, value);
      }
      now = std::max(now, donor_now);
      TDS_FUZZ_CHECK_OK(flat.MergeFrom(flat_donor), in, "flat MergeFrom");
      TDS_FUZZ_CHECK_OK(chain.MergeFrom(chain_donor), in, "chain MergeFrom");
      check("MergeFrom");
    } else {
      // Lemma 4.1 windows must agree exactly across implementations.
      flat.AdvanceTo(now);
      chain.AdvanceTo(now);
      const Tick w = 1 + static_cast<Tick>(
                             in.Below(static_cast<uint64_t>(config.window)));
      TDS_FUZZ_CHECK(flat.EstimateWindow(w) == chain.EstimateWindow(w), in,
                     "EstimateWindow drift at w=", w);
      check("EstimateWindow");
    }
  }
}

// Harness 1: CoarseCehDecayedSum vs ChainCoarseCeh lockstep. The coarse
// CEH's stochastic aging sweep draws from its own RNG per bucket, so this
// harness pins the flat layout's RNG consumption order (ascending class,
// oldest bucket first within a class) to the reference's.
void RunFlatCoarseFuzz(uint64_t seed, FuzzInput& in) {
  auto decay = PolynomialDecay::Create(1.0 + 0.5 * in.Below(4));
  TDS_FUZZ_CHECK(decay.ok(), in, "decay: ", decay.status().ToString());
  CoarseCehDecayedSum::Options flat_options;
  flat_options.seed = seed;
  auto flat = CoarseCehDecayedSum::Create(decay.value(), flat_options);
  TDS_FUZZ_CHECK(flat.ok(), in, "CoarseCEH create");
  ChainCoarseCeh::Options chain_options;
  chain_options.seed = seed;
  ChainCoarseCeh chain(decay.value(), chain_options);

  Tick now = 1;
  for (int op = 0; op < 1500 && !in.exhausted(); ++op) {
    if (in.Below(3) != 0) {
      now += static_cast<Tick>(in.Below(3));
      const uint64_t value = 1 + in.Below(16);
      (*flat)->Update(now, value);
      chain.Update(now, value);
    } else {
      now += static_cast<Tick>(in.Below(96));
      (*flat)->Advance(now);
      chain.Advance(now);
    }
    TDS_FUZZ_CHECK_OK((*flat)->AuditInvariants(), in, "flat audit");
    TDS_FUZZ_CHECK_OK(chain.AuditInvariants(), in, "chain audit");
    TDS_FUZZ_CHECK((*flat)->BucketCount() == chain.BucketCount(), in,
                   "bucket-count drift");
    TDS_FUZZ_CHECK((*flat)->Query(now) == chain.Query(now), in,
                   "query drift (RNG order?) at now=", now);
    TDS_FUZZ_CHECK(Encoded(**flat) == Encoded(chain), in,
                   "snapshot bytes drift at now=", now);
  }
}

}  // namespace
}  // namespace tds

#ifndef TDS_LIBFUZZER

#include <gtest/gtest.h>

namespace tds {
namespace {

struct FuzzCase {
  uint64_t seed;
  int harness;  // 0 = EH pair, 1 = CoarseCEH pair
  double epsilon;
  Tick window;
  int ops;
};

class FlatEhFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FlatEhFuzzTest, FlatLayoutStaysBitIdenticalToChain) {
  const FuzzCase fuzz = GetParam();
  FuzzInput in =
      FuzzInput::FromSeed(fuzz.seed, static_cast<size_t>(fuzz.ops) * 16);
  if (fuzz.harness == 0) {
    RunFlatEhFuzz({fuzz.epsilon, fuzz.window, fuzz.ops}, in);
  } else {
    RunFlatCoarseFuzz(fuzz.seed, in);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FlatEhFuzzTest,
    ::testing::Values(FuzzCase{0xF1A1, 0, 0.1, 64, 1200},
                      FuzzCase{0xF1A2, 0, 0.1, 512, 1200},
                      FuzzCase{0xF1A3, 0, 0.02, 128, 900},
                      FuzzCase{0xF1A4, 0, 0.5, 32, 1200},
                      FuzzCase{0xF1A5, 0, 0.25, 1024, 900},
                      FuzzCase{0xF1B1, 1, 0.1, 0, 1100},
                      FuzzCase{0xF1B2, 1, 0.1, 0, 1100}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return (info.param.harness == 0 ? "Eh" : "Coarse") + std::string("Seed") +
             std::to_string(info.param.seed & 0xff) + "Eps" +
             std::to_string(static_cast<int>(info.param.epsilon * 100)) + "W" +
             std::to_string(info.param.window);
    });

}  // namespace
}  // namespace tds

#else  // TDS_LIBFUZZER

// Coverage-guided entry point: the first byte picks the harness, the next
// bytes pick the configuration, the rest drive the op stream.
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  tds::FuzzInput in(data, size);
  const uint64_t harness = in.Below(2);
  if (harness == 0) {
    constexpr double kEpsilons[] = {0.02, 0.1, 0.25, 0.5};
    constexpr tds::Tick kWindows[] = {32, 64, 128, 512, 1024};
    tds::FlatEhFuzzConfig config;
    config.epsilon = kEpsilons[in.Below(4)];
    config.window = kWindows[in.Below(5)];
    config.max_ops = 4096;
    tds::RunFlatEhFuzz(config, in);
  } else {
    tds::RunFlatCoarseFuzz(0xF1B0 + in.Below(16), in);
  }
  return 0;
}

#endif  // TDS_LIBFUZZER
