#ifndef TDS_CORE_FACTORY_H_
#define TDS_CORE_FACTORY_H_

#include <memory>

#include "core/decayed_aggregate.h"
#include "core/decayed_average.h"
#include "util/common.h"
#include "util/status.h"

namespace tds {

/// Which maintenance algorithm to use for a decayed sum.
enum class Backend {
  /// Pick the storage-optimal algorithm for the decay family, following the
  /// paper's guidance: EXPD -> single EWMA register (Section 3.1);
  /// SLIWIN -> plain Exponential Histogram (== CEH, Section 4.1);
  /// polyexponential -> pipelined registers (Section 3.4);
  /// WBMH-admissible (POLYD and other smooth sub-exponential decays) ->
  /// WBMH (Section 5); anything else -> CEH (Section 4.2, works for all).
  kAuto,
  kExact,
  kEwma,
  kRecentItems,
  kCeh,
  /// CEH with O(log log N)-bit approximate boundaries (Section 5 closing
  /// remark, after Y. Matias): constant-factor accuracy for POLYD in the
  /// WBMH's storage class.
  kCoarseCeh,
  kWbmh,
  kPolyExp,
};

/// Resolves kAuto to a concrete backend for `decay` per the paper's
/// guidance (see Backend::kAuto); concrete backends pass through.
Backend ResolveBackend(const DecayFunction& decay, Backend requested);

/// Validated construction options for MakeDecayedSum / MakeDecayedAverage.
/// Instances are immutable and always valid: build them with
/// AggregateOptions::Builder, which rejects bad `epsilon` / `start` with a
/// Status instead of letting them reach a backend.
///
///   auto options = AggregateOptions::Builder()
///                      .backend(Backend::kCeh)
///                      .epsilon(0.05)
///                      .Build();
///   if (!options.ok()) { ... }
///   auto sum = MakeDecayedSum(decay, options.value());
///
/// The default-constructed value carries the defaults (kAuto, eps = 0.1,
/// start = 1), which are valid by construction.
class AggregateOptions {
 public:
  class Builder;

  AggregateOptions() = default;

  Backend backend() const { return backend_; }
  /// Target relative error, in (0, 1].
  double epsilon() const { return epsilon_; }
  /// First tick of the stream (WBMH layout origin), >= 1.
  Tick start() const { return start_; }

 private:
  Backend backend_ = Backend::kAuto;
  double epsilon_ = 0.1;
  Tick start_ = 1;
};

class AggregateOptions::Builder {
 public:
  Builder() = default;

  Builder& backend(Backend backend) {
    options_.backend_ = backend;
    return *this;
  }
  Builder& epsilon(double epsilon) {
    options_.epsilon_ = epsilon;
    return *this;
  }
  Builder& start(Tick start) {
    options_.start_ = start;
    return *this;
  }

  /// Validates and returns the options: epsilon must be a finite value in
  /// (0, 1] and start >= 1.
  StatusOr<AggregateOptions> Build() const;

 private:
  AggregateOptions options_;
};

/// Creates a decayed-sum structure for `decay`.
StatusOr<std::unique_ptr<DecayedAggregate>> MakeDecayedSum(
    DecayPtr decay, const AggregateOptions& options);

/// Creates a decayed average (Problem 2.2) backed by two such structures.
StatusOr<DecayedAverage> MakeDecayedAverage(DecayPtr decay,
                                            const AggregateOptions& options);

}  // namespace tds

#endif  // TDS_CORE_FACTORY_H_
