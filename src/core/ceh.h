#ifndef TDS_CORE_CEH_H_
#define TDS_CORE_CEH_H_

#include <memory>
#include <string>

#include "core/decayed_aggregate.h"
#include "histogram/exponential_histogram.h"
#include "util/status.h"

namespace tds {

/// Cascaded Exponential Histogram (paper Section 4.2, Theorem 1): estimates
/// the decayed sum under *any* decay function from a single Exponential
/// Histogram, using summation by parts (Eq. 3):
///   S_g(T) = g(N) S_win_N(T) + sum_i (g(N-i) - g(N-i+1)) S_win_{N-i}(T).
/// Substituting the EH's window estimates and telescoping per bucket gives
/// the O(log N)-term form (Eq. 4): with consecutive bucket end-ages
/// a_0 < a_1 < ... (a_0 newest), bucket j contributes
///   C_j * (g(a_j) + g(a_{j+1})) / 2
/// (the (1/2) is the EH's half-count rule for the straddling bucket,
/// telescoped across windows; the oldest bucket pairs with the age of the
/// first arrival, or weight 0 past the horizon).
///
/// Storage O(eps^{-1} log^2 N) bits, query O(#buckets) = O(log N).
class CehDecayedSum : public DecayedAggregate {
 public:
  struct Options {
    double epsilon = 0.1;
  };

  static StatusOr<std::unique_ptr<CehDecayedSum>> Create(
      DecayPtr decay, const Options& options);

  void Update(Tick t, uint64_t value) override;
  /// Amortized batch path: same-tick items are coalesced into one histogram
  /// insertion, so the EH's merge cascade runs once per distinct tick
  /// instead of once per item. Bit-identical to the per-item sequence (the
  /// EH's InsertUnits implements sequential-insertion semantics).
  void UpdateBatch(std::span<const StreamItem> items) override;
  void Advance(Tick now) override;
  /// Const and side-effect free: expired buckets contribute weight 0 via
  /// SafeWeight, so skipping the histogram's expiry sweep never changes the
  /// estimate. Call Advance(now) to actually reclaim their storage.
  double Query(Tick now) const override;
  size_t StorageBits() const override;
  std::string Name() const override { return "CEH"; }
  const DecayPtr& decay() const override { return decay_; }

  const ExponentialHistogram& histogram() const { return eh_; }

  /// Merges another CEH over a disjoint substream (same decay + epsilon):
  /// the distributed-streams setting. See ExponentialHistogram::MergeFrom,
  /// which runs the post-mutation audit itself.
  Status MergeFrom(const CehDecayedSum& other) {  // tds-analyze: allow(audit-hook)
    return eh_.MergeFrom(other.eh_);
  }

  /// Snapshot support (delegates to the histogram).
  void EncodeState(class Encoder& encoder) const { eh_.EncodeState(encoder); }
  Status DecodeState(class Decoder& decoder);

  /// Audits the underlying histogram (see util/audit.h).
  Status AuditInvariants() const;

 private:
  CehDecayedSum(DecayPtr decay, ExponentialHistogram eh);

  double SafeWeight(Tick age) const;

  DecayPtr decay_;
  ExponentialHistogram eh_;
};

}  // namespace tds

#endif  // TDS_CORE_CEH_H_
