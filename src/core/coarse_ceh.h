#ifndef TDS_CORE_COARSE_CEH_H_
#define TDS_CORE_COARSE_CEH_H_

#include <memory>
#include <string>
#include <vector>

#include "core/decayed_aggregate.h"
#include "histogram/flat_store.h"
#include "util/approx_age.h"
#include "util/random.h"
#include "util/status.h"

namespace tds {

/// CEH with approximately-maintained time boundaries — the paper's
/// Section 5 closing remark (attributed to Y. Matias): for polynomial
/// decay, a constant-factor error in a bucket's boundary is only a
/// constant-factor error in that bucket's contribution, so boundaries can
/// be kept in O(log log N) bits each (ApproxAge), cutting the CEH's
/// O(eps^-1 log^2 N) to O(eps^-1 log N log log N) — the same storage class
/// as the WBMH, by a different route.
///
/// The histogram is the same domination-based structure as the exact CEH
/// (power-of-two bucket counts, at most `cap` buckets per size class, two
/// oldest merge on overflow); only the boundary representation changes.
/// The estimate weights each bucket by g(approximate boundary age).
///
/// Guarantee: a constant-factor approximation for POLYD (the grid ratio
/// and stochastic aging each contribute a bounded factor); the
/// decay_families benchmark measures the constant. For (1 +- eps) answers
/// use CehDecayedSum or WbmhDecayedSum.
class CoarseCehDecayedSum : public DecayedAggregate {
 public:
  struct Options {
    /// Bucket-count budget parameter, as in the exact CEH.
    double epsilon = 0.1;
    /// Boundary grid ratio (1 + delta): the age quantization coarseness.
    double boundary_delta = 0.25;
    uint64_t seed = 0xa9e5;
  };

  static StatusOr<std::unique_ptr<CoarseCehDecayedSum>> Create(
      DecayPtr decay, const Options& options);

  void Update(Tick t, uint64_t value) override;
  void Advance(Tick now) override;
  /// Const and side-effect free: weights each bucket by its stored
  /// approximate boundary age plus the deterministic gap since the last
  /// mutation (the stochastic aging itself only runs inside
  /// Update/Advance, so reads never touch the RNG).
  double Query(Tick now) const override;
  size_t StorageBits() const override;
  std::string Name() const override { return "COARSE_CEH"; }
  const DecayPtr& decay() const override { return decay_; }

  size_t BucketCount() const;

  /// Approximate boundary ages, oldest first (for tests).
  std::vector<double> BoundaryAges() const;

  /// Structural invariants: every bucket in class c counts exactly 2^c,
  /// the class total matches total_count_, per-class sizes respect the
  /// cap bound, and all boundary ages are finite, >= 1, and covered by
  /// max_age_seen_. (Age *ordering* across buckets is deliberately not
  /// audited: stochastic aging may reorder estimates.)
  Status AuditInvariants() const;

  /// Snapshot support.
  void EncodeState(class Encoder& encoder) const;
  Status DecodeState(class Decoder& decoder);

 private:
  CoarseCehDecayedSum(DecayPtr decay, const Options& options);

  void AdvanceTo(Tick t);
  void InsertUnits(uint64_t units);
  void Expire();

  DecayPtr decay_;
  Options options_;
  uint64_t cap_;
  Rng rng_;

  /// Buckets in contiguous SoA arrays (stamps = approximate boundary ages),
  /// per-class segments in canonical oldest-first order.
  FlatBucketStore<ApproxAge> flat_;

  Tick now_ = 0;
  uint64_t total_count_ = 0;
  double max_age_seen_ = 2.0;
};

}  // namespace tds

#endif  // TDS_CORE_COARSE_CEH_H_
