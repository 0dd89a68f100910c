#ifndef TDS_HISTOGRAM_EXPONENTIAL_HISTOGRAM_H_
#define TDS_HISTOGRAM_EXPONENTIAL_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "histogram/flat_store.h"
#include "util/check.h"
#include "util/codec.h"
#include "util/common.h"
#include "util/status.h"

namespace tds {

/// Exponential Histogram of Datar, Gionis, Indyk & Motwani (paper
/// Section 4.1): a (1 +- epsilon)-approximate count of 1s (or sum of small
/// nonnegative integers) over a sliding window, in O(eps^{-1} log^2 W) bits.
///
/// Buckets hold power-of-two counts; per size class at most
/// `cap = ceil(1/eps) + 1` buckets are kept, and when a class overflows
/// its two oldest buckets merge into the next class (the paper's
/// "domination-based" aggregation). Each bucket stores only the timestamp of
/// its most recent item; a bucket expires when even that timestamp leaves
/// the window. The estimate counts expired-straddling mass as half the
/// oldest bucket.
///
/// Lemma 4.1 of the paper: the same structure answers *every* window size
/// w <= W (EstimateWindow), which is what the cascaded general-decay
/// estimator (CEH, Section 4.2) builds on.
///
/// Values v > 1 are inserted as v logical unit items sharing one timestamp.
/// The insertion is performed with per-class digit arithmetic, so the cost
/// is O(cap * log v) rather than O(v).
class ExponentialHistogram {
 public:
  struct Options {
    /// Target relative error (0, 1].
    double epsilon = 0.1;
    /// Window size W in ticks; kInfiniteHorizon means never expire
    /// (used when cascading decay functions with unbounded support).
    Tick window = kInfiniteHorizon;
  };

  struct Bucket {
    Tick end = 0;        ///< Arrival tick of the bucket's most recent item.
    uint64_t count = 0;  ///< Number of unit items aggregated in the bucket.
  };

  static StatusOr<ExponentialHistogram> Create(const Options& options);

  /// Adds `value` unit items at tick `t`. Requires t >= now().
  void Add(Tick t, uint64_t value);

  /// Advances the clock (expiring buckets); requires t >= now().
  void AdvanceTo(Tick t);

  Tick now() const { return now_; }

  /// Estimate of the count over the full window [now-W+1, now].
  double Estimate() const;

  /// Estimate of the count over the window of size w <= W ending at now()
  /// (Lemma 4.1).
  double EstimateWindow(Tick w) const;

  /// Sum of all live bucket counts (upper bound on the window count).
  uint64_t TotalCount() const { return total_count_; }

  /// Number of live buckets.
  size_t BucketCount() const { return flat_.size(); }

  /// True if no unexpired items remain.
  bool Empty() const { return total_count_ == 0; }

  /// Calls f(Bucket) for every live bucket from oldest to newest: a single
  /// linear scan of the flat store.
  template <typename F>
  void ForEachBucketOldestFirst(F&& f) const {
    flat_.ForEachOldestFirst(
        [&f](Tick end, uint64_t count) { f(Bucket{end, count}); });
  }

  /// Snapshot of buckets, oldest first (test/inspection convenience).
  std::vector<Bucket> Buckets() const;

  /// Arrival tick of the earliest item ever added, or 0 if none.
  Tick first_arrival() const { return first_arrival_; }

  /// Storage accounting under the paper's bit metric: each bucket is charged
  /// a timestamp of ceil(log2(N+1)) bits plus a size exponent of
  /// ceil(log2(log2(maxCount)+1)) bits, where N = min(elapsed, W).
  /// One extra timestamp register is charged for the clock.
  size_t StorageBits() const;

  double epsilon() const { return epsilon_; }
  Tick window() const { return window_; }

  /// Merges another histogram over a *disjoint* substream of the same
  /// window into this one (the distributed sliding-window setting of
  /// Gibbons & Tirthapura, cited in the paper's Section 1.2: per-site
  /// summaries combined at a coordinator). Every bucket of `other` is
  /// replayed as a batch insert at its end timestamp, so the result is a
  /// valid canonical EH whose additional error is bounded by the *input*
  /// histogram's own bucket spread: the combined estimate stays within
  /// ~(eps_this + eps_other) of the union stream's window count.
  /// Requires matching epsilon and window. The clocks may differ; the
  /// merged clock is the max.
  Status MergeFrom(const ExponentialHistogram& other);

  /// Snapshot support: serializes options and full bucket state.
  void EncodeState(class Encoder& encoder) const;
  /// Restores onto a freshly-created histogram; the encoded options must
  /// match this instance's options.
  Status DecodeState(class Decoder& decoder);

  /// Verifies every structural invariant (see util/audit.h): the canonical
  /// ordering — walking classes newest-to-oldest class index, all bucket end
  /// timestamps are globally non-decreasing oldest-to-newest — per-class
  /// power-of-two counts and the `cap = ceil(1/eps) + 1` budget, timestamps
  /// within [first_arrival, now], no bucket outside a finite window, and
  /// `total_count_` equal to the sum of bucket counts.
  Status AuditInvariants() const;

 private:
  explicit ExponentialHistogram(const Options& options);

  /// Inserts `count` unit items at tick t into class 0 and cascades.
  void InsertUnits(Tick t, uint64_t count);

  /// Expires buckets whose end timestamp has left the window.
  void Expire();

  double epsilon_;
  Tick window_;
  /// Max buckets per size class before a merge is forced.
  uint64_t cap_;

  /// Buckets in contiguous SoA arrays (stamps = end ticks), per-class
  /// segments in canonical oldest-first order: every bucket of class i is
  /// newer than every bucket of class i+1.
  FlatBucketStore<Tick> flat_;

  Tick now_ = 0;
  Tick first_arrival_ = 0;
  uint64_t total_count_ = 0;
};

}  // namespace tds

#endif  // TDS_HISTOGRAM_EXPONENTIAL_HISTOGRAM_H_
