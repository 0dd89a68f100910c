// Test-only reference implementations of the exponential-histogram family
// in the original *chain* layout: one deque of buckets per size class.
//
// The library stores these structures in the flat SoA layout only
// (histogram/flat_store.h). The chain code below is the layout the flat one
// replaced, kept verbatim so the differential test and flat_eh_fuzz_test
// can require the library to stay bit-identical to it: equal answers,
// byte-equal EncodeState output, snapshots that decode on either side and
// resume, and (for the coarse CEH) the same ascending-class RNG
// consumption order. Keeping the carry arithmetic verbatim also keeps the
// O(log v) huge-value insert path under differential test.
//
// Neither class is a DecayedAggregate: they exist to be diffed against,
// not deployed.
#ifndef TDS_TESTS_REFERENCE_CHAIN_HISTOGRAMS_H_
#define TDS_TESTS_REFERENCE_CHAIN_HISTOGRAMS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "decay/decay_function.h"
#include "histogram/exponential_histogram.h"
#include "util/approx_age.h"
#include "util/audit.h"
#include "util/check.h"
#include "util/codec.h"
#include "util/common.h"
#include "util/random.h"
#include "util/status.h"

namespace tds {
namespace reference {

/// Chain-layout Exponential Histogram (Datar et al.; paper Section 4.1):
/// classes_[i] holds the buckets of count 2^i, oldest at the front, and
/// every bucket in classes_[i] is newer than every bucket in classes_[i+1].
/// Same contract and wire format as tds::ExponentialHistogram.
class ChainEh {
 public:
  using Options = ExponentialHistogram::Options;
  using Bucket = ExponentialHistogram::Bucket;

  static StatusOr<ChainEh> Create(const Options& options) {
    if (!(options.epsilon > 0.0) || options.epsilon > 1.0) {
      return Status::InvalidArgument("EH requires epsilon in (0, 1]");
    }
    if (options.window < 1) {
      return Status::InvalidArgument("EH requires window >= 1");
    }
    return ChainEh(options);
  }

  void Add(Tick t, uint64_t value) {
    TDS_CHECK_GE(t, now_);
    now_ = t;
    Expire();
    if (value != 0) {
      if (first_arrival_ == 0) first_arrival_ = t;
      total_count_ += value;
      InsertUnits(t, value);
    }
  }

  void AdvanceTo(Tick t) {
    TDS_CHECK_GE(t, now_);
    now_ = t;
    Expire();
  }

  Tick now() const { return now_; }
  Tick first_arrival() const { return first_arrival_; }
  Tick window() const { return window_; }
  uint64_t TotalCount() const { return total_count_; }

  double Estimate() const {
    return EstimateWindow(window_ == kInfiniteHorizon
                              ? (first_arrival_ == 0
                                     ? Tick{1}
                                     : now_ - first_arrival_ + 1)
                              : window_);
  }

  double EstimateWindow(Tick w) const {
    TDS_CHECK_GE(w, 1);
    if (total_count_ == 0) return 0.0;
    const Tick cutoff = now_ - w + 1;
    double sum = 0.0;
    bool found_oldest_kept = false;
    double oldest_kept_count = 0.0;
    bool any_skipped = false;
    ForEachBucketOldestFirst([&](const Bucket& b) {
      if (b.end < cutoff) {
        any_skipped = true;
        return;
      }
      if (!found_oldest_kept) {
        found_oldest_kept = true;
        oldest_kept_count = static_cast<double>(b.count);
      }
      sum += static_cast<double>(b.count);
    });
    if (!found_oldest_kept) return 0.0;
    if (oldest_kept_count > 1.5 && (any_skipped || first_arrival_ < cutoff)) {
      sum -= oldest_kept_count / 2.0;
    }
    return sum;
  }

  size_t BucketCount() const {
    size_t n = 0;
    for (const auto& cls : classes_) n += cls.size();
    return n;
  }

  /// Class-major walk: the descending-class concatenation is the global
  /// oldest-first order.
  template <typename F>
  void ForEachBucketOldestFirst(F&& f) const {
    for (size_t c = classes_.size(); c-- > 0;) {
      for (const Bucket& b : classes_[c]) f(b);
    }
  }

  Status MergeFrom(const ChainEh& other) {
    if (other.epsilon_ != epsilon_ || other.window_ != window_) {
      return Status::InvalidArgument(
          "cannot merge histograms with different options");
    }
    constexpr uint64_t kMergeChunks = 8;
    std::vector<Bucket> combined;
    combined.reserve(kMergeChunks * (BucketCount() + other.BucketCount()));
    auto gather = [&combined](const ChainEh& source) {
      Tick floor = source.first_arrival();
      if (source.window() != kInfiniteHorizon) {
        floor = std::max(floor, source.now() - source.window() + 1);
      }
      Tick previous_end = floor;
      source.ForEachBucketOldestFirst([&](const Bucket& b) {
        const Tick start = std::min(std::max(previous_end, floor), b.end);
        previous_end = b.end + 1;
        const Tick span = b.end - start;
        const uint64_t chunks =
            std::min<uint64_t>({kMergeChunks, b.count,
                                static_cast<uint64_t>(span) + 1});
        uint64_t remaining = b.count;
        for (uint64_t c = 0; c < chunks; ++c) {
          const uint64_t piece =
              c + 1 == chunks ? remaining : b.count / chunks;
          remaining -= piece;
          const Tick stamp =
              start + span * static_cast<Tick>(c + 1) /
                          static_cast<Tick>(chunks);
          combined.push_back(Bucket{stamp, piece});
        }
      });
    };
    gather(*this);
    gather(other);
    std::stable_sort(
        combined.begin(), combined.end(),
        [](const Bucket& a, const Bucket& b) { return a.end < b.end; });

    const Tick merged_now = std::max(now_, other.now_);
    Tick merged_first = 0;
    if (first_arrival_ != 0 && other.first_arrival_ != 0) {
      merged_first = std::min(first_arrival_, other.first_arrival_);
    } else {
      merged_first = first_arrival_ != 0 ? first_arrival_
                                         : other.first_arrival_;
    }

    classes_.clear();
    total_count_ = 0;
    now_ = 0;
    first_arrival_ = 0;
    for (const Bucket& b : combined) {
      Add(b.end, b.count);
    }
    now_ = merged_now;
    first_arrival_ = merged_first;
    Expire();
    return Status::OK();
  }

  void EncodeState(Encoder& encoder) const {
    encoder.PutDouble(epsilon_);
    encoder.PutSigned(window_);
    encoder.PutSigned(now_);
    encoder.PutSigned(first_arrival_);
    encoder.PutVarint(total_count_);
    encoder.PutVarint(classes_.size());
    for (const auto& cls : classes_) {
      encoder.PutVarint(cls.size());
      Tick previous = 0;
      for (const Bucket& b : cls) {
        encoder.PutVarint(static_cast<uint64_t>(b.end - previous));
        previous = b.end;
        encoder.PutVarint(b.count);
      }
    }
  }

  Status DecodeState(Decoder& decoder) {
    double epsilon = 0.0;
    int64_t window = 0, now = 0, first_arrival = 0;
    uint64_t total = 0, class_count = 0;
    if (!decoder.GetDouble(&epsilon) || !decoder.GetSigned(&window) ||
        !decoder.GetSigned(&now) || !decoder.GetSigned(&first_arrival) ||
        !decoder.GetVarint(&total) || !decoder.GetVarint(&class_count)) {
      return CorruptSnapshot("EH header");
    }
    if (epsilon != epsilon_ || window != window_) {
      return Status::InvalidArgument("snapshot options mismatch");
    }
    if (class_count > 64) return CorruptSnapshot("EH class count");
    if (now < 0 || first_arrival < 0 || first_arrival > now) {
      return CorruptSnapshot("EH clock");
    }
    now_ = now;
    first_arrival_ = first_arrival;
    total_count_ = total;
    std::vector<std::deque<Bucket>> decoded(class_count);
    for (auto& cls : decoded) {
      uint64_t buckets = 0;
      if (!decoder.GetVarint(&buckets) || buckets > 2 * cap_ + 2) {
        return CorruptSnapshot("EH class size");
      }
      Tick previous = 0;
      for (uint64_t i = 0; i < buckets; ++i) {
        uint64_t delta = 0, count = 0;
        if (!decoder.GetVarint(&delta) || !decoder.GetVarint(&count)) {
          return CorruptSnapshot("EH bucket");
        }
        previous += static_cast<Tick>(delta);
        cls.push_back(Bucket{previous, count});
      }
    }
    classes_ = std::move(decoded);
    const Status audit = AuditInvariants();
    if (!audit.ok()) {
      return Status::InvalidArgument("corrupt snapshot: " + audit.message());
    }
    return Status::OK();
  }

  Status AuditInvariants() const {
    TDS_AUDIT_CHECK(
        cap_ == static_cast<uint64_t>(std::ceil(1.0 / epsilon_)) + 1,
        "per-class budget must be ceil(1/eps) + 1");
    TDS_AUDIT_CHECK(first_arrival_ >= 0 && now_ >= first_arrival_,
                    "clock precedes first arrival");
    if (first_arrival_ == 0) {
      TDS_AUDIT_CHECK(total_count_ == 0 && BucketCount() == 0,
                      "buckets present before any arrival");
    }
    const Tick cutoff = window_ == kInfiniteHorizon
                            ? std::numeric_limits<Tick>::min()
                            : now_ - window_ + 1;
    uint64_t checksum = 0;
    Tick previous_end = std::numeric_limits<Tick>::min();
    TDS_AUDIT_CHECK(classes_.size() <= 64, "more than 64 size classes");
    for (size_t c = classes_.size(); c-- > 0;) {
      const auto& cls = classes_[c];
      TDS_AUDIT_CHECK(cls.size() <= cap_,
                      "class " + std::to_string(c) + " holds " +
                          std::to_string(cls.size()) + " buckets, cap " +
                          std::to_string(cap_));
      for (const Bucket& b : cls) {
        TDS_AUDIT_CHECK(b.count == (uint64_t{1} << c),
                        "class " + std::to_string(c) + " bucket count " +
                            std::to_string(b.count));
        TDS_AUDIT_CHECK(b.end >= previous_end, "canonical ordering violated");
        TDS_AUDIT_CHECK(b.end >= first_arrival_ && b.end <= now_,
                        "bucket timestamp outside [first_arrival, now]");
        TDS_AUDIT_CHECK(b.end >= cutoff, "expired bucket retained");
        previous_end = b.end;
        checksum += b.count;
      }
    }
    TDS_AUDIT_CHECK(checksum == total_count_,
                    "total_count_ " + std::to_string(total_count_) +
                        " != bucket sum " + std::to_string(checksum));
    return Status::OK();
  }

  size_t StorageBits() const {
    const Tick elapsed =
        first_arrival_ == 0 ? Tick{1} : now_ - first_arrival_ + 1;
    const Tick n_eff =
        window_ == kInfiniteHorizon ? elapsed : std::min(elapsed, window_);
    const double ts_bits =
        std::ceil(std::log2(static_cast<double>(n_eff) + 1.0));
    const double count_log =
        std::log2(static_cast<double>(std::max<uint64_t>(total_count_, 2)));
    const double exp_bits = std::ceil(std::log2(count_log + 1.0));
    return static_cast<size_t>(
        static_cast<double>(BucketCount()) * (ts_bits + exp_bits) + ts_bits);
  }

 private:
  explicit ChainEh(const Options& options)
      : epsilon_(options.epsilon), window_(options.window) {
    cap_ = static_cast<uint64_t>(std::ceil(1.0 / epsilon_)) + 1;
  }

  void InsertUnits(Tick t, uint64_t incoming_units) {
    // `virtual_new` tracks not-yet-materialized buckets of count 2^i, all
    // with timestamp t. Real carry buckets (which may carry older
    // timestamps when pre-existing buckets get merged) are materialized
    // eagerly; there are at most `cap_` of them per class, so the whole
    // insertion costs O(cap_ * log(value)) instead of O(value).
    uint64_t virtual_new = incoming_units;
    std::vector<Bucket> real_carries;
    size_t i = 0;
    while (true) {
      if (i >= classes_.size()) classes_.emplace_back();
      auto& cls = classes_[i];
      const uint64_t total = cls.size() + virtual_new;
      uint64_t next_virtual = 0;
      real_carries.clear();
      if (total > cap_) {
        const uint64_t merges = (total - cap_ + 1) / 2;
        for (uint64_t m = 0; m < merges; ++m) {
          if (cls.size() >= 2) {
            Bucket a = cls.front();
            cls.pop_front();
            Bucket b = cls.front();
            cls.pop_front();
            real_carries.push_back(Bucket{b.end, a.count + b.count});
          } else if (cls.size() == 1) {
            Bucket a = cls.front();
            cls.pop_front();
            TDS_CHECK_GE(virtual_new, 1u);
            --virtual_new;
            real_carries.push_back(Bucket{t, a.count << 1});
          } else {
            // All remaining merges pair incoming buckets with each other:
            // pure arithmetic, closed out in one step (the O(log v) path).
            const uint64_t remaining = merges - m;
            TDS_CHECK_GE(virtual_new, 2 * remaining);
            virtual_new -= 2 * remaining;
            next_virtual += remaining;
            break;
          }
        }
      }
      const uint64_t unit = uint64_t{1} << i;
      for (uint64_t v = 0; v < virtual_new; ++v) {
        cls.push_back(Bucket{t, unit});
      }
      if (real_carries.empty() && next_virtual == 0) break;
      if (i + 1 >= classes_.size()) classes_.emplace_back();
      for (const Bucket& carry : real_carries) {
        classes_[i + 1].push_back(carry);
      }
      virtual_new = next_virtual;
      ++i;
    }
  }

  void Expire() {
    if (window_ == kInfiniteHorizon || total_count_ == 0) return;
    const Tick cutoff = now_ - window_ + 1;
    for (size_t c = classes_.size(); c-- > 0;) {
      auto& cls = classes_[c];
      while (!cls.empty() && cls.front().end < cutoff) {
        total_count_ -= cls.front().count;
        cls.pop_front();
      }
      if (!cls.empty()) break;
    }
  }

  double epsilon_;
  Tick window_;
  uint64_t cap_;
  std::vector<std::deque<Bucket>> classes_;
  Tick now_ = 0;
  Tick first_arrival_ = 0;
  uint64_t total_count_ = 0;
};

/// Chain-layout coarse CEH (paper Section 5 closing remark): the same
/// domination-based histogram with ApproxAge boundaries. Same contract and
/// wire format as tds::CoarseCehDecayedSum; the stochastic aging sweep
/// walks classes in ascending order, oldest bucket first within a class.
class ChainCoarseCeh {
 public:
  struct Options {
    double epsilon = 0.1;
    double boundary_delta = 0.25;
    uint64_t seed = 0xa9e5;
  };

  ChainCoarseCeh(DecayPtr decay, const Options& options)
      : decay_(std::move(decay)), options_(options), rng_(options.seed) {
    cap_ = static_cast<uint64_t>(std::ceil(1.0 / options_.epsilon)) + 1;
  }

  void Update(Tick t, uint64_t value) {
    AdvanceTo(t);
    if (value == 0) return;
    total_count_ += value;
    InsertUnits(value);
  }

  void Advance(Tick now) { AdvanceTo(now); }

  double Query(Tick now) const {
    TDS_CHECK_GE(now, now_);
    const double gap = static_cast<double>(now - now_);
    const Tick horizon = decay_->Horizon();
    double sum = 0.0;
    for (const auto& cls : classes_) {
      for (const Bucket& bucket : cls) {
        const double age_estimate =
            std::max(1.0, bucket.age.Estimate() + gap);
        const auto age = static_cast<Tick>(std::llround(age_estimate));
        if (age > horizon) continue;
        sum += static_cast<double>(bucket.count) * decay_->Weight(age);
      }
    }
    return sum;
  }

  size_t BucketCount() const {
    size_t n = 0;
    for (const auto& cls : classes_) n += cls.size();
    return n;
  }

  std::vector<double> BoundaryAges() const {
    std::vector<double> ages;
    for (size_t c = classes_.size(); c-- > 0;) {
      for (const Bucket& bucket : classes_[c]) {
        ages.push_back(bucket.age.Estimate());
      }
    }
    return ages;
  }

  Status AuditInvariants() const {
    TDS_AUDIT_CHECK(now_ >= 0, "negative clock");
    TDS_AUDIT_CHECK(std::isfinite(max_age_seen_) && max_age_seen_ >= 1.0,
                    "max age must be finite and >= 1");
    TDS_AUDIT_CHECK(classes_.size() <= 64, "more than 64 size classes");
    uint64_t checksum = 0;
    for (size_t c = 0; c < classes_.size(); ++c) {
      const auto& cls = classes_[c];
      TDS_AUDIT_CHECK(cls.size() <= 2 * cap_ + 2, "class exceeds cap bound");
      for (const Bucket& bucket : cls) {
        TDS_AUDIT_CHECK(bucket.count == (uint64_t{1} << c),
                        "bucket count not the class power of two");
        const double age = bucket.age.Estimate();
        TDS_AUDIT_CHECK(std::isfinite(age) && age >= 1.0,
                        "boundary age must be finite and >= 1");
        TDS_AUDIT_CHECK(age <= max_age_seen_,
                        "boundary age past the recorded maximum");
        checksum += bucket.count;
      }
    }
    TDS_AUDIT_CHECK(checksum == total_count_,
                    "bucket counts do not sum to the total");
    return Status::OK();
  }

  void EncodeState(Encoder& encoder) const {
    encoder.PutDouble(options_.epsilon);
    encoder.PutDouble(options_.boundary_delta);
    encoder.PutSigned(now_);
    encoder.PutVarint(total_count_);
    encoder.PutDouble(max_age_seen_);
    uint64_t rng_state[4];
    rng_.SaveState(rng_state);
    for (uint64_t word : rng_state) encoder.PutVarint(word);
    encoder.PutVarint(classes_.size());
    for (const auto& cls : classes_) {
      encoder.PutVarint(cls.size());
      for (const Bucket& bucket : cls) {
        bucket.age.EncodeTo(encoder);
        encoder.PutVarint(bucket.count);
      }
    }
  }

  Status DecodeState(Decoder& decoder) {
    double epsilon = 0.0, delta = 0.0;
    if (!decoder.GetDouble(&epsilon) || !decoder.GetDouble(&delta)) {
      return CorruptSnapshot("CoarseCEH header");
    }
    if (epsilon != options_.epsilon || delta != options_.boundary_delta) {
      return Status::InvalidArgument("snapshot options mismatch");
    }
    uint64_t total = 0, class_count = 0;
    if (!decoder.GetSigned(&now_) || !decoder.GetVarint(&total) ||
        !decoder.GetDouble(&max_age_seen_)) {
      return CorruptSnapshot("CoarseCEH clock");
    }
    uint64_t rng_state[4];
    for (uint64_t& word : rng_state) {
      if (!decoder.GetVarint(&word)) return CorruptSnapshot("CoarseCEH rng");
    }
    rng_.RestoreState(rng_state);
    if (!decoder.GetVarint(&class_count) || class_count > 64) {
      return CorruptSnapshot("CoarseCEH classes");
    }
    if (now_ < 0 || !std::isfinite(max_age_seen_)) {
      return CorruptSnapshot("CoarseCEH clock");
    }
    total_count_ = total;
    std::vector<std::deque<Bucket>> decoded(class_count);
    uint64_t checksum = 0;
    for (size_t c = 0; c < decoded.size(); ++c) {
      auto& cls = decoded[c];
      uint64_t buckets = 0;
      if (!decoder.GetVarint(&buckets) || buckets > 2 * cap_ + 2) {
        return CorruptSnapshot("CoarseCEH class");
      }
      const uint64_t expected = uint64_t{1} << c;
      for (uint64_t i = 0; i < buckets; ++i) {
        Bucket bucket;
        if (!bucket.age.DecodeFrom(decoder) ||
            !decoder.GetVarint(&bucket.count) || bucket.count != expected) {
          return CorruptSnapshot("CoarseCEH bucket");
        }
        checksum += bucket.count;
        cls.push_back(bucket);
      }
    }
    classes_ = std::move(decoded);
    if (checksum != total_count_) return CorruptSnapshot("CoarseCEH total");
    const Status audit = AuditInvariants();
    if (!audit.ok()) {
      return Status::InvalidArgument("corrupt snapshot: " + audit.message());
    }
    return Status::OK();
  }

  size_t StorageBits() const {
    const int age_bits =
        ApproxAge::StorageBits(options_.boundary_delta, max_age_seen_);
    const double count_log =
        std::log2(static_cast<double>(std::max<uint64_t>(total_count_, 2)));
    const int exp_bits =
        static_cast<int>(std::ceil(std::log2(count_log + 1.0)));
    const double clock_bits = std::ceil(
        std::log2(static_cast<double>(std::max<Tick>(now_, 2)) + 1.0));
    return static_cast<size_t>(
        static_cast<double>(BucketCount()) * (age_bits + exp_bits) +
        clock_bits);
  }

 private:
  struct Bucket {
    ApproxAge age;
    uint64_t count = 0;
  };

  void AdvanceTo(Tick t) {
    TDS_CHECK_GE(t, now_);
    const Tick gap = t - now_;
    now_ = t;
    if (gap == 0) return;
    for (auto& cls : classes_) {
      for (Bucket& bucket : cls) {
        bucket.age.Advance(gap, rng_);
        max_age_seen_ = std::max(max_age_seen_, bucket.age.Estimate());
      }
    }
    Expire();
  }

  void InsertUnits(uint64_t incoming_units) {
    uint64_t virtual_new = incoming_units;
    std::vector<Bucket> real_carries;
    const ApproxAge fresh(options_.boundary_delta);
    size_t i = 0;
    while (true) {
      if (i >= classes_.size()) classes_.emplace_back();
      auto& cls = classes_[i];
      const uint64_t total = cls.size() + virtual_new;
      uint64_t next_virtual = 0;
      real_carries.clear();
      if (total > cap_) {
        const uint64_t merges = (total - cap_ + 1) / 2;
        for (uint64_t m = 0; m < merges; ++m) {
          if (cls.size() >= 2) {
            Bucket a = cls.front();
            cls.pop_front();
            Bucket b = cls.front();
            cls.pop_front();
            a.age.TakeYounger(b.age);
            a.count += b.count;
            real_carries.push_back(a);
          } else if (cls.size() == 1) {
            Bucket a = cls.front();
            cls.pop_front();
            TDS_CHECK_GE(virtual_new, 1u);
            --virtual_new;
            a.age = fresh;  // merged with a just-arrived unit bucket
            a.count <<= 1;
            real_carries.push_back(a);
          } else {
            const uint64_t remaining = merges - m;
            TDS_CHECK_GE(virtual_new, 2 * remaining);
            virtual_new -= 2 * remaining;
            next_virtual += remaining;
            break;
          }
        }
      }
      const uint64_t unit = uint64_t{1} << i;
      for (uint64_t v = 0; v < virtual_new; ++v) {
        cls.push_back(Bucket{fresh, unit});
      }
      if (real_carries.empty() && next_virtual == 0) break;
      if (i + 1 >= classes_.size()) classes_.emplace_back();
      for (const Bucket& carry : real_carries) {
        classes_[i + 1].push_back(carry);
      }
      virtual_new = next_virtual;
      ++i;
    }
  }

  void Expire() {
    const Tick horizon = decay_->Horizon();
    if (horizon == kInfiniteHorizon || total_count_ == 0) return;
    for (size_t c = classes_.size(); c-- > 0;) {
      auto& cls = classes_[c];
      while (!cls.empty() &&
             cls.front().age.Estimate() > static_cast<double>(horizon)) {
        total_count_ -= cls.front().count;
        cls.pop_front();
      }
      if (!cls.empty()) break;
    }
  }

  DecayPtr decay_;
  Options options_;
  uint64_t cap_;
  Rng rng_;
  std::vector<std::deque<Bucket>> classes_;
  Tick now_ = 0;
  uint64_t total_count_ = 0;
  double max_age_seen_ = 2.0;
};

}  // namespace reference
}  // namespace tds

#endif  // TDS_TESTS_REFERENCE_CHAIN_HISTOGRAMS_H_
