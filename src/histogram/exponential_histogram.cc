#include "histogram/exponential_histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/audit.h"

namespace tds {

ExponentialHistogram::ExponentialHistogram(const Options& options)
    : epsilon_(options.epsilon), window_(options.window) {
  // Per-class bucket budget k = ceil(1/eps) + 1 (Datar et al.): with at
  // least cap_-1 buckets per smaller class, the straddling bucket's
  // half-count correction is at most an eps fraction of the window count,
  // including the worst case of a size-2 straddler.
  cap_ = static_cast<uint64_t>(std::ceil(1.0 / epsilon_)) + 1;
}

StatusOr<ExponentialHistogram> ExponentialHistogram::Create(
    const Options& options) {
  if (!(options.epsilon > 0.0) || options.epsilon > 1.0) {
    return Status::InvalidArgument("EH requires epsilon in (0, 1]");
  }
  if (options.window < 1) {
    return Status::InvalidArgument("EH requires window >= 1");
  }
  return ExponentialHistogram(options);
}

void ExponentialHistogram::AdvanceTo(Tick t) {
  TDS_CHECK_GE(t, now_);
  now_ = t;
  Expire();
  TDS_AUDIT_MUTATION(AuditInvariants());
}

void ExponentialHistogram::Add(Tick t, uint64_t value) {
  TDS_CHECK_GE(t, now_);
  now_ = t;
  // Expire BEFORE inserting: the merge cascade then only ever pairs live
  // buckets, and — since a carry takes the newer partner's timestamp — can
  // never produce a bucket that is itself already expired, so no trailing
  // sweep is needed. This ordering is also what makes coalescing same-tick
  // items into one Add identical to adding them one at a time: with
  // insertion first, the expiry interleaved between two adds could remove a
  // straddling bucket that the coalesced cascade would instead have merged.
  Expire();
  if (value != 0) {
    if (first_arrival_ == 0) first_arrival_ = t;
    total_count_ += value;
    InsertUnits(t, value);
  }
  TDS_AUDIT_MUTATION(AuditInvariants());
}

void ExponentialHistogram::InsertUnits(Tick t, uint64_t incoming_units) {
  // Sequential-insertion digit arithmetic, run by the flat store as a suffix
  // compaction sweep; a merged bucket keeps the newer partner's end
  // timestamp. All-incoming merges close out arithmetically, so a value v
  // costs O(cap * log v), not O(v).
  flat_.InsertUnits(incoming_units, t, cap_,
                    [](Tick /*older*/, Tick newer) { return newer; });
}

void ExponentialHistogram::Expire() {
  if (window_ == kInfiniteHorizon || total_count_ == 0) return;
  const Tick cutoff = now_ - window_ + 1;  // arrivals < cutoff have age > W
  total_count_ -=
      flat_.ExpireOldest([cutoff](Tick end) { return end < cutoff; });
}

double ExponentialHistogram::Estimate() const {
  return EstimateWindow(window_ == kInfiniteHorizon
                            ? (first_arrival_ == 0
                                   ? Tick{1}
                                   : now_ - first_arrival_ + 1)
                            : window_);
}

double ExponentialHistogram::EstimateWindow(Tick w) const {
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
  // The oldest kept bucket straddles the window boundary unless the entire
  // stream lies inside the window; count half of it in that case. A size-1
  // bucket never straddles: its single item sits exactly at the stored
  // timestamp, which is inside the window.
  if (oldest_kept_count > 1.5 && (any_skipped || first_arrival_ < cutoff)) {
    sum -= oldest_kept_count / 2.0;
  }
  return sum;
}

std::vector<ExponentialHistogram::Bucket> ExponentialHistogram::Buckets()
    const {
  std::vector<Bucket> out;
  out.reserve(BucketCount());
  ForEachBucketOldestFirst([&](const Bucket& b) { out.push_back(b); });
  return out;
}

Status ExponentialHistogram::MergeFrom(const ExponentialHistogram& other) {
  if (other.epsilon_ != epsilon_ || other.window_ != window_) {
    return Status::InvalidArgument(
        "cannot merge histograms with different options");
  }
  // Gather both bucket lists and rebuild canonically. A bucket only
  // records its end timestamp, but its items are spread back to the older
  // neighbor's end; re-stamping everything at one point would bias the
  // union estimate (newer -> systematic overweight under decay, older ->
  // spurious expiry under sliding windows). Instead each input bucket is
  // split into up to kMergeChunks pseudo-batches spread evenly across its
  // reconstructed span (the last chunk exactly at the recorded end, so
  // expiry semantics stay end-anchored), preserving the time distribution
  // to within span/kMergeChunks.
  constexpr uint64_t kMergeChunks = 8;
  std::vector<Bucket> combined;
  combined.reserve(kMergeChunks * (BucketCount() + other.BucketCount()));
  auto gather = [&combined](const ExponentialHistogram& source) {
    // Live buckets contain only in-window items, but the reconstructed
    // span of the oldest one reaches back to the first arrival (older
    // buckets expired wholesale); clamp to the window so chunks are not
    // spuriously expired on re-insertion.
    Tick floor = source.first_arrival();
    if (source.window() != kInfiniteHorizon) {
      floor = std::max(floor, source.now() - source.window() + 1);
    }
    Tick previous_end = floor;
    source.ForEachBucketOldestFirst([&](const Bucket& b) {
      // Clamp to b.end: buckets in different classes may share an end
      // timestamp (one multi-digit Add), making previous_end overshoot —
      // an unclamped start would yield span -1 and zero chunks, silently
      // dropping the bucket's whole count.
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
        // Chunk c covers the c-th slice of [start, end]; stamp it at the
        // slice end so the newest chunk sits exactly at b.end.
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

  flat_.Clear();
  total_count_ = 0;
  now_ = 0;
  first_arrival_ = 0;
  for (const Bucket& b : combined) {
    Add(b.end, b.count);
  }
  now_ = merged_now;
  first_arrival_ = merged_first;
  Expire();
  TDS_AUDIT_MUTATION(AuditInvariants());
  return Status::OK();
}

void ExponentialHistogram::EncodeState(Encoder& encoder) const {
  encoder.PutDouble(epsilon_);
  encoder.PutSigned(window_);
  encoder.PutSigned(now_);
  encoder.PutSigned(first_arrival_);
  encoder.PutVarint(total_count_);
  // Class count (emptied classes included), then each class in ascending
  // order, its buckets oldest first as (end-tick delta, count) pairs.
  encoder.PutVarint(flat_.num_classes());
  flat_.ForEachSegmentAscendingClass([&](size_t, size_t begin, size_t end) {
    encoder.PutVarint(end - begin);
    Tick previous = 0;
    for (size_t k = begin; k < end; ++k) {
      encoder.PutVarint(static_cast<uint64_t>(flat_.stamp(k) - previous));
      previous = flat_.stamp(k);
      encoder.PutVarint(flat_.count(k));
    }
  });
}

Status ExponentialHistogram::DecodeState(Decoder& decoder) {
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
  std::vector<std::vector<Bucket>> decoded(class_count);
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
  flat_.AssignFromClasses(
      decoded, [](const Bucket& b) { return b.end; },
      [](const Bucket& b) { return b.count; });
  // Structural validation (hostile snapshots must not yield a structure
  // that later trips internal CHECKs) is exactly the audit protocol:
  // power-of-two counts matching the class, end timestamps within
  // [first_arrival, now] non-decreasing in canonical order, the per-class
  // cap, and the count checksum.
  const Status audit = AuditInvariants();
  if (!audit.ok()) {
    return Status::InvalidArgument("corrupt snapshot: " + audit.message());
  }
  return Status::OK();
}

Status ExponentialHistogram::AuditInvariants() const {
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
  TDS_AUDIT_CHECK(flat_.num_classes() <= 64, "more than 64 size classes");
  size_t segment_sum = 0;
  for (size_t c = 0; c < flat_.num_classes(); ++c) {
    segment_sum += flat_.class_size(c);
  }
  TDS_AUDIT_CHECK(segment_sum == flat_.size(),
                  "flat class segments disagree with bucket storage");
  size_t pos = flat_.begin_index();
  for (size_t c = flat_.num_classes(); c-- > 0;) {
    const size_t segment = flat_.class_size(c);
    TDS_AUDIT_CHECK(segment <= cap_,
                    "class " + std::to_string(c) + " holds " +
                        std::to_string(segment) + " buckets, cap " +
                        std::to_string(cap_));
    for (size_t k = 0; k < segment; ++k, ++pos) {
      const uint64_t count = flat_.count(pos);
      const Tick end = flat_.stamp(pos);
      TDS_AUDIT_CHECK(count == (uint64_t{1} << c),
                      "class " + std::to_string(c) + " bucket count " +
                          std::to_string(count));
      // Canonical EH ordering: walking classes oldest-to-newest, end
      // timestamps never decrease (equal stamps are legal — one batch
      // insert spawns buckets in several classes).
      TDS_AUDIT_CHECK(end >= previous_end, "canonical ordering violated");
      TDS_AUDIT_CHECK(end >= first_arrival_ && end <= now_,
                      "bucket timestamp outside [first_arrival, now]");
      TDS_AUDIT_CHECK(end >= cutoff, "expired bucket retained");
      previous_end = end;
      checksum += count;
    }
  }
  TDS_AUDIT_CHECK(pos == flat_.end_index(),
                  "flat segment walk missed trailing buckets");
  TDS_AUDIT_CHECK(checksum == total_count_,
                  "total_count_ " + std::to_string(total_count_) +
                      " != bucket sum " + std::to_string(checksum));
  return Status::OK();
}

size_t ExponentialHistogram::StorageBits() const {
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

}  // namespace tds
