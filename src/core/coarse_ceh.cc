#include "core/coarse_ceh.h"

#include <algorithm>
#include <cmath>

#include "util/audit.h"
#include "util/check.h"

namespace tds {

CoarseCehDecayedSum::CoarseCehDecayedSum(DecayPtr decay,
                                         const Options& options)
    : decay_(std::move(decay)), options_(options), rng_(options.seed) {
  cap_ = static_cast<uint64_t>(std::ceil(1.0 / options_.epsilon)) + 1;
}

StatusOr<std::unique_ptr<CoarseCehDecayedSum>> CoarseCehDecayedSum::Create(
    DecayPtr decay, const Options& options) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  if (!(options.epsilon > 0.0) || options.epsilon > 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1]");
  }
  if (!(options.boundary_delta > 0.0)) {
    return Status::InvalidArgument("boundary_delta must be > 0");
  }
  return std::unique_ptr<CoarseCehDecayedSum>(
      new CoarseCehDecayedSum(std::move(decay), options));
}

void CoarseCehDecayedSum::AdvanceTo(Tick t) {
  TDS_CHECK_GE(t, now_);
  const Tick gap = t - now_;
  now_ = t;
  if (gap == 0) return;
  // The stochastic aging sweep consumes the shared RNG in ascending-class
  // order, oldest bucket first within a class; snapshots carry the RNG
  // state, so this order is part of the format.
  flat_.ForEachSegmentAscendingClass(
      [this, gap](size_t, size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) {
          ApproxAge& age = flat_.stamp(k);
          age.Advance(gap, rng_);
          max_age_seen_ = std::max(max_age_seen_, age.Estimate());
        }
      });
  Expire();
}

void CoarseCehDecayedSum::Update(Tick t, uint64_t value) {
  AdvanceTo(t);
  if (value == 0) return;
  total_count_ += value;
  InsertUnits(value);
  TDS_AUDIT_MUTATION(AuditInvariants());
}

void CoarseCehDecayedSum::InsertUnits(uint64_t incoming_units) {
  // Same canonical digit arithmetic as ExponentialHistogram::InsertUnits,
  // with approximate ages in place of timestamps: all incoming buckets are
  // brand new (age 1); a merge keeps the *younger* boundary.
  const ApproxAge fresh_age(options_.boundary_delta);
  flat_.InsertUnits(incoming_units, fresh_age, cap_,
                    [](const ApproxAge& older, const ApproxAge& newer) {
                      ApproxAge merged = older;
                      merged.TakeYounger(newer);
                      return merged;
                    });
}

void CoarseCehDecayedSum::Expire() {
  const Tick horizon = decay_->Horizon();
  if (horizon == kInfiniteHorizon || total_count_ == 0) return;
  const double horizon_age = static_cast<double>(horizon);
  total_count_ -= flat_.ExpireOldest([horizon_age](const ApproxAge& age) {
    return age.Estimate() > horizon_age;
  });
}

void CoarseCehDecayedSum::Advance(Tick now) {
  AdvanceTo(now);
  TDS_AUDIT_MUTATION(AuditInvariants());
}

Status CoarseCehDecayedSum::AuditInvariants() const {
  TDS_AUDIT_CHECK(now_ >= 0, "negative clock");
  TDS_AUDIT_CHECK(std::isfinite(max_age_seen_) && max_age_seen_ >= 1.0,
                  "max age must be finite and >= 1");
  uint64_t checksum = 0;
  auto check_bucket = [&](size_t c, const ApproxAge& boundary,
                          uint64_t count) -> Status {
    TDS_AUDIT_CHECK(count == (uint64_t{1} << c),
                    "bucket count not the class power of two");
    const double age = boundary.Estimate();
    TDS_AUDIT_CHECK(std::isfinite(age) && age >= 1.0,
                    "boundary age must be finite and >= 1");
    TDS_AUDIT_CHECK(age <= max_age_seen_,
                    "boundary age past the recorded maximum");
    checksum += count;
    return Status::OK();
  };
  TDS_AUDIT_CHECK(flat_.num_classes() <= 64, "more than 64 size classes");
  size_t segment_sum = 0;
  for (size_t c = 0; c < flat_.num_classes(); ++c) {
    TDS_AUDIT_CHECK(flat_.class_size(c) <= 2 * cap_ + 2,
                    "class exceeds cap bound");
    segment_sum += flat_.class_size(c);
  }
  TDS_AUDIT_CHECK(segment_sum == flat_.size(),
                  "flat class segments disagree with bucket storage");
  Status bucket_status = Status::OK();
  flat_.ForEachSegmentAscendingClass([&](size_t c, size_t begin, size_t end) {
    for (size_t k = begin; k < end && bucket_status.ok(); ++k) {
      bucket_status = check_bucket(c, flat_.stamp(k), flat_.count(k));
    }
  });
  if (!bucket_status.ok()) return bucket_status;
  TDS_AUDIT_CHECK(checksum == total_count_,
                  "bucket counts do not sum to the total");
  return Status::OK();
}

double CoarseCehDecayedSum::Query(Tick now) const {
  TDS_CHECK_GE(now, now_);
  const double gap = static_cast<double>(now - now_);
  const Tick horizon = decay_->Horizon();
  double sum = 0.0;
  // Ascending-class order fixes the floating-point summation order, and so
  // the answer, bit for bit.
  flat_.ForEachSegmentAscendingClass([&](size_t, size_t begin, size_t end) {
    for (size_t k = begin; k < end; ++k) {
      const double age_estimate =
          std::max(1.0, flat_.stamp(k).Estimate() + gap);
      const auto age = static_cast<Tick>(std::llround(age_estimate));
      if (age > horizon) continue;
      sum += static_cast<double>(flat_.count(k)) * decay_->Weight(age);
    }
  });
  return sum;
}

size_t CoarseCehDecayedSum::BucketCount() const { return flat_.size(); }

std::vector<double> CoarseCehDecayedSum::BoundaryAges() const {
  std::vector<double> ages;
  flat_.ForEachOldestFirst([&ages](const ApproxAge& age, uint64_t) {
    ages.push_back(age.Estimate());
  });
  return ages;
}

void CoarseCehDecayedSum::EncodeState(Encoder& encoder) const {
  encoder.PutDouble(options_.epsilon);
  encoder.PutDouble(options_.boundary_delta);
  encoder.PutSigned(now_);
  encoder.PutVarint(total_count_);
  encoder.PutDouble(max_age_seen_);
  uint64_t rng_state[4];
  rng_.SaveState(rng_state);
  for (uint64_t word : rng_state) encoder.PutVarint(word);
  // Class count (emptied classes included), then each class in ascending
  // order, its buckets oldest first.
  encoder.PutVarint(flat_.num_classes());
  flat_.ForEachSegmentAscendingClass(
      [this, &encoder](size_t, size_t begin, size_t end) {
        encoder.PutVarint(end - begin);
        for (size_t k = begin; k < end; ++k) {
          flat_.stamp(k).EncodeTo(encoder);
          encoder.PutVarint(flat_.count(k));
        }
      });
}

Status CoarseCehDecayedSum::DecodeState(Decoder& decoder) {
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
  struct Bucket {
    ApproxAge age;
    uint64_t count = 0;
  };
  std::vector<std::vector<Bucket>> decoded(class_count);
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
  flat_.AssignFromClasses(
      decoded, [](const Bucket& b) { return b.age; },
      [](const Bucket& b) { return b.count; });
  if (checksum != total_count_) return CorruptSnapshot("CoarseCEH total");
  // Hostile-snapshot funnel: reject blobs whose state fails the audit.
  const Status audit = AuditInvariants();
  if (!audit.ok()) {
    return Status::InvalidArgument("corrupt snapshot: " + audit.message());
  }
  return Status::OK();
}

size_t CoarseCehDecayedSum::StorageBits() const {
  // Per bucket: an O(log log N) boundary plus a count exponent (counts are
  // powers of two). One exact clock register is charged once.
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

}  // namespace tds
