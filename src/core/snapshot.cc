#include "core/snapshot.h"

#include "core/ceh.h"
#include "core/decayed_average.h"
#include "core/coarse_ceh.h"
#include "core/ewma.h"
#include "core/exact.h"
#include "core/polyexp_counter.h"
#include "core/recent_items.h"
#include "core/wbmh.h"
#include "sketch/decayed_lp_norm.h"
#include "util/audit.h"
#include "util/codec.h"

namespace tds {

namespace {

constexpr std::string_view kMagic = "TDS1";

template <typename T>
Status EncodePayload(T& structure, Encoder& encoder) {
  structure.EncodeState(encoder);
  return Status::OK();
}

// WBMH's EncodeState is itself fallible.
Status EncodePayload(WbmhDecayedSum& structure, Encoder& encoder) {
  return structure.EncodeState(encoder);
}

}  // namespace

Status EncodeDecayedSum(DecayedAggregate& aggregate, std::string* out) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  Encoder payload_encoder;
  const std::string name = aggregate.Name();
  Status status;
  if (auto* p = dynamic_cast<ExactDecayedSum*>(&aggregate)) {
    status = EncodePayload(*p, payload_encoder);
  } else if (auto* p = dynamic_cast<EwmaCounter*>(&aggregate)) {
    status = EncodePayload(*p, payload_encoder);
  } else if (auto* p = dynamic_cast<RecentItemsExpCounter*>(&aggregate)) {
    status = EncodePayload(*p, payload_encoder);
  } else if (auto* p = dynamic_cast<PolyExpCounter*>(&aggregate)) {
    status = EncodePayload(*p, payload_encoder);
  } else if (auto* p = dynamic_cast<CehDecayedSum*>(&aggregate)) {
    status = EncodePayload(*p, payload_encoder);
  } else if (auto* p = dynamic_cast<CoarseCehDecayedSum*>(&aggregate)) {
    status = EncodePayload(*p, payload_encoder);
  } else if (auto* p = dynamic_cast<WbmhDecayedSum*>(&aggregate)) {
    status = EncodePayload(*p, payload_encoder);
  } else {
    return Status::Unimplemented("no snapshot support for " + name);
  }
  if (!status.ok()) return status;

  Encoder encoder;
  encoder.PutString(kMagic);
  encoder.PutString(name);
  encoder.PutString(aggregate.decay()->Name());
  std::string payload = payload_encoder.Finish();
  encoder.PutString(payload);
  *out = encoder.Finish();
  return Status::OK();
}

StatusOr<std::unique_ptr<DecayedAggregate>> DecodeDecayedSum(
    DecayPtr decay, std::string_view data) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  Decoder decoder(data);
  std::string magic, type, decay_name, payload;
  if (!decoder.GetString(&magic) || magic != kMagic) {
    return CorruptSnapshot("bad magic");
  }
  if (!decoder.GetString(&type) || !decoder.GetString(&decay_name) ||
      !decoder.GetString(&payload)) {
    return CorruptSnapshot("bad envelope");
  }
  if (decay_name != decay->Name()) {
    return Status::InvalidArgument(
        "snapshot was taken under decay '" + decay_name +
        "' but decoding with '" + decay->Name() + "'");
  }

  // Peek the option fields (each payload leads with them) to construct an
  // identically-configured instance, then let DecodeState verify + load.
  Decoder peek(payload);
  Decoder body(payload);
  std::unique_ptr<DecayedAggregate> result;
  Status status;

  if (type == "EXACT") {
    auto created = ExactDecayedSum::Create(std::move(decay));
    if (!created.ok()) return created.status();
    status = (*created)->DecodeState(body);
    result = std::move(created).value();
  } else if (type == "EWMA") {
    uint64_t mantissa = 0;
    if (!peek.GetVarint(&mantissa)) return CorruptSnapshot("EWMA options");
    EwmaCounter::Options options;
    options.mantissa_bits = static_cast<int>(mantissa);
    auto created = EwmaCounter::Create(std::move(decay), options);
    if (!created.ok()) return created.status();
    status = (*created)->DecodeState(body);
    result = std::move(created).value();
  } else if (type == "RECENT_ITEMS") {
    auto created = RecentItemsExpCounter::Create(std::move(decay), {});
    if (!created.ok()) return created.status();
    status = (*created)->DecodeState(body);
    result = std::move(created).value();
  } else if (type == "POLYEXP_PIPE") {
    auto created = PolyExpCounter::Create(std::move(decay));
    if (!created.ok()) return created.status();
    status = (*created)->DecodeState(body);
    result = std::move(created).value();
  } else if (type == "CEH") {
    double epsilon = 0.0;
    if (!peek.GetDouble(&epsilon)) return CorruptSnapshot("CEH options");
    CehDecayedSum::Options options;
    options.epsilon = epsilon;
    auto created = CehDecayedSum::Create(std::move(decay), options);
    if (!created.ok()) return created.status();
    status = (*created)->DecodeState(body);
    result = std::move(created).value();
  } else if (type == "COARSE_CEH") {
    CoarseCehDecayedSum::Options options;
    if (!peek.GetDouble(&options.epsilon) ||
        !peek.GetDouble(&options.boundary_delta)) {
      return CorruptSnapshot("CoarseCEH options");
    }
    auto created = CoarseCehDecayedSum::Create(std::move(decay), options);
    if (!created.ok()) return created.status();
    status = (*created)->DecodeState(body);
    result = std::move(created).value();
  } else if (type == "WBMH") {
    WbmhDecayedSum::Options options;
    int64_t start = 0;
    if (!peek.GetDouble(&options.epsilon) || !peek.GetSigned(&start)) {
      return CorruptSnapshot("WBMH options");
    }
    options.start = start;
    // The counter payload carries its own count_epsilon; it sits after the
    // variable-length layout payload, so construct permissively and let
    // DecodeState adopt it.
    options.count_epsilon = options.epsilon;
    auto created = WbmhDecayedSum::Create(std::move(decay), options);
    if (!created.ok()) return created.status();
    status = (*created)->DecodeState(body);
    result = std::move(created).value();
  } else {
    return Status::Unimplemented("unknown snapshot type: " + type);
  }
  if (!status.ok()) return status;
  return result;
}

Status EncodeDecayedLpNorm(const DecayedLpNorm& sketch, std::string* out) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  Encoder encoder;
  encoder.PutString("TDSLP1");
  encoder.PutString(sketch.decay()->Name());
  Encoder payload;
  sketch.EncodeState(payload);
  std::string payload_bytes = payload.Finish();
  encoder.PutString(payload_bytes);
  *out = encoder.Finish();
  return Status::OK();
}

StatusOr<DecayedLpNorm> DecodeDecayedLpNorm(DecayPtr decay,
                                            std::string_view data) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  Decoder decoder(data);
  std::string magic, decay_name, payload;
  if (!decoder.GetString(&magic) || magic != "TDSLP1" ||
      !decoder.GetString(&decay_name) || !decoder.GetString(&payload)) {
    return CorruptSnapshot("bad Lp envelope");
  }
  if (decay_name != decay->Name()) {
    return Status::InvalidArgument("snapshot decay mismatch");
  }
  Decoder peek(payload);
  DecayedLpNorm::Options options;
  uint64_t rows = 0, seed = 0;
  if (!peek.GetDouble(&options.p) || !peek.GetVarint(&rows) ||
      !peek.GetDouble(&options.epsilon) ||
      !peek.GetDouble(&options.quantization) || !peek.GetVarint(&seed)) {
    return CorruptSnapshot("Lp options");
  }
  options.rows = static_cast<int>(rows);
  options.seed = seed;
  auto sketch = DecayedLpNorm::Create(std::move(decay), options);
  if (!sketch.ok()) return sketch.status();
  Decoder body(payload);
  Status status = sketch->DecodeState(body);
  if (!status.ok()) return status;
  return sketch;
}

Status EncodeDecayedAverage(DecayedAverage& average, std::string* out) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  std::string sum_blob, count_blob;
  Status status = EncodeDecayedSum(average.sum_component(), &sum_blob);
  if (!status.ok()) return status;
  status = EncodeDecayedSum(average.count_component(), &count_blob);
  if (!status.ok()) return status;
  Encoder encoder;
  encoder.PutString("TDSAVG1");
  encoder.PutString(sum_blob);
  encoder.PutString(count_blob);
  *out = encoder.Finish();
  return Status::OK();
}

StatusOr<DecayedAverage> DecodeDecayedAverage(DecayPtr decay,
                                              std::string_view data) {
  Decoder decoder(data);
  std::string magic, sum_blob, count_blob;
  if (!decoder.GetString(&magic) || magic != "TDSAVG1" ||
      !decoder.GetString(&sum_blob) || !decoder.GetString(&count_blob)) {
    return CorruptSnapshot("bad average envelope");
  }
  auto sum = DecodeDecayedSum(decay, sum_blob);
  if (!sum.ok()) return sum.status();
  auto count = DecodeDecayedSum(decay, count_blob);
  if (!count.ok()) return count.status();
  return DecayedAverage::Create(std::move(sum).value(),
                                std::move(count).value());
}

Status AuditSnapshotRoundTrip(DecayedAggregate& aggregate) {
  std::string first;
  Status status = EncodeDecayedSum(aggregate, &first);
  if (!status.ok()) return status;
  auto restored = DecodeDecayedSum(aggregate.decay(), first);
  TDS_AUDIT_CHECK(restored.ok(), "decode of a fresh snapshot failed: " +
                                     restored.status().ToString());
  TDS_AUDIT_CHECK((*restored)->Name() == aggregate.Name(),
                  "restored structure type mismatch");
  std::string second;
  status = EncodeDecayedSum(**restored, &second);
  if (!status.ok()) return status;
  TDS_AUDIT_CHECK(first == second,
                  "snapshot round-trip is not byte-identical");
  return Status::OK();
}

}  // namespace tds
