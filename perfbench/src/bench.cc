#include "bench.h"

#include <cmath>
#include <fstream>
#include <numeric>
#include <utility>

namespace perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // leaked: outlives every thread
  return *tracer;
}

Tracer::ThreadBuffer& Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    local = buffers_.back().get();
    local->thread = static_cast<uint32_t>(buffers_.size() - 1);
    local->spans.reserve(1 << 16);
  }
  return *local;
}

int32_t Tracer::Begin(const char* name) {
  if (!enabled()) return -1;
  ThreadBuffer& buf = Local();
  Span span;
  span.name = name;
  span.parent = buf.open.empty() ? -1 : buf.open.back();
  span.thread = buf.thread;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  const auto index = static_cast<int32_t>(buf.spans.size());
  buf.spans.push_back(span);
  buf.open.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  if (index < 0) return;
  ThreadBuffer& buf = Local();
  buf.spans[static_cast<size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  buf.open.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Totals> totals;
  for (const auto& buf : buffers_) {
    std::vector<int64_t> child_ns(buf->spans.size(), 0);
    for (const Span& span : buf->spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < buf->spans.size(); ++i) {
      const Span& span = buf->spans[i];
      const int64_t dur = span.end_ns - span.start_ns;
      Totals& t = totals[span.name];
      t.total_s += static_cast<double>(dur) * 1e-9;
      t.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
      ++t.count;
    }
  }
  return totals;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& buf : buffers_) {
    for (size_t i = 0; i < buf->spans.size(); ++i) {
      const Span& s = buf->spans[i];
      out << "{\"name\":\"" << s.name << "\",\"thread\":" << s.thread
          << ",\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
  }
  return static_cast<bool>(out);
}

void Result::Fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

bool Result::Check(const tds::Status& status, const char* what) {
  ++attempted_;
  if (status.ok()) return true;
  Fail(std::string(what) + ": " + status.ToString());
  return false;
}

bool Result::Expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) Fail(what);
  return ok;
}

void HotStream::NextTick(tds::Tick t, std::vector<tds::KeyedItem>* out) {
  uint64_t active[kActiveFlows];
  for (uint64_t& key : active) {
    const double u = rng_.NextOpenDouble();
    // Clamped before the cast: 1/u^2 can exceed 2^64 for tiny u.
    const auto rank = static_cast<uint64_t>(
        std::min(1.0 / (u * u), static_cast<double>(key_space_)));
    key = std::min(rank - 1, key_space_ - 1);
  }
  for (size_t i = 0; i < refresh_; ++i) {
    out->push_back(tds::KeyedItem{refresh_cursor_, t, 1});
    refresh_cursor_ = (refresh_cursor_ + 1) % key_space_;
  }
  for (size_t i = refresh_; i < kBlock; ++i) {
    out->push_back(tds::KeyedItem{active[rng_.NextBelow(kActiveFlows)], t,
                                  1 + rng_.NextBelow(4)});
  }
}

ColdStream::ColdStream(uint64_t seed, uint64_t population, size_t block)
    : rng_(seed), perm_(population), pos_(population), block_(block) {
  std::iota(perm_.begin(), perm_.end(), uint64_t{0});
}

void ColdStream::NextTick(tds::Tick t, std::vector<tds::KeyedItem>* out) {
  for (size_t i = 0; i < block_; ++i) {
    if (pos_ >= perm_.size()) {
      for (size_t j = perm_.size() - 1; j > 0; --j) {
        std::swap(perm_[j], perm_[rng_.NextBelow(j + 1)]);
      }
      pos_ = 0;
    }
    out->push_back(tds::KeyedItem{perm_[pos_++], t, 1 + rng_.NextBelow(4)});
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
