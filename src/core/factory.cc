#include "core/factory.h"

#include <cmath>

#include "core/ceh.h"
#include "core/coarse_ceh.h"
#include "core/ewma.h"
#include "core/exact.h"
#include "core/polyexp_counter.h"
#include "core/recent_items.h"
#include "core/wbmh.h"
#include "decay/exponential.h"
#include "decay/polyexponential.h"
#include "decay/sliding_window.h"

namespace tds {

namespace {

Backend ResolveAuto(const DecayFunction& decay) {
  if (dynamic_cast<const ExponentialDecay*>(&decay) != nullptr) {
    return Backend::kEwma;
  }
  if (dynamic_cast<const PolyExponentialDecay*>(&decay) != nullptr ||
      dynamic_cast<const GeneralPolyExpDecay*>(&decay) != nullptr) {
    return Backend::kPolyExp;
  }
  if (dynamic_cast<const SlidingWindowDecay*>(&decay) != nullptr) {
    return Backend::kCeh;  // CEH over SLIWIN reduces to the plain EH
  }
  // WBMH beats CEH exactly when its bucket count O(log D(g)) is small —
  // polynomial and sub-polynomial decays (Section 5); other admissible
  // decays could have near-linear D (handled above for pure EXPD).
  if (decay.IsWbmhAdmissible()) return Backend::kWbmh;
  return Backend::kCeh;
}

template <typename T>
StatusOr<std::unique_ptr<DecayedAggregate>> Upcast(
    StatusOr<std::unique_ptr<T>> result) {
  if (!result.ok()) return result.status();
  return std::unique_ptr<DecayedAggregate>(std::move(result).value());
}

}  // namespace

Backend ResolveBackend(const DecayFunction& decay, Backend requested) {
  return requested == Backend::kAuto ? ResolveAuto(decay) : requested;
}

StatusOr<AggregateOptions> AggregateOptions::Builder::Build() const {
  if (!std::isfinite(options_.epsilon_) || !(options_.epsilon_ > 0.0) ||
      options_.epsilon_ > 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1]");
  }
  if (options_.start_ < 1) {
    return Status::InvalidArgument("start tick must be >= 1");
  }
  return options_;
}

StatusOr<std::unique_ptr<DecayedAggregate>> MakeDecayedSum(
    DecayPtr decay, const AggregateOptions& options) {
  if (decay == nullptr) {
    return Status::InvalidArgument("decay function required");
  }
  const Backend backend = ResolveBackend(*decay, options.backend());
  switch (backend) {
    case Backend::kExact:
      return Upcast(ExactDecayedSum::Create(std::move(decay)));
    case Backend::kEwma: {
      EwmaCounter::Options ewma_options;
      return Upcast(EwmaCounter::Create(std::move(decay), ewma_options));
    }
    case Backend::kRecentItems: {
      RecentItemsExpCounter::Options recent_options;
      recent_options.epsilon = options.epsilon();
      return Upcast(
          RecentItemsExpCounter::Create(std::move(decay), recent_options));
    }
    case Backend::kCeh: {
      CehDecayedSum::Options ceh_options;
      ceh_options.epsilon = options.epsilon();
      return Upcast(CehDecayedSum::Create(std::move(decay), ceh_options));
    }
    case Backend::kCoarseCeh: {
      CoarseCehDecayedSum::Options coarse_options;
      coarse_options.epsilon = options.epsilon();
      return Upcast(
          CoarseCehDecayedSum::Create(std::move(decay), coarse_options));
    }
    case Backend::kWbmh: {
      WbmhDecayedSum::Options wbmh_options;
      wbmh_options.epsilon = options.epsilon();
      wbmh_options.start = options.start();
      return Upcast(WbmhDecayedSum::Create(std::move(decay), wbmh_options));
    }
    case Backend::kPolyExp:
      return Upcast(PolyExpCounter::Create(std::move(decay)));
    case Backend::kAuto:
      break;
  }
  return Status::InvalidArgument("unknown backend");
}

StatusOr<DecayedAverage> MakeDecayedAverage(DecayPtr decay,
                                            const AggregateOptions& options) {
  auto sum = MakeDecayedSum(decay, options);
  if (!sum.ok()) return sum.status();
  auto count = MakeDecayedSum(decay, options);
  if (!count.ok()) return count.status();
  return DecayedAverage::Create(std::move(sum).value(),
                                std::move(count).value());
}

}  // namespace tds
