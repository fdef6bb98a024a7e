// The UPDATE functions of the generic anti-entropy scheme (paper fig. 1,
// §3, §5). Each is a tiny stateless policy: given the two exchanged
// estimates it returns the value *both* peers install. The choice of
// function decides the aggregate:
//
//   AverageUpdate        (a+b)/2    -> arithmetic mean (conserves the sum)
//   MinUpdate            min(a,b)   -> global minimum (epidemic broadcast)
//   MaxUpdate            max(a,b)   -> global maximum (epidemic broadcast)
//   GeometricMeanUpdate  sqrt(a*b)  -> geometric mean (conserves product)
//
// COUNT / SUM / PRODUCT / VARIANCE are built from these (src/core/count.hpp
// and src/core/derived.hpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>

#include "common/require.hpp"

namespace gossip::core {

/// An UPDATE policy: symmetric binary function on estimates.
template <typename F>
concept UpdateFunction = requires(double a, double b) {
  { F::apply(a, b) } -> std::same_as<double>;
};

struct AverageUpdate {
  static double apply(double a, double b) { return (a + b) / 2.0; }
};

struct MinUpdate {
  static double apply(double a, double b) { return std::min(a, b); }
};

struct MaxUpdate {
  static double apply(double a, double b) { return std::max(a, b); }
};

struct GeometricMeanUpdate {
  static double apply(double a, double b) {
    GOSSIP_REQUIRE(a >= 0.0 && b >= 0.0,
                   "geometric mean needs non-negative estimates");
    return std::sqrt(a * b);
  }
};

static_assert(UpdateFunction<AverageUpdate>);
static_assert(UpdateFunction<MinUpdate>);
static_assert(UpdateFunction<MaxUpdate>);
static_assert(UpdateFunction<GeometricMeanUpdate>);

/// Runtime-selectable update function, for engines configured by value
/// (the cycle driver, the event-driven node). The static policies above
/// remain for compile-time composition.
enum class UpdateKind { kAverage, kMin, kMax, kGeometric };

inline double apply_update(UpdateKind kind, double a, double b) {
  switch (kind) {
    case UpdateKind::kAverage: return AverageUpdate::apply(a, b);
    case UpdateKind::kMin: return MinUpdate::apply(a, b);
    case UpdateKind::kMax: return MaxUpdate::apply(a, b);
    case UpdateKind::kGeometric: return GeometricMeanUpdate::apply(a, b);
  }
  GOSSIP_REQUIRE(false, "unreachable update kind");
}

/// One exchange over t concurrent instance lanes (§7.3): the rows `p`
/// and `q` of two distinct nodes, which never overlap. A completed
/// exchange installs F(p[i], q[i]) on both rows; when the response is
/// lost only the passive peer's row `q` does. Each loop is free of
/// branches for every policy but the geometric mean's precondition, so
/// it vectorizes (the lane_kernels_vectorized ctest checks it does).
template <UpdateFunction F>
inline void update_lanes(double* __restrict p, double* __restrict q,
                         std::size_t lanes, bool completed) {
  if (completed) {
    for (std::size_t i = 0; i < lanes; ++i) {  // hot-kernel: update-both
      const double u = F::apply(p[i], q[i]);
      p[i] = u;
      q[i] = u;
    }
  } else {
    for (std::size_t i = 0; i < lanes; ++i) {  // hot-kernel: update-passive
      q[i] = F::apply(p[i], q[i]);
    }
  }
}

/// update_lanes under the policy `kind` names: the one dispatch per
/// exchange, outside the lane loop.
[[gnu::always_inline]] inline void update_lanes(UpdateKind kind, double* p,
                                                double* q, std::size_t lanes,
                                                bool completed) {
  switch (kind) {
    case UpdateKind::kAverage:
      return update_lanes<AverageUpdate>(p, q, lanes, completed);
    case UpdateKind::kMin:
      return update_lanes<MinUpdate>(p, q, lanes, completed);
    case UpdateKind::kMax:
      return update_lanes<MaxUpdate>(p, q, lanes, completed);
    case UpdateKind::kGeometric:
      return update_lanes<GeometricMeanUpdate>(p, q, lanes, completed);
  }
  GOSSIP_REQUIRE(false, "unreachable update kind");
}

}  // namespace gossip::core
