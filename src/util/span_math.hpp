// Small dense-vector kernels: the row norms and magnitudes the gradient
// selectors and quantizers read.
//
// Kernel design notes (see DESIGN.md "Blocked training kernels"):
//
//  * Loop shapes, not intrinsics. Every kernel is a plain loop written so
//    the auto-vectorizer can do the work: independent elementwise ops, no
//    loop-carried dependence except explicit accumulation chains, span
//    sizes hoisted out of the condition. What actually blocks
//    vectorization in this codebase is not missing intrinsics but libm
//    errno side effects (std::sqrt) — the blocked-kernel translation
//    units are compiled with -fno-math-errno (value-safe: IEEE results
//    are unchanged) to lift that; see src/kge/CMakeLists.txt.
//
//  * Determinism contract. Reduction kernels (nrm2, asum) accumulate in
//    double along a single left-to-right chain and must never be
//    reassociated: the trainer's byte-identity guarantees depend on every
//    mode producing the same accumulation order. The score kernels
//    (src/kge/block_kernels.cpp) get their throughput from many such
//    chains side by side, never from splitting one.
//
//  * No FMA contraction. The build targets baseline x86-64 (no -mfma), so
//    a*b+c compiles to mul+add, rounded twice, on every host.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

namespace dynkge::util {

/// Euclidean norm.
inline double nrm2(std::span<const float> x) noexcept {
  double acc = 0.0;
  for (const float v : x) acc += static_cast<double>(v) * v;
  return std::sqrt(acc);
}

/// L1 norm.
inline double asum(std::span<const float> x) noexcept {
  double acc = 0.0;
  for (const float v : x) acc += std::fabs(v);
  return acc;
}

/// max_i |x[i]|; 0 for an empty span.
inline float amax(std::span<const float> x) noexcept {
  float m = 0.0f;
  for (const float v : x) m = std::max(m, std::fabs(v));
  return m;
}

/// mean_i |x[i]|; 0 for an empty span.
inline float amean(std::span<const float> x) noexcept {
  if (x.empty()) return 0.0f;
  return static_cast<float>(asum(x) / static_cast<double>(x.size()));
}

}  // namespace dynkge::util
