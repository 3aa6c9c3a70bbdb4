// Blocked Adam application: one call retires every row of a SparseGrad
// (update_listed_rows: every row whose id is listed).
//
// Determinism contract (DESIGN.md "Blocked training kernels"): rows are
// visited in ascending id order, and every element's parameter moves by
// float(r) for the contract's step r (exact_step below: each operation one
// IEEE double rounding, in that order), on every kernel body. The per-row
// reference in tests/adam_reference.hpp writes the same arithmetic out
// element by element, and test_adam and test_block_kernels compare this
// file's bytes against it on each body.
//
// The AVX-512F body computes most elements from reciprocal and square-root
// estimates (estimate_lanes) and keeps such an element only where a
// rounding test proves the estimate rounds to float(r); every other
// element, and every element of the other bodies, takes exact_step.
//
// This translation unit is compiled with -fno-math-errno (value-safe: only
// libm's errno side effect is dropped) so the exact loop, which carries a
// double sqrt, vectorizes.

#include <bit>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "kge/adam.hpp"
#include "kge/kernel_dispatch.hpp"
#include "kge/prefetch.hpp"

#if defined(DYNKGE_KERNEL_HAS_AVX512F)
#include <immintrin.h>
#endif

namespace dynkge::kge {
namespace {

/// One call's scalars, loaded once.
struct AdamStep {
  float b1;  ///< float(beta1)
  float b2;  ///< float(beta2)
  float wd;  ///< float(weight_decay)
  double lr;
  double bias1;  ///< 1 - beta1^t
  double bias2;  ///< 1 - beta2^t
  double inv_bias1;  ///< 1 / bias1, for the estimate lane
  double inv_bias2;  ///< 1 / bias2, for the estimate lane
  double epsilon;
  /// lr, epsilon and the two reciprocals lie in the estimate lane's
  /// domain (in_lane_domain), so the lane may run.
  bool lanes;
};

/// The contract's step for an element's updated moments: r = lr * m_hat /
/// (sqrt(v_hat) + epsilon) with m_hat = m / (1 - beta1^t) and v_hat = v /
/// (1 - beta2^t), one IEEE double rounding per operation, in this order.
/// x / 1.0 == x for every double, and 1 - beta1^t rounds to 1.0 once
/// beta1^t < 2^-54 (t >= 356 at beta1 = 0.9): those steps skip a divide.
[[gnu::always_inline]] inline double exact_step(float m, float v,
                                                const AdamStep& s) {
  const double m_hat = s.bias1 == 1.0 ? m : m / s.bias1;
  const double v_hat = v / s.bias2;
  return s.lr * m_hat / (std::sqrt(v_hat) + s.epsilon);
}

/// Elements [begin, n) of a row: the moments' float update, then the
/// parameter moves by float(exact_step).
[[gnu::always_inline]] inline void exact_elements(
    const float* __restrict g, float* __restrict p, float* __restrict m,
    float* __restrict v, std::size_t begin, std::size_t n,
    const AdamStep& s) {
  for (std::size_t i = begin; i < n; ++i) {
    const float gi = g[i] + s.wd * p[i];
    m[i] = s.b1 * m[i] + (1.0f - s.b1) * gi;
    v[i] = s.b2 * v[i] + (1.0f - s.b2) * gi * gi;
    p[i] -= static_cast<float>(exact_step(m[i], v[i], s));
  }
}

/// The step scalars for which DESIGN.md §10's error bound of the estimate
/// lane holds: with every float moment finite, every intermediate of both
/// the lane and exact_step is then a normal double (the per-lane mask
/// admits finite moments with a positive v only).
bool in_lane_domain(double lr, double epsilon, double inv_bias1,
                    double inv_bias2) {
  constexpr double kLow = 0x1p-64;
  constexpr double kHigh = 0x1p64;
  return lr >= kLow && lr <= kHigh && epsilon >= 0.0 && epsilon <= kHigh &&
         inv_bias1 >= kLow && inv_bias1 <= kHigh && inv_bias2 >= kLow &&
         inv_bias2 <= kHigh;
}

/// Elements from the start of a row that a body's estimate lane updated.
/// Bodies without double-precision estimates update none.
template <std::size_t kWidth>
[[gnu::always_inline]] inline std::size_t estimate_lanes(
    const float* /*g*/, float* /*p*/, float* /*m*/, float* /*v*/,
    std::size_t /*n*/, const AdamStep& /*s*/) {
  return 0;
}

#if defined(DYNKGE_KERNEL_HAS_AVX512F)

/// The lane's rounding test admits an estimate r' when r'(1 - kDelta) and
/// r'(1 + kDelta) round to one float. DESIGN.md §10 bounds |r - r'| by
/// 20 * 2^-53 |r'| on the lane's domain; with the rounding of the two
/// endpoints, any kDelta >= 21 * 2^-53 (about 2^-48.6) is sound, and
/// 2^-40 is about 390 times that.
constexpr double kDelta = 0x1p-40;

/// One Newton step towards 1/sqrt(x), given x/2: y (3/2 - (x/2) y y).
[[gnu::always_inline]] inline __attribute__((target("avx512f"))) __m512d
rsqrt_newton(__m512d half_x, __m512d y) {
  const __m512d t = _mm512_mul_pd(_mm512_mul_pd(half_x, y), y);
  return _mm512_mul_pd(y, _mm512_sub_pd(_mm512_set1_pd(1.5), t));
}

/// One Newton step towards 1/d: z (2 - d z).
[[gnu::always_inline]] inline __attribute__((target("avx512f"))) __m512d
rcp_newton(__m512d d, __m512d z) {
  return _mm512_mul_pd(
      z, _mm512_sub_pd(_mm512_set1_pd(2.0), _mm512_mul_pd(d, z)));
}

/// `steps` with the lanes set in `exact` replaced by exact_step's float
/// for the updated moments m[0..7] and v[0..7].
[[gnu::always_inline]] inline __attribute__((target("avx512f"))) __m256
exact_lanes(__m256 steps, unsigned exact, const float* m, const float* v,
            const AdamStep& s) {
  alignas(32) float out[8];
  _mm256_store_ps(out, steps);
  for (; exact != 0; exact &= exact - 1) {
    const int j = std::countr_zero(exact);
    out[j] = static_cast<float>(exact_step(m[j], v[j], s));
  }
  return _mm256_load_ps(out);
}

/// The AVX-512F body's lane: eight elements at a time, their moments
/// updated in float as exact_elements does, then their steps from 8
/// doubles:
///  - m_hat' = m * (1 / bias1), v_hat' = v * (1 / bias2);
///  - y ~ 1/sqrt(v_hat') from vrsqrt14pd, z ~ 1/d' from vrcp14pd, each
///    with two Newton steps, for d' = v_hat' y + epsilon;
///  - r' = (lr m_hat') z.
/// No multiply-add is fused (the file is built with -ffp-contract=off).
/// An element keeps float(r'(1 - kDelta)) when that equals float(r'(1 +
/// kDelta)) under an ordered compare (a NaN fails it) and its moments
/// lie in the domain of the error bound: v_hat' a finite normal double
/// and m_hat' finite. Every other element takes exact_step.
template <>
[[gnu::always_inline]] inline __attribute__((target("avx512f"))) std::size_t
estimate_lanes<8>(const float* __restrict g, float* __restrict p,
                  float* __restrict m, float* __restrict v, std::size_t n,
                  const AdamStep& s) {
  if (!s.lanes) return 0;
  const __m256 wd = _mm256_set1_ps(s.wd);
  const __m256 b1 = _mm256_set1_ps(s.b1);
  const __m256 b2 = _mm256_set1_ps(s.b2);
  const __m256 one_minus_b1 = _mm256_set1_ps(1.0f - s.b1);
  const __m256 one_minus_b2 = _mm256_set1_ps(1.0f - s.b2);
  const __m512d inv_bias1 = _mm512_set1_pd(s.inv_bias1);
  const __m512d inv_bias2 = _mm512_set1_pd(s.inv_bias2);
  const __m512d lr = _mm512_set1_pd(s.lr);
  const __m512d epsilon = _mm512_set1_pd(s.epsilon);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d below = _mm512_set1_pd(1.0 - kDelta);
  const __m512d above = _mm512_set1_pd(1.0 + kDelta);
  const __m512d normal_min = _mm512_set1_pd(0x1p-1022);
  const __m512d finite_max = _mm512_set1_pd(0x1.fffffffffffffp+1023);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 p8 = _mm256_loadu_ps(p + i);
    const __m256 gi = _mm256_add_ps(_mm256_loadu_ps(g + i),
                                    _mm256_mul_ps(wd, p8));
    const __m256 m8 = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(one_minus_b1, gi));
    const __m256 v8 = _mm256_add_ps(
        _mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
        _mm256_mul_ps(_mm256_mul_ps(one_minus_b2, gi), gi));
    _mm256_storeu_ps(m + i, m8);
    _mm256_storeu_ps(v + i, v8);

    // The zero-masked forms with every lane set are the plain instructions;
    // GCC 12's unmasked intrinsics read an undefined source and warn.
    const __m512d m_hat =
        _mm512_mul_pd(_mm512_maskz_cvtps_pd(0xFF, m8), inv_bias1);
    const __m512d v_hat =
        _mm512_mul_pd(_mm512_maskz_cvtps_pd(0xFF, v8), inv_bias2);
    const __m512d half_v = _mm512_mul_pd(half, v_hat);
    __m512d y = _mm512_maskz_rsqrt14_pd(0xFF, v_hat);
    y = rsqrt_newton(half_v, rsqrt_newton(half_v, y));
    const __m512d d = _mm512_add_pd(_mm512_mul_pd(v_hat, y), epsilon);
    __m512d z = _mm512_maskz_rcp14_pd(0xFF, d);
    z = rcp_newton(d, rcp_newton(d, z));
    const __m512d r = _mm512_mul_pd(_mm512_mul_pd(lr, m_hat), z);
    const __m256 low = _mm512_maskz_cvtpd_ps(0xFF, _mm512_mul_pd(r, below));
    const __m256 high = _mm512_maskz_cvtpd_ps(0xFF, _mm512_mul_pd(r, above));

    const unsigned in_domain =
        _mm512_cmp_pd_mask(v_hat, normal_min, _CMP_GE_OQ) &
        _mm512_cmp_pd_mask(v_hat, finite_max, _CMP_LE_OQ) &
        _mm512_cmp_pd_mask(_mm512_abs_pd(m_hat), finite_max, _CMP_LE_OQ);
    const unsigned rounded = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(low, high, _CMP_EQ_OQ)));
    const unsigned exact = ~(in_domain & rounded) & 0xFFu;
    __m256 steps = low;
    if (exact != 0) [[unlikely]] {
      steps = exact_lanes(steps, exact, m + i, v + i, s);
    }
    _mm256_storeu_ps(p + i, _mm256_sub_ps(p8, steps));
  }
  return i;
}

#endif  // DYNKGE_KERNEL_HAS_AVX512F

// One row's update, one version per kernel body: the body's estimate
// lane, then exact_elements for the rest of the row.
#define DYNKGE_ADAM_ROW(attribute, width)                                  \
  attribute void adam_row(const float* __restrict g, float* __restrict p,  \
                          float* __restrict m, float* __restrict v,        \
                          std::size_t n, const AdamStep& step) {           \
    const AdamStep s = step;                                               \
    exact_elements(g, p, m, v, estimate_lanes<width>(g, p, m, v, n, s), n, \
                   s);                                                     \
  }
DYNKGE_KERNEL_BODIES(DYNKGE_ADAM_ROW)
#undef DYNKGE_ADAM_ROW

/// A row to update: its gradient, parameter and moment rows.
struct AdamRow {
  const float* g = nullptr;
  float* p = nullptr;
  float* m = nullptr;
  float* v = nullptr;
};

}  // namespace

template <typename NextRow>
std::size_t RowAdam::update_each(const char* caller, const SparseGrad& grads,
                                 const EmbeddingMatrix& params,
                                 NextRow next) {
  if (step_ == 0) {
    throw std::logic_error(std::string(caller) + " before begin_step");
  }
  if (grads.width() != params.width()) {
    throw std::invalid_argument("RowAdam: gradient width mismatch");
  }
  const AdamStep s{static_cast<float>(config_.beta1),
                   static_cast<float>(config_.beta2),
                   static_cast<float>(config_.weight_decay),
                   config_.learning_rate,
                   bias1_,
                   bias2_,
                   inv_bias1_,
                   inv_bias2_,
                   config_.epsilon,
                   in_lane_domain(config_.learning_rate, config_.epsilon,
                                  inv_bias1_, inv_bias2_)};
  const auto n = static_cast<std::size_t>(params.width());
  // While a row is updated, the next row's gradient, parameter and moment
  // rows load: ascending ids visit the parameter and moment tables, and
  // the gradient arena (in first-touch order), at scattered rows.
  AdamRow row;
  if (!next(row)) return 0;
  std::size_t updated = 0;
  for (bool more = true; more;) {
    AdamRow ahead;
    more = next(ahead);
    if (more) {
      prefetch_row({ahead.g, n});
      prefetch_row({ahead.p, n});
      prefetch_row({ahead.m, n});
      prefetch_row({ahead.v, n});
    }
    adam_row(row.g, row.p, row.m, row.v, n, s);
    ++updated;
    row = ahead;
  }
  return updated;
}

void RowAdam::update_rows(const SparseGrad& grads, EmbeddingMatrix& params) {
  const auto& slots = grads.sorted_slots();
  std::size_t k = 0;
  update_each("RowAdam::update_rows", grads, params, [&](AdamRow& row) {
    if (k == slots.size()) return false;
    const SparseGrad::SlotRef& slot = slots[k++];
    row = {grads.row_at(slot.offset).data(), params.row(slot.id).data(),
           m_.row(slot.id).data(), v_.row(slot.id).data()};
    return true;
  });
}

void RowAdam::update_rows_scaled(SparseGrad& grads, float scale,
                                 EmbeddingMatrix& params) {
  const auto& slots = grads.sorted_slots();
  std::size_t k = 0;
  update_each("RowAdam::update_rows_scaled", grads, params,
              [&](AdamRow& row) {
                if (k == slots.size()) return false;
                const SparseGrad::SlotRef& slot = slots[k++];
                // Each row is scaled in full before its update reads it.
                const std::span<float> g = grads.row_at(slot.offset);
                for (float& x : g) x *= scale;
                row = {g.data(), params.row(slot.id).data(),
                       m_.row(slot.id).data(), v_.row(slot.id).data()};
                return true;
              });
}

std::size_t RowAdam::update_listed_rows(const SparseGrad& grads,
                                        std::span<const std::int32_t> rows,
                                        EmbeddingMatrix& params) {
  if (rows.size() != static_cast<std::size_t>(m_.rows())) {
    throw std::invalid_argument(
        "RowAdam::update_listed_rows: one moment row per listed row");
  }
  // Both sequences ascend, so one forward walk pairs each gradient row
  // with its rank in `rows`.
  const auto& slots = grads.sorted_slots();
  std::size_t k = 0;
  std::size_t rank = 0;
  return update_each(
      "RowAdam::update_listed_rows", grads, params, [&](AdamRow& row) {
        while (k < slots.size()) {
          const SparseGrad::SlotRef& slot = slots[k++];
          while (rank < rows.size() && rows[rank] < slot.id) ++rank;
          if (rank == rows.size()) return false;
          if (rows[rank] != slot.id) continue;
          const auto moment = static_cast<std::int32_t>(rank);
          row = {grads.row_at(slot.offset).data(),
                 params.row(slot.id).data(), m_.row(moment).data(),
                 v_.row(moment).data()};
          return true;
        }
        return false;
      });
}

}  // namespace dynkge::kge
