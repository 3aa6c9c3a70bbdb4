// The per-row Adam that the blocked update (src/kge/adam_block.cpp) is
// checked against: the determinism contract's arithmetic written out one
// element at a time, with its own moments and step, built with the tests'
// default flags. It divides by 1 - beta1^t on every step, also once that
// is 1.0, and computes every element with divides and a square root, so it
// shares neither the blocked form's skipped divide nor its estimate lane.
// test_adam and test_block_kernels compare RowAdam's bytes with it.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

#include "kge/adam.hpp"
#include "kge/embedding.hpp"

namespace dynkge::testing_util {

class ReferenceAdam {
 public:
  ReferenceAdam(std::int32_t rows, std::int32_t width,
                kge::AdamConfig config = {})
      : config_(config), m_(rows, width), v_(rows, width) {}

  void begin_step() { ++step_; }

  /// The state after `step` steps, as RowAdam::restore takes it.
  void restore(std::int64_t step, kge::EmbeddingMatrix m,
               kge::EmbeddingMatrix v) {
    step_ = step;
    m_ = std::move(m);
    v_ = std::move(v);
  }

  void set_learning_rate(double lr) { config_.learning_rate = lr; }

  /// One Adam update of params.row(row) with gradient `grad`.
  void update_row(std::int32_t row, std::span<const float> grad,
                  kge::EmbeddingMatrix& params) {
    if (step_ == 0) {
      throw std::logic_error("ReferenceAdam::update_row before begin_step");
    }
    auto p = params.row(row);
    auto m = m_.row(row);
    auto v = v_.row(row);
    if (grad.size() != p.size()) {
      throw std::invalid_argument("ReferenceAdam: gradient width mismatch");
    }
    const double t = static_cast<double>(step_);
    const double bias1 = 1.0 - std::pow(config_.beta1, t);
    const double bias2 = 1.0 - std::pow(config_.beta2, t);
    const auto b1 = static_cast<float>(config_.beta1);
    const auto b2 = static_cast<float>(config_.beta2);
    const auto wd = static_cast<float>(config_.weight_decay);
    const double lr = config_.learning_rate;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const float g = grad[i] + wd * p[i];
      m[i] = b1 * m[i] + (1.0f - b1) * g;
      v[i] = b2 * v[i] + (1.0f - b2) * g * g;
      const double m_hat = m[i] / bias1;
      const double v_hat = v[i] / bias2;
      p[i] -= static_cast<float>(lr * m_hat /
                                 (std::sqrt(v_hat) + config_.epsilon));
    }
  }

  const kge::EmbeddingMatrix& moment1() const { return m_; }
  const kge::EmbeddingMatrix& moment2() const { return v_; }

 private:
  kge::AdamConfig config_;
  std::int64_t step_ = 0;
  kge::EmbeddingMatrix m_;
  kge::EmbeddingMatrix v_;
};

}  // namespace dynkge::testing_util
