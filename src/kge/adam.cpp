#include "kge/adam.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace dynkge::kge {

RowAdam::RowAdam(std::int32_t rows, std::int32_t width, AdamConfig config)
    : config_(config), m_(rows, width), v_(rows, width) {}

void RowAdam::set_step(std::int64_t step) {
  step_ = step;
  bias1_ = 1.0 - std::pow(config_.beta1, static_cast<double>(step_));
  bias2_ = 1.0 - std::pow(config_.beta2, static_cast<double>(step_));
  inv_bias1_ = 1.0 / bias1_;
  inv_bias2_ = 1.0 / bias2_;
}

void RowAdam::begin_step() { set_step(step_ + 1); }

void RowAdam::restore(std::int64_t step, EmbeddingMatrix m,
                      EmbeddingMatrix v) {
  if (step < 0) {
    throw std::invalid_argument("RowAdam::restore: negative step");
  }
  if (m.rows() != m_.rows() || m.width() != m_.width() ||
      v.rows() != v_.rows() || v.width() != v_.width()) {
    throw std::invalid_argument(
        "RowAdam::restore: moment shape mismatch (optimizer is " +
        std::to_string(m_.rows()) + "x" + std::to_string(m_.width()) +
        ", checkpoint has " + std::to_string(m.rows()) + "x" +
        std::to_string(m.width()) + ")");
  }
  set_step(step);
  m_ = std::move(m);
  v_ = std::move(v);
}

}  // namespace dynkge::kge
