// The paper's training loss (section 3.1):
//
//   min_theta  sum_{h,r,t} log(1 + exp(-Y_{hrt} * phi_{hrt})) + lambda ||theta||^2
//
// with Y = +1 for true triples and -1 for corrupted ones. The L2 term is
// applied as weight decay on the touched rows inside the optimizer (see
// adam.hpp), which is the sparse-update equivalent of the dense penalty.
#pragma once

#include <cmath>

namespace dynkge::kge {

struct LossGrad {
  double loss = 0.0;    ///< log(1 + exp(-y * phi))
  double dscore = 0.0;  ///< d loss / d phi = -y * sigmoid(-y * phi)
};

/// Logistic loss of one scored triple with label y in {+1, -1}. With
/// z = -y * phi, the loss is softplus(z) = log(1 + exp(z)) (z itself above
/// 30, exp(z) below -30) and dscore is -y * sigmoid(z), computed without
/// overflow: 1 / (1 + exp(-z)) for z >= 0, else e / (1 + e) for
/// e = exp(z), which the loss reads too. NaN takes the second branch.
inline LossGrad logistic_loss(double score, int label) noexcept {
  const double y = static_cast<double>(label);
  const double z = -y * score;
  LossGrad out;
  if (z >= 0.0) {
    out.loss = z > 30.0 ? z : std::log1p(std::exp(z));
    out.dscore = -y * (1.0 / (1.0 + std::exp(-z)));
    return out;
  }
  const double e = std::exp(z);
  out.loss = z < -30.0 ? e : std::log1p(e);
  out.dscore = -y * (e / (1.0 + e));
  return out;
}

}  // namespace dynkge::kge
