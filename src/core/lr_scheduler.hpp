// The paper's learning-rate schedule (section 3.3/3.4):
//
//   initial lr = base_lr * min(max_scale, num_nodes)     (capped linear
//                                                          scaling rule)
//   reduce-on-plateau: if validation accuracy has not improved for
//   `tolerance` epochs, multiply lr by `factor`; once lr would fall below
//   `min_lr` and another tolerance window passes, training has converged.
//
// The convergence signal from this scheduler is what produces the paper's
// per-method epoch counts N.
#pragma once

#include <algorithm>
#include <stdexcept>

namespace dynkge::core {

struct PlateauConfig {
  double base_lr = 0.001;  ///< paper's initial learning rate
  int max_scale = 4;       ///< cap on the linear scaling rule
  int tolerance = 15;      ///< epochs without improvement before reduction
  double factor = 0.1;     ///< multiplicative reduction
  double min_lr = 1e-5;    ///< floor; plateauing here stops training
  double min_improvement = 1e-4;  ///< accuracy delta that counts as progress
};

class PlateauScheduler {
 public:
  PlateauScheduler(PlateauConfig config, int num_nodes)
      : config_(config),
        lr_(config.base_lr *
            std::min(config.max_scale, std::max(1, num_nodes))) {
    if (config.tolerance < 1) {
      throw std::invalid_argument("PlateauScheduler: tolerance must be >= 1");
    }
    if (config.factor <= 0.0 || config.factor >= 1.0) {
      throw std::invalid_argument("PlateauScheduler: factor must be in (0,1)");
    }
  }

  double lr() const { return lr_; }
  bool should_stop() const { return stopped_; }
  double best_metric() const { return best_; }

  /// Mutable state for checkpoint/resume (the config is rebuilt from the
  /// run's flags, only the observation history needs persisting).
  struct State {
    double lr = 0.0;
    double best_metric = -1e300;
    int stale_epochs = 0;
    bool stopped = false;
  };
  State state() const { return {lr_, best_, stale_epochs_, stopped_}; }
  void restore(const State& s) {
    lr_ = s.lr;
    best_ = s.best_metric;
    stale_epochs_ = s.stale_epochs;
    stopped_ = s.stopped;
  }

  /// Feed one epoch's validation accuracy. Returns true if the learning
  /// rate was reduced by this observation.
  bool observe(double validation_metric) {
    if (validation_metric > best_ + config_.min_improvement) {
      best_ = validation_metric;
      stale_epochs_ = 0;
      return false;
    }
    if (++stale_epochs_ < config_.tolerance) return false;
    stale_epochs_ = 0;
    if (lr_ <= config_.min_lr) {
      stopped_ = true;
      return false;
    }
    lr_ = std::max(lr_ * config_.factor, config_.min_lr);
    return true;
  }

 private:
  PlateauConfig config_;
  double lr_;
  double best_ = -1e300;
  int stale_epochs_ = 0;
  bool stopped_ = false;
};

}  // namespace dynkge::core
