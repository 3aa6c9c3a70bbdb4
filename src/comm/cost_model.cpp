#include "comm/cost_model.hpp"

#include <cmath>

namespace dynkge::comm {
namespace {

int ceil_log2(int n) {
  int stages = 0;
  int reach = 1;
  while (reach < n) {
    reach *= 2;
    ++stages;
  }
  return stages;
}

}  // namespace

const char* to_string(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::kBroadcast:
      return "broadcast";
    case CollectiveKind::kAllReduce:
      return "allreduce";
    case CollectiveKind::kAllGatherV:
      return "allgatherv";
    case CollectiveKind::kGatherV:
      return "gatherv";
    case CollectiveKind::kCount:
      break;
  }
  return "unknown";
}

double CostModel::broadcast_time(int num_ranks, std::size_t bytes) const {
  if (num_ranks <= 1) return 0.0;
  const double stages = ceil_log2(num_ranks);
  return stages * (params_.alpha + static_cast<double>(bytes) * params_.beta);
}

double CostModel::allreduce_time(int num_ranks, std::size_t bytes) const {
  if (num_ranks <= 1) return 0.0;
  const double p = num_ranks;
  const double s = static_cast<double>(bytes);
  return 2.0 * (p - 1.0) * params_.alpha +
         2.0 * s * (p - 1.0) / p * params_.beta +
         s * (p - 1.0) / p * params_.gamma;
}

double CostModel::allgatherv_time(int num_ranks, std::size_t total_bytes,
                                  std::size_t self_bytes) const {
  if (num_ranks <= 1) return 0.0;
  const double p = num_ranks;
  const double received =
      static_cast<double>(total_bytes) - static_cast<double>(self_bytes);
  return (p - 1.0) * params_.alpha + received * params_.beta;
}

double CostModel::gatherv_time(int num_ranks, std::size_t total_bytes,
                               std::size_t self_bytes) const {
  // The root receives what the ring all-gather hands each rank.
  return allgatherv_time(num_ranks, total_bytes, self_bytes);
}

double CostModel::time_for(CollectiveKind kind, int num_ranks,
                           std::size_t total_bytes,
                           std::size_t self_bytes) const {
  switch (kind) {
    case CollectiveKind::kBroadcast:
      return broadcast_time(num_ranks, total_bytes);
    case CollectiveKind::kAllReduce:
      return allreduce_time(num_ranks, total_bytes);
    case CollectiveKind::kAllGatherV:
      return allgatherv_time(num_ranks, total_bytes, self_bytes);
    case CollectiveKind::kGatherV:
      return gatherv_time(num_ranks, total_bytes, self_bytes);
    case CollectiveKind::kCount:
      break;
  }
  return 0.0;
}

}  // namespace dynkge::comm
