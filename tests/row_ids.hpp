// The ids of a SparseGrad's rows, for tests that compare row sets.
#pragma once

#include <cstdint>
#include <vector>

#include "kge/embedding.hpp"

namespace dynkge::testing_util {

/// `rows`' ids in its ascending walk (sorted_slots() order).
inline std::vector<std::int32_t> row_ids(const kge::SparseGrad& rows) {
  std::vector<std::int32_t> ids;
  for (const kge::SparseGrad::SlotRef& slot : rows.sorted_slots()) {
    ids.push_back(slot.id);
  }
  return ids;
}

}  // namespace dynkge::testing_util
