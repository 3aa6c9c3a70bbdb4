// A software prefetch of one embedding row, shared by the kernel
// translation units (block_kernels.cpp, adam_block.cpp). A prefetch reads
// nothing into a result, so it never changes a byte.
#pragma once

#include <cstdint>
#include <span>

namespace dynkge::kge {

/// Asks the cache for every line of a row ahead of its use.
[[gnu::always_inline]] inline void prefetch_row(std::span<const float> row) {
  constexpr std::uintptr_t kLine = 64;
  const auto end = reinterpret_cast<std::uintptr_t>(row.data() + row.size());
  for (auto line = reinterpret_cast<std::uintptr_t>(row.data()) & ~(kLine - 1);
       line < end; line += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
}

}  // namespace dynkge::kge
