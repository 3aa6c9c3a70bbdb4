// FNV-1a (64-bit), the one hash behind every digest in dynkge: the
// DKGE/DKGS file checksums, the collective wire checksums, the replica
// consistency check and the test goldens.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dynkge::util {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// FNV-1a over `size` raw bytes, continuing from `hash` (the offset basis
/// starts a fresh digest).
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t hash = kFnv1aOffset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace dynkge::util
