// FNV-1a digests for golden-byte tests.
//
// A golden test pins the exact bytes a deterministic computation produces
// by comparing a 64-bit FNV-1a digest of them against a committed value.
// The digest is order-sensitive and covers every byte, so a change to one
// ULP of one float moves it. Failures print both digests in hex so a
// deliberate re-capture is a copy-paste, and an accidental one is obvious.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>

#include "kge/model.hpp"
#include "util/fnv1a.hpp"

namespace dynkge::testing_util {

/// FNV-1a over the object representation of a scalar.
template <typename T>
std::uint64_t fnv1a_value(const T& value, std::uint64_t hash) {
  return util::fnv1a(&value, sizeof(value), hash);
}

/// Entity bytes, then relation bytes.
inline std::uint64_t model_digest(const kge::KgeModel& model,
                                  std::uint64_t hash = util::kFnv1aOffset) {
  for (const kge::EmbeddingMatrix* matrix :
       {&model.entities(), &model.relations()}) {
    const std::span<const float> flat = matrix->flat();
    hash = util::fnv1a(flat.data(), flat.size_bytes(), hash);
  }
  return hash;
}

inline std::string hex64(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIx64, value);
  return buffer;
}

}  // namespace dynkge::testing_util
