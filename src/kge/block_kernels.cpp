// Score, gradient and entity-scan kernels for the four built-in KGE
// models: each model's per-element score term, gradient update and
// per-candidate scan term, written once.
//
// Every path that scores a triple or takes a gradient runs these kernels:
// the blocked step (core::forward_backward), hard-negative selection, the
// evaluator's triple classification, and the one-triple entry points
// KgeModel::score / accumulate_gradients behind federated and Hogwild
// SGD. Every path that scores a query against the entity table runs the
// entity scan below: serving (serve::TopKScorer), the evaluator's link
// prediction and the one-query KgeModel::score_*_block / score_all_*.
//
// This translation unit is compiled with -fno-math-errno (value-safe: IEEE
// results are unchanged, only the errno side effect of libm calls is
// dropped), which is what lets GCC vectorize loops containing std::sqrt.
//
// Determinism contract (DESIGN.md "Blocked training kernels"):
//
//  * Scoring: a model's term is its per-element expression, and a
//    triple's score is the left-to-right double sum of its terms from
//    0.0. sum_terms adds full groups of eight triples in eight independent
//    chains, and each triple left over (all of a one-triple call) in one
//    chain of its own. No term is split and no chain is reordered, so a
//    score's bytes do not depend on the block the triple is scored in.
//    While a group is summed, the next group's rows are prefetched; a
//    prefetch reads nothing into a result.
//
//  * Gradients: work items are processed strictly in order. For h != t
//    the three gradient rows are distinct memory, so each element is
//    accumulated exactly once per item and the __restrict kernels below
//    are free to vectorize. For h == t (gh aliases gt) the same
//    per-element body runs without __restrict, so every element's
//    statements run in order and gt's add lands after gh's.
//
//  * RotatE: cos/sin of the relation phases are computed once per unique
//    relation per block (same input -> same libm value, so caching is
//    byte-safe) instead of once per triple.
//
//  * Entity scans: each query is composed into a row once per call
//    (ComplEx and DistMult compose h∘r, or r∘t for a head query, in
//    float, as their serial scans did; RotatE rotates the head in float;
//    TransE and RotatE's head side keep the triple term's double
//    operations), and a (query, candidate) score is the left-to-right
//    double sum from 0.0 of the candidate's terms against that row.
//    Queries sit side by side in tiles of kScanTile lanes, and each pass
//    over a tile scores kPassCandidates candidates, one chain per (query,
//    candidate) pair, reading each candidate element converted to double
//    (exact). A tile of fewer than the scan's kMinLanes queries scores
//    each query's candidates side by side in sum_terms's chains instead.
//    Neither shape splits a term or reorders a chain, and lane arithmetic
//    is one IEEE operation per lane, so a score's bytes depend neither on
//    the range, nor on the other queries of the call, nor on the body's
//    vector width.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <vector>

#include "kge/complex_model.hpp"
#include "kge/kernel_dispatch.hpp"
#include "kge/distmult_model.hpp"
#include "kge/prefetch.hpp"
#include "kge/rotate_model.hpp"
#include "kge/transe_model.hpp"

namespace dynkge::kge {
namespace {

// ---- scoring: per-element terms, summed in chains ----------------------

/// Triples summed side by side. One chain waits on its own previous add;
/// eight independent chains keep the adders busy meanwhile.
constexpr std::size_t kChains = 8;
/// Elements per stack chunk of terms. The chains carry across chunks, so
/// any rank fits in kChains x kChunk doubles (4 KiB).
constexpr std::int32_t kChunk = 64;

/// out[j] = the left-to-right double sum, from 0.0, of term_of(j)(i) over
/// i in [0, k), for j in [0, count). term_of(j) returns triple j's term:
/// an object whose call operator gives element i's term. A group's eight
/// terms are all built before any is summed. Inlined into each model's
/// cloned kernel, so the term loops compile per ISA.
template <typename TermOf>
[[gnu::always_inline]] inline void sum_terms(std::size_t count,
                                             std::int32_t k,
                                             const TermOf& term_of,
                                             double* out) {
  using Term = decltype(term_of(std::size_t{0}));
  std::size_t j = 0;
  for (; j + kChains <= count; j += kChains) {
    Term group[kChains];
    for (std::size_t q = 0; q < kChains; ++q) group[q] = term_of(j + q);
    // Not zeroed: each chunk pass writes every element it then reads.
    double chunk[kChains][kChunk];
    double acc[kChains] = {};
    for (std::int32_t begin = 0; begin < k; begin += kChunk) {
      const std::int32_t n = std::min(kChunk, k - begin);
      for (std::size_t q = 0; q < kChains; ++q) {
        for (std::int32_t i = 0; i < n; ++i) {
          chunk[q][i] = group[q](begin + i);
        }
      }
      for (std::int32_t i = 0; i < n; ++i) {
        for (std::size_t q = 0; q < kChains; ++q) acc[q] += chunk[q][i];
      }
    }
    std::copy_n(acc, kChains, out + j);
  }
  // Too few left for a group: one chain each, adding every term as it is
  // computed, with no chunk in between.
  for (; j < count; ++j) {
    const Term term = term_of(j);
    double acc = 0.0;
    for (std::int32_t i = 0; i < k; ++i) acc += term(i);
    out[j] = acc;
  }
}

/// Called as triple j's term is built, prefetches the head, relation and
/// tail rows of triple j + kChains, if there is one: sum_terms builds a
/// group's terms before it sums them, so the next group's rows load while
/// this group is summed. On fb250k_mini's 3 MiB entity table, ComplEx
/// rank 32 scored a candidate in 51-65 ns with the prefetch and 71-80 ns
/// without. The entity scan reads its candidates in order, which the
/// hardware prefetcher follows, and prefetches nothing.
struct NextGroupRows {
  const EmbeddingMatrix& entities;
  const EmbeddingMatrix& relations;
  std::span<const Triple> triples;

  [[gnu::always_inline]] void operator()(std::size_t j) const {
    if (j + kChains >= triples.size()) return;
    const Triple& next = triples[j + kChains];
    prefetch_row(entities.row(next.head));
    prefetch_row(relations.row(next.relation));
    prefetch_row(entities.row(next.tail));
  }
};

// ---- lanes: a scalar term, or one per query of a scan tile -----------

/// kWidth query lanes of a tile in one register of the body's width
/// (DYNKGE_KERNEL_BODIES): lane q holds query q's value. Packed IEEE
/// arithmetic, so a lane's result is its scalar operation's bytes. GCC
/// aligns the type to the register of the function it is used in, so
/// lane vectors are only read from TileElement storage.
template <std::size_t kWidth>
struct LaneVector {
  typedef double type __attribute__((vector_size(kWidth * sizeof(double))));
};

/// One element of a scan tile, aligned for the widest body's vector.
struct alignas(kScanTile * sizeof(double)) TileElement {
  double lane[kScanTile];
};

// The lane forms below are written so that they compile to packed code
// without basic-block SLP, which this file is built without
// (src/kge/CMakeLists.txt).

/// |x| of a scalar term, or of each lane: the sign bit cleared, as
/// std::fabs clears it.
[[gnu::always_inline]] inline double fabs_lanes(double x) {
  return std::fabs(x);
}
template <typename Lanes>
[[gnu::always_inline]] inline Lanes fabs_lanes(Lanes x) {
  typedef std::int64_t Bits __attribute__((vector_size(sizeof(Lanes))));
  return std::bit_cast<Lanes>(std::bit_cast<Bits>(x) &
                              std::numeric_limits<std::int64_t>::max());
}

/// sqrt(x) of a scalar term, or of each lane. The lane loop stays a loop
/// until the loop vectorizer makes it one packed square root.
[[gnu::always_inline]] inline double sqrt_lanes(double x) {
  return std::sqrt(x);
}
template <typename Lanes>
[[gnu::always_inline]] inline Lanes sqrt_lanes(Lanes x) {
#pragma GCC unroll 1
  for (std::size_t q = 0; q < sizeof(Lanes) / sizeof(double); ++q) {
    x[q] = std::sqrt(x[q]);
  }
  return x;
}

/// float(a) - e for a double a holding a float and a float e: the float
/// difference, held as a double.
[[gnu::always_inline]] inline double float_difference(double a, float e) {
  return static_cast<float>(a) - e;
}
/// The same per lane, for a candidate element converted to double: the
/// double difference rounded to float. Both operands hold floats, so that
/// is the float difference: rounding a sum to double and then to float
/// gives the sum rounded to float whenever double carries at least
/// 2 x 24 + 2 significand bits, and it carries 53. The rounding is a
/// vector conversion: GCC 12 at -O2 folds `d[q] = (float)d[q]` over
/// every lane of a vector into nothing.
template <typename Lanes>
[[gnu::always_inline]] inline Lanes float_difference(Lanes a, double e) {
  typedef float Narrow __attribute__((vector_size(sizeof(Lanes) / 2)));
  return __builtin_convertvector(__builtin_convertvector(a - e, Narrow),
                                 Lanes);
}

// ---- ComplEx ---------------------------------------------------------

/// Re(h_i r_i conj(t_i)); rows hold [re_0..re_{k-1}, im_0..im_{k-1}].
struct ComplExTerm {
  const float* eh;
  const float* er;
  const float* et;
  std::int32_t k;

  [[gnu::always_inline]] double operator()(std::int32_t i) const {
    const double h_re = eh[i], h_im = eh[k + i];
    const double r_re = er[i], r_im = er[k + i];
    const double t_re = et[i], t_im = et[k + i];
    return h_re * r_re * t_re + h_im * r_re * t_im + h_re * r_im * t_im -
           h_im * r_im * t_re;
  }
};

DYNKGE_KERNEL_CLONES
void complex_scores(const EmbeddingMatrix& entities,
                    const EmbeddingMatrix& relations,
                    std::span<const Triple> triples, std::int32_t k,
                    double* out) {
  const NextGroupRows next_group{entities, relations, triples};
  const auto term_of = [&](std::size_t j) __attribute__((always_inline)) {
    next_group(j);
    return ComplExTerm{entities.row(triples[j].head).data(),
                       relations.row(triples[j].relation).data(),
                       entities.row(triples[j].tail).data(), k};
  };
  sum_terms(triples.size(), k, term_of, out);
}

[[gnu::always_inline]] inline void complex_grad_element(
    const float* eh, const float* er, const float* et, float* gh, float* gr,
    float* gt, float c, std::int32_t k, std::int32_t i) {
  const float h_re = eh[i], h_im = eh[k + i];
  const float r_re = er[i], r_im = er[k + i];
  const float t_re = et[i], t_im = et[k + i];

  gh[i] += c * (r_re * t_re + r_im * t_im);
  gh[k + i] += c * (r_re * t_im - r_im * t_re);

  gr[i] += c * (h_re * t_re + h_im * t_im);
  gr[k + i] += c * (h_re * t_im - h_im * t_re);

  gt[i] += c * (h_re * r_re - h_im * r_im);
  gt[k + i] += c * (h_im * r_re + h_re * r_im);
}

DYNKGE_KERNEL_CLONES
void complex_grad(const float* __restrict eh, const float* __restrict er,
                  const float* __restrict et, float* __restrict gh,
                  float* __restrict gr, float* __restrict gt, float c,
                  std::int32_t k) {
  for (std::int32_t i = 0; i < k; ++i) {
    complex_grad_element(eh, er, et, gh, gr, gt, c, k, i);
  }
}

// ---- TransE ----------------------------------------------------------

/// |(h_i + r_i) - t_i| for hr = h_i + r_i, an element of the L1 distance
/// TransE subtracts from gamma; per lane for the entity scan's tiles.
template <typename V, typename T>
[[gnu::always_inline]] inline V transe_modulus(V hr, T t) {
  return fabs_lanes(hr - t);
}

struct TransETerm {
  const float* eh;
  const float* er;
  const float* et;

  [[gnu::always_inline]] double operator()(std::int32_t i) const {
    return transe_modulus(static_cast<double>(eh[i]) + er[i], et[i]);
  }
};

DYNKGE_KERNEL_CLONES
void transe_distances(const EmbeddingMatrix& entities,
                      const EmbeddingMatrix& relations,
                      std::span<const Triple> triples, std::int32_t k,
                      double* out) {
  const NextGroupRows next_group{entities, relations, triples};
  const auto term_of = [&](std::size_t j) __attribute__((always_inline)) {
    next_group(j);
    return TransETerm{entities.row(triples[j].head).data(),
                      relations.row(triples[j].relation).data(),
                      entities.row(triples[j].tail).data()};
  };
  sum_terms(triples.size(), k, term_of, out);
}

[[gnu::always_inline]] inline void transe_grad_element(
    const float* eh, const float* er, const float* et, float* gh, float* gr,
    float* gt, float coeff, std::int32_t i) {
  const float d = eh[i] + er[i] - et[i];
  // d phi / d d_i = -sign(d_i); sign(0) treated as 0 (subgradient). A
  // difference of the two comparisons, so it compiles to packed code: +1,
  // -1, and +0.0f for zero and NaN, as coeff * -s needs for its zeros.
  const float s = static_cast<float>(d > 0.0f) - static_cast<float>(d < 0.0f);
  gh[i] += coeff * -s;
  gr[i] += coeff * -s;
  gt[i] += coeff * s;
}

DYNKGE_KERNEL_CLONES
void transe_grad(const float* __restrict eh, const float* __restrict er,
                 const float* __restrict et, float* __restrict gh,
                 float* __restrict gr, float* __restrict gt, float coeff,
                 std::int32_t k) {
  for (std::int32_t i = 0; i < k; ++i) {
    transe_grad_element(eh, er, et, gh, gr, gt, coeff, i);
  }
}

// ---- DistMult --------------------------------------------------------

struct DistMultTerm {
  const float* eh;
  const float* er;
  const float* et;

  [[gnu::always_inline]] double operator()(std::int32_t i) const {
    return static_cast<double>(eh[i]) * er[i] * et[i];
  }
};

DYNKGE_KERNEL_CLONES
void distmult_scores(const EmbeddingMatrix& entities,
                     const EmbeddingMatrix& relations,
                     std::span<const Triple> triples, std::int32_t k,
                     double* out) {
  const NextGroupRows next_group{entities, relations, triples};
  const auto term_of = [&](std::size_t j) __attribute__((always_inline)) {
    next_group(j);
    return DistMultTerm{entities.row(triples[j].head).data(),
                        relations.row(triples[j].relation).data(),
                        entities.row(triples[j].tail).data()};
  };
  sum_terms(triples.size(), k, term_of, out);
}

[[gnu::always_inline]] inline void distmult_grad_element(
    const float* eh, const float* er, const float* et, float* gh, float* gr,
    float* gt, float coeff, std::int32_t i) {
  gh[i] += coeff * er[i] * et[i];
  gr[i] += coeff * eh[i] * et[i];
  gt[i] += coeff * eh[i] * er[i];
}

DYNKGE_KERNEL_CLONES
void distmult_grad(const float* __restrict eh, const float* __restrict er,
                   const float* __restrict et, float* __restrict gh,
                   float* __restrict gr, float* __restrict gt, float coeff,
                   std::int32_t k) {
  for (std::int32_t i = 0; i < k; ++i) {
    distmult_grad_element(eh, er, et, gh, gr, gt, coeff, i);
  }
}

// ---- RotatE ----------------------------------------------------------

/// cos/sin of each relation's phase row, computed once per unique relation
/// per block. Doubles holding the float libm values, as
/// `const double c = std::cos(phase)` would.
class RotatePhaseCache {
 public:
  RotatePhaseCache(std::int32_t k, std::size_t max_relations) : k_(k) {
    // Reserved up front so get() pointers stay stable across insertions.
    data_.reserve(2 * static_cast<std::size_t>(k) * max_relations);
  }

  /// [cos_0..cos_{k-1}, sin_0..sin_{k-1}] for relation r.
  const double* get(RelationId r, std::span<const float> phases) {
    const auto [it, inserted] = index_.try_emplace(r, data_.size());
    if (inserted) {
      const std::size_t off = data_.size();
      data_.resize(off + 2 * static_cast<std::size_t>(k_));
      for (std::int32_t i = 0; i < k_; ++i) {
        data_[off + i] = std::cos(phases[i]);
        data_[off + k_ + i] = std::sin(phases[i]);
      }
    }
    return data_.data() + it->second;
  }

 private:
  std::int32_t k_;
  std::unordered_map<RelationId, std::size_t> index_;
  std::vector<double> data_;
};

/// |h e^{i theta} - t| for c = cos(theta), s = sin(theta): an element of
/// the rotated distance RotatE subtracts from gamma; per lane for the
/// entity scan's tiles. A triple term names V = double, so float
/// arguments are widened as they were to the double parameters.
template <typename V>
[[gnu::always_inline]] inline V rotate_modulus(double h_re, double h_im, V c,
                                               V s, V t_re, V t_im) {
  const V d_re = h_re * c - h_im * s - t_re;
  const V d_im = h_re * s + h_im * c - t_im;
  return sqrt_lanes(d_re * d_re + d_im * d_im + RotatEModel::kEpsilon);
}

/// The term with cos/sin read from a block's phase cache.
struct RotatECachedTerm {
  const float* eh;
  const float* et;
  const double* cs;
  std::int32_t k;

  [[gnu::always_inline]] double operator()(std::int32_t i) const {
    return rotate_modulus<double>(eh[i], eh[k + i], cs[i], cs[k + i], et[i],
                                  et[k + i]);
  }
};

/// The term with cos/sin computed in place, for blocks too short to fill
/// a group (a one-triple call builds no cache).
struct RotatEPhaseTerm {
  const float* eh;
  const float* et;
  const float* phases;
  std::int32_t k;

  [[gnu::always_inline]] double operator()(std::int32_t i) const {
    return rotate_modulus<double>(eh[i], eh[k + i], std::cos(phases[i]),
                                  std::sin(phases[i]), et[i], et[k + i]);
  }
};

DYNKGE_KERNEL_CLONES
void rotate_distances(const EmbeddingMatrix& entities,
                      const EmbeddingMatrix& relations,
                      std::span<const Triple> triples, std::int32_t k,
                      double* out) {
  if (triples.size() < kChains) {
    const auto term_of = [&](std::size_t j) __attribute__((always_inline)) {
      return RotatEPhaseTerm{entities.row(triples[j].head).data(),
                             entities.row(triples[j].tail).data(),
                             relations.row(triples[j].relation).data(), k};
    };
    sum_terms(triples.size(), k, term_of, out);
    return;
  }
  RotatePhaseCache cache(
      k, std::min(triples.size(), static_cast<std::size_t>(relations.rows())));
  const NextGroupRows next_group{entities, relations, triples};
  const auto term_of = [&](std::size_t j) __attribute__((always_inline)) {
    next_group(j);
    const RelationId r = triples[j].relation;
    return RotatECachedTerm{entities.row(triples[j].head).data(),
                            entities.row(triples[j].tail).data(),
                            cache.get(r, relations.row(r)), k};
  };
  sum_terms(triples.size(), k, term_of, out);
}

[[gnu::always_inline]] inline void rotate_grad_element(
    const float* eh, const float* et, const double* cs, float* gh, float* gr,
    float* gt, float coeff, std::int32_t k, std::int32_t i) {
  const double c = cs[i];
  const double s = cs[k + i];
  const double h_re = eh[i], h_im = eh[k + i];
  const double d_re = h_re * c - h_im * s - et[i];
  const double d_im = h_re * s + h_im * c - et[k + i];
  const double m =
      std::sqrt(d_re * d_re + d_im * d_im + RotatEModel::kEpsilon);
  // phi = gamma - sum m_i: d phi / d d = -d / m.
  const double gd_re = -d_re / m * coeff;
  const double gd_im = -d_im / m * coeff;

  gh[i] += static_cast<float>(gd_re * c + gd_im * s);
  gh[k + i] += static_cast<float>(-gd_re * s + gd_im * c);
  gt[i] += static_cast<float>(-gd_re);
  gt[k + i] += static_cast<float>(-gd_im);
  // d d_re/d theta = -h_re s - h_im c;  d d_im/d theta = h_re c - h_im s.
  gr[i] += static_cast<float>(gd_re * (-h_re * s - h_im * c) +
                              gd_im * (h_re * c - h_im * s));
}

DYNKGE_KERNEL_CLONES
void rotate_grad(const float* __restrict eh, const float* __restrict et,
                 const double* __restrict cs, float* __restrict gh,
                 float* __restrict gr, float* __restrict gt, float coeff,
                 std::int32_t k) {
  for (std::int32_t i = 0; i < k; ++i) {
    rotate_grad_element(eh, et, cs, gh, gr, gt, coeff, k, i);
  }
}

// ---- entity scans: queries x candidates --------------------------------

/// What a model's scan reads.
struct ScanTables {
  const EmbeddingMatrix& entities;
  const EmbeddingMatrix& relations;
  std::int32_t k;
};

/// One candidate's term against a query row composed with stride 1.
template <typename Scan>
struct CandidateTerm {
  const Scan* scan = nullptr;
  const double* row = nullptr;
  const float* candidate = nullptr;

  [[gnu::always_inline]] double operator()(std::int32_t i) const {
    return scan->term(row, 1, candidate, i);
  }
};

/// Candidates one pass over a tile scores, each with its own accumulators,
/// so four add chains per lane are in flight where one candidate's chain
/// waited on each of its adds. Two per pass scanned slower on both bodies;
/// eight ran no faster on AVX-512F and slower for ComplEx on AVX2, whose
/// sixteen ymm registers then hold nothing but accumulators (DESIGN.md
/// §10). Where an element's row takes more than four vectors (RotatE
/// heads below AVX-512F, whose rows have four parts) a pass takes two, so
/// the row vectors and the accumulators stay in registers; the square
/// roots bound that pass either way.
template <typename Scan, std::size_t kWidth>
constexpr std::size_t kPassCandidates =
    Scan::kParts * (kScanTile / kWidth) > 4 ? 2 : 4;

/// Scores candidates j .. j + kCandidates - 1, whose rows start at
/// `rows`, against a tile of `lanes` queries interleaved in `tile`
/// (element i of part p in tile[(p * k + i) * kVectors .. + kVectors]).
/// The candidate rows are converted to double once, into `converted`
/// (exact), so every lane reads a candidate element as a broadcast
/// double. Each (query, candidate) pair sums its terms in element order
/// from 0.0 in one chain.
template <std::size_t kCandidates, std::size_t kWidth, typename Scan>
[[gnu::always_inline]] inline void score_pass(
    const Scan& scan, const typename LaneVector<kWidth>::type* tile,
    const float* rows, double* converted, double* const* tile_out,
    std::size_t lanes, std::size_t j) {
  using Lanes = typename LaneVector<kWidth>::type;
  constexpr std::size_t kVectors = kScanTile / kWidth;
  const std::size_t width = static_cast<std::size_t>(scan.entities.width());
  for (std::size_t x = 0; x < kCandidates * width; ++x) {
    converted[x] = rows[x];
  }
  Lanes acc[kCandidates][kVectors] = {};
  for (std::int32_t i = 0; i < scan.k; ++i) {
    for (std::size_t c = 0; c < kCandidates; ++c) {
      for (std::size_t v = 0; v < kVectors; ++v) {
        acc[c][v] += scan.term(tile + v, kVectors, converted + c * width, i);
      }
    }
  }
  double sums[kCandidates][kScanTile];
  std::memcpy(sums, acc, sizeof sums);
  for (std::size_t c = 0; c < kCandidates; ++c) {
    for (std::size_t q = 0; q < lanes; ++q) tile_out[q][j + c] = sums[c][q];
  }
}

/// out[q * count + j] = the sum of the terms of queries[q] with candidate
/// begin + j, for every query `scan` handles. A Scan composes a query
/// into a row of Scan::kParts parts of k elements (element i of part p at
/// row[(p * k + i) * stride] when `stride` rows interleave) and gives a
/// candidate's element term against a row: a scalar term against a
/// stride-1 row and a float candidate, or a lane vector of terms against
/// a tile and a candidate converted to double.
///
/// Handled queries are taken kScanTile at a time, in order. A tile of at
/// least Scan::kMinLanes interleaves their rows in lane vectors of kWidth
/// doubles; each pass over it scores kPassCandidates candidates, with the
/// count % kPassCandidates left over scored one per pass, and reads each
/// candidate row once per tile. A short tile's last lanes hold zeros or an
/// earlier tile's rows, and their sums are dropped. A smaller tile scores
/// each query alone, its candidates side by side in sum_terms's chains. A
/// tile costs the same per candidate at any lane count, so kMinLanes is
/// the lane count from which one tile costs less than that many one-query
/// passes (DESIGN.md §10 has the timings).
template <std::size_t kWidth, typename Scan>
[[gnu::always_inline]] inline void scan_entities(
    const Scan& scan, std::span<const EntityQuery> queries, EntityId begin,
    std::size_t count, double* out) {
  using Lanes = typename LaneVector<kWidth>::type;
  const std::int32_t k = scan.k;
  const auto candidate = [&](std::size_t j) __attribute__((always_inline)) {
    return scan.entities.row(begin + static_cast<EntityId>(j)).data();
  };
  const std::size_t row_doubles =
      static_cast<std::size_t>(Scan::kParts * k) * kScanTile;
  std::vector<double> rows(row_doubles);
  // Allocated by the first lane tile: a call of one-query passes has none.
  std::vector<TileElement> tile;
  std::vector<double> converted;
  const EntityQuery* queued[kScanTile];
  double* tile_out[kScanTile];
  std::size_t next = 0;
  while (true) {
    std::size_t lanes = 0;
    for (; next < queries.size() && lanes < kScanTile; ++next) {
      if (!scan.handles(queries[next])) continue;
      queued[lanes] = &queries[next];
      tile_out[lanes++] = out + next * count;
    }
    if (lanes == 0) return;
    if (lanes < Scan::kMinLanes) {
      const auto term_of = [&](std::size_t j) __attribute__((always_inline)) {
        return CandidateTerm<Scan>{&scan, rows.data(), candidate(j)};
      };
      for (std::size_t q = 0; q < lanes; ++q) {
        scan.compose(*queued[q], rows.data(), 1);
        sum_terms(count, k, term_of, tile_out[q]);
      }
      continue;
    }
    for (std::size_t q = 0; q < lanes; ++q) {
      scan.compose(*queued[q], rows.data() + q, kScanTile);
    }
    constexpr std::size_t kPass = kPassCandidates<Scan, kWidth>;
    if (tile.empty()) {
      tile.resize(row_doubles / kScanTile);
      converted.resize(kPass * static_cast<std::size_t>(scan.entities.width()));
    }
    std::memcpy(tile.data(), rows.data(), row_doubles * sizeof(double));
    const auto* lane_rows = reinterpret_cast<const Lanes*>(tile.data());
    std::size_t j = 0;
    for (; j + kPass <= count; j += kPass) {
      score_pass<kPass, kWidth>(scan, lane_rows, candidate(j),
                                converted.data(), tile_out, lanes, j);
    }
    for (; j < count; ++j) {
      score_pass<1, kWidth>(scan, lane_rows, candidate(j), converted.data(),
                            tile_out, lanes, j);
    }
  }
}

/// ComplEx: a tail query composes h∘r and a head query conj(r)∘t in
/// float; a candidate's term is the real dot product of that row with
/// the candidate's row.
struct ComplExScan : ScanTables {
  static constexpr std::int32_t kParts = 2;
  static constexpr std::size_t kMinLanes = 3;

  static bool handles(const EntityQuery&) { return true; }

  void compose(const EntityQuery& q, double* row, std::size_t stride) const {
    const float* e = entities.row(q.entity).data();
    const float* r = relations.row(q.relation).data();
    const bool tail = q.direction == Direction::kTail;
    for (std::int32_t i = 0; i < k; ++i) {
      row[i * stride] = tail ? e[i] * r[i] - e[k + i] * r[k + i]
                             : r[i] * e[i] + r[k + i] * e[k + i];
      row[(k + i) * stride] = tail ? e[k + i] * r[i] + e[i] * r[k + i]
                                   : r[i] * e[k + i] - r[k + i] * e[i];
    }
  }

  template <typename V, typename E>
  [[gnu::always_inline]] V term(const V* row, std::size_t stride, const E* e,
                                std::int32_t i) const {
    return row[i * stride] * e[i] + row[(k + i) * stride] * e[k + i];
  }
};

/// DistMult: either query composes e∘r in float.
struct DistMultScan : ScanTables {
  static constexpr std::int32_t kParts = 1;
  static constexpr std::size_t kMinLanes = 2;

  static bool handles(const EntityQuery&) { return true; }

  void compose(const EntityQuery& q, double* row, std::size_t stride) const {
    const float* e = entities.row(q.entity).data();
    const float* r = relations.row(q.relation).data();
    for (std::int32_t i = 0; i < k; ++i) row[i * stride] = e[i] * r[i];
  }

  template <typename V, typename E>
  [[gnu::always_inline]] V term(const V* row, std::size_t stride, const E* e,
                                std::int32_t i) const {
    return row[i * stride] * e[i];
  }
};

/// TransE, one side per scan. A tail query's row is h + r in double, as
/// the triple term adds it; for a head query the candidate is the first
/// addend, so the row keeps r and t.
template <Direction kSide>
struct TransEScan : ScanTables {
  static constexpr bool kTail = kSide == Direction::kTail;
  static constexpr std::int32_t kParts = kTail ? 1 : 2;
  static constexpr std::size_t kMinLanes = 2;

  static bool handles(const EntityQuery& q) { return q.direction == kSide; }

  void compose(const EntityQuery& q, double* row, std::size_t stride) const {
    const float* e = entities.row(q.entity).data();
    const float* r = relations.row(q.relation).data();
    for (std::int32_t i = 0; i < k; ++i) {
      if constexpr (kTail) {
        row[i * stride] = static_cast<double>(e[i]) + r[i];
      } else {
        row[i * stride] = r[i];
        row[(k + i) * stride] = e[i];
      }
    }
  }

  template <typename V, typename E>
  [[gnu::always_inline]] V term(const V* row, std::size_t stride, const E* e,
                                std::int32_t i) const {
    if constexpr (kTail) return transe_modulus(row[i * stride], e[i]);
    return transe_modulus(e[i] + row[i * stride], row[(k + i) * stride]);
  }
};

/// RotatE, one side per scan. A tail query's row is h e^{i theta},
/// rotated in float (each value held exactly as a double), and a
/// candidate's term is the modulus of the float differences. For a head
/// query the candidate is rotated, so the row keeps cos and sin of the
/// phases and t, and the term is the triple term's modulus. The lane
/// loop is bound by packed square roots: a tile costs about six and a
/// half one-query passes.
template <Direction kSide>
struct RotatEScan : ScanTables {
  static constexpr bool kTail = kSide == Direction::kTail;
  static constexpr std::int32_t kParts = kTail ? 2 : 4;
  static constexpr std::size_t kMinLanes = 7;

  static bool handles(const EntityQuery& q) { return q.direction == kSide; }

  void compose(const EntityQuery& q, double* row, std::size_t stride) const {
    const float* e = entities.row(q.entity).data();
    const float* phases = relations.row(q.relation).data();
    for (std::int32_t i = 0; i < k; ++i) {
      const float c = std::cos(phases[i]);
      const float s = std::sin(phases[i]);
      if constexpr (kTail) {
        row[i * stride] = e[i] * c - e[k + i] * s;
        row[(k + i) * stride] = e[i] * s + e[k + i] * c;
      } else {
        row[i * stride] = c;
        row[(k + i) * stride] = s;
        row[(2 * k + i) * stride] = e[i];
        row[(3 * k + i) * stride] = e[k + i];
      }
    }
  }

  template <typename V, typename E>
  [[gnu::always_inline]] V term(const V* row, std::size_t stride, const E* e,
                                std::int32_t i) const {
    if constexpr (kTail) {
      const V d_re = float_difference(row[i * stride], e[i]);
      const V d_im = float_difference(row[(k + i) * stride], e[k + i]);
      return sqrt_lanes(d_re * d_re + d_im * d_im + RotatEModel::kEpsilon);
    }
    return rotate_modulus(e[i], e[k + i], row[i * stride],
                          row[(k + i) * stride], row[(2 * k + i) * stride],
                          row[(3 * k + i) * stride]);
  }
};

/// The model an entity scan runs.
enum class ScanModel { kComplEx, kDistMult, kTransE, kRotatE };

/// TransE and RotatE write distances: the caller subtracts them from
/// gamma.
template <std::size_t kWidth>
[[gnu::always_inline]] inline void scan_model(
    ScanModel model, const ScanTables& tables,
    std::span<const EntityQuery> queries, EntityId begin, std::size_t count,
    double* out) {
  switch (model) {
    case ScanModel::kComplEx:
      return scan_entities<kWidth>(ComplExScan{tables}, queries, begin, count,
                                   out);
    case ScanModel::kDistMult:
      return scan_entities<kWidth>(DistMultScan{tables}, queries, begin,
                                   count, out);
    case ScanModel::kTransE:
      scan_entities<kWidth>(TransEScan<Direction::kTail>{tables}, queries,
                            begin, count, out);
      return scan_entities<kWidth>(TransEScan<Direction::kHead>{tables},
                                   queries, begin, count, out);
    case ScanModel::kRotatE:
      scan_entities<kWidth>(RotatEScan<Direction::kTail>{tables}, queries,
                            begin, count, out);
      return scan_entities<kWidth>(RotatEScan<Direction::kHead>{tables},
                                   queries, begin, count, out);
  }
}

// The entity scan, one version per body, each holding lanes in vectors
// of its register width.
#define DYNKGE_ENTITY_SCAN(attribute, width)                                 \
  attribute void entity_scan(ScanModel model, const ScanTables& tables,      \
                             std::span<const EntityQuery> queries,           \
                             EntityId begin, std::size_t count,              \
                             double* out) {                                  \
    scan_model<width>(model, tables, queries, begin, count, out);            \
  }
DYNKGE_KERNEL_BODIES(DYNKGE_ENTITY_SCAN)
#undef DYNKGE_ENTITY_SCAN

}  // namespace

// The model entry points. A work item with h == t runs the model's element
// body in a plain loop: gh and gt are one row, so it must not take the
// __restrict kernel.

// ---- ComplEx ---------------------------------------------------------

void ComplExModel::score_triples_block(std::span<const Triple> triples,
                                       std::span<double> out) const {
  complex_scores(entities_, relations_, triples, rank_, out.data());
}

void ComplExModel::score_entities_block(std::span<const EntityQuery> queries,
                                        EntityId begin, std::size_t count,
                                        std::span<double> out) const {
  entity_scan(ScanModel::kComplEx, {entities_, relations_, rank_}, queries, begin,
              count, out.data());
}

void ComplExModel::accumulate_gradients_block(
    std::span<const GradWork> work) const {
  const std::int32_t k = rank_;
  for (const GradWork& w : work) {
    const float* eh = entities_.row(w.h).data();
    const float* er = relations_.row(w.r).data();
    const float* et = entities_.row(w.t).data();
    if (w.h != w.t) {
      complex_grad(eh, er, et, w.gh, w.gr, w.gt, w.coeff, k);
      continue;
    }
    for (std::int32_t i = 0; i < k; ++i) {
      complex_grad_element(eh, er, et, w.gh, w.gr, w.gt, w.coeff, k, i);
    }
  }
}

// ---- DistMult --------------------------------------------------------

void DistMultModel::score_triples_block(std::span<const Triple> triples,
                                        std::span<double> out) const {
  distmult_scores(entities_, relations_, triples, rank_, out.data());
}

void DistMultModel::score_entities_block(std::span<const EntityQuery> queries,
                                         EntityId begin, std::size_t count,
                                         std::span<double> out) const {
  entity_scan(ScanModel::kDistMult, {entities_, relations_, rank_}, queries, begin,
              count, out.data());
}

void DistMultModel::accumulate_gradients_block(
    std::span<const GradWork> work) const {
  const std::int32_t k = rank_;
  for (const GradWork& w : work) {
    const float* eh = entities_.row(w.h).data();
    const float* er = relations_.row(w.r).data();
    const float* et = entities_.row(w.t).data();
    if (w.h != w.t) {
      distmult_grad(eh, er, et, w.gh, w.gr, w.gt, w.coeff, k);
      continue;
    }
    for (std::int32_t i = 0; i < k; ++i) {
      distmult_grad_element(eh, er, et, w.gh, w.gr, w.gt, w.coeff, i);
    }
  }
}

// ---- TransE ----------------------------------------------------------

void TransEModel::score_triples_block(std::span<const Triple> triples,
                                      std::span<double> out) const {
  transe_distances(entities_, relations_, triples, rank_, out.data());
  for (std::size_t j = 0; j < triples.size(); ++j) out[j] = gamma_ - out[j];
}

void TransEModel::score_entities_block(std::span<const EntityQuery> queries,
                                       EntityId begin, std::size_t count,
                                       std::span<double> out) const {
  entity_scan(ScanModel::kTransE, {entities_, relations_, rank_}, queries, begin,
              count, out.data());
  for (double& score : out.first(queries.size() * count)) {
    score = gamma_ - score;
  }
}

void TransEModel::accumulate_gradients_block(
    std::span<const GradWork> work) const {
  const std::int32_t k = rank_;
  for (const GradWork& w : work) {
    const float* eh = entities_.row(w.h).data();
    const float* er = relations_.row(w.r).data();
    const float* et = entities_.row(w.t).data();
    if (w.h != w.t) {
      transe_grad(eh, er, et, w.gh, w.gr, w.gt, w.coeff, k);
      continue;
    }
    for (std::int32_t i = 0; i < k; ++i) {
      transe_grad_element(eh, er, et, w.gh, w.gr, w.gt, w.coeff, i);
    }
  }
}

// ---- RotatE ----------------------------------------------------------

void RotatEModel::score_triples_block(std::span<const Triple> triples,
                                      std::span<double> out) const {
  rotate_distances(entities_, relations_, triples, rank_, out.data());
  for (std::size_t j = 0; j < triples.size(); ++j) out[j] = gamma_ - out[j];
}

void RotatEModel::score_entities_block(std::span<const EntityQuery> queries,
                                       EntityId begin, std::size_t count,
                                       std::span<double> out) const {
  entity_scan(ScanModel::kRotatE, {entities_, relations_, rank_}, queries, begin,
              count, out.data());
  for (double& score : out.first(queries.size() * count)) {
    score = gamma_ - score;
  }
}

void RotatEModel::accumulate_gradients_block(
    std::span<const GradWork> work) const {
  const std::int32_t k = rank_;
  RotatePhaseCache cache(
      k, std::min(work.size(), static_cast<std::size_t>(num_relations())));
  for (const GradWork& w : work) {
    const float* eh = entities_.row(w.h).data();
    const float* et = entities_.row(w.t).data();
    const double* cs = cache.get(w.r, relations_.row(w.r));
    if (w.h != w.t) {
      rotate_grad(eh, et, cs, w.gh, w.gr, w.gt, w.coeff, k);
      continue;
    }
    for (std::int32_t i = 0; i < k; ++i) {
      rotate_grad_element(eh, et, cs, w.gh, w.gr, w.gt, w.coeff, k, i);
    }
  }
}

}  // namespace dynkge::kge
