// Blocked training kernels for the four built-in KGE models.
//
// This translation unit is compiled with -fno-math-errno (value-safe: IEEE
// results are unchanged, only the errno side effect of libm calls is
// dropped), which is what lets GCC vectorize loops containing std::sqrt.
// The per-triple kernels in *_model.cpp keep the default flags; they are
// the oracles test_block_kernels compares these kernels against.
//
// Determinism contract (DESIGN.md "Blocked training kernels"):
//
//  * Scoring: a model's term kernel writes each triple's per-element
//    terms, each one score()'s per-element expression verbatim, loading
//    every row contiguously and vectorizing along the element index. One
//    shared kernel then adds eight triples' terms in eight independent
//    left-to-right chains from 0.0. No term is split and no chain is
//    reordered, so every score is bit-identical to the scalar path.
//
//  * Gradients: work items are processed strictly in order. For h != t
//    the three gradient rows are distinct memory, so each element is
//    accumulated exactly once per item and the __restrict kernels below
//    are free to vectorize; the arithmetic per element is copied verbatim
//    from accumulate_gradients. For h == t (gh aliases gt) the scalar
//    statement interleaving is load-bearing, so those items fall back to
//    the virtual scalar path.
//
//  * RotatE: cos/sin of the relation phases are computed once per unique
//    relation per block (same input -> same libm value, so caching is
//    byte-safe) instead of once per triple.

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "kge/complex_model.hpp"
#include "kge/kernel_dispatch.hpp"
#include "kge/distmult_model.hpp"
#include "kge/rotate_model.hpp"
#include "kge/transe_model.hpp"

namespace dynkge::kge {
namespace {

// ---- scoring: per-element terms, summed in eight chains ----------------

/// Triples summed side by side. One chain waits on its own previous add;
/// eight independent chains keep the adders busy meanwhile.
constexpr std::size_t kChains = 8;
/// Elements per stack chunk of terms. The chains carry across chunks, so
/// any rank fits in kChains x kChunk doubles (4 KiB).
constexpr std::int32_t kChunk = 64;

/// out[j] = the left-to-right double sum, from 0.0, of triple j's k terms,
/// for j in [0, count). `terms(j, begin, n, dst)` writes triple j's terms
/// for elements [begin, begin + n) to dst. Inlined into each model's
/// cloned kernel, so the term loops compile per ISA.
template <typename Terms>
[[gnu::always_inline]] inline void sum_terms(std::size_t count,
                                             std::int32_t k,
                                             const Terms& terms,
                                             double* out) {
  double chunk[kChains][kChunk] = {};
  for (std::size_t j = 0; j < count; j += kChains) {
    const std::size_t group = std::min(kChains, count - j);
    double acc[kChains] = {};
    for (std::int32_t begin = 0; begin < k; begin += kChunk) {
      const std::int32_t n = std::min(kChunk, k - begin);
      for (std::size_t q = 0; q < kChains; ++q) {
        if (q < group) {
          terms(j + q, begin, n, chunk[q]);
        } else {
          std::fill_n(chunk[q], n, 0.0);  // an idle chain adds zeros
        }
      }
      for (std::int32_t i = 0; i < n; ++i) {
        for (std::size_t q = 0; q < kChains; ++q) acc[q] += chunk[q][i];
      }
    }
    std::copy_n(acc, group, out + j);
  }
}

// ---- ComplEx ---------------------------------------------------------

DYNKGE_KERNEL_CLONES
void complex_scores(const EmbeddingMatrix& entities,
                    const EmbeddingMatrix& relations,
                    std::span<const Triple> triples, std::int32_t k,
                    double* out) {
  const auto terms = [&](std::size_t j, std::int32_t begin, std::int32_t n,
                         double* __restrict dst)
      __attribute__((always_inline)) {
    const float* eh = entities.row(triples[j].head).data() + begin;
    const float* er = relations.row(triples[j].relation).data() + begin;
    const float* et = entities.row(triples[j].tail).data() + begin;
    for (std::int32_t i = 0; i < n; ++i) {
      const double h_re = eh[i], h_im = eh[k + i];
      const double r_re = er[i], r_im = er[k + i];
      const double t_re = et[i], t_im = et[k + i];
      dst[i] = h_re * r_re * t_re + h_im * r_re * t_im + h_re * r_im * t_im -
               h_im * r_im * t_re;
    }
  };
  sum_terms(triples.size(), k, terms, out);
}

DYNKGE_KERNEL_CLONES
void complex_grad(const float* __restrict eh, const float* __restrict er,
                  const float* __restrict et, float* __restrict gh,
                  float* __restrict gr, float* __restrict gt, float c,
                  std::int32_t k) {
  for (std::int32_t i = 0; i < k; ++i) {
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
}

// ---- TransE ----------------------------------------------------------

/// The L1 distance sum_i |h + r - t|; TransE scores gamma minus it.
DYNKGE_KERNEL_CLONES
void transe_distances(const EmbeddingMatrix& entities,
                      const EmbeddingMatrix& relations,
                      std::span<const Triple> triples, std::int32_t k,
                      double* out) {
  const auto terms = [&](std::size_t j, std::int32_t begin, std::int32_t n,
                         double* __restrict dst)
      __attribute__((always_inline)) {
    const float* eh = entities.row(triples[j].head).data() + begin;
    const float* er = relations.row(triples[j].relation).data() + begin;
    const float* et = entities.row(triples[j].tail).data() + begin;
    for (std::int32_t i = 0; i < n; ++i) {
      dst[i] = std::fabs(static_cast<double>(eh[i]) + er[i] - et[i]);
    }
  };
  sum_terms(triples.size(), k, terms, out);
}

DYNKGE_KERNEL_CLONES
void transe_grad(const float* __restrict eh, const float* __restrict er,
                 const float* __restrict et, float* __restrict gh,
                 float* __restrict gr, float* __restrict gt, float coeff,
                 std::int32_t k) {
  for (std::int32_t i = 0; i < k; ++i) {
    const float d = eh[i] + er[i] - et[i];
    const float s = d > 0.0f ? 1.0f : (d < 0.0f ? -1.0f : 0.0f);
    gh[i] += coeff * -s;
    gr[i] += coeff * -s;
    gt[i] += coeff * s;
  }
}

// ---- DistMult --------------------------------------------------------

DYNKGE_KERNEL_CLONES
void distmult_scores(const EmbeddingMatrix& entities,
                     const EmbeddingMatrix& relations,
                     std::span<const Triple> triples, std::int32_t k,
                     double* out) {
  const auto terms = [&](std::size_t j, std::int32_t begin, std::int32_t n,
                         double* __restrict dst)
      __attribute__((always_inline)) {
    const float* eh = entities.row(triples[j].head).data() + begin;
    const float* er = relations.row(triples[j].relation).data() + begin;
    const float* et = entities.row(triples[j].tail).data() + begin;
    for (std::int32_t i = 0; i < n; ++i) {
      dst[i] = static_cast<double>(eh[i]) * er[i] * et[i];
    }
  };
  sum_terms(triples.size(), k, terms, out);
}

DYNKGE_KERNEL_CLONES
void distmult_grad(const float* __restrict eh, const float* __restrict er,
                   const float* __restrict et, float* __restrict gh,
                   float* __restrict gr, float* __restrict gt, float coeff,
                   std::int32_t k) {
  for (std::int32_t i = 0; i < k; ++i) {
    gh[i] += coeff * er[i] * et[i];
    gr[i] += coeff * eh[i] * et[i];
    gt[i] += coeff * eh[i] * er[i];
  }
}

// ---- RotatE ----------------------------------------------------------

/// cos/sin of each relation's phase row, computed once per unique relation
/// per block. Doubles, matching the scalar path's
/// `const double c = std::cos(phases[i])` exactly.
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

/// The rotated distance sum_i |h_i e^{i theta_i} - t_i|; RotatE scores
/// gamma minus it.
DYNKGE_KERNEL_CLONES
void rotate_distances(const EmbeddingMatrix& entities,
                      const EmbeddingMatrix& relations,
                      RotatePhaseCache& cache,
                      std::span<const Triple> triples, std::int32_t k,
                      double* out) {
  const auto terms = [&](std::size_t j, std::int32_t begin, std::int32_t n,
                         double* __restrict dst)
      __attribute__((always_inline)) {
    const Triple& triple = triples[j];
    const float* eh = entities.row(triple.head).data() + begin;
    const float* et = entities.row(triple.tail).data() + begin;
    const double* cs =
        cache.get(triple.relation, relations.row(triple.relation)) + begin;
    for (std::int32_t i = 0; i < n; ++i) {
      const double c = cs[i];
      const double s = cs[k + i];
      const double d_re = eh[i] * c - eh[k + i] * s - et[i];
      const double d_im = eh[i] * s + eh[k + i] * c - et[k + i];
      dst[i] = std::sqrt(d_re * d_re + d_im * d_im + RotatEModel::kEpsilon);
    }
  };
  sum_terms(triples.size(), k, terms, out);
}

DYNKGE_KERNEL_CLONES
void rotate_grad(const float* __restrict eh, const float* __restrict et,
                 const double* __restrict cs, float* __restrict gh,
                 float* __restrict gr, float* __restrict gt, float coeff,
                 std::int32_t k) {
  for (std::int32_t i = 0; i < k; ++i) {
    const double c = cs[i];
    const double s = cs[k + i];
    const double h_re = eh[i], h_im = eh[k + i];
    const double d_re = h_re * c - h_im * s - et[i];
    const double d_im = h_re * s + h_im * c - et[k + i];
    const double m =
        std::sqrt(d_re * d_re + d_im * d_im + RotatEModel::kEpsilon);
    const double gd_re = -d_re / m * coeff;
    const double gd_im = -d_im / m * coeff;

    gh[i] += static_cast<float>(gd_re * c + gd_im * s);
    gh[k + i] += static_cast<float>(-gd_re * s + gd_im * c);
    gt[i] += static_cast<float>(-gd_re);
    gt[k + i] += static_cast<float>(-gd_im);
    gr[i] += static_cast<float>(gd_re * (-h_re * s - h_im * c) +
                                gd_im * (h_re * c - h_im * s));
  }
}

}  // namespace

// ---- ComplEx ---------------------------------------------------------

void ComplExModel::score_triples_block(std::span<const Triple> triples,
                                       std::span<double> out) const {
  complex_scores(entities_, relations_, triples, rank_, out.data());
}

void ComplExModel::accumulate_gradients_block(std::span<const GradWork> work,
                                              ModelGrads& grads) const {
  const std::int32_t k = rank_;
  for (const GradWork& w : work) {
    if (w.h == w.t) {
      accumulate_gradients(w.h, w.r, w.t, w.coeff, grads);
      continue;
    }
    complex_grad(entities_.row(w.h).data(), relations_.row(w.r).data(),
                 entities_.row(w.t).data(), w.gh, w.gr, w.gt, w.coeff, k);
  }
}

// ---- DistMult --------------------------------------------------------

void DistMultModel::score_triples_block(std::span<const Triple> triples,
                                        std::span<double> out) const {
  distmult_scores(entities_, relations_, triples, rank_, out.data());
}

void DistMultModel::accumulate_gradients_block(std::span<const GradWork> work,
                                               ModelGrads& grads) const {
  const std::int32_t k = rank_;
  for (const GradWork& w : work) {
    if (w.h == w.t) {
      accumulate_gradients(w.h, w.r, w.t, w.coeff, grads);
      continue;
    }
    distmult_grad(entities_.row(w.h).data(), relations_.row(w.r).data(),
                  entities_.row(w.t).data(), w.gh, w.gr, w.gt, w.coeff, k);
  }
}

// ---- TransE ----------------------------------------------------------

void TransEModel::score_triples_block(std::span<const Triple> triples,
                                      std::span<double> out) const {
  transe_distances(entities_, relations_, triples, rank_, out.data());
  for (std::size_t j = 0; j < triples.size(); ++j) out[j] = gamma_ - out[j];
}

void TransEModel::accumulate_gradients_block(std::span<const GradWork> work,
                                             ModelGrads& grads) const {
  const std::int32_t k = rank_;
  for (const GradWork& w : work) {
    if (w.h == w.t) {
      accumulate_gradients(w.h, w.r, w.t, w.coeff, grads);
      continue;
    }
    transe_grad(entities_.row(w.h).data(), relations_.row(w.r).data(),
                entities_.row(w.t).data(), w.gh, w.gr, w.gt, w.coeff, k);
  }
}

// ---- RotatE ----------------------------------------------------------

void RotatEModel::score_triples_block(std::span<const Triple> triples,
                                      std::span<double> out) const {
  const std::size_t max_relations =
      std::min(triples.size(), static_cast<std::size_t>(num_relations()));
  RotatePhaseCache cache(rank_, max_relations);
  rotate_distances(entities_, relations_, cache, triples, rank_, out.data());
  for (std::size_t j = 0; j < triples.size(); ++j) out[j] = gamma_ - out[j];
}

void RotatEModel::accumulate_gradients_block(std::span<const GradWork> work,
                                             ModelGrads& grads) const {
  const std::int32_t k = rank_;
  const std::size_t max_relations =
      std::min(work.size(), static_cast<std::size_t>(num_relations()));
  RotatePhaseCache cache(k, max_relations);
  for (const GradWork& w : work) {
    if (w.h == w.t) {
      // The scalar fallback recomputes cos/sin; same inputs, same values.
      accumulate_gradients(w.h, w.r, w.t, w.coeff, grads);
      continue;
    }
    const double* cs = cache.get(w.r, relations_.row(w.r));
    rotate_grad(entities_.row(w.h).data(), entities_.row(w.t).data(), cs,
                w.gh, w.gr, w.gt, w.coeff, k);
  }
}

}  // namespace dynkge::kge
