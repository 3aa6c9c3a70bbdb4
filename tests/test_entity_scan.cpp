// Entity-scan equivalence: KgeModel::score_entities_block must be
// byte-identical, for all four models and both directions, to the serial
// scans it replaced. Those are kept below verbatim as the reference: the
// ComplEx and DistMult tail and head scans, the RotatE tail scan, and the
// per-candidate score() loop that TransE (both sides) and RotatE heads
// ran. Covered: ranks off the vector width and across term chunks, every
// query count 1-17 with directions and relations mixed (whole tiles,
// short tiles, one-query tiles), begin offsets, every length 0-17 and the
// whole table. Comparisons are memcmp over the raw doubles.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "kge/model.hpp"
#include "kge/model_factory.hpp"
#include "kge/rotate_model.hpp"
#include "util/rng.hpp"

namespace dynkge::kge {
namespace {

constexpr const char* kModels[] = {"complex", "distmult", "transe", "rotate"};
constexpr std::int32_t kEntities = 41;
constexpr std::int32_t kRelations = 11;

// ---- the serial scans the entity scan replaced -------------------------

/// out[j] = phi(query, begin + j), as each model scored it before the
/// entity scan: one chain per candidate, with the models' own
/// precomposition (members named as in the model classes).
class SerialScanReference {
 public:
  explicit SerialScanReference(const KgeModel& model)
      : model_(model),
        name_(model.spec().name),
        entities_(model.entities()),
        relations_(model.relations()),
        rank_(model.spec().rank),
        gamma_(model.spec().margin) {}

  void scan(const EntityQuery& query, EntityId begin,
            std::span<double> out) const {
    const bool tail = query.direction == Direction::kTail;
    if (name_ == "complex") {
      return tail ? complex_tails(query.entity, query.relation, begin, out)
                  : complex_heads(query.relation, query.entity, begin, out);
    }
    if (name_ == "distmult") {
      // DistMult is symmetric in h and t.
      return distmult_tails(query.entity, query.relation, begin, out);
    }
    if (name_ == "rotate" && tail) {
      return rotate_tails(query.entity, query.relation, begin, out);
    }
    per_candidate(query, begin, out);
  }

 private:
  void complex_tails(EntityId h, RelationId r, EntityId begin,
                     std::span<double> out) const {
    const auto eh = entities_.row(h);
    const auto er = relations_.row(r);
    const std::int32_t k = rank_;
    // Compose c = E_h * E_r (complex product); then phi(t) = Re(<c, conj(t)>).
    std::vector<float> c_re(k), c_im(k);
    for (std::int32_t i = 0; i < k; ++i) {
      c_re[i] = eh[i] * er[i] - eh[k + i] * er[k + i];
      c_im[i] = eh[k + i] * er[i] + eh[i] * er[k + i];
    }
    for (std::size_t j = 0; j < out.size(); ++j) {
      const auto et = entities_.row(begin + static_cast<EntityId>(j));
      double acc = 0.0;
      for (std::int32_t i = 0; i < k; ++i) {
        acc += static_cast<double>(c_re[i]) * et[i] +
               static_cast<double>(c_im[i]) * et[k + i];
      }
      out[j] = acc;
    }
  }

  void complex_heads(RelationId r, EntityId t, EntityId begin,
                     std::span<double> out) const {
    const auto er = relations_.row(r);
    const auto et = entities_.row(t);
    const std::int32_t k = rank_;
    // phi as a function of h is linear: phi = <d_re, h_re> + <d_im, h_im>.
    std::vector<float> d_re(k), d_im(k);
    for (std::int32_t i = 0; i < k; ++i) {
      d_re[i] = er[i] * et[i] + er[k + i] * et[k + i];
      d_im[i] = er[i] * et[k + i] - er[k + i] * et[i];
    }
    for (std::size_t j = 0; j < out.size(); ++j) {
      const auto eh = entities_.row(begin + static_cast<EntityId>(j));
      double acc = 0.0;
      for (std::int32_t i = 0; i < k; ++i) {
        acc += static_cast<double>(d_re[i]) * eh[i] +
               static_cast<double>(d_im[i]) * eh[k + i];
      }
      out[j] = acc;
    }
  }

  void distmult_tails(EntityId h, RelationId r, EntityId begin,
                      std::span<double> out) const {
    const auto eh = entities_.row(h);
    const auto er = relations_.row(r);
    std::vector<float> composed(rank_);
    for (std::int32_t i = 0; i < rank_; ++i) composed[i] = eh[i] * er[i];
    for (std::size_t j = 0; j < out.size(); ++j) {
      const auto et = entities_.row(begin + static_cast<EntityId>(j));
      double acc = 0.0;
      for (std::int32_t i = 0; i < rank_; ++i) {
        acc += static_cast<double>(composed[i]) * et[i];
      }
      out[j] = acc;
    }
  }

  void rotate_tails(EntityId h, RelationId r, EntityId begin,
                    std::span<double> out) const {
    constexpr double kEpsilon = RotatEModel::kEpsilon;
    const auto eh = entities_.row(h);
    const auto phases = relations_.row(r);
    const std::int32_t k = rank_;
    // Rotate the head once; each candidate then costs one pass.
    std::vector<float> rotated(2 * k);
    for (std::int32_t i = 0; i < k; ++i) {
      const float c = std::cos(phases[i]);
      const float s = std::sin(phases[i]);
      rotated[i] = eh[i] * c - eh[k + i] * s;
      rotated[k + i] = eh[i] * s + eh[k + i] * c;
    }
    for (std::size_t j = 0; j < out.size(); ++j) {
      const auto et = entities_.row(begin + static_cast<EntityId>(j));
      double distance = 0.0;
      for (std::int32_t i = 0; i < k; ++i) {
        const double d_re = rotated[i] - et[i];
        const double d_im = rotated[k + i] - et[k + i];
        distance += std::sqrt(d_re * d_re + d_im * d_im + kEpsilon);
      }
      out[j] = gamma_ - distance;
    }
  }

  /// KgeModel's default scans: one score() per candidate.
  void per_candidate(const EntityQuery& query, EntityId begin,
                     std::span<double> out) const {
    for (std::size_t i = 0; i < out.size(); ++i) {
      const EntityId e = begin + static_cast<EntityId>(i);
      out[i] = query.direction == Direction::kTail
                   ? model_.score(query.entity, query.relation, e)
                   : model_.score(e, query.relation, query.entity);
    }
  }

  const KgeModel& model_;
  std::string name_;
  const EmbeddingMatrix& entities_;
  const EmbeddingMatrix& relations_;
  std::int32_t rank_;
  float gamma_;
};

/// Fill the first rows of both tables with signed zeros, subnormals and
/// +-1e30, each row in another rotation, as test_block_kernels does.
void plant_special_rows(KgeModel& model) {
  constexpr float kSpecial[] = {0.0f, -0.0f, 1e-40f, -1e-40f, 1e30f, -1e30f};
  for (EntityId row = 0; row < 6; ++row) {
    for (EmbeddingMatrix* table : {&model.entities(), &model.relations()}) {
      const auto values = table->row(row);
      for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = kSpecial[(i + static_cast<std::size_t>(row)) % 6];
      }
    }
  }
}

std::unique_ptr<KgeModel> special_model(const std::string& name,
                                        std::int32_t rank) {
  auto model = make_model(name, kEntities, kRelations, rank);
  util::Rng rng(7);
  model->init(rng);
  plant_special_rows(*model);
  return model;
}

/// 17 queries with directions drawn at random: the first six on the
/// special rows (entity and relation i), the others on ordinary rows,
/// where a score is not swamped by a +-1e30 term.
std::vector<EntityQuery> mixed_queries() {
  util::Rng rng(19);
  std::vector<EntityQuery> queries;
  for (EntityId i = 0; i < 17; ++i) {
    const Direction direction =
        rng.next_bernoulli(0.5) ? Direction::kTail : Direction::kHead;
    if (i < 6) {
      queries.push_back({direction, i, i});
      continue;
    }
    queries.push_back(
        {direction, static_cast<EntityId>(6 + rng.next_below(kEntities - 6)),
         static_cast<RelationId>(6 + rng.next_below(kRelations - 6))});
  }
  return queries;
}

bool same_bytes(std::span<const double> a, std::span<const double> b) {
  // An empty vector's data() may be null, which memcmp must not see.
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

TEST(EntityScan, MatchesSerialScans) {
  const std::vector<EntityQuery> queries = mixed_queries();
  // (begin, length): every length 0-17 at three offsets, and the table.
  std::vector<std::pair<EntityId, std::size_t>> ranges;
  for (const EntityId begin : {0, 3, 13}) {
    for (std::size_t length = 0; length <= 17; ++length) {
      ranges.emplace_back(begin, length);
    }
  }
  ranges.emplace_back(0, static_cast<std::size_t>(kEntities));
  // Rank 5 leaves a remainder after every vector width; rank 70 carries
  // the one-query chains across two term chunks.
  for (const std::int32_t rank : {5, 12, 32, 70}) {
    for (const char* name : kModels) {
      const auto model = special_model(name, rank);
      const SerialScanReference reference(*model);
      std::vector<std::vector<double>> expected(queries.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        expected[q].resize(kEntities);
        reference.scan(queries[q], 0, expected[q]);
      }
      for (std::size_t n = 1; n <= queries.size(); ++n) {
        const std::span<const EntityQuery> prefix(queries.data(), n);
        for (const auto& [begin, length] : ranges) {
          // Sized exactly, so a sanitizer build catches a write past it.
          std::vector<double> out(n * length);
          model->score_entities_block(prefix, begin, length, out);
          for (std::size_t q = 0; q < n; ++q) {
            const std::span<const double> want(expected[q].data() + begin,
                                               length);
            EXPECT_TRUE(same_bytes(
                want, std::span<const double>(out.data() + q * length,
                                              length)))
                << name << " rank " << rank << " queries " << n << " begin "
                << begin << " length " << length << " query " << q;
          }
        }
      }
    }
  }
}

TEST(EntityScan, OneQueryCallsMatchSerialScans) {
  const std::vector<EntityQuery> queries = mixed_queries();
  for (const std::int32_t rank : {5, 32}) {
    for (const char* name : kModels) {
      const auto model = special_model(name, rank);
      const SerialScanReference reference(*model);
      for (const EntityQuery& q : queries) {
        std::vector<double> expected(kEntities), all(kEntities), block(9);
        reference.scan(q, 0, expected);
        if (q.direction == Direction::kTail) {
          model->score_all_tails(q.entity, q.relation, all);
          model->score_tails_block(q.entity, q.relation, 30, block);
        } else {
          model->score_all_heads(q.relation, q.entity, all);
          model->score_heads_block(q.relation, q.entity, 30, block);
        }
        EXPECT_TRUE(same_bytes(expected, all)) << name << " rank " << rank;
        EXPECT_TRUE(same_bytes(std::span<const double>(expected).subspan(30, 9),
                               block))
            << name << " rank " << rank;
      }
    }
  }
}

}  // namespace
}  // namespace dynkge::kge
