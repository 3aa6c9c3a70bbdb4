// Blocked-kernel equivalence: the batched score/gradient/Adam kernels and
// the training step built on them must be byte-identical to the per-triple
// kernels — per kernel and per step on adversarial inputs (h == t
// aliasing, partial eight-triple groups, ranks off the vector width,
// extreme floats), and end to end through the trainer against golden
// digests across models, quantization modes, and selection strategies.
// "Byte-identical" is meant literally: every comparison below is memcmp
// over the raw float/double storage (or a digest of it), not an epsilon
// check.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/train_step.hpp"
#include "core/trainer.hpp"
#include "golden_digest.hpp"
#include "kge/model.hpp"
#include "kge/model_factory.hpp"
#include "kge/adam.hpp"
#include "kge/loss.hpp"
#include "kge/synthetic.hpp"
#include "util/rng.hpp"

namespace dynkge::core {
namespace {

using kge::EmbeddingMatrix;
using kge::GradWork;
using kge::KgeModel;
using kge::ModelGrads;
using kge::Triple;

constexpr const char* kModels[] = {"complex", "distmult", "transe", "rotate"};

std::unique_ptr<KgeModel> seeded_model(const std::string& name) {
  auto model = kge::make_model(name, 60, 12, 12);
  util::Rng rng(7);
  model->init(rng);
  return model;
}

/// A triple list that exercises the block kernels' edge cases: size 21 is
/// not a multiple of the eight-triple score group, and several triples
/// have h == t (the aliased-gradient fallback).
std::vector<Triple> adversarial_triples() {
  std::vector<Triple> triples;
  util::Rng rng(11);
  for (int i = 0; i < 21; ++i) {
    Triple triple;
    triple.head = static_cast<kge::EntityId>(rng.next_below(60));
    triple.relation = static_cast<kge::RelationId>(rng.next_below(12));
    triple.tail = (i % 5 == 0)
                      ? triple.head  // h == t: self-loop
                      : static_cast<kge::EntityId>(rng.next_below(60));
    triples.push_back(triple);
  }
  return triples;
}

bool same_bytes(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

// ---- direct kernel equivalence ---------------------------------------

/// Fill the first rows of both tables with values that stress the score
/// arithmetic: signed zeros, subnormals and +-1e30 (a product of three
/// reaches 1e90, still finite in double), each row in another rotation.
void plant_special_rows(KgeModel& model) {
  constexpr float kSpecial[] = {0.0f, -0.0f, 1e-40f, -1e-40f, 1e30f, -1e30f};
  for (kge::EntityId row = 0; row < 6; ++row) {
    for (EmbeddingMatrix* table : {&model.entities(), &model.relations()}) {
      const auto values = table->row(row);
      for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = kSpecial[(i + static_cast<std::size_t>(row)) % 6];
      }
    }
  }
}

TEST(BlockKernels, ScoreBlockBitIdenticalToScalar) {
  // Triples naming the special rows first, then the adversarial list.
  std::vector<Triple> triples;
  for (kge::EntityId e = 0; e < 6; ++e) {
    triples.push_back({e, e, (e + 1) % 6});
    triples.push_back({e, (e + 2) % 6, 7 + e});
  }
  for (const Triple& triple : adversarial_triples()) triples.push_back(triple);
  // Rank 5 leaves a remainder after every vector width; rank 70 carries
  // the chains across two term chunks.
  for (const std::int32_t rank : {12, 5, 70}) {
    for (const char* name : kModels) {
      auto model = kge::make_model(name, 60, 12, rank);
      util::Rng rng(7);
      model->init(rng);
      plant_special_rows(*model);
      // Every block length 0-17 covers every remainder of the eight-triple
      // group; the whole list covers several full groups.
      std::vector<std::size_t> lengths(18);
      std::iota(lengths.begin(), lengths.end(), 0);
      lengths.push_back(triples.size());
      for (const std::size_t length : lengths) {
        const std::span<const Triple> block(triples.data(), length);
        std::vector<double> blocked(length);
        model->score_triples_block(block, blocked);
        for (std::size_t i = 0; i < length; ++i) {
          const double scalar =
              model->score(block[i].head, block[i].relation, block[i].tail);
          // memcmp, not ==: catches a sign-of-zero or NaN-payload
          // divergence that double equality would wave through.
          EXPECT_EQ(std::memcmp(&scalar, &blocked[i], sizeof(double)), 0)
              << name << " rank " << rank << " length " << length
              << " triple " << i << ": scalar " << scalar << " blocked "
              << blocked[i];
        }
      }
    }
  }
}

TEST(BlockKernels, GradBlockBitIdenticalToScalar) {
  const auto triples = adversarial_triples();
  for (const char* name : kModels) {
    const auto model = seeded_model(name);

    // Scalar reference: one virtual call per work item, in order.
    ModelGrads scalar_grads = model->make_grads();
    float coeff = 0.05f;
    for (const Triple& triple : triples) {
      model->accumulate_gradients(triple.head, triple.relation, triple.tail,
                                  coeff, scalar_grads);
      coeff = -coeff * 0.9f;  // vary magnitude and sign across items
    }

    // Blocked path: create rows first (the offsets survive arena growth),
    // resolve pointers once, then hand the whole block to the model.
    ModelGrads blocked_grads = model->make_grads();
    std::vector<GradWork> work;
    std::vector<std::array<std::size_t, 3>> offsets;
    coeff = 0.05f;
    for (const Triple& triple : triples) {
      work.push_back({triple.head, triple.relation, triple.tail, coeff});
      offsets.push_back(
          {blocked_grads.entity.accumulate_offset(triple.head),
           blocked_grads.entity.accumulate_offset(triple.tail),
           blocked_grads.relation.accumulate_offset(triple.relation)});
      coeff = -coeff * 0.9f;
    }
    for (std::size_t w = 0; w < work.size(); ++w) {
      work[w].gh = blocked_grads.entity.row_at(offsets[w][0]).data();
      work[w].gt = blocked_grads.entity.row_at(offsets[w][1]).data();
      work[w].gr = blocked_grads.relation.row_at(offsets[w][2]).data();
    }
    model->accumulate_gradients_block(work, blocked_grads);

    ASSERT_EQ(scalar_grads.entity.num_rows(), blocked_grads.entity.num_rows())
        << name;
    ASSERT_EQ(scalar_grads.relation.num_rows(),
              blocked_grads.relation.num_rows())
        << name;
    for (const auto& slot : scalar_grads.entity.sorted_slots()) {
      EXPECT_TRUE(same_bytes(scalar_grads.entity.row(slot.id),
                             blocked_grads.entity.row(slot.id)))
          << name << " entity row " << slot.id;
    }
    for (const auto& slot : scalar_grads.relation.sorted_slots()) {
      EXPECT_TRUE(same_bytes(scalar_grads.relation.row(slot.id),
                             blocked_grads.relation.row(slot.id)))
          << name << " relation row " << slot.id;
    }
  }
}

// ---- blocked Adam ----------------------------------------------------

kge::SparseGrad make_test_grads(std::int32_t width) {
  kge::SparseGrad grads(width);
  util::Rng rng(23);
  for (std::int32_t id : {17, 3, 41, 0, 29}) {  // deliberately unsorted
    auto row = grads.accumulate(id);
    for (float& x : row) {
      x = static_cast<float>(rng.next_double() * 2.0 - 1.0);
    }
  }
  return grads;
}

TEST(BlockKernels, AdamUpdateRowsMatchesPerRowUpdates) {
  kge::AdamConfig config;
  config.learning_rate = 0.01;
  config.weight_decay = 1e-4;
  EmbeddingMatrix params_scalar(48, 12);
  util::Rng rng(31);
  for (float& x : params_scalar.flat()) {
    x = static_cast<float>(rng.next_double());
  }
  EmbeddingMatrix params_blocked = params_scalar;

  kge::RowAdam scalar_opt(48, 12, config);
  kge::RowAdam blocked_opt(48, 12, config);
  const kge::SparseGrad grads = make_test_grads(12);
  // Two steps so the second one exercises carried moment state too.
  for (int step = 0; step < 2; ++step) {
    scalar_opt.begin_step();
    blocked_opt.begin_step();
    for (const auto& slot : grads.sorted_slots()) {
      scalar_opt.update_row(slot.id, grads.row(slot.id), params_scalar);
    }
    blocked_opt.update_rows(grads, params_blocked);
    EXPECT_TRUE(same_bytes(params_scalar.flat(), params_blocked.flat()))
        << "step " << step;
  }
}

TEST(BlockKernels, AdamUpdateRowsScaledMatchesScaleThenUpdate) {
  kge::AdamConfig config;
  config.learning_rate = 0.02;
  EmbeddingMatrix params_scalar(48, 12);
  util::Rng rng(37);
  for (float& x : params_scalar.flat()) {
    x = static_cast<float>(rng.next_double());
  }
  EmbeddingMatrix params_blocked = params_scalar;
  const float scale = 1.0f / 3.0f;

  kge::RowAdam scalar_opt(48, 12, config);
  kge::RowAdam blocked_opt(48, 12, config);
  kge::SparseGrad grads_scalar = make_test_grads(12);
  kge::SparseGrad grads_blocked = make_test_grads(12);
  scalar_opt.begin_step();
  blocked_opt.begin_step();
  // Scalar relation-partition shape: scale the row, then update it.
  for (const auto& slot : grads_scalar.sorted_slots()) {
    auto row = grads_scalar.row(slot.id);
    for (float& x : row) x *= scale;
    scalar_opt.update_row(slot.id, row, params_scalar);
  }
  blocked_opt.update_rows_scaled(grads_blocked, scale, params_blocked);
  EXPECT_TRUE(same_bytes(params_scalar.flat(), params_blocked.flat()));
}

TEST(BlockKernels, AdamUpdateListedRowsMatchesPerRowUpdates) {
  kge::AdamConfig config;
  config.learning_rate = 0.01;
  config.weight_decay = 1e-4;
  EmbeddingMatrix params_scalar(48, 12);
  util::Rng rng(43);
  for (float& x : params_scalar.flat()) {
    x = static_cast<float>(rng.next_double());
  }
  EmbeddingMatrix params_listed = params_scalar;

  // Gradient rows 0, 3, 17, 29, 41; listed rows 3, 17, 29 and 40, so two
  // gradient rows are skipped and one listed row has no gradient.
  const std::vector<std::int32_t> listed{3, 17, 29, 40};
  kge::RowAdam scalar_opt(48, 12, config);
  kge::RowAdam listed_opt(static_cast<std::int32_t>(listed.size()), 12,
                          config);
  const kge::SparseGrad grads = make_test_grads(12);
  for (int step = 0; step < 2; ++step) {
    scalar_opt.begin_step();
    listed_opt.begin_step();
    for (const std::int32_t id : {3, 17, 29}) {
      scalar_opt.update_row(id, grads.row(id), params_scalar);
    }
    EXPECT_EQ(listed_opt.update_listed_rows(grads, listed, params_listed), 3u);
    EXPECT_TRUE(same_bytes(params_scalar.flat(), params_listed.flat()))
        << "step " << step;
    for (std::size_t k = 0; k < listed.size(); ++k) {
      const auto id = listed[k];
      const auto row = static_cast<std::int32_t>(k);
      EXPECT_TRUE(same_bytes(scalar_opt.moment1().row(id),
                             listed_opt.moment1().row(row)));
      EXPECT_TRUE(same_bytes(scalar_opt.moment2().row(id),
                             listed_opt.moment2().row(row)));
    }
  }
  const std::vector<std::int32_t> too_few{3, 17};
  EXPECT_THROW(listed_opt.update_listed_rows(grads, too_few, params_listed),
               std::invalid_argument);
}

// ---- the training step ------------------------------------------------

/// Negatives for adversarial_triples(): positive i gets i % 4 of them
/// (so groups are uneven and some empty), every third one a self-loop.
struct StepBatch {
  std::vector<Triple> positives = adversarial_triples();
  std::vector<Triple> negatives;
  std::vector<std::size_t> offsets{0};

  StepBatch() {
    util::Rng rng(41);
    for (std::size_t i = 0; i < positives.size(); ++i) {
      for (std::size_t n = 0; n < i % 4; ++n) {
        Triple negative = positives[i];
        negative.tail = static_cast<kge::EntityId>(rng.next_below(60));
        if (negatives.size() % 3 == 0) negative.head = negative.tail;
        negatives.push_back(negative);
      }
      offsets.push_back(negatives.size());
    }
  }
};

/// The per-triple oracle: score -> logistic_loss -> accumulate_gradients
/// for each positive and then each of its negatives, in order. Returns how
/// many examples passed the cut.
std::size_t per_triple_step(const KgeModel& model, const StepBatch& batch,
                            float scale, double cut, ModelGrads& grads,
                            double& loss_sum) {
  std::size_t kept = 0;
  const auto example = [&](const Triple& t, int label) {
    const auto lg =
        kge::logistic_loss(model.score(t.head, t.relation, t.tail), label);
    loss_sum += lg.loss;
    if (std::fabs(lg.dscore) < cut) return;
    model.accumulate_gradients(t.head, t.relation, t.tail,
                               static_cast<float>(lg.dscore) * scale, grads);
    ++kept;
  };
  for (std::size_t i = 0; i < batch.positives.size(); ++i) {
    example(batch.positives[i], +1);
    for (std::size_t n = batch.offsets[i]; n < batch.offsets[i + 1]; ++n) {
      example(batch.negatives[n], -1);
    }
  }
  return kept;
}

void expect_same_grads(const kge::SparseGrad& expected,
                       const kge::SparseGrad& got, const std::string& what) {
  ASSERT_EQ(got.num_rows(), expected.num_rows()) << what;
  for (const auto& slot : expected.sorted_slots()) {
    ASSERT_TRUE(got.has(slot.id)) << what << " row " << slot.id;
    EXPECT_TRUE(same_bytes(expected.row(slot.id), got.row(slot.id)))
        << what << " row " << slot.id;
  }
}

TEST(TrainStep, ForwardBackwardMatchesPerTripleComposition) {
  const StepBatch batch;
  const std::size_t examples = batch.positives.size() + batch.negatives.size();
  ASSERT_NE(examples % 8, 0u);  // the last score group is partial
  const float scale = 1.0f / static_cast<float>(examples);
  // 0 keeps every example; 0.5 drops roughly the half of the examples the
  // model already classifies correctly, so the cut path runs for real.
  for (const double cut : {0.0, 0.5}) {
    for (const char* name : kModels) {
      const std::string what =
          std::string(name) + " cut " + std::to_string(cut);
      const auto model = seeded_model(name);
      ModelGrads expected = model->make_grads();
      double expected_loss = 0.25;  // accumulates onto an existing sum
      const std::size_t kept = per_triple_step(*model, batch, scale, cut,
                                               expected, expected_loss);
      if (cut > 0.0) {
        ASSERT_GT(kept, 0u) << what;
        ASSERT_LT(kept, examples) << what;
      }

      ModelGrads got = model->make_grads();
      double got_loss = 0.25;
      StepScratch scratch;
      forward_backward(*model, batch.positives, batch.negatives,
                       batch.offsets, scale, cut, got, got_loss, scratch);

      EXPECT_EQ(std::memcmp(&expected_loss, &got_loss, sizeof(double)), 0)
          << what << ": loss " << expected_loss << " vs " << got_loss;
      expect_same_grads(expected.entity, got.entity, what + " entity");
      expect_same_grads(expected.relation, got.relation, what + " relation");
    }
  }
}

TEST(TrainStep, EmptyBatchIsANoop) {
  const auto model = seeded_model("complex");
  ModelGrads grads = model->make_grads();
  double loss = 0.0;
  StepScratch scratch;
  const std::vector<std::size_t> offsets{0};
  forward_backward(*model, {}, {}, offsets, 1.0f, 0.0, grads, loss, scratch);
  EXPECT_TRUE(grads.entity.empty());
  EXPECT_TRUE(grads.relation.empty());
  EXPECT_EQ(loss, 0.0);
}

TEST(TrainStep, RejectsMismatchedOffsets) {
  const StepBatch batch;
  const auto model = seeded_model("complex");
  ModelGrads grads = model->make_grads();
  double loss = 0.0;
  StepScratch scratch;
  const std::vector<std::size_t> short_offsets(batch.offsets.begin(),
                                               batch.offsets.end() - 1);
  EXPECT_THROW(forward_backward(*model, batch.positives, batch.negatives,
                                short_offsets, 1.0f, 0.0, grads, loss,
                                scratch),
               std::invalid_argument);
}

// ---- end-to-end trainer goldens --------------------------------------

const kge::Dataset& tiny_dataset() {
  static const kge::Dataset dataset = kge::generate_synthetic([] {
    kge::SyntheticSpec spec;
    spec.num_entities = 300;
    spec.num_relations = 24;
    spec.num_triples = 4000;
    spec.num_latent_types = 6;
    spec.seed = 99;
    return spec;
  }());
  return dataset;
}

struct TrainerCase {
  const char* model;
  QuantMode quant;
  SelectionMode selection;
};

std::string case_name(const testing::TestParamInfo<TrainerCase>& info) {
  std::string name = info.param.model;
  name += info.param.quant == QuantMode::kNone     ? "_raw"
          : info.param.quant == QuantMode::kOneBit ? "_1bit"
                                                   : "_2bit";
  name += info.param.selection == SelectionMode::kNone       ? "_dense"
          : info.param.selection == SelectionMode::kBernoulli ? "_rs"
                                                              : "_topk";
  return name;
}

// Golden FNV-1a digests of the final entity bytes then relation bytes,
// one per case. Captured on x86-64, GCC 12, glibc 2.36 libm while the
// per-triple and blocked trainer paths still coexisted and agreed byte for
// byte, so each case has a single digest. Another libm or ISA may move
// them (DESIGN.md section 10); a change on this platform is a real
// numerical change and must not be re-captured to make the test pass.
const std::map<std::string, std::uint64_t>& trainer_goldens() {
  static const std::map<std::string, std::uint64_t> goldens = {
      {"complex_raw_dense", 0x594ac04b1fad1870ULL},
      {"complex_raw_rs", 0x94a02b4be405ea30ULL},
      {"complex_raw_topk", 0x454cf753ca2265a4ULL},
      {"complex_1bit_dense", 0x4d8f94afdb1b5aadULL},
      {"complex_1bit_rs", 0x4baa2ed07c6c68c8ULL},
      {"complex_1bit_topk", 0x9ddbedf665e6b54eULL},
      {"complex_2bit_dense", 0x930e2d5d5630bcc0ULL},
      {"complex_2bit_rs", 0x50367d01600f7b77ULL},
      {"complex_2bit_topk", 0x6727925bd294c41aULL},
      {"distmult_raw_dense", 0xdf8f8ad56e36ded8ULL},
      {"distmult_raw_rs", 0x274b0163263c1186ULL},
      {"distmult_raw_topk", 0x1e88e2dd9be14e75ULL},
      {"distmult_1bit_dense", 0x2090adc8ff745558ULL},
      {"distmult_1bit_rs", 0xc0d13b68d975debcULL},
      {"distmult_1bit_topk", 0x5ea8bc783e9d3bb9ULL},
      {"distmult_2bit_dense", 0x83dca2d8bd45c39bULL},
      {"distmult_2bit_rs", 0x31cbc702551039abULL},
      {"distmult_2bit_topk", 0x6222771417993bc2ULL},
      {"transe_raw_dense", 0x1881ba597e9b4368ULL},
      {"transe_raw_rs", 0xa72786609c6088a5ULL},
      {"transe_raw_topk", 0x5095133ffcde5085ULL},
      {"transe_1bit_dense", 0xe681db7337e25ad5ULL},
      {"transe_1bit_rs", 0x50f0516eb48b751fULL},
      {"transe_1bit_topk", 0x0d27a07a52655308ULL},
      {"transe_2bit_dense", 0x78b7209d10aeb5b2ULL},
      {"transe_2bit_rs", 0xfd390aa49cfa2a34ULL},
      {"transe_2bit_topk", 0xf1ffb01b6e7d269eULL},
      {"rotate_raw_dense", 0xe7fb09a32e2ea658ULL},
      {"rotate_raw_rs", 0x88bce1b72381ed95ULL},
      {"rotate_raw_topk", 0x5257b388c2f6d4adULL},
      {"rotate_1bit_dense", 0xc4445f54381e9c88ULL},
      {"rotate_1bit_rs", 0xcdf1eb669eb0ee18ULL},
      {"rotate_1bit_topk", 0xec409b635cea69cbULL},
      {"rotate_2bit_dense", 0x2ea80445885868e2ULL},
      {"rotate_2bit_rs", 0xb3153e1afbc8fe02ULL},
      {"rotate_2bit_topk", 0xa27a0cc5343fd361ULL},
  };
  return goldens;
}

class TrainerBlockEquivalence : public testing::TestWithParam<TrainerCase> {};

TEST_P(TrainerBlockEquivalence, BlockedPathIsByteIdentical) {
  const TrainerCase& param = GetParam();
  TrainConfig config;
  config.model_name = param.model;
  config.embedding_rank = 8;
  config.num_nodes = 2;
  config.batch_size = 200;
  config.max_epochs = 5;
  config.lr.base_lr = 0.01;
  config.lr.tolerance = 6;
  config.compute_final_metrics = false;
  config.seed = 4242;
  // All-gather so quantization and selection are actually on the wire;
  // sample selection (4 sampled, 1 used) drives the blocked hard-negative
  // scoring path as well.
  config.strategy.comm = CommMode::kAllGather;
  config.strategy.quant = param.quant;
  config.strategy.selection = param.selection;
  if (param.selection == SelectionMode::kTopK) {
    // Tight enough to actually drop rows at batch 200, with error
    // feedback so the dropped mass flows through later steps too.
    config.strategy.topk_k = 24;
    config.strategy.selection_residual = true;
  }
  config.strategy.negatives_sampled = 4;
  config.strategy.negatives_used = 1;

  const auto report = DistributedTrainer(tiny_dataset(), config).train();

  const std::string name = case_name({param, 0});
  const std::uint64_t digest = testing_util::model_digest(*report.model);
  const auto golden = trainer_goldens().find(name);
  ASSERT_NE(golden, trainer_goldens().end()) << name << ": no golden";
  EXPECT_EQ(digest, golden->second)
      << name << ": golden " << testing_util::hex64(golden->second)
      << ", got " << testing_util::hex64(digest);
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsQuantSelection, TrainerBlockEquivalence,
    testing::ValuesIn([] {
      std::vector<TrainerCase> cases;
      for (const char* model : kModels) {
        for (const QuantMode quant :
             {QuantMode::kNone, QuantMode::kOneBit, QuantMode::kTwoBit}) {
          for (const SelectionMode selection :
               {SelectionMode::kNone, SelectionMode::kBernoulli,
                SelectionMode::kTopK}) {
            cases.push_back({model, quant, selection});
          }
        }
      }
      return cases;
    }()),
    case_name);

}  // namespace
}  // namespace dynkge::core
