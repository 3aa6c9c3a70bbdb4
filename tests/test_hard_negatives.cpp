#include "core/hard_negatives.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "kge/complex_model.hpp"
#include "kge/synthetic.hpp"

namespace dynkge::core {
namespace {

struct Fixture {
  Fixture()
      : dataset(kge::generate_synthetic([] {
          kge::SyntheticSpec spec;
          spec.num_entities = 200;
          spec.num_relations = 12;
          spec.num_triples = 2500;
          spec.num_latent_types = 4;
          spec.seed = 77;
          return spec;
        }())),
        model(dataset.num_entities(), dataset.num_relations(), 8),
        sampler(dataset) {
    util::Rng rng(3);
    model.init(rng);
  }

  kge::Dataset dataset;
  kge::ComplExModel model;
  kge::NegativeSampler sampler;
};

TEST(HardNegatives, BaselinePathSkipsScoring) {
  Fixture f;
  util::Rng rng(1);
  kge::TripleList out;
  const int scored = select_hard_negatives(f.model, f.sampler,
                                           f.dataset.train()[0], 5, 5, rng,
                                           out);
  EXPECT_EQ(scored, 0);
  EXPECT_EQ(out.size(), 5u);
}

TEST(HardNegatives, SelectionPathScoresAllCandidates) {
  Fixture f;
  util::Rng rng(1);
  kge::TripleList out;
  const int scored = select_hard_negatives(f.model, f.sampler,
                                           f.dataset.train()[0], 10, 1, rng,
                                           out);
  EXPECT_EQ(scored, 10);
  EXPECT_EQ(out.size(), 1u);
}

TEST(HardNegatives, PicksTheHighestScoringCandidate) {
  Fixture f;
  const kge::Triple positive = f.dataset.train()[0];
  // Reproduce the candidate set with an identical rng stream, then verify
  // the selected one scores at least as high as every candidate.
  util::Rng selection_rng(42);
  kge::TripleList out;
  select_hard_negatives(f.model, f.sampler, positive, 8, 1, selection_rng,
                        out);
  ASSERT_EQ(out.size(), 1u);
  const double chosen =
      f.model.score(out[0].head, out[0].relation, out[0].tail);

  util::Rng replay_rng(42);
  for (int i = 0; i < 8; ++i) {
    const kge::Triple candidate = f.sampler.corrupt(positive, replay_rng);
    EXPECT_GE(chosen + 1e-9,
              f.model.score(candidate.head, candidate.relation,
                            candidate.tail));
  }
}

TEST(HardNegatives, MOutOfNReturnsSortedHardest) {
  Fixture f;
  util::Rng rng(9);
  kge::TripleList out;
  select_hard_negatives(f.model, f.sampler, f.dataset.train()[1], 12, 3, rng,
                        out);
  ASSERT_EQ(out.size(), 3u);
  const auto score = [&](const kge::Triple& t) {
    return f.model.score(t.head, t.relation, t.tail);
  };
  EXPECT_GE(score(out[0]) + 1e-9, score(out[1]));
  EXPECT_GE(score(out[1]) + 1e-9, score(out[2]));
}

TEST(HardNegatives, AppendsWithoutClearing) {
  Fixture f;
  util::Rng rng(2);
  kge::TripleList out;
  select_hard_negatives(f.model, f.sampler, f.dataset.train()[0], 4, 1, rng,
                        out);
  select_hard_negatives(f.model, f.sampler, f.dataset.train()[1], 4, 2, rng,
                        out);
  EXPECT_EQ(out.size(), 3u);
}

TEST(HardNegatives, AllNegativesShareTheRelation) {
  Fixture f;
  util::Rng rng(5);
  const kge::Triple positive = f.dataset.train()[2];
  kge::TripleList out;
  select_hard_negatives(f.model, f.sampler, positive, 10, 2, rng, out);
  for (const kge::Triple& negative : out) {
    EXPECT_EQ(negative.relation, positive.relation);
    EXPECT_NE(negative, positive);
  }
}

TEST(HardNegatives, RejectsBadCounts) {
  Fixture f;
  util::Rng rng(1);
  kge::TripleList out;
  EXPECT_THROW(select_hard_negatives(f.model, f.sampler, f.dataset.train()[0],
                                     0, 1, rng, out),
               std::invalid_argument);
  EXPECT_THROW(select_hard_negatives(f.model, f.sampler, f.dataset.train()[0],
                                     5, 0, rng, out),
               std::invalid_argument);
}

TEST(HardNegatives, DeterministicGivenSeed) {
  Fixture f;
  util::Rng r1(11), r2(11);
  kge::TripleList a, b;
  select_hard_negatives(f.model, f.sampler, f.dataset.train()[3], 10, 2, r1,
                        a);
  select_hard_negatives(f.model, f.sampler, f.dataset.train()[3], 10, 2, r2,
                        b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// ---- blocked selection vs the per-positive oracle ----------------------

/// What one selection run leaves behind: the appended negatives and
/// offsets (after any prefilled contents), the scoring count, and the next
/// value of the RNG stream.
struct Selection {
  kge::TripleList out;
  std::vector<std::size_t> offsets;
  std::size_t scored = 0;
  std::uint64_t rng_after = 0;
};

/// The oracle: select_hard_negatives per positive, offsets pushed after
/// each, exactly how a caller composed it before the blocked form.
Selection per_positive(const kge::KgeModel& model,
                       const kge::NegativeSampler& sampler,
                       std::span<const kge::Triple> positives, int sampled,
                       int used, Selection prefix) {
  util::Rng rng(97);
  for (const kge::Triple& positive : positives) {
    prefix.scored += static_cast<std::size_t>(select_hard_negatives(
        model, sampler, positive, sampled, used, rng, prefix.out));
    prefix.offsets.push_back(prefix.out.size());
  }
  prefix.rng_after = rng.next_u64();
  return prefix;
}

Selection blocked(const kge::KgeModel& model,
                  const kge::NegativeSampler& sampler,
                  std::span<const kge::Triple> positives, int sampled,
                  int used, Selection prefix) {
  util::Rng rng(97);
  HardNegativeScratch scratch;
  prefix.scored += select_hard_negatives_block(model, sampler, positives,
                                               sampled, used, rng, prefix.out,
                                               prefix.offsets, scratch);
  prefix.rng_after = rng.next_u64();
  return prefix;
}

void expect_same_selection(const Selection& expected, const Selection& got) {
  EXPECT_EQ(got.scored, expected.scored);
  EXPECT_EQ(got.offsets, expected.offsets);
  ASSERT_EQ(got.out.size(), expected.out.size());
  for (std::size_t i = 0; i < expected.out.size(); ++i) {
    EXPECT_EQ(got.out[i], expected.out[i]) << "negative " << i;
  }
  EXPECT_EQ(got.rng_after, expected.rng_after) << "RNG stream diverged";
}

std::span<const kge::Triple> batch_of(const Fixture& f, std::size_t n) {
  return std::span<const kge::Triple>(f.dataset.train()).subspan(0, n);
}

TEST(HardNegativesBlock, MatchesPerPositiveWhenMining) {
  Fixture f;
  const auto positives = batch_of(f, 13);
  const Selection expected =
      per_positive(f.model, f.sampler, positives, 7, 2, {});
  EXPECT_EQ(expected.scored, 13u * 7u);
  expect_same_selection(expected,
                        blocked(f.model, f.sampler, positives, 7, 2, {}));
}

TEST(HardNegativesBlock, MatchesPerPositiveOnTiedScores) {
  Fixture f;
  // Zeroing every other entity row makes every candidate that names one
  // score exactly 0, so most positives see a run of tied candidates that
  // straddles the `used` boundary: only an identical candidate sequence
  // and an identical sort call pick the same ones in the same order.
  kge::ComplExModel tied(f.dataset.num_entities(), f.dataset.num_relations(),
                         8);
  std::ranges::copy(f.model.entities().flat(), tied.entities().flat().begin());
  std::ranges::copy(f.model.relations().flat(),
                    tied.relations().flat().begin());
  for (kge::EntityId e = 0; e < tied.num_entities(); e += 2) {
    std::ranges::fill(tied.entities().row(e), 0.0f);
  }
  const auto positives = batch_of(f, 24);
  expect_same_selection(per_positive(tied, f.sampler, positives, 8, 3, {}),
                        blocked(tied, f.sampler, positives, 8, 3, {}));
}

TEST(HardNegativesBlock, UsingEverySampleSkipsScoring) {
  Fixture f;
  const auto positives = batch_of(f, 6);
  for (const int used : {5, 9}) {  // used == sampled and used > sampled
    const Selection expected =
        per_positive(f.model, f.sampler, positives, 5, used, {});
    EXPECT_EQ(expected.scored, 0u);
    EXPECT_EQ(expected.out.size(), 6u * 5u);
    expect_same_selection(
        expected, blocked(f.model, f.sampler, positives, 5, used, {}));
  }
}

TEST(HardNegativesBlock, EmptyBatchTouchesNothing) {
  Fixture f;
  for (const int used : {2, 4}) {
    const Selection got = blocked(f.model, f.sampler, {}, 4, used, {});
    EXPECT_EQ(got.scored, 0u);
    EXPECT_TRUE(got.out.empty());
    EXPECT_TRUE(got.offsets.empty());
    EXPECT_EQ(got.rng_after, util::Rng(97).next_u64());
  }
}

TEST(HardNegativesBlock, AppendsToExistingContents) {
  Fixture f;
  const auto positives = batch_of(f, 5);
  Selection prefix;
  prefix.out = {f.dataset.train()[20], f.dataset.train()[21]};
  prefix.offsets = {0, 7};
  for (const int used : {1, 6}) {
    const Selection expected =
        per_positive(f.model, f.sampler, positives, 6, used, prefix);
    // Offsets count from the start of `out`, prefilled triples included.
    EXPECT_EQ(expected.offsets.size(), 2u + positives.size());
    EXPECT_EQ(expected.offsets[2], 2u + static_cast<std::size_t>(used));
    expect_same_selection(
        expected, blocked(f.model, f.sampler, positives, 6, used, prefix));
  }
}

}  // namespace
}  // namespace dynkge::core
