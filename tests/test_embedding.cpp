#include "kge/embedding.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "row_ids.hpp"

namespace dynkge::kge {
namespace {

using testing_util::row_ids;

TEST(EmbeddingMatrix, ShapeAndZeroInit) {
  EmbeddingMatrix m(5, 4);
  EXPECT_EQ(m.rows(), 5);
  EXPECT_EQ(m.width(), 4);
  EXPECT_EQ(m.size_bytes(), 5u * 4u * sizeof(float));
  for (int r = 0; r < 5; ++r) {
    for (const float v : m.row(r)) EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

TEST(EmbeddingMatrix, RowsAreDisjoint) {
  EmbeddingMatrix m(3, 2);
  m.row(1)[0] = 7.0f;
  EXPECT_FLOAT_EQ(m.row(0)[0], 0.0f);
  EXPECT_FLOAT_EQ(m.row(1)[0], 7.0f);
  EXPECT_FLOAT_EQ(m.row(2)[0], 0.0f);
}

TEST(EmbeddingMatrix, RejectsBadShape) {
  EXPECT_THROW(EmbeddingMatrix(0, 4), std::invalid_argument);
  EXPECT_THROW(EmbeddingMatrix(4, 0), std::invalid_argument);
}

TEST(EmbeddingMatrix, UniformInitWithinBounds) {
  EmbeddingMatrix m(10, 8);
  util::Rng rng(1);
  m.init_uniform(rng, 0.5f);
  bool any_nonzero = false;
  for (const float v : m.flat()) {
    EXPECT_GE(v, -0.5f);
    EXPECT_LE(v, 0.5f);
    any_nonzero |= (v != 0.0f);
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(EmbeddingMatrix, NormalInitIsDeterministic) {
  EmbeddingMatrix a(4, 4), b(4, 4);
  util::Rng ra(9), rb(9);
  a.init_normal(ra, 1.0f);
  b.init_normal(rb, 1.0f);
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    EXPECT_FLOAT_EQ(a.flat()[i], b.flat()[i]);
  }
}

TEST(SparseGrad, CreatesRowsZeroFilled) {
  SparseGrad g(3);
  EXPECT_TRUE(g.empty());
  auto row = g.accumulate(7);
  EXPECT_EQ(row.size(), 3u);
  for (const float v : row) EXPECT_FLOAT_EQ(v, 0.0f);
  EXPECT_EQ(g.num_rows(), 1u);
  EXPECT_TRUE(g.has(7));
  EXPECT_FALSE(g.has(8));
}

TEST(SparseGrad, AccumulateReturnsSameRow) {
  SparseGrad g(2);
  g.accumulate(3)[0] = 1.0f;
  g.accumulate(3)[0] += 2.0f;
  EXPECT_FLOAT_EQ(g.row(3)[0], 3.0f);
  EXPECT_EQ(g.num_rows(), 1u);
}

TEST(SparseGrad, SortedIdsAscending) {
  SparseGrad g(1);
  for (const int id : {42, 7, 100, 3}) g.accumulate(id);
  const auto ids = row_ids(g);
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids[0], 3);
  EXPECT_EQ(ids[1], 7);
  EXPECT_EQ(ids[2], 42);
  EXPECT_EQ(ids[3], 100);
}

TEST(SparseGrad, SortedIdsRefreshAfterNewRows) {
  SparseGrad g(1);
  g.accumulate(5);
  EXPECT_EQ(row_ids(g).size(), 1u);
  g.accumulate(2);
  const auto ids = row_ids(g);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 2);
}

TEST(SparseGrad, EraseRemovesRow) {
  SparseGrad g(2);
  g.accumulate(1)[0] = 1.0f;
  g.accumulate(2)[0] = 2.0f;
  g.erase(1);
  EXPECT_FALSE(g.has(1));
  EXPECT_TRUE(g.has(2));
  EXPECT_EQ(g.num_rows(), 1u);
  EXPECT_EQ(row_ids(g).size(), 1u);
  EXPECT_THROW(g.row(1), std::out_of_range);
  g.erase(99);  // erasing an absent row is a no-op
  EXPECT_EQ(g.num_rows(), 1u);
}

TEST(SparseGrad, EraseHandsItsRowToTheNextCreate) {
  SparseGrad g(2);
  for (const int id : {1, 2, 3}) g.accumulate(id)[0] = 5.0f;
  const std::size_t freed = g.accumulate_offset(2);
  g.erase(2);
  EXPECT_EQ(g.accumulate_offset(40), freed);
  EXPECT_EQ(g.row(40)[0], 0.0f);  // zero-filled, not row 2's values
  EXPECT_EQ(g.accumulate_offset(41), 3 * 2u);  // then the next arena row
}

TEST(SparseGrad, ClearResets) {
  SparseGrad g(2);
  g.accumulate(1);
  g.clear();
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(row_ids(g).size(), 0u);
  // Reusable after clear.
  g.accumulate(9)[1] = 4.0f;
  EXPECT_FLOAT_EQ(g.row(9)[1], 4.0f);
}

TEST(SparseGrad, ManyRowsSurviveArenaGrowth) {
  SparseGrad g(8);
  for (int id = 0; id < 500; ++id) {
    auto row = g.accumulate(id);
    row[0] = static_cast<float>(id);
  }
  for (int id = 0; id < 500; ++id) {
    EXPECT_FLOAT_EQ(g.row(id)[0], static_cast<float>(id));
  }
}

TEST(SparseGrad, RejectsBadWidth) {
  EXPECT_THROW(SparseGrad(0), std::invalid_argument);
  EXPECT_THROW(SparseGrad(-3), std::invalid_argument);
}

TEST(SparseGrad, RowThrowsForMissing) {
  SparseGrad g(2);
  EXPECT_THROW(g.row(5), std::out_of_range);
  const SparseGrad& cg = g;
  EXPECT_THROW(cg.row(5), std::out_of_range);
}

TEST(SparseGrad, NegativeIdIsAbsentAndCannotBeCreated) {
  SparseGrad g(2);
  EXPECT_FALSE(g.has(-1));
  EXPECT_THROW(g.accumulate(-1), std::out_of_range);
  EXPECT_THROW(g.accumulate_offset(-7), std::out_of_range);
  EXPECT_THROW(g.row(-1), std::out_of_range);
  g.erase(-1);  // absent, so a no-op
  EXPECT_TRUE(g.empty());
  EXPECT_TRUE(row_ids(g).empty());
}

/// The semantics SparseGrad must keep, stated on a std::map: a row is
/// created zero-filled at the offset most recently freed by an erase, or
/// else at the next arena row; clear() forgets both the rows and the freed
/// offsets; iteration is by ascending id.
struct ReferenceGrad {
  struct Row {
    std::size_t offset;
    std::vector<float> values;
  };
  std::map<std::int32_t, Row> rows;
  std::size_t arena_rows = 0;
  std::vector<std::size_t> freed;  ///< offsets, the most recent last

  Row& accumulate(std::int32_t id, std::int32_t width) {
    const auto it = rows.find(id);
    if (it != rows.end()) return it->second;
    std::size_t offset = arena_rows * static_cast<std::size_t>(width);
    if (freed.empty()) {
      ++arena_rows;
    } else {
      offset = freed.back();
      freed.pop_back();
    }
    Row row{offset, std::vector<float>(static_cast<std::size_t>(width), 0.0f)};
    return rows.emplace(id, std::move(row)).first->second;
  }

  void erase(std::int32_t id) {
    const auto it = rows.find(id);
    if (it == rows.end()) return;
    freed.push_back(it->second.offset);
    rows.erase(it);
  }

  void clear() {
    rows.clear();
    arena_rows = 0;
    freed.clear();
  }
};

void expect_matches(const SparseGrad& g, const ReferenceGrad& ref,
                    const std::set<std::int32_t>& ever_touched,
                    const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(g.num_rows(), ref.rows.size());
  ASSERT_EQ(g.empty(), ref.rows.empty());
  for (const auto& [id, row] : ref.rows) {
    ASSERT_TRUE(g.has(id)) << "id " << id;
    const auto got = g.row(id);
    ASSERT_EQ(got.size(), row.values.size());
    ASSERT_EQ(std::memcmp(got.data(), row.values.data(), got.size_bytes()),
              0)
        << "row bytes of id " << id;
  }
  const auto& slots = g.sorted_slots();
  ASSERT_EQ(slots.size(), ref.rows.size());
  std::size_t i = 0;
  for (const auto& [id, row] : ref.rows) {
    ASSERT_EQ(slots[i].id, id);
    ASSERT_EQ(slots[i].offset, row.offset) << "arena offset of " << id;
    ASSERT_EQ(g.row_at(slots[i].offset).data(), g.row(id).data());
    ++i;
  }
  // Erased and cleared ids must read absent: a stale index entry would
  // hand out an arena row that no longer exists.
  EXPECT_FALSE(g.has(-1));
  for (const std::int32_t id : ever_touched) {
    ASSERT_EQ(g.has(id), ref.rows.count(id) != 0) << "id " << id;
  }
}

TEST(SparseGrad, MatchesReferenceMap) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    util::Rng rng(seed);
    const auto width = static_cast<std::int32_t>(1 + rng.next_below(9));
    SparseGrad g(width);
    ReferenceGrad ref;
    std::set<std::int32_t> ever_touched;
    // The id range widens as the run goes on (to 2^21, past several
    // top-level bitmap words), so accumulates keep landing past the
    // index's current size; id 0 is drawn throughout.
    std::int32_t bound = 8;
    for (int step = 0; step < 1500; ++step) {
      if (step % 80 == 79) bound *= 2;
      std::int32_t id =
          rng.next_below(8) == 0
              ? 0
              : static_cast<std::int32_t>(
                    rng.next_below(static_cast<std::uint64_t>(bound)));
      const float value = static_cast<float>(step % 97) * 0.25f + 1.0f;
      const std::uint64_t pick = rng.next_below(64);
      // Erases target a live row half of the time.
      if (pick >= 1 && pick < 15 && !ref.rows.empty() &&
          rng.next_below(2) == 0) {
        auto it = ref.rows.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.next_below(ref.rows.size())));
        id = it->first;
      }
      std::string op;
      if (pick == 0) {
        op = "clear";
        g.clear();
        ref.clear();
      } else if (pick < 9) {
        op = "erase";
        g.erase(id);
        ref.erase(id);
      } else if (pick < 15) {
        op = "erase then re-accumulate";
        g.erase(id);
        ref.erase(id);
        auto row = g.accumulate(id);
        auto& expected = ref.accumulate(id, width).values;
        row[0] += value;
        expected[0] += value;
      } else if (pick == 15) {
        op = "accumulate(-1)";
        EXPECT_THROW(g.accumulate(-1), std::out_of_range);
      } else if (pick < 36) {
        op = "accumulate_offset";
        const std::size_t offset = g.accumulate_offset(id);
        auto& expected = ref.accumulate(id, width);
        ASSERT_EQ(offset, expected.offset);
        auto row = g.row_at(offset);
        for (std::size_t i = 0; i < row.size(); ++i) {
          row[i] += value * static_cast<float>(i + 1);
          expected.values[i] += value * static_cast<float>(i + 1);
        }
      } else {
        op = "accumulate";
        auto row = g.accumulate(id);
        auto& expected = ref.accumulate(id, width).values;
        for (std::size_t i = 0; i < row.size(); ++i) {
          row[i] -= value;
          expected[i] -= value;
        }
      }
      ever_touched.insert(id);
      expect_matches(g, ref, ever_touched,
                     "seed " + std::to_string(seed) + " step " +
                         std::to_string(step) + " after " + op + "(" +
                         std::to_string(id) + ")");
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace dynkge::kge
