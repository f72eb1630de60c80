#include <gtest/gtest.h>

#include "sampling/lookup.hpp"

namespace gt::sampling {
namespace {

TEST(Lookup, GatherAllMatchesTable) {
  EmbeddingTable table(100, 6, 42);
  EmbeddingLookup lookup(table);
  std::vector<Vid> vids{7, 3, 99, 7};
  Matrix m = lookup.gather_all(vids);
  for (std::size_t r = 0; r < vids.size(); ++r)
    for (std::size_t c = 0; c < 6; ++c)
      EXPECT_EQ(m.at(r, c), table.value(vids[r], c));
}

TEST(Lookup, ChunkedEqualsWhole) {
  EmbeddingTable table(50, 4, 1);
  EmbeddingLookup lookup(table);
  std::vector<Vid> vids;
  for (Vid v = 0; v < 30; ++v) vids.push_back((v * 13) % 50);
  Matrix whole = lookup.gather_all(vids);
  Matrix chunked(vids.size(), 4);
  for (std::size_t begin = 0; begin < vids.size(); begin += 7)
    lookup.gather_chunk(vids, begin, std::min(begin + 7, vids.size()),
                        chunked);
  EXPECT_EQ(whole, chunked);
}

TEST(Lookup, RejectsBadRangesAndShapes) {
  EmbeddingTable table(10, 4, 1);
  EmbeddingLookup lookup(table);
  std::vector<Vid> vids{1, 2, 3};
  Matrix out(3, 4);
  EXPECT_THROW(lookup.gather_chunk(vids, 2, 5, out), std::out_of_range);
  Matrix bad(3, 5);
  EXPECT_THROW(lookup.gather_chunk(vids, 0, 3, bad), std::invalid_argument);
}

TEST(Lookup, GatheredBytes) {
  EmbeddingTable table(10, 8, 1);
  EmbeddingLookup lookup(table);
  EXPECT_EQ(lookup.gathered_bytes(5), 5 * 8 * sizeof(float));
}

}  // namespace
}  // namespace gt::sampling
