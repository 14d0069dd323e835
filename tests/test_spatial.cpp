#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "spatial/cell.hpp"
#include "spatial/kdtree.hpp"
#include "spatial/murmur3.hpp"
#include "util/rng.hpp"

namespace scod {
namespace {

TEST(Murmur3, Fmix64AvalanchesAndIsDeterministic) {
  EXPECT_EQ(murmur3_fmix64(0x1234), murmur3_fmix64(0x1234));
  EXPECT_NE(murmur3_fmix64(1), murmur3_fmix64(2));
  // fmix64 is a bijection: distinct inputs map to distinct outputs.
  std::set<std::uint64_t> outputs;
  for (std::uint64_t k = 0; k < 4096; ++k) outputs.insert(murmur3_fmix64(k));
  EXPECT_EQ(outputs.size(), 4096u);
  // fmix64(0) == 0 by construction.
  EXPECT_EQ(murmur3_fmix64(0), 0u);
}

TEST(Murmur3, EmptyInputSeedZeroIsZero) {
  std::uint64_t lo = 1, hi = 1;
  murmur3_x64_128("", 0, 0, &lo, &hi);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 0u);
}

TEST(Murmur3, SmhasherVerificationValue) {
  // Austin Appleby's smhasher VerificationTest: hash keys {0}, {0,1}, ...,
  // {0..254} with seed 256-len, hash the concatenated digests with seed 0,
  // and compare the first 32 bits against the published constant for
  // MurmurHash3_x64_128. This pins our port bit-for-bit to the original.
  std::uint8_t key[256];
  std::uint8_t hashes[256 * 16];
  for (int i = 0; i < 256; ++i) {
    key[i] = static_cast<std::uint8_t>(i);
    std::uint64_t lo = 0, hi = 0;
    murmur3_x64_128(key, static_cast<std::size_t>(i),
                    static_cast<std::uint64_t>(256 - i), &lo, &hi);
    std::memcpy(hashes + i * 16, &lo, 8);
    std::memcpy(hashes + i * 16 + 8, &hi, 8);
  }
  std::uint64_t lo = 0, hi = 0;
  murmur3_x64_128(hashes, sizeof(hashes), 0, &lo, &hi);
  std::uint32_t verification;
  std::memcpy(&verification, &lo, 4);
  EXPECT_EQ(verification, 0x6384BA69u);
}

TEST(Murmur3, SeedChangesHash) {
  const char* data = "spatial";
  EXPECT_NE(murmur3_x64_64(data, 7, 0), murmur3_x64_64(data, 7, 1));
}

TEST(Murmur3, AllTailLengthsCovered) {
  // Exercise every tail-switch branch (lengths 0..16) and check
  // prefix-extension changes the hash.
  const std::string base(32, 'x');
  std::uint64_t previous = 0;
  for (std::size_t len = 0; len <= 17; ++len) {
    const std::uint64_t h = murmur3_x64_64(base.data(), len, 7);
    if (len > 0) {
      EXPECT_NE(h, previous) << "len=" << len;
    }
    previous = h;
  }
}

TEST(CellSize, FollowsEquationOne) {
  EXPECT_DOUBLE_EQ(grid_cell_size(2.0, 1.0), 2.0 + 7.8);
  EXPECT_DOUBLE_EQ(grid_cell_size(2.0, 9.0), 2.0 + 70.2);
  EXPECT_DOUBLE_EQ(grid_cell_size(0.5, 0.0), 0.5);
}

TEST(CellIndexer, MapsPositionsToCells) {
  const CellIndexer indexer(10.0, 100.0);
  EXPECT_EQ(indexer.cells_per_axis(), 20);
  EXPECT_EQ(indexer.cell_of({-100.0, -100.0, -100.0}), (CellCoord{0, 0, 0}));
  EXPECT_EQ(indexer.cell_of({0.0, 0.0, 0.0}), (CellCoord{10, 10, 10}));
  EXPECT_EQ(indexer.cell_of({99.9, 99.9, 99.9}), (CellCoord{19, 19, 19}));
  // Out-of-range positions clamp into the border cells.
  EXPECT_EQ(indexer.cell_of({1e6, -1e6, 0.0}), (CellCoord{19, 0, 10}));
}

TEST(CellIndexer, PackUnpackRoundTrip) {
  const CellIndexer indexer(5.0, 50000.0);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const CellCoord c{static_cast<std::int32_t>(rng.uniform_index(20000)) - 1000,
                      static_cast<std::int32_t>(rng.uniform_index(20000)) - 1000,
                      static_cast<std::int32_t>(rng.uniform_index(20000)) - 1000};
    EXPECT_EQ(indexer.unpack(indexer.pack(c)), c);
  }
}

TEST(CellIndexer, NegativeNeighborCoordsPackDistinctly) {
  // Neighbour scans at the cube boundary produce coordinate -1; those keys
  // must be valid and distinct from every in-range cell.
  const CellIndexer indexer(10.0, 100.0);
  const std::uint64_t edge = indexer.pack({0, 0, 0});
  const std::uint64_t outside = indexer.pack({-1, 0, 0});
  EXPECT_NE(edge, outside);
  EXPECT_EQ(indexer.unpack(outside), (CellCoord{-1, 0, 0}));
}

TEST(CellIndexer, AdjacentPositionsWithinCellSizeAreNeighbours) {
  // The geometric property behind Eq. (1): two points closer than one cell
  // size differ by at most 1 in every cell coordinate.
  const CellIndexer indexer(12.0, 50000.0);
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const Vec3 p{rng.uniform(-40000.0, 40000.0), rng.uniform(-40000.0, 40000.0),
                 rng.uniform(-40000.0, 40000.0)};
    Vec3 q = p;
    // Random offset with norm < cell size.
    const Vec3 offset{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                      rng.uniform(-1.0, 1.0)};
    q += offset.normalized() * rng.uniform(0.0, 12.0 * 0.999);
    const CellCoord ca = indexer.cell_of(p);
    const CellCoord cb = indexer.cell_of(q);
    EXPECT_LE(std::abs(ca.x - cb.x), 1);
    EXPECT_LE(std::abs(ca.y - cb.y), 1);
    EXPECT_LE(std::abs(ca.z - cb.z), 1);
  }
}

TEST(CellIndexer, RejectsInvalidConfig) {
  EXPECT_THROW(CellIndexer(0.0), std::invalid_argument);
  EXPECT_THROW(CellIndexer(-1.0), std::invalid_argument);
  EXPECT_THROW(CellIndexer(10.0, -5.0), std::invalid_argument);
  // 21-bit axis limit: half-extent 42500 km at 1 m cells would overflow.
  EXPECT_THROW(CellIndexer(0.001), std::invalid_argument);
}

TEST(Neighborhood, HalfStencilCoversEachPairOnce) {
  const auto& half = cell_half_neighborhood();
  EXPECT_EQ(half.size(), 14u);
  EXPECT_EQ(half[0], (CellCoord{0, 0, 0}));
  // For every non-self offset o in {-1, 0, 1}^3, exactly one of {o, -o} is
  // in the half stencil.
  for (std::int32_t dz = -1; dz <= 1; ++dz) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      for (std::int32_t dx = -1; dx <= 1; ++dx) {
        const CellCoord o{dx, dy, dz};
        if (o == CellCoord{0, 0, 0}) continue;
        int count = 0;
        for (const CellCoord& h : half) {
          if (h == o) ++count;
          if (h == CellCoord{-o.x, -o.y, -o.z}) ++count;
        }
        EXPECT_EQ(count, 1) << o.x << "," << o.y << "," << o.z;
      }
    }
  }
}

TEST(KdTree, MatchesBruteForceRadiusQueries) {
  Rng rng(21);
  std::vector<KdTree::Point> points;
  for (std::uint32_t i = 0; i < 500; ++i) {
    points.push_back({{rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0),
                       rng.uniform(-100.0, 100.0)},
                      i});
  }
  const KdTree tree(points);
  EXPECT_EQ(tree.size(), 500u);

  for (int q = 0; q < 50; ++q) {
    const Vec3 query{rng.uniform(-110.0, 110.0), rng.uniform(-110.0, 110.0),
                     rng.uniform(-110.0, 110.0)};
    const double radius = rng.uniform(1.0, 40.0);

    std::set<std::uint32_t> expected;
    for (const auto& p : points) {
      if (p.position.distance(query) <= radius) expected.insert(p.id);
    }
    const auto found = tree.within(query, radius);
    EXPECT_EQ(std::set<std::uint32_t>(found.begin(), found.end()), expected);
  }
}

TEST(KdTree, EmptyAndSingleton) {
  const KdTree empty({});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.within({0, 0, 0}, 10.0).empty());

  const KdTree one({{{1.0, 2.0, 3.0}, 9}});
  EXPECT_EQ(one.within({1.0, 2.0, 3.0}, 0.1), std::vector<std::uint32_t>{9});
  EXPECT_TRUE(one.within({50.0, 0.0, 0.0}, 1.0).empty());
}

}  // namespace
}  // namespace scod
