#include "sunway/rma_reduce.hpp"

#include <random>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace swraman::sunway {
namespace {

std::vector<std::vector<Contribution>> random_contributions(
    std::size_t n_cpes, std::size_t array_size, std::size_t per_cpe,
    unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> idx(0, array_size - 1);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::vector<std::vector<Contribution>> c(n_cpes);
  for (auto& list : c) {
    list.resize(per_cpe);
    for (Contribution& x : list) {
      x.index = idx(rng);
      x.value = val(rng);
    }
  }
  return c;
}

struct RmaCase {
  std::size_t n_cpes;
  std::size_t array_size;
  std::size_t per_cpe;
};

// Names the ctest case (e.g. cpes64_array512_per100) instead of dumping the
// struct's bytes.
void PrintTo(const RmaCase& c, std::ostream* os) {
  *os << "cpes" << c.n_cpes << "_array" << c.array_size << "_per"
      << c.per_cpe;
}

class RmaReduceSweep : public ::testing::TestWithParam<RmaCase> {};

TEST_P(RmaReduceSweep, MatchesSerialReduction) {
  const RmaCase c = GetParam();
  const auto contributions =
      random_contributions(c.n_cpes, c.array_size, c.per_cpe, 11);
  std::vector<double> expected(c.array_size, 0.5);
  serial_array_reduction(contributions, expected);
  std::vector<double> got(c.array_size, 0.5);
  const RmaReduceStats stats = rma_array_reduction(contributions, got);
  for (std::size_t i = 0; i < c.array_size; ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-11) << "index " << i;
  }
  EXPECT_DOUBLE_EQ(stats.updates,
                   static_cast<double>(c.n_cpes * c.per_cpe));
  EXPECT_GT(stats.rma_messages, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RmaReduceSweep,
    ::testing::Values(RmaCase{64, 100000, 5000}, RmaCase{64, 512, 100},
                      RmaCase{8, 64, 1000}, RmaCase{1, 1000, 100},
                      RmaCase{64, 63, 10}));

TEST(RmaReduce, BufferCapacityControlsMessageCount) {
  const auto contributions = random_contributions(64, 10000, 2000, 3);
  std::vector<double> a(10000, 0.0);
  std::vector<double> b(10000, 0.0);
  RmaReduceOptions small;
  small.send_buffer_entries = 8;
  RmaReduceOptions large;
  large.send_buffer_entries = 512;
  const RmaReduceStats s_small = rma_array_reduction(contributions, a, small);
  const RmaReduceStats s_large = rma_array_reduction(contributions, b, large);
  // Smaller buffers flush more often.
  EXPECT_GT(s_small.rma_messages, s_large.rma_messages);
  // Same data volume either way.
  EXPECT_DOUBLE_EQ(s_small.updates, s_large.updates);
}

TEST(RmaReduce, BlockCacheLimitsDmaTraffic) {
  // Sorted (spatially local) contributions exercise the block cache: few
  // block swaps; random contributions force many.
  const std::size_t n = 64ull * 2048 * 4;
  std::vector<std::vector<Contribution>> sorted(64);
  for (std::size_t cpe = 0; cpe < 64; ++cpe) {
    for (std::size_t k = 0; k < 1000; ++k) {
      sorted[cpe].push_back({(cpe * 1000 + k) % n, 1.0});
    }
    std::sort(sorted[cpe].begin(), sorted[cpe].end(),
              [](const Contribution& a, const Contribution& b) {
                return a.index < b.index;
              });
  }
  const auto random = random_contributions(64, n, 1000, 77);
  std::vector<double> a(n, 0.0);
  std::vector<double> b(n, 0.0);
  const RmaReduceStats s_sorted = rma_array_reduction(sorted, a);
  const RmaReduceStats s_random = rma_array_reduction(random, b);
  EXPECT_LT(s_sorted.dma_block_transfers, s_random.dma_block_transfers);
}

TEST(RmaReduce, RejectsOutOfRangeIndex) {
  std::vector<std::vector<Contribution>> c(2);
  c[0].push_back({100, 1.0});
  std::vector<double> arr(10, 0.0);
  EXPECT_THROW(rma_array_reduction(c, arr), Error);
  EXPECT_THROW(serial_array_reduction(c, arr), Error);
}

TEST(RmaReduce, IndexValidationReportsIndexAndSize) {
  // Regression: the error must name the offending index and the target
  // size so a corrupted contribution stream is diagnosable from the log.
  std::vector<std::vector<Contribution>> c(1);
  c[0].push_back({42, 1.0});
  std::vector<double> arr(7, 0.0);
  const auto check_message = [](const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("42"), std::string::npos) << what;
    EXPECT_NE(what.find("7"), std::string::npos) << what;
  };
  try {
    rma_array_reduction(c, arr);
    FAIL() << "rma_array_reduction accepted an out-of-range index";
  } catch (const Error& e) {
    check_message(e);
  }
  try {
    serial_array_reduction(c, arr);
    FAIL() << "serial_array_reduction accepted an out-of-range index";
  } catch (const Error& e) {
    check_message(e);
  }
}

TEST(RmaReduce, IndexValidationBoundaries) {
  // index == size is the first invalid value; size - 1 is the last valid.
  std::vector<std::vector<Contribution>> bad(1);
  bad[0].push_back({5, 1.0});
  std::vector<double> arr(5, 0.0);
  EXPECT_THROW(rma_array_reduction(bad, arr), Error);
  EXPECT_THROW(serial_array_reduction(bad, arr), Error);

  std::vector<std::vector<Contribution>> good(1);
  good[0].push_back({4, 2.5});
  std::vector<double> a(5, 0.0);
  std::vector<double> b(5, 0.0);
  rma_array_reduction(good, a);
  serial_array_reduction(good, b);
  EXPECT_DOUBLE_EQ(a[4], 2.5);
  EXPECT_DOUBLE_EQ(b[4], 2.5);

  // Any contribution against an empty target array is invalid.
  std::vector<double> empty;
  EXPECT_THROW(rma_array_reduction(good, empty), Error);
  EXPECT_THROW(serial_array_reduction(good, empty), Error);
}

}  // namespace
}  // namespace swraman::sunway
