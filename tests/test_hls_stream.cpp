// Depth-edge behavior of hls::stream, the single-dataflow-region FIFO.
// The non-blocking pairs are exercised exactly at the full/empty
// boundaries — the cases the zoo's producer/consumer kernels
// (workloads/histogram, workloads/spmv) poll on.
#include <gtest/gtest.h>

#include "common/error.h"
#include "hls/stream.h"

namespace dwi {
namespace {

TEST(HlsStream, NonBlockingWriteStopsExactlyAtDepth) {
  hls::stream<int> s(3);
  EXPECT_TRUE(s.write_nb(1));
  EXPECT_TRUE(s.write_nb(2));
  EXPECT_TRUE(s.write_nb(3));
  EXPECT_TRUE(s.full());
  EXPECT_FALSE(s.write_nb(4));  // full: rejected, not queued
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.total_writes(), 3u);  // the rejected write is not counted

  int v = 0;
  EXPECT_TRUE(s.read_nb(v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(s.full());
  EXPECT_TRUE(s.write_nb(4));  // one slot freed, one write fits again
  EXPECT_FALSE(s.write_nb(5));
}

TEST(HlsStream, NonBlockingReadStopsExactlyAtEmpty) {
  hls::stream<int> s(2);
  int v = -1;
  EXPECT_FALSE(s.read_nb(v));
  EXPECT_EQ(v, -1);  // a failed read must not touch the output

  s.write(7);
  EXPECT_TRUE(s.read_nb(v));
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(s.read_nb(v));  // empty again
  EXPECT_TRUE(s.empty());
}

TEST(HlsStream, DepthOneAlternatesFullEmpty) {
  // The degenerate FIFO: every occupancy state is a boundary state.
  hls::stream<int> s(1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(s.write_nb(i));
    EXPECT_TRUE(s.full());
    EXPECT_FALSE(s.write_nb(100 + i));
    int v = -1;
    EXPECT_TRUE(s.read_nb(v));
    EXPECT_EQ(v, i);
    EXPECT_FALSE(s.read_nb(v));
  }
  EXPECT_EQ(s.peak_depth(), 1u);
}

TEST(HlsStream, RejectsZeroDepth) {
  EXPECT_THROW(hls::stream<int>(0), Error);
}

}  // namespace
}  // namespace dwi
