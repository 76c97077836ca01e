// Tests for hls::stream and the DATAFLOW region runner: blocking FIFO
// semantics and producer/consumer decoupling.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "common/error.h"
#include "hls/dataflow.h"
#include "hls/stream.h"

namespace dwi::hls {
namespace {

TEST(Stream, FifoOrderSingleThread) {
  stream<int> s(8);
  for (int i = 0; i < 8; ++i) s.write(i);
  EXPECT_TRUE(s.full());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(s.read(), i);
  EXPECT_TRUE(s.empty());
}

TEST(Stream, NonBlockingVariants) {
  stream<int> s(1);
  int v = -1;
  EXPECT_FALSE(s.read_nb(v));
  EXPECT_TRUE(s.write_nb(7));
  EXPECT_FALSE(s.write_nb(8));  // full
  EXPECT_TRUE(s.read_nb(v));
  EXPECT_EQ(v, 7);
}

TEST(Stream, DefaultDepthIsTwo) {
  stream<int> s;
  EXPECT_EQ(s.depth(), 2u);
  EXPECT_TRUE(s.write_nb(1));
  EXPECT_TRUE(s.write_nb(2));
  EXPECT_FALSE(s.write_nb(3));
}

TEST(Stream, RejectsZeroDepth) { EXPECT_THROW(stream<int>(0), Error); }

TEST(Stream, BlockingHandshakeBetweenThreads) {
  stream<int> s(2);
  constexpr int kN = 10000;
  std::vector<int> received;
  received.reserve(kN);
  std::thread consumer([&] {
    for (int i = 0; i < kN; ++i) received.push_back(s.read());
  });
  for (int i = 0; i < kN; ++i) s.write(i);
  consumer.join();
  for (int i = 0; i < kN; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

TEST(Stream, PeakDepthBoundedByCapacity) {
  // The FIFO really backpressures: with depth 4, a fast producer can
  // never run more than 4 elements ahead of the consumer.
  stream<int> s(4);
  std::thread consumer([&] {
    for (int i = 0; i < 5000; ++i) (void)s.read();
  });
  for (int i = 0; i < 5000; ++i) s.write(i);
  consumer.join();
  EXPECT_LE(s.peak_depth(), 4u);
  EXPECT_EQ(s.total_writes(), 5000u);
}

TEST(Dataflow, RunsAllProcessesToCompletion) {
  stream<int> a(2);
  stream<int> b(2);
  std::vector<int> out;
  DataflowRegion region;
  region.add_process("produce", [&] {
    for (int i = 0; i < 100; ++i) a.write(i);
  });
  region.add_process("transform", [&] {
    for (int i = 0; i < 100; ++i) b.write(a.read() * 2);
  });
  region.add_process("consume", [&] {
    for (int i = 0; i < 100; ++i) out.push_back(b.read());
  });
  region.run();
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], 2 * i);
}

TEST(Dataflow, PropagatesProcessException) {
  DataflowRegion region;
  region.add_process("ok", [] {});
  region.add_process("boom", [] { throw Error("process failed"); });
  EXPECT_THROW(region.run(), Error);
}

TEST(Dataflow, VariadicHelper) {
  std::atomic<int> sum{0};
  dataflow([&] { sum += 1; }, [&] { sum += 2; }, [&] { sum += 4; });
  EXPECT_EQ(sum.load(), 7);
}

TEST(Dataflow, ProcessesRunConcurrentlyNotSequentially) {
  // A producer/consumer pair over a depth-1 stream deadlocks if the
  // region serialized the processes; concurrency is required.
  stream<int> s(1);
  DataflowRegion region;
  region.add_process("p", [&] {
    for (int i = 0; i < 50; ++i) s.write(i);
  });
  region.add_process("c", [&] {
    for (int i = 0; i < 50; ++i) EXPECT_EQ(s.read(), i);
  });
  region.run();  // would deadlock if serialized
}

}  // namespace
}  // namespace dwi::hls
