// Micro-benchmarks (google-benchmark) of the HLS construct library:
// ap_uint and ap_fixed arithmetic and the 512-bit g512 packing.
#include <benchmark/benchmark.h>

#include "common/bits.h"
#include "core/transfer_unit.h"
#include "hls/ap_fixed.h"
#include "hls/ap_uint.h"

namespace {

using namespace dwi;

void BM_ApUint512Add(benchmark::State& state) {
  hls::ap_uint<512> a(0x12345678u);
  hls::ap_uint<512> b(0x9abcdef0u);
  for (auto _ : state) {
    a = a + b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ApUint512Add);

void BM_ApUint512Shift(benchmark::State& state) {
  hls::ap_uint<512> a(0xdeadbeefu);
  unsigned s = 0;
  for (auto _ : state) {
    s = (s + 7) & 255u;
    benchmark::DoNotOptimize(a << s);
  }
}
BENCHMARK(BM_ApUint512Shift);

void BM_ApUintRangeWrite(benchmark::State& state) {
  hls::ap_uint<512> word;
  unsigned lane = 0;
  for (auto _ : state) {
    word.set_range(lane * 32 + 31, lane * 32, 0xabcd1234u);
    lane = (lane + 1) & 15u;
    benchmark::DoNotOptimize(word);
  }
}
BENCHMARK(BM_ApUintRangeWrite);

void BM_ApFixedMul(benchmark::State& state) {
  hls::ap_fixed<32, 5> a(1.234);
  hls::ap_fixed<32, 5> b(0.987);
  for (auto _ : state) {
    b = a * b + hls::ap_fixed<32, 5>(0.001);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_ApFixedMul);

void BM_PackG512(benchmark::State& state) {
  core::MemoryWord word;
  unsigned lane = 0;
  float v = 0.0f;
  for (auto _ : state) {
    v += 1.0f;
    benchmark::DoNotOptimize(core::pack_g512(&word, v, &lane));
  }
}
BENCHMARK(BM_PackG512);

}  // namespace

BENCHMARK_MAIN();
