#include "fpga/kernel_sim.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "common/bits.h"
#include "common/error.h"
#include "exec/parallel_for.h"

namespace dwi::fpga {

BernoulliProducer::BernoulliProducer(double acceptance, std::uint32_t seed)
    : threshold_(static_cast<std::uint32_t>(
          acceptance >= 1.0 ? 0xffffffffu
                            : acceptance * 4294967296.0)),
      state_(seed | 1u) {
  DWI_REQUIRE(acceptance >= 0.0 && acceptance <= 1.0,
              "acceptance must be a probability");
}

namespace {

/// xorshift64*: cheap, good enough for timing experiments.
std::uint32_t xorshift64star(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return static_cast<std::uint32_t>((state * 2685821657736338717ull) >> 32);
}

}  // namespace

bool BernoulliProducer::produce(float* value) {
  const std::uint32_t r = xorshift64star(state_);
  *value = uint2float(r);
  return r <= threshold_;
}

std::uint64_t BernoulliProducer::produce_word(std::uint64_t want,
                                              float* values, unsigned& ran) {
  std::uint64_t state = state_;
  std::uint64_t word = 0;
  unsigned i = 0;
  if (values == nullptr && want >= 64) {
    // Bits only and no early stop, the case simulate_kernel hits: a
    // fixed 64-draw loop with no float conversions, well ahead of the
    // general loop on micro_sim (docs/PERF.md).
    for (; i < 64; ++i) {
      word |= std::uint64_t{xorshift64star(state) <= threshold_} << i;
    }
  } else {
    for (std::uint64_t got = 0; i < 64 && got < want; ++i) {
      const std::uint32_t r = xorshift64star(state);
      const bool accept = r <= threshold_;
      if (values != nullptr && accept) values[got] = uint2float(r);
      word |= std::uint64_t{accept} << i;
      got += accept;
    }
  }
  state_ = state;
  ran = i;
  return word;
}

std::uint64_t DummyProducer::produce_word(std::uint64_t want, float* values,
                                          unsigned& ran) {
  ran = static_cast<unsigned>(std::min<std::uint64_t>(64, want));
  if (values != nullptr) {
    for (unsigned i = 0; i < ran; ++i) {
      values[i] = static_cast<float>(counter_ + i);
    }
  }
  counter_ += ran;
  return low_bits(ran);
}

std::uint64_t ProducerModel::produce_word(std::uint64_t want, float* values,
                                          unsigned& ran) {
  std::uint64_t word = 0;
  std::uint64_t got = 0;
  unsigned i = 0;
  for (; i < 64 && got < want; ++i) {
    float value = 0.0f;
    if (produce(&value)) {
      word |= std::uint64_t{1} << i;
      if (values != nullptr) values[got] = value;
      ++got;
    }
  }
  ran = i;
  return word;
}

namespace {

constexpr std::uint64_t kFloatsPerBeat = 16;  // 512-bit / fp32
/// Pop permission of the chunks that need no burst buffer freed first,
/// and P before the first pop.
constexpr std::int64_t kAlways = std::numeric_limits<std::int64_t>::min() / 4;

/// One work-item's compute pipeline run to quota ahead of the schedule:
/// one accept bit per initiation, with select, plus the accepted values
/// when the caller records outputs.
struct Tape {
  std::vector<std::uint64_t> bits;
  std::vector<std::uint64_t> ranks;  ///< accepts before each word, + total
  std::vector<float> values;
  std::uint64_t attempts = 0;

  /// Attempt index of the k-th accept.
  std::uint64_t select(std::uint64_t k) const {
    // The last word with ranks[w] <= k, by branch-free halving.
    std::uint64_t w = 0;
    for (std::uint64_t len = bits.size(); len > 1;) {
      const std::uint64_t half = len / 2;
      w = ranks[w + half] <= k ? w + half : w;
      len -= half;
    }
    return 64 * w + select_bit(bits[w], static_cast<unsigned>(k - ranks[w]));
  }
};

Tape record_tape(ProducerModel& producer, std::uint64_t quota,
                 bool keep_values) {
  Tape tape;
  if (keep_values) tape.values.resize(quota);
  tape.ranks.push_back(0);
  std::uint64_t accepted = 0;
  while (accepted < quota) {
    const std::uint64_t want = quota - accepted;
    unsigned ran = 0;
    const std::uint64_t word = producer.produce_word(
        want, keep_values ? tape.values.data() + accepted : nullptr, ran);
    const auto got = static_cast<std::uint64_t>(std::popcount(word));
    // select() counts 64 initiations per word, so only the word that
    // meets the quota may be short, and it must end on that accept.
    const bool well_formed =
        ran <= 64 && (word & ~low_bits(ran)) == 0 && got <= want &&
        (got == want ? ran == 64u - static_cast<unsigned>(
                                        std::countl_zero(word))
                     : ran == 64);
    DWI_REQUIRE(well_formed,
                "producer returned a short or malformed accept word "
                "before its quota");
    accepted += got;
    tape.bits.push_back(word);
    tape.ranks.push_back(accepted);
    tape.attempts += ran;
    // Runaway guard: a producer that never meets its quota must not
    // spin forever.
    DWI_REQUIRE(tape.attempts < (std::uint64_t{1} << 40),
                "producer does not reach its quota");
  }
  return tape;
}

/// One work-item's schedule in closed form. Output k is accepted in
/// cycle II·select(k) + S(k-1) and enters the FIFO in cycle
/// push_k = k + g(k) + S(k), where g(k) = II·select(k) - k counts the
/// initiation slots spent on rejections and S(k) the stall cycles so
/// far; the transfer unit pops output j in cycle pop_j = j + P(j). The
/// per-cycle rules (tests/kernel_sim_oracle.h) reduce to
///   S(k) = max(S(k-1), P(k-D) + 1 - D - g(k))    push waits for room
///   P(j) = max(P(j-1), g(j) + S(j), perm_c - j)   pop waits for data,
///                                                  for the last pop, or
///                                                  for buffer room
/// with D the FIFO depth and perm_c the cycle chunk c (the floats of
/// burst c) may start: when burst c-2 (double-buffered) or c-1
/// completes. g, S and P never decrease, so P is piecewise either
/// constant (the FIFO holds data) or g + S (it runs dry), and S can
/// rise only D outputs after a constant piece starts. A chunk costs a
/// few select() calls, not one step per cycle.
struct Lane {
  const Tape* tape = nullptr;
  std::uint64_t quota = 0;
  std::int64_t ii = 1;
  std::int64_t depth = 1;
  std::uint64_t chunk_floats = 0;

  std::int64_t stall = 0;  ///< S at the last output checked
  std::vector<std::pair<std::uint64_t, std::int64_t>> stall_steps;
  /// (k, P(k-D)) for each constant piece: where S may next rise.
  std::deque<std::pair<std::uint64_t, std::int64_t>> checks;
  bool dry = false;  ///< P tracks g + S
  std::int64_t p_last = kAlways;  ///< P of the last popped output
  std::vector<std::uint64_t> ready;  ///< cycle each chunk's burst is full
  std::uint64_t granted = 0;          ///< bursts the channel accepted

  std::int64_t g(std::uint64_t k) const {
    return ii * static_cast<std::int64_t>(tape->select(k)) -
           static_cast<std::int64_t>(k);
  }
  void apply_checks(std::uint64_t upto) {
    while (!checks.empty() && checks.front().first <= upto) {
      const auto [k, p] = checks.front();
      checks.pop_front();
      if (k >= quota) continue;
      const std::int64_t s = p + 1 - depth - g(k);
      if (s > stall) {
        stall = s;
        stall_steps.emplace_back(k, s);
      }
    }
  }
  /// P over chunk c, whose pops may start in cycle `perm`.
  void pop_chunk(std::uint64_t c, std::int64_t perm) {
    const std::uint64_t first = c * chunk_floats;
    const std::uint64_t end = std::min(quota, first + chunk_floats);
    apply_checks(first);
    const std::int64_t tracked = g(first) + stall;
    const std::int64_t blocked = perm - static_cast<std::int64_t>(first);
    if (blocked > std::max(p_last, tracked)) {
      dry = false;
      p_last = blocked;
      checks.emplace_back(first + static_cast<std::uint64_t>(depth), blocked);
    } else if (tracked >= p_last) {
      dry = true;
    }
    // S is flat between checks, and g never falls: the FIFO runs dry
    // somewhere in [j, stop) iff it does at stop - 1. Where exactly does
    // not matter, since a dry piece starts no checks.
    for (std::uint64_t j = first + 1; !dry && j < end;) {
      apply_checks(j);
      j = checks.empty() ? end : std::min(end, checks.front().first);
      dry = g(j - 1) + stall > p_last;
    }
    apply_checks(end - 1);
    if (dry) p_last = g(end - 1) + stall;
    ready.push_back(end - 1 + static_cast<std::uint64_t>(p_last));
  }

  /// Fig 3 row: 'C' per initiation, 'S' per stall, '-' per II wait.
  void render(std::uint64_t cycles, std::string& row) const {
    const auto initiations = [&](std::uint64_t from, std::uint64_t to) {
      if (ii == 1) {
        row.append(to - from, 'C');
        return;
      }
      for (; from < to; ++from) {
        row.push_back('C');
        row.append(static_cast<std::size_t>(ii - 1), '-');
      }
    };
    const std::uint64_t last = tape->attempts - 1;
    std::uint64_t next = 0;
    std::int64_t before = 0;
    for (const auto& [k, s] : stall_steps) {
      const std::uint64_t i = tape->select(k);
      initiations(next, i);
      row.push_back('C');
      row.append(static_cast<std::size_t>(s - before), 'S');
      if (i != last) row.append(static_cast<std::size_t>(ii - 1), '-');
      before = s;
      next = i + 1;
    }
    if (next <= last) {
      initiations(next, last);
      row.push_back('C');
    }
    DWI_ASSERT(row.size() <= cycles);
    row.append(cycles - row.size(), '.');
  }
};

/// Outputs in emission order: by accept cycle, then work-item.
std::vector<float> merge_outputs(const std::vector<Lane>& lanes) {
  struct Cursor {
    std::uint64_t k = 0;
    std::size_t step = 0;
    std::int64_t stall = 0;  ///< S(k-1)
  };
  std::vector<Cursor> cursors(lanes.size());
  const auto accept_cycle = [&](std::size_t w) {
    Cursor& c = cursors[w];
    const auto& steps = lanes[w].stall_steps;
    for (; c.step < steps.size() && steps[c.step].first < c.k; ++c.step) {
      c.stall = steps[c.step].second;
    }
    return static_cast<std::uint64_t>(lanes[w].g(c.k) + c.stall) + c.k;
  };
  using Next = std::pair<std::uint64_t, std::size_t>;
  std::priority_queue<Next, std::vector<Next>, std::greater<>> heap;
  std::vector<float> out;
  out.reserve(lanes.size() * lanes[0].quota);
  for (std::size_t w = 0; w < lanes.size(); ++w) {
    heap.emplace(accept_cycle(w), w);
  }
  while (!heap.empty()) {
    const std::size_t w = heap.top().second;
    heap.pop();
    out.push_back(lanes[w].tape->values[cursors[w].k]);
    if (++cursors[w].k < lanes[w].quota) heap.emplace(accept_cycle(w), w);
  }
  return out;
}

}  // namespace

KernelSimResult simulate_kernel(const KernelSimConfig& cfg,
                                const ProducerFactory& make_producer) {
  DWI_REQUIRE(cfg.work_items >= 1 && cfg.work_items <= 64,
              "work-item count out of range");
  DWI_REQUIRE(cfg.initiation_interval >= 1, "II must be at least 1");
  DWI_REQUIRE(cfg.burst_beats >= 1, "burst must be at least one beat");
  DWI_REQUIRE(cfg.outputs_per_work_item >= 1, "empty workload");
  DWI_REQUIRE(cfg.memory_channels >= 1, "need at least one memory channel");
  DWI_REQUIRE(cfg.stream_depth >= 1, "stream depth must be positive");

  // Producers are deterministic self-contained state machines; build
  // them on the calling thread so factories need no synchronization.
  std::vector<std::unique_ptr<ProducerModel>> producers;
  producers.reserve(cfg.work_items);
  for (unsigned w = 0; w < cfg.work_items; ++w) {
    producers.push_back(make_producer(w));
    DWI_REQUIRE(producers.back() != nullptr, "null producer");
  }
  // Decoupled phase: every compute pipeline runs to quota on its own,
  // sharded over the pool like the paper's N hardware pipelines.
  const std::uint64_t quota = cfg.outputs_per_work_item;
  const std::vector<Tape> tapes =
      exec::parallel_map(cfg.work_items, [&](std::size_t w) {
        return record_tape(*producers[w], quota, cfg.record_outputs);
      });

  // Coupled phase: the work-items meet only at the channels. Each
  // event is one burst request, processed in (cycle, work-item) order
  // as the stepped loop would issue them.
  const std::uint64_t chunk_floats = kFloatsPerBeat * cfg.burst_beats;
  const std::uint64_t chunks = ceil_div(quota, chunk_floats);
  const std::uint64_t lag = cfg.transfer_double_buffered ? 2 : 1;
  std::vector<Lane> lanes(cfg.work_items);
  using Event = std::pair<std::uint64_t, unsigned>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  for (unsigned w = 0; w < cfg.work_items; ++w) {
    Lane& lane = lanes[w];
    lane.tape = &tapes[w];
    lane.quota = quota;
    lane.ii = cfg.initiation_interval;
    lane.depth = static_cast<std::int64_t>(cfg.stream_depth);
    lane.chunk_floats = chunk_floats;
    for (std::uint64_t c = 0; c < std::min(lag, chunks); ++c) {
      lane.pop_chunk(c, kAlways);
    }
    events.emplace(lane.ready[0], w);
  }
  std::vector<BurstTimeline> channels(cfg.memory_channels,
                                      BurstTimeline(cfg.channel));
  std::vector<std::pair<BurstTimeline::Slot, unsigned>> channel0;
  std::uint64_t last_tick = 0;
  while (!events.empty()) {
    const auto [cycle, w] = events.top();
    events.pop();
    Lane& lane = lanes[w];
    const std::uint64_t m = lane.granted;
    const std::uint64_t floats =
        std::min(chunk_floats, quota - m * chunk_floats);
    const auto slot = channels[w % cfg.memory_channels].request(
        cycle, static_cast<unsigned>(ceil_div(floats, kFloatsPerBeat)));
    if (cfg.trace != nullptr && w % cfg.memory_channels == 0) {
      channel0.emplace_back(slot, w);
    }
    ++lane.granted;
    last_tick = std::max(last_tick, slot.finish);
    if (m + lag < chunks) {
      lane.pop_chunk(m + lag, static_cast<std::int64_t>(slot.finish));
    }
    if (m + 1 < chunks) {
      events.emplace(std::max(lane.ready[m + 1], slot.finish), w);
    }
  }

  // The last completion is consumed one cycle after its tick.
  const std::uint64_t cycles = last_tick + 1;
  KernelSimResult result;
  result.cycles = cycles + cfg.pipeline_latency;
  for (const Lane& lane : lanes) {
    result.outputs += quota;
    result.attempts += lane.tape->attempts;
    result.compute_stall_cycles += static_cast<std::uint64_t>(lane.stall);
  }
  for (const BurstTimeline& ch : channels) {
    result.bursts += ch.bursts_served();
    result.channel_bytes_per_cycle +=
        static_cast<double>(ch.beats_transferred()) * 64.0 /
        static_cast<double>(cycles);
  }
  if (cfg.record_outputs) result.outputs_data = merge_outputs(lanes);
  if (cfg.trace != nullptr) {
    cfg.trace->work_items.assign(cfg.work_items, std::string());
    for (unsigned w = 0; w < cfg.work_items; ++w) {
      lanes[w].render(cycles, cfg.trace->work_items[w]);
    }
    // A burst shows from the cycle of its dequeue tick until the cycle
    // before its completing tick.
    std::string& row = cfg.trace->channel;
    row.clear();
    for (const auto& [slot, w] : channel0) {
      row.append(slot.start - 1 - row.size(), '.');
      row.append(slot.finish - slot.start, static_cast<char>('0' + w % 10));
    }
    row.append(cycles - row.size(), '.');
  }
  return result;
}

double extrapolate_seconds(const KernelSimResult& scaled,
                           std::uint64_t full_outputs, double clock_hz) {
  DWI_REQUIRE(scaled.outputs > 0, "cannot extrapolate an empty run");
  const double cycles_per_output =
      static_cast<double>(scaled.cycles) /
      static_cast<double>(scaled.outputs);
  return cycles_per_output * static_cast<double>(full_outputs) / clock_hz;
}

double eq1_theoretical_seconds(std::uint64_t total_outputs,
                               unsigned work_items, double clock_hz,
                               double rejection_rate) {
  return static_cast<double>(total_outputs) /
         (static_cast<double>(work_items) * clock_hz) *
         (1.0 + rejection_rate);
}

}  // namespace dwi::fpga
