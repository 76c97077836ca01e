// The vector body of every kernel in rng/simd_kernels.h, written once
// over a lane-width trait V of rng/simd_lanes.h: V::kW float or int32
// lanes, V::kW / 2 double or 64-bit ones. Each ISA translation unit
// instantiates table<V>() at its width.
//
// Bit-identity rule: every float or double operation is the same IEEE
// operation, in the same order, as the scalar reference — multiplies
// and adds stay separate, divisions and square roots are the correctly
// rounded vector forms, and the fastmath table lookups become V::lookup
// (gathers at 8 lanes, register permutes at 16). Lanes a scalar
// early-out would skip are computed anyway and masked off. A group
// whose inputs fall outside a kernel's normal-range assumptions, and a
// tail shorter than a group, go to V::down(), the level below, which is
// bitwise equal in turn.
#pragma once

#include "rng/fastmath.h"
#include "rng/icdf_bitwise.h"
#include "rng/mt19937_64.h"
#include "rng/simd_lanes.h"

namespace dwi::rng::simd {
namespace {

using namespace fastmath_detail;

template <class T>
T load(const void* p) {
  T v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

template <class T>
void store(void* p, T v) {
  __builtin_memcpy(p, &v, sizeof v);
}

std::size_t popcount(unsigned m) {
  return static_cast<std::size_t>(__builtin_popcount(m));
}

std::size_t lesser(std::size_t a, std::size_t b) { return a < b ? a : b; }

/// Zero the flag words of `count` lanes; groups then OR their bits in.
void clear_flags(std::uint64_t* flags, std::size_t count) {
  for (std::size_t w = 0; w < (count + 63) / 64; ++w) flags[w] = 0;
}

/// The Mersenne-Twister recurrence, on one word or lane-wise: mid ^
/// (y >> 1) ^ (y odd ? a : 0) with y = (cur & ~lower) | (nxt & lower).
template <class T, class Word>
T twist(T cur, T nxt, T mid, Word lower, Word a) {
  const T y = (cur & ~lower) | (nxt & lower);
  return mid ^ (y >> 1) ^ ((0 - (y & 1)) & a);
}

/// Tempering under p's shift/mask tuple, on one word or lane-wise.
template <class T>
T temper(T y, const MtParams& p) {
  y ^= (y >> p.u) & p.d;
  y ^= (y << p.s) & p.b;
  y ^= (y << p.t) & p.c;
  return y ^ (y >> p.l);
}

/// MT19937-64 tempering.
template <class T>
T temper64(T z) {
  using namespace mt64;
  z ^= (z >> kU) & kD;
  z ^= (z << kS) & kB;
  z ^= (z << kT) & kC;
  return z ^ (z >> kL);
}

/// MtParams::lower_mask().
std::uint32_t lower_mask(const MtParams& p) {
  return p.r == 32 ? 0xffffffffu : (std::uint32_t{1} << p.r) - 1;
}

/// One in-place twist pass over the n words of s, T's lanes a step; each
/// rewritten word also goes, tempered, to out. A step loads all its
/// words before it stores, so it keeps the scalar read-before-write
/// order while its middle words lie m >= W words past it (s[i + m], not
/// yet rewritten) or, wrapped onto the rewritten prefix, n - m >= W
/// words before it (s[i + m - n]). The step across the wrap and the
/// last step, whose final successor is the rewritten s[0], gather their
/// words through a buffer; n mod W words at the end go one at a time.
template <class T, class Word, class Temper>
void twist_pass(Word* s, std::size_t n, std::size_t m, Word lower, Word a,
                Word* out, Temper temper_word) {
  constexpr std::size_t W = sizeof(T) / sizeof(Word);
  const auto step = [&](std::size_t i, T nxt, T mid) {
    const T x = twist(load<T>(s + i), nxt, mid, lower, a);
    store(s + i, x);
    store(out + i, temper_word(x));
  };
  // W words: k from p, then the rest from q.
  const auto joined = [](const Word* p, std::size_t k, const Word* q) {
    Word w[W];
    __builtin_memcpy(w, p, k * sizeof(Word));
    __builtin_memcpy(w + k, q, (W - k) * sizeof(Word));
    return load<T>(w);
  };
  const std::size_t wrap = n - m;  // the first i whose middle word wraps
  std::size_t i = 0;
  for (; i + W <= wrap; i += W) {
    step(i, load<T>(s + i + 1), load<T>(s + i + m));
  }
  if (i < wrap) {
    step(i, load<T>(s + i + 1), joined(s + i + m, wrap - i, s));
    i += W;
  }
  for (; i + W < n; i += W) {
    step(i, load<T>(s + i + 1), load<T>(s + i + m - n));
  }
  if (i + W == n) {
    step(i, joined(s + i + 1, W - 1, s), load<T>(s + i + m - n));
    return;
  }
  for (; i < n; ++i) {
    s[i] = twist(s[i], s[i + 1 < n ? i + 1 : 0], s[i + m - n], lower, a);
    out[i] = temper_word(s[i]);
  }
}

/// MT(521) (n = 17, m = 8): x[j+17] = x[j+8] ^ twist(x[j], x[j+1]), 8
/// words a step, on the window cur = x[j..j+7], nxt = x[j+1..j+8], hi =
/// x[j+9..j+16]. The middle words x[j+8..j+15] are nxt's last lane and
/// hi's first seven. Then mid, hi and the output are the next cur, nxt
/// and hi: the window stays in registers (a linear array would reload
/// each word 9 words after its store and stall on store forwarding).
/// The recurrence reaches m = 8 words back, so this body is 8 words wide
/// at every level.
void mt521_window(std::uint32_t* state, std::size_t count,
                  const MtParams& params, std::uint32_t* out) {
  using v8 = Vec<std::uint32_t, 8>;
  const MtParams p = params;  // a copy `out` cannot alias stays in registers
  const std::uint32_t lower = lower_mask(p);
  v8 cur = load<v8>(state);
  v8 nxt = load<v8>(state + 1);
  v8 hi = load<v8>(state + 9);
  // x[j+17..j+24] from the window at j, which then moves on by 8.
  const auto step = [&] {
    const v8 mid = __builtin_shuffle(nxt, hi, v8{7, 8, 9, 10, 11, 12, 13, 14});
    const v8 y = twist(cur, nxt, mid, lower, p.a);
    cur = mid;
    nxt = hi;
    hi = y;
    return y;
  };
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) store(out + i, temper(step(), p));
  // Spill the window x[j..j+16], and for a part step x[j+17..j+24]
  // after it; the new state is the 17 words ending at the last output.
  std::uint32_t window[25];
  store(window + 1, nxt);
  store(window, cur);
  store(window + 9, hi);
  const std::size_t rest = count - i;
  if (rest != 0) {
    const v8 y = step();
    store(window + 17, y);
    const v8 tempered = temper(y, p);
    __builtin_memcpy(out + i, &tempered, rest * sizeof(std::uint32_t));
  }
  __builtin_memcpy(state, window + rest, 17 * sizeof(std::uint32_t));
}

/// Giles' polynomials in normal_icdf_cuda: the central branch (w < 5)
/// and the tail, highest coefficient first.
constexpr float kGilesCentral[9] = {
    2.81022636e-08f, 3.43273939e-07f, -3.5233877e-06f,
    -4.39150654e-06f, 0.00021858087f, -0.00125372503f,
    -0.00417768164f, 0.246640727f,    1.50140941f};
constexpr float kGilesTail[9] = {
    -0.000200214257f, 0.000100950558f, 0.00134934322f,
    -0.00367342844f,  0.00573950773f,  -0.0076224613f,
    0.00943887047f,   1.00167406f,     2.83297682f};

template <class V>
struct Body {
  using vf = typename V::vf;
  using vi = typename V::vi;
  using vu = typename V::vu;
  using vd = typename V::vd;
  using vq = typename V::vq;
  using vuq = typename V::vuq;
  using vh = typename V::vh;
  using vhf = typename V::vhf;
  static constexpr std::size_t W = V::kW;       ///< float / int32 lanes
  static constexpr std::size_t WD = V::kW / 2;  ///< double / 64-bit lanes

  /// 0, 1, ..., W - 1.
  static vi iota() {
    vi v{};
    for (std::size_t j = 0; j < W; ++j) v[j] = static_cast<std::int32_t>(j);
    return v;
  }

  static vf compact(vf x, unsigned m) { return (vf)V::compact((vi)x, m); }

  /// uint2float_open0 lane-wise: ((u >> 9) + 0.5f) * 0x1.0p-23f, every
  /// step exact.
  static vf open0(vu u) {
    return (__builtin_convertvector((vi)(u >> 9), vf) + 0.5f) * 0x1.0p-23f;
  }

  /// W floats from two halves of doubles, each correctly rounded.
  static vf narrow(vd lo, vd hi) {
    return (vf)V::join((vh)__builtin_convertvector(lo, vhf),
                       (vh)__builtin_convertvector(hi, vhf));
  }

  /// log_parts() of half of W positive normal floats (no subnormal
  /// branch: callers route those groups down).
  struct LogParts {
    vd r, kd;
    vh idx;
  };
  static void log_parts(vf x, LogParts& lo, LogParts& hi) {
    const vu ix = (vu)x;
    const vu tmp = ix - kOff;
    const vi idx = (vi)((tmp >> 19) & 15u);
    const vi k = (vi)tmp >> 23;
    const vi z = (vi)(ix - (tmp & 0xff800000u));
    lo.idx = V::lo(idx);
    hi.idx = V::hi(idx);
    lo.r = V::to_d((vhf)V::lo(z)) * V::lookup(kInvC, lo.idx) - 1.0;
    hi.r = V::to_d((vhf)V::hi(z)) * V::lookup(kInvC, hi.idx) - 1.0;
    lo.kd = V::to_d(V::lo(k));
    hi.kd = V::to_d(V::hi(k));
  }

  /// lnp1(): the same Horner chain, multiplies and adds kept separate.
  static vd lnp1(vd r) {
    vd p = kP6 * r + kP5;
    p = p * r + kP4;
    p = p * r + kP3;
    p = p * r + kP2;
    p = p * r + 1.0;
    return p * r;
  }

  /// fast_logf() for W positive normal floats.
  static vf fast_logf(vf x) {
    LogParts lo, hi;
    log_parts(x, lo, hi);
    const auto half = [](const LogParts& p) {
      return (p.kd * kLn2 + V::lookup(kLogC, p.idx)) + lnp1(p.r);
    };
    return narrow(half(lo), half(hi));
  }

  /// exp2_pos() for WD doubles in the clamped range.
  static vd exp2(vd t) {
    const vd scaled = t * 32.0;
    const vd kd_plus = scaled + 0x1.8p52;
    const vd kd = kd_plus - 0x1.8p52;
    const vd w = (scaled - kd) * kLn2Div32;
    vd q = kQ4 * w + kQ3;
    q = q * w + kQ2;
    q = q * w + 1.0;
    q = q * w + 1.0;
    // The rounded integer is the low dword of kd_plus: its low 5 bits
    // pick 2^(j/32), the next 12 the binade.
    const vuq ki = (vuq)kd_plus;
    const vuq tab = V::lookup(kExp2Tab, (vq)(ki & 31u));
    return (vd)(tab + ((ki >> 5) << 52)) * q;
  }

  static std::size_t mb_attempt_block(const std::uint32_t* ua,
                                      const std::uint32_t* ub,
                                      std::size_t count, float* n0,
                                      std::uint64_t* valid) {
    // Per block of kBlock lanes: the polar setup on every lane, v1 of
    // the valid lanes compacted into n0 and their s into a stack buffer,
    // then the finish (log, divide, sqrt) over the compacted lanes only.
    // A compacted group is stored whole: the lanes past its valid ones
    // land on slots later groups overwrite (n + W <= count).
    constexpr std::size_t kBlock = 256;
    float s_valid[kBlock];
    clear_flags(valid, count);
    std::size_t n = 0;
    std::size_t i = 0;
    while (i + W <= count) {
      const std::size_t end = i + lesser(kBlock, (count - i) & ~(W - 1));
      const std::size_t first = n;
      for (; i < end; i += W) {
        const vf v1 = 2.0f * open0(load<vu>(ua + i)) - 1.0f;
        const vf v2 = 2.0f * open0(load<vu>(ub + i)) - 1.0f;
        const vf s = v1 * v1 + v2 * v2;
        const unsigned m = V::bits(V::lt(s, vf{} + 1.0f) & V::gt(s, vf{}));
        store(n0 + n, compact(v1, m));
        store(s_valid + (n - first), compact(s, m));
        valid[i / 64] |= std::uint64_t{m} << (i % 64);
        n += popcount(m);
      }
      mb_finish_block(n0 + first, s_valid, n - first);
    }
    if (i < count) {  // fewer than W lanes: their flags fit one word
      std::uint64_t tail = 0;
      n += V::down().mb_attempt_block(ua + i, ub + i, count - i, n0 + n, &tail);
      valid[i / 64] |= tail << (i % 64);
    }
    return n;
  }

  static void mb_finish_block(float* n0, const float* s, std::size_t count) {
    std::size_t i = 0;
    for (; i + W <= count; i += W) {
      const vf sv = load<vf>(s + i);
      if (V::bits((vi)sv < 0x00800000) != 0) {  // subnormal, zero, negative
        V::down().mb_finish_block(n0 + i, s + i, W);
        continue;
      }
      store(n0 + i, load<vf>(n0 + i) * V::sqrt(-2.0f * fast_logf(sv) / sv));
    }
    if (i < count) V::down().mb_finish_block(n0 + i, s + i, count - i);
  }

  /// c[0], then c[j] + p·w: Giles' Horner chain.
  static vf horner(const float (&c)[9], vf w) {
    vf p = c[1] + c[0] * w;
    for (std::size_t j = 2; j < 9; ++j) p = c[j] + p * w;
    return p;
  }

  static void icdf_cuda_block(const std::uint32_t* u, std::size_t count,
                              float* value) {
    // u as an exact double (biased into int32 range and back), then the
    // correctly rounded double -> float is the scalar static_cast.
    const auto exact = [](vh biased) { return V::to_d(biased) + 0x1p31; };
    std::size_t i = 0;
    for (; i + W <= count; i += W) {
      const vi biased = (vi)(load<vu>(u + i) ^ 0x80000000u);
      const vf uf32 = narrow(exact(V::lo(biased)), exact(V::hi(biased)));
      const vf x = 2.0f * ((uf32 + 0.5f) * 0x1.0p-32f) - 1.0f;
      const vf arg = (1.0f - x) * (1.0f + x);
      if (V::bits((vi)arg < 0x00800000) != 0) {  // |x| rounded to 1 (u
        V::down().icdf_cuda_block(u + i, W, value + i);  // near an end)
        continue;
      }
      const vf w = -fast_logf(arg);
      // Giles' two polynomial branches, both evaluated, blended on w < 5.
      const vf p = w < 5.0f ? horner(kGilesCentral, w - 2.5f)
                            : horner(kGilesTail, V::sqrt(w) - 3.0f);
      store(value + i, 1.41421356237309505f * (p * x));
    }
    if (i < count) V::down().icdf_cuda_block(u + i, count - i, value + i);
  }

  static std::size_t icdf_bitwise_block(const std::uint32_t* u,
                                        std::size_t count, float* n0,
                                        std::uint64_t* valid) {
    // Pure integer datapath, so exactness needs no floating-point care:
    // 32-bit lanes wrap exactly like ap_fixed<32,·>, and the two
    // fixed-point MACs keep their full 64-bit intermediates.
    static_assert(IcdfBitwiseTable::kSubBits == 3,
                  "sub-segment shifts below are hard-coded");
    static_assert(sizeof(IcdfBitwiseTable::Segment) == 24,
                  "gather offsets assume three int64 coefficient raws");
    const auto* base = reinterpret_cast<const std::int32_t*>(
        IcdfBitwiseTable::instance().data());
    const vi one = vi{} + 1;
    // r[i] = low32((sext64(a[i]) · sext64(b[i])) >> 27): the ap_fixed
    // full-precision multiply truncated back to 27 fractional bits.
    const auto fx_mul = [](vi a, vi b) {
      const vuq even = (vuq)V::mul_even(a, b);
      const vuq odd =
          (vuq)V::mul_even((vi)((vuq)a >> 32), (vi)((vuq)b >> 32));
      return V::blend_odd((vi)(even >> 27), (vi)((odd >> 27) << 32));
    };
    clear_flags(valid, count);
    std::size_t n = 0;
    std::size_t i = 0;
    for (; i + W <= count; i += W) {
      const vi uu = load<vi>(u + i);
      const vi upper = uu >> 31;  // -1 on the p ≥ .5 half
      const vi t = (uu ^ upper) & 0x7fffffff;
      const auto live = V::nonzero(t);
      const vi msb = V::msb(t);
      // Octave / sub-segment / local coordinate. Dead lanes (t = 0)
      // compute garbage that is masked below, the gather index
      // included. `wide` is the msb_pos >= kSubBits branch.
      const vi wide = msb > 2;
      const vi shift_a = msb - 3;
      const vi sub_a = V::shr(t, shift_a) & 7;
      const vi local_a = t & (V::shl(one, shift_a) - 1);
      const vi sub_b = V::shl(t & (V::shl(one, msb) - 1), 3 - msb);
      const vi sub = wide ? sub_a : sub_b;
      // x as ap_fixed<32,2> raw (30 fractional bits), re-scaled into the
      // coefficient format (>> 3). The local width is at most 27 here,
      // so the scalar path's width-beyond-30 clamp is unreachable.
      const vi xc =
          (vi)((vu)V::shl(local_a & wide, 30 - (shift_a & wide)) >> 3);
      // Three dword gathers into the {c0,c1,c2} int64 triples (the low
      // dword of each raw holds the wrapped 32-bit value).
      const vi dw = V::select(live, ((30 - msb) << 3) + sub) * 6;
      const vi c0 = V::gather(base, dw);
      const vi c1 = V::gather(base, dw + 2);
      const vi c2 = V::gather(base, dw + 4);
      // Horner (c2·x + c1)·x + c0 with 32-bit wraparound adds, then the
      // reflection (negate where the input sign bit was clear) and the
      // exact 2^-27 raw→float scale; the dead lanes are compacted out.
      vu g = (vu)fx_mul(c2, xc) + (vu)c1;
      g = (vu)fx_mul((vi)g, xc) + (vu)c0;
      const vu neg = (vu)~upper;
      g = (g ^ neg) - neg;
      const vf value = __builtin_convertvector((vi)g, vf) * 0x1.0p-27f;
      const unsigned m = V::bits(live);
      store(n0 + n, compact(value, m));
      valid[i / 64] |= std::uint64_t{m} << (i % 64);
      n += popcount(m);
    }
    if (i < count) {  // fewer than W lanes: their flags fit one word
      std::uint64_t tail = 0;
      n += V::down().icdf_bitwise_block(u + i, count - i, n0 + n, &tail);
      valid[i / 64] |= tail << (i % 64);
    }
    return n;
  }

  static std::size_t gamma_attempt_block(const float* n0,
                                         const std::uint32_t* u1,
                                         std::size_t count,
                                         const GammaConstants& k,
                                         float* value, std::uint64_t* ok) {
    clear_flags(ok, count);
    std::size_t accepted = 0;
    const float c = k.c, d = k.d, scale = k.scale;  // `value` may alias k
    // v = t³ with t = 1 + c·x, as gamma_attempt computes it.
    const auto t_of = [c](vf x) { return 1.0f + c * x; };
    const auto cube = [](vf t) { return t * t * t; };
    // The exact test ln u1 < x²/2 + d(1 − v + ln v) on up to W compacted
    // squeeze misses (lane indices idx[0..lanes)). A group with a v that
    // fast_logf's vector form does not cover (not positive, finite and
    // normal: its bits less 0x00800000 are at least 0x7f000000) takes
    // the attempt a level down, one lane at a time.
    const auto exact_group = [&](const std::int32_t* idx, std::size_t lanes) {
      const unsigned live = (1u << lanes) - 1;
      const vi gi = load<vi>(idx);
      const vf x = V::gather(n0, gi);
      const vf u1f = open0((vu)V::gather(
          reinterpret_cast<const std::int32_t*>(u1), gi));
      const vf v = cube(t_of(x));
      if ((V::bits((vu)v - 0x00800000u >= 0x7f000000u) & live) != 0) {
        for (std::size_t l = 0; l < lanes; ++l) {
          const auto lane = static_cast<std::size_t>(idx[l]);
          std::uint64_t flag = 0;
          accepted += V::down().gamma_attempt_block(n0 + lane, u1 + lane, 1,
                                                    k, value + lane, &flag);
          ok[lane / 64] |= flag << (lane % 64);
        }
        return;
      }
      const vf x2 = x * x;
      const vf rhs = 0.5f * x2 + d * ((1.0f - v) + fast_logf(v));
      unsigned pass = V::bits(V::lt(fast_logf(u1f), rhs)) & live;
      if (pass == 0) return;
      const vf val = d * v * scale;
      for (; pass != 0; pass &= pass - 1) {
        const int l = __builtin_ctz(pass);
        const auto lane = static_cast<std::size_t>(idx[l]);
        value[lane] = val[l];
        ok[lane / 64] |= std::uint64_t{1} << (lane % 64);
        ++accepted;
      }
    };

    // Per block of kBlock lanes: the squeeze test on every lane, the
    // misses' lane indices compacted, then the exact test over those
    // only. About half the 8-lane groups hold a miss, so testing the
    // compacted misses runs the two logs on a quarter as many groups.
    constexpr std::size_t kBlock = 512;
    std::int32_t miss[kBlock + W];
    const vi lane_ids = iota();
    std::size_t i = 0;
    while (i + W <= count) {
      const std::size_t end = i + lesser(kBlock, (count - i) & ~(W - 1));
      std::size_t n_miss = 0;
      for (; i < end; i += W) {
        const vf x = load<vf>(n0 + i);
        const vf u1f = open0(load<vu>(u1 + i));
        const vf t = t_of(x);
        const vf v = cube(t);
        const auto tpos = V::gt(t, vf{});
        const vf x2 = x * x;
        const auto squeeze = V::lt(u1f, 1.0f - 0.0331f * x2 * x2);
        const auto fast_ok = tpos & squeeze;
        store(value + i, V::select(fast_ok, d * v * scale));
        const unsigned fast = V::bits(fast_ok);
        ok[i / 64] |= std::uint64_t{fast} << (i % 64);
        accepted += popcount(fast);
        const unsigned m = V::bits(tpos & ~squeeze);
        if (m != 0) {
          store(miss + n_miss,
                V::compact(lane_ids + static_cast<std::int32_t>(i), m));
          n_miss += popcount(m);
        }
      }
      // Pad the last group with copies of a live lane, masked off.
      for (std::size_t p = n_miss; p % W != 0; ++p) miss[p] = miss[p - 1];
      for (std::size_t j = 0; j < n_miss; j += W) {
        exact_group(miss + j, lesser(W, n_miss - j));
      }
    }
    if (i < count) {  // fewer than W lanes: their flags fit one word
      std::uint64_t tail = 0;
      accepted += V::down().gamma_attempt_block(n0 + i, u1 + i, count - i, k,
                                                value + i, &tail);
      ok[i / 64] |= tail << (i % 64);
    }
    return accepted;
  }

  static std::size_t compact_block(const float* in, const std::uint64_t* keep,
                                   std::size_t count, float* out) {
    std::size_t n = 0;
    std::size_t i = 0;
    for (; i + W <= count; i += W) {
      const auto m = static_cast<unsigned>((keep[i / 64] >> (i % 64)) &
                                           ((std::uint64_t{1} << W) - 1));
      // n <= i: the store covers only lanes this group already loaded.
      store(out + n, compact(load<vf>(in + i), m));
      n += popcount(m);
    }
    if (i == count) return n;
    const std::uint64_t tail = keep[i / 64] >> (i % 64);
    return n + V::down().compact_block(in + i, &tail, count - i, out + n);
  }

  static void gamma_correct_block(float* g, const std::uint32_t* u2,
                                  std::size_t count, const GammaConstants& k) {
    const double y = static_cast<double>(k.inv_alpha);
    const vd inf = vd{} + __builtin_inf();
    // g^(1/α)'s factor exp2(y · log2 u2) for one half, clamped as
    // exp2_pos's callers clamp it.
    const auto pow = [&](const LogParts& p) {
      const vd t =
          y * ((p.kd + V::lookup(kLog2C, p.idx)) + lnp1(p.r) * kInvLn2);
      const vd e = t <= -151.0 ? vd{} : exp2(t);
      return t >= 129.0 ? inf : e;
    };
    std::size_t i = 0;
    for (; i + W <= count; i += W) {
      LogParts lo, hi;
      log_parts(open0(load<vu>(u2 + i)), lo, hi);  // open0 floats are normal
      store(g + i, load<vf>(g + i) * narrow(pow(lo), pow(hi)));
    }
    if (i < count) V::down().gamma_correct_block(g + i, u2 + i, count - i, k);
  }

  static void mt_generate_block(std::uint32_t* state, std::size_t count,
                                const MtParams& params, std::uint32_t* out) {
    const MtParams p = params;  // a copy `out` cannot alias stays in registers
    if (p.n == 17 && p.m == 8) return mt521_window(state, count, p, out);
    // twist_pass needs m >= W and n - m >= W: MT19937 (m = 397,
    // n - m = 227) qualifies at both widths.
    if (p.m < W || p.n - p.m < W) {
      return V::down().mt_generate_block(state, count, p, out);
    }
    const auto tempered = [&p](auto y) { return temper(y, p); };
    for (std::size_t i = 0; i < count; i += p.n) {
      twist_pass<vu>(state, p.n, p.m, lower_mask(p), p.a, out + i, tempered);
    }
  }

  static void mt64_refill(std::uint64_t* state, std::uint64_t* block) {
    using namespace mt64;
    static_assert(kM >= WD && kN - kM >= WD);
    twist_pass<vuq>(state, kN, kM, kLowerMask, kMatrixA, block,
                    [](auto z) { return temper64(z); });
  }

  static std::size_t poisson_first_draw_scan(const std::uint64_t* words,
                                             const double* lambda,
                                             std::size_t count) {
    // canonical_double, WD lanes: each 32-bit half or-ed into the
    // mantissa of 2^52, less 2^52, is its exact double; then
    // hi·2^32 + lo, ·2^-64 and the clamp, as scalar.
    constexpr std::uint64_t kBias = 0x4330000000000000;
    const vd below_one = vd{} + 0x1.fffffffffffffp-1;
    static_assert(kPoissonFirstDrawBound - kPoissonRejectionMean < 0.0);
    std::size_t i = 0;
    for (; i + WD <= count; i += WD) {
      const vuq w = load<vuq>(words + i);
      const vd hi = (vd)((w >> 32) | kBias) - 0x1p52;
      const vd lo = (vd)V::blend_odd((vi)w, (vi)(vuq{} + kBias)) - 0x1p52;
      const vd u = V::min((hi * 0x1p32 + lo) * 0x1p-64, below_one);
      // One ordered compare: λ ≥ 12 makes bound − λ < 0 <= u, so it is
      // unsettled here too, and a NaN λ compares false, so it settles.
      const unsigned stop =
          V::bits(u > kPoissonFirstDrawBound - load<vd>(lambda + i));
      if (stop != 0) return i + static_cast<std::size_t>(__builtin_ctz(stop));
    }
    if (i == count) return count;
    return i + V::down().poisson_first_draw_scan(words + i, lambda + i,
                                                 count - i);
  }

  template <class Draw>
  static void intensity_block(const IntensityBook& book, const Draw* rows,
                              std::size_t n, double* lambda) {
    const std::size_t N = book.obligors;
    const std::size_t K = book.sectors;
    const std::size_t full = N - N % WD;
    const auto tail = V::first(N % WD);  // the last group's lanes
    const auto load_full = [](const double* p) { return load<vd>(p); };
    const auto load_tail = [tail](const double* p) { return V::load(p, tail); };
    // λ of the WD obligors from i: w_0, + w_ik·S_k with the sectors
    // ascending, ·p_i — the scalar order, one accumulator per lane.
    const auto group = [&](const Draw* draws, std::size_t i, auto load_d) {
      vd acc = load_d(book.w0 + i);
      for (std::size_t k = 0; k < K; ++k) {
        acc = acc + load_d(book.weights + k * N + i) *
                        static_cast<double>(draws[k]);
      }
      return acc * load_d(book.probability + i);
    };
    for (std::size_t s = 0; s < n; ++s) {
      const Draw* draws = rows + s * K;
      double* out = lambda + s * N;
      for (std::size_t i = 0; i < full; i += WD) {
        store(out + i, group(draws, i, load_full));
      }
      if (full < N) V::store(out + full, group(draws, full, load_tail), tail);
    }
  }

  static void philox_block(const std::uint32_t* counter,
                           const std::uint32_t* key, std::size_t nblocks,
                           std::uint32_t* out) {
    // Integer-only: W counters abreast through the 10 rounds, SoA in
    // registers, transposed to counter-order AoS on store. The only care
    // point is the 128-bit counter carry: a group whose low word would
    // wrap inside it goes a level down.
    std::uint32_t k0[10], k1[10];
    for (std::uint32_t r = 0, a = key[0], b = key[1]; r < 10;
         ++r, a += 0x9E3779B9u, b += 0xBB67AE85u) {
      k0[r] = a;
      k1[r] = b;
    }
    // The low and high words of x · m, lane by lane: the even and odd
    // lanes' 64-bit products, recombined by blends.
    const auto mulhilo = [](vu x, std::uint32_t m, vu& lo, vu& hi) {
      const vu mv = vu{} + m;
      const vuq even = V::mul_even(x, mv);
      const vuq odd = V::mul_even((vu)((vuq)x >> 32), mv);
      lo = (vu)V::blend_odd((vi)even, (vi)(odd << 32));
      hi = (vu)V::blend_odd((vi)(even >> 32), (vi)odd);
    };
    const vu lane_ids = (vu)iota();
    std::uint32_t c[4] = {counter[0], counter[1], counter[2], counter[3]};
    std::size_t b = 0;
    for (; b + W <= nblocks; b += W, out += 4 * W) {
      if (c[0] > 0xffffffffu - (W - 1)) {
        V::down().philox_block(c, key, W, out);
      } else {
        vu x0 = lane_ids + c[0];
        vu x1 = vu{} + c[1];
        vu x2 = vu{} + c[2];
        vu x3 = vu{} + c[3];
        for (int r = 0; r < 10; ++r) {
          vu lo0, hi0, lo1, hi1;
          mulhilo(x0, 0xD2511F53u, lo0, hi0);
          mulhilo(x2, 0xCD9E8D57u, lo1, hi1);
          x0 = hi1 ^ x1 ^ k0[r];
          x2 = hi0 ^ x3 ^ k1[r];
          x1 = lo1;
          x3 = lo0;
        }
        V::store4(out, x0, x1, x2, x3);
      }
      const std::uint64_t next = std::uint64_t{c[0]} + W;
      c[0] = static_cast<std::uint32_t>(next);
      for (int w = 1; (next >> 32) != 0 && w < 4 && ++c[w] == 0; ++w) {
      }
    }
    if (b < nblocks) V::down().philox_block(c, key, nblocks - b, out);
  }
};

/// The kernel table of lane width V.
template <class V>
constexpr Kernels table() {
  using B = Body<V>;
  return {B::mb_attempt_block,
          B::mb_finish_block,
          B::icdf_cuda_block,
          B::icdf_bitwise_block,
          B::gamma_attempt_block,
          B::compact_block,
          B::gamma_correct_block,
          B::mt_generate_block,
          B::mt64_refill,
          B::poisson_first_draw_scan,
          B::template intensity_block<double>,
          B::template intensity_block<float>,
          B::philox_block};
}

}  // namespace
}  // namespace dwi::rng::simd
