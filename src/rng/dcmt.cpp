#include "rng/dcmt.h"

#include <algorithm>

#include "common/error.h"

namespace dwi::rng {

Gf2Matrix::Gf2Matrix(unsigned dim)
    : dim_(dim), words_per_row_((dim + 63) / 64),
      bits_(static_cast<std::size_t>(dim) * words_per_row_, 0) {
  DWI_REQUIRE(dim >= 1 && dim <= 4096, "GF(2) matrix dimension out of range");
}

Gf2Matrix Gf2Matrix::identity(unsigned dim) {
  Gf2Matrix m(dim);
  for (unsigned i = 0; i < dim; ++i) m.set(i, i, true);
  return m;
}

bool Gf2Matrix::get(unsigned row, unsigned col) const {
  DWI_ASSERT(row < dim_ && col < dim_);
  return (bits_[static_cast<std::size_t>(row) * words_per_row_ + col / 64] >>
          (col % 64)) &
         1u;
}

void Gf2Matrix::set(unsigned row, unsigned col, bool v) {
  DWI_ASSERT(row < dim_ && col < dim_);
  auto& w = bits_[static_cast<std::size_t>(row) * words_per_row_ + col / 64];
  const std::uint64_t mask = std::uint64_t{1} << (col % 64);
  if (v) {
    w |= mask;
  } else {
    w &= ~mask;
  }
}

Gf2Matrix Gf2Matrix::operator*(const Gf2Matrix& o) const {
  DWI_REQUIRE(dim_ == o.dim_, "dimension mismatch");
  Gf2Matrix r(dim_);
  // Row-major accumulation: result row i = XOR of o's rows j where
  // this(i, j) = 1. Inner loops stream whole limb rows — the
  // bit-sliced form that makes the 521 squarings of the period proof
  // affordable.
  for (unsigned i = 0; i < dim_; ++i) {
    const std::uint64_t* a_row =
        &bits_[static_cast<std::size_t>(i) * words_per_row_];
    std::uint64_t* r_row =
        &r.bits_[static_cast<std::size_t>(i) * words_per_row_];
    for (unsigned jw = 0; jw < words_per_row_; ++jw) {
      std::uint64_t a_bits = a_row[jw];
      while (a_bits != 0) {
        const unsigned bit = static_cast<unsigned>(__builtin_ctzll(a_bits));
        a_bits &= a_bits - 1;
        const unsigned j = jw * 64 + bit;
        const std::uint64_t* b_row =
            &o.bits_[static_cast<std::size_t>(j) * words_per_row_];
        for (unsigned k = 0; k < words_per_row_; ++k) r_row[k] ^= b_row[k];
      }
    }
  }
  return r;
}

bool Gf2Matrix::operator==(const Gf2Matrix& o) const {
  return dim_ == o.dim_ && bits_ == o.bits_;
}

unsigned Gf2Matrix::rank() const {
  std::vector<std::uint64_t> rows = bits_;
  unsigned rank = 0;
  for (unsigned col = 0; col < dim_ && rank < dim_; ++col) {
    // Find a pivot row at or below `rank` with bit `col` set.
    unsigned pivot = dim_;
    for (unsigned r = rank; r < dim_; ++r) {
      if ((rows[static_cast<std::size_t>(r) * words_per_row_ + col / 64] >>
           (col % 64)) &
          1u) {
        pivot = r;
        break;
      }
    }
    if (pivot == dim_) continue;
    if (pivot != rank) {
      for (unsigned k = 0; k < words_per_row_; ++k) {
        std::swap(rows[static_cast<std::size_t>(pivot) * words_per_row_ + k],
                  rows[static_cast<std::size_t>(rank) * words_per_row_ + k]);
      }
    }
    for (unsigned r = rank + 1; r < dim_; ++r) {
      if ((rows[static_cast<std::size_t>(r) * words_per_row_ + col / 64] >>
           (col % 64)) &
          1u) {
        for (unsigned k = 0; k < words_per_row_; ++k) {
          rows[static_cast<std::size_t>(r) * words_per_row_ + k] ^=
              rows[static_cast<std::size_t>(rank) * words_per_row_ + k];
        }
      }
    }
    ++rank;
  }
  return rank;
}

std::vector<std::uint64_t> Gf2Matrix::apply(
    const std::vector<std::uint64_t>& x) const {
  DWI_REQUIRE(x.size() == words_per_row_, "vector size mismatch");
  std::vector<std::uint64_t> y(words_per_row_, 0);
  for (unsigned i = 0; i < dim_; ++i) {
    const std::uint64_t* row =
        &bits_[static_cast<std::size_t>(i) * words_per_row_];
    std::uint64_t acc = 0;
    for (unsigned k = 0; k < words_per_row_; ++k) acc ^= row[k] & x[k];
    if (__builtin_parityll(acc)) y[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  return y;
}

namespace {

/// One untempered MT word-step on a raw n-word state: the state
/// (x_0 .. x_{n-1}) advances to (x_1 .. x_n) with
/// x_n = x_m ⊕ twist((x_0 & upper) | (x_1 & lower)).
void mt_word_step(const MtParams& p, std::vector<std::uint32_t>& x) {
  const std::uint32_t lower = p.lower_mask();
  const std::uint32_t upper = ~lower;
  const std::uint32_t mixed = (x[0] & upper) | (x[1] & lower);
  std::uint32_t xa = mixed >> 1;
  if (mixed & 1u) xa ^= p.a;
  const std::uint32_t next = x[p.m] ^ xa;
  for (unsigned i = 0; i + 1 < p.n; ++i) x[i] = x[i + 1];
  x[p.n - 1] = next;
}

/// Map a p-dimensional GF(2) basis index to the raw state layout: bit
/// 0..(w-r-1) are the upper bits of x_0; the rest fill x_1..x_{n-1}.
void basis_to_state(const MtParams& p, unsigned bit,
                    std::vector<std::uint32_t>& x) {
  std::fill(x.begin(), x.end(), 0u);
  const unsigned top_bits = 32 - p.r;
  if (bit < top_bits) {
    x[0] = std::uint32_t{1} << (p.r + bit);
  } else {
    const unsigned rest = bit - top_bits;
    x[1 + rest / 32] = std::uint32_t{1} << (rest % 32);
  }
}

/// Inverse of basis_to_state: read the p significant bits of the state.
void state_to_bits(const MtParams& p, const std::vector<std::uint32_t>& x,
                   Gf2Matrix& t, unsigned col) {
  const unsigned top_bits = 32 - p.r;
  for (unsigned b = 0; b < top_bits; ++b) {
    if ((x[0] >> (p.r + b)) & 1u) t.set(b, col, true);
  }
  unsigned row = top_bits;
  for (unsigned wi = 1; wi < p.n; ++wi) {
    for (unsigned b = 0; b < 32; ++b, ++row) {
      if ((x[wi] >> b) & 1u) t.set(row, col, true);
    }
  }
}

}  // namespace

Gf2Matrix mt_transition_matrix(const MtParams& params) {
  const unsigned p = params.period_exponent();
  Gf2Matrix t(p);
  std::vector<std::uint32_t> state(params.n);
  for (unsigned col = 0; col < p; ++col) {
    basis_to_state(params, col, state);
    mt_word_step(params, state);
    state_to_bits(params, state, t, col);
  }
  return t;
}

bool is_known_mersenne_prime_exponent(unsigned p) {
  // Mersenne prime exponents relevant to MT geometries.
  static constexpr unsigned kExponents[] = {
      2,    3,    5,    7,    13,   17,   19,   31,   61,    89,
      107,  127,  521,  607,  1279, 2203, 2281, 3217, 4253,  4423,
      9689, 9941, 11213, 19937, 21701, 23209, 44497};
  for (unsigned e : kExponents) {
    if (e == p) return true;
  }
  return false;
}

bool verify_full_period(const MtParams& params) {
  const unsigned p = params.period_exponent();
  DWI_REQUIRE(is_known_mersenne_prime_exponent(p),
              "period exponent is not a known Mersenne prime exponent");
  DWI_REQUIRE(p <= 1300,
              "period proof limited to p <= 1300 (cost grows as p^3)");

  const Gf2Matrix t = mt_transition_matrix(params);
  const Gf2Matrix id = Gf2Matrix::identity(p);
  if (t == id) return false;
  if (!t.invertible()) return false;

  // T^(2^p) via p squarings; full period iff it returns to T.
  Gf2Matrix s = t;
  for (unsigned i = 0; i < p; ++i) s = s.square();
  return s == t;
}

std::optional<MtParams> find_full_period_twist(MtParams params,
                                               std::uint32_t start_a,
                                               unsigned max_tries) {
  std::uint32_t a = start_a | 1u;  // twist coefficients are odd
  for (unsigned i = 0; i < max_tries; ++i) {
    params.a = a;
    if (verify_full_period(params)) return params;
    a += 2u;
  }
  return std::nullopt;
}

}  // namespace dwi::rng
