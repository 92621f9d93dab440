#ifndef MULTICLUST_LINALG_KERNEL_IMPL_H_
#define MULTICLUST_LINALG_KERNEL_IMPL_H_

/// Templated kernel bodies shared by the fast (kernels.cc, whatever SIMD
/// backend the build selected) and reference (kernels_ref.cc, forced
/// scalar lane emulation) instantiations. One algorithm, two codegen
/// targets — this is what makes "SIMD-on and SIMD-off are bit-identical"
/// a structural property instead of a hand-maintained promise.
///
/// Conventions:
///  - f64 dot/sum/distance reductions stride by 8, accumulating into TWO
///    independent 4-lane vectors (the single-vector chain would serialize
///    on add latency). The vectors are then stored as eight slot doubles,
///    each tail term (n % 8 of them) is added to its slot as one scalar
///    op, and the slots combine in one fixed order (CombineSlots) — fixed
///    for every backend, which is all the bit-identity contract needs. No
///    tail is staged through a zero-padded buffer.
///  - a hot loop over rows calls a row-lane kernel once per row block,
///    never a per-pair reduction per (row, partner) pair.
///  - elementwise kernels (axpy & friends) vectorize the main body and
///    finish the tail scalar; per-element operation order is identical to
///    the plain scalar loop, so they are bit-identical to it by
///    construction.
///  - transcendentals (exp, log) always go through libm, one element at a
///    time — no vendor vector-math libraries, whose polynomials differ.
///    Square roots are the exception: `Double4::Sqrt` is the IEEE
///    correctly rounded root on every backend, so it vectorizes freely.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "linalg/simd.h"

// Forces inlining of the small lane helpers (the slot reductions and their
// per-coordinate terms) into the row loops that call them: as calls they
// cost more than their arithmetic.
#if defined(__GNUC__) || defined(__clang__)
#define MULTICLUST_SIMD_INLINE inline __attribute__((always_inline))
#else
#define MULTICLUST_SIMD_INLINE inline
#endif

namespace multiclust {
namespace kernels {
namespace impl {

// --- f64 reductions (4-lane model). ---

// The eight slots of a two-accumulator reduction: s[l] is lane l of acc0
// and s[l + 4] lane l of acc1. The order is acc0 + acc1, then the lanes
// of that sum as (l0 + l1) + (l2 + l3).
inline double CombineSlots(const double* s) {
  return ((s[0] + s[4]) + (s[1] + s[5])) + ((s[2] + s[6]) + (s[3] + s[7]));
}

template <typename V>
double Dot(const double* a, const double* b, size_t n) {
  V acc0 = V::Zero(), acc1 = V::Zero();
  const size_t main = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < main; i += 8) {
    acc0 = V::MulAdd(V::Load(a + i), V::Load(b + i), acc0);
    acc1 = V::MulAdd(V::Load(a + i + 4), V::Load(b + i + 4), acc1);
  }
  double s[8];
  acc0.Store(s);
  acc1.Store(s + 4);
  for (size_t j = 0; main + j < n; ++j) {
    s[j] = s[j] + (a[main + j] * b[main + j]);
  }
  return CombineSlots(s);
}

template <typename V>
double Sum(const double* x, size_t n) {
  V acc0 = V::Zero(), acc1 = V::Zero();
  const size_t main = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < main; i += 8) {
    acc0 = acc0 + V::Load(x + i);
    acc1 = acc1 + V::Load(x + i + 4);
  }
  double s[8];
  acc0.Store(s);
  acc1.Store(s + 4);
  for (size_t j = 0; main + j < n; ++j) s[j] = s[j] + x[main + j];
  return CombineSlots(s);
}

template <typename V>
double SquaredNorm(const double* x, size_t n) {
  return Dot<V>(x, x, n);
}

template <typename V>
double SquaredDistance(const double* a, const double* b, size_t n) {
  V acc0 = V::Zero(), acc1 = V::Zero();
  const size_t main = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < main; i += 8) {
    const V d0 = V::Load(a + i) - V::Load(b + i);
    const V d1 = V::Load(a + i + 4) - V::Load(b + i + 4);
    acc0 = V::MulAdd(d0, d0, acc0);
    acc1 = V::MulAdd(d1, d1, acc1);
  }
  double s[8];
  acc0.Store(s);
  acc1.Store(s + 4);
  for (size_t j = 0; main + j < n; ++j) {
    const double diff = a[main + j] - b[main + j];
    s[j] = s[j] + (diff * diff);
  }
  return CombineSlots(s);
}

// sum_j (x[j] - mean[j])^2 / var[j] — the diagonal-covariance Gaussian
// quadratic form. One accumulator: slot l is its lane l, and the tail's
// terms go to slots 0 .. n%4 - 1.
template <typename V>
double QuadDiag(const double* x, const double* mean, const double* var,
                size_t n) {
  V acc = V::Zero();
  const size_t main = n & ~static_cast<size_t>(3);
  for (size_t i = 0; i < main; i += 4) {
    const V d = V::Load(x + i) - V::Load(mean + i);
    acc = acc + (d * d) / V::Load(var + i);
  }
  double s[4];
  acc.Store(s);
  for (size_t j = 0; main + j < n; ++j) {
    const double d = x[main + j] - mean[main + j];
    s[j] = s[j] + ((d * d) / var[main + j]);
  }
  return (s[0] + s[1]) + (s[2] + s[3]);
}

// --- f64 elementwise (bit-identical to the plain scalar loop). ---

template <typename V>
void Add(double* acc, const double* x, size_t n) {
  const size_t main = n & ~static_cast<size_t>(3);
  size_t i = 0;
  for (; i < main; i += 4) (V::Load(acc + i) + V::Load(x + i)).Store(acc + i);
  for (; i < n; ++i) acc[i] = acc[i] + x[i];
}

template <typename V>
void Axpy(double alpha, const double* x, double* y, size_t n) {
  const V a = V::Broadcast(alpha);
  const size_t main = n & ~static_cast<size_t>(3);
  size_t i = 0;
  for (; i < main; i += 4) {
    V::MulAdd(a, V::Load(x + i), V::Load(y + i)).Store(y + i);
  }
  for (; i < n; ++i) y[i] = y[i] + (alpha * x[i]);
}

// y[j] += alpha * (x[j] - m[j])
template <typename V>
void AxpyDiff(double alpha, const double* x, const double* m, double* y,
              size_t n) {
  const V a = V::Broadcast(alpha);
  const size_t main = n & ~static_cast<size_t>(3);
  size_t i = 0;
  for (; i < main; i += 4) {
    V::MulAdd(a, V::Load(x + i) - V::Load(m + i), V::Load(y + i)).Store(y + i);
  }
  for (; i < n; ++i) y[i] = y[i] + (alpha * (x[i] - m[i]));
}

// y[j] += alpha * (x[j] - m[j])^2
template <typename V>
void AxpySqDiff(double alpha, const double* x, const double* m, double* y,
                size_t n) {
  const V a = V::Broadcast(alpha);
  const size_t main = n & ~static_cast<size_t>(3);
  size_t i = 0;
  for (; i < main; i += 4) {
    const V d = V::Load(x + i) - V::Load(m + i);
    V::MulAdd(a, d * d, V::Load(y + i)).Store(y + i);
  }
  for (; i < n; ++i) {
    const double d = x[i] - m[i];
    y[i] = y[i] + (alpha * (d * d));
  }
}

// out[j] = ((row[j] - rm_i) - rm[j]) + total — the HSIC double-centering.
template <typename V>
void CenterRow(const double* row, double rm_i, const double* rm, double total,
               double* out, size_t n) {
  const V ri = V::Broadcast(rm_i);
  const V tot = V::Broadcast(total);
  const size_t main = n & ~static_cast<size_t>(3);
  size_t i = 0;
  for (; i < main; i += 4) {
    (((V::Load(row + i) - ri) - V::Load(rm + i)) + tot).Store(out + i);
  }
  for (; i < n; ++i) out[i] = ((row[i] - rm_i) - rm[i]) + total;
}

// s[j] = exp(-gamma * s[j]) in place, one scalar libm exp per element.
template <typename V>
void GaussianFromSquared(double gamma, double* s, size_t n) {
  for (size_t j = 0; j < n; ++j) s[j] = std::exp(-gamma * s[j]);
}

// --- row-lane distance kernels (four rows ride the four lanes). ---
//
// Each group of four rows is read in lane-major order (coordinate t of
// the four rows is one vector) and each coordinate of the other operand
// is broadcast, so one vector op advances four pairs. Eight slot
// accumulators s[t % 8] replay the per-pair SquaredDistance / Dot kernels
// lane for lane: slot l < 4 is lane l of acc0, slot l + 4 is lane l of
// acc1, every slot adds its coordinates' terms in the same ascending
// order from the same +0, and the combine
// ((s0+s4)+(s1+s5)) + ((s2+s6)+(s3+s7)) is CombineSlots. Every distance
// or dot product is therefore bit-identical to SquaredDistance / Dot on
// the same backend, and with them identical across backends. The rows a
// partial last group lacks repeat its first row; their lanes are
// computed and dropped.

// Four row pointers, one per lane.
struct RowQuad {
  const double* r[4];

  // The group of `width` rows at x with stride d.
  static RowQuad Of(const double* x, size_t width, size_t d) {
    return {{x, width > 1 ? x + d : x, width > 2 ? x + 2 * d : x,
             width > 3 ? x + 3 * d : x}};
  }
  // Coordinate t of the four rows.
  template <typename V>
  MULTICLUST_SIMD_INLINE V Lanes(size_t t) const {
    return V::Set(r[0][t], r[1][t], r[2][t], r[3][t]);
  }
};

// lanes[4*t + l] = x_{l, t} for t < d: each coordinate's lane vector is
// built in registers and stored once.
template <typename V>
MULTICLUST_SIMD_INLINE void TransposeRows(const double* x, size_t width,
                                          size_t d, double* lanes) {
  const RowQuad q = RowQuad::Of(x, width, d);
  for (size_t t = 0; t < d; ++t) q.Lanes<V>(t).Store(lanes + 4 * t);
}

// Lane-major scratch for TransposeRows. A compile-time width D > 0 gets a
// plain array, which the compiler can keep in registers; a run-time width
// uses the stack up to 16 coordinates and the heap beyond.
template <size_t D>
class LaneBuffer {
 public:
  explicit LaneBuffer(size_t) {}
  double* data() { return lanes_; }

 private:
  double lanes_[4 * D];
};

template <>
class LaneBuffer<0> {
 public:
  explicit LaneBuffer(size_t d) {
    if (d > kStackCoords) heap_.resize(4 * d);
  }
  double* data() { return heap_.empty() ? stack_ : heap_.data(); }

 private:
  static constexpr size_t kStackCoords = 16;
  double stack_[4 * kStackCoords];
  std::vector<double> heap_;
};

// For d in 1..8, calls body(std::integral_constant<size_t, d>{}) and
// returns true; otherwise returns false. A row-lane kernel re-enters
// itself through it with its width as the template argument D, so at the
// common small widths SlotReduce unrolls completely.
template <typename Body>
MULTICLUST_SIMD_INLINE bool WithFixedDim(size_t d, const Body& body) {
  switch (d) {
    case 1: body(std::integral_constant<size_t, 1>{}); return true;
    case 2: body(std::integral_constant<size_t, 2>{}); return true;
    case 3: body(std::integral_constant<size_t, 3>{}); return true;
    case 4: body(std::integral_constant<size_t, 4>{}); return true;
    case 5: body(std::integral_constant<size_t, 5>{}); return true;
    case 6: body(std::integral_constant<size_t, 6>{}); return true;
    case 7: body(std::integral_constant<size_t, 7>{}); return true;
    case 8: body(std::integral_constant<size_t, 8>{}); return true;
    default: return false;
  }
}

// Runs slot = term(t, slot) for coordinate t = 0 .. d-1 into slot t % 8,
// then combines the slots in the per-pair kernels' order.
template <typename V, typename Term>
MULTICLUST_SIMD_INLINE V SlotReduce(size_t d, const Term& term) {
  V s0 = V::Zero(), s1 = V::Zero(), s2 = V::Zero(), s3 = V::Zero();
  V s4 = V::Zero(), s5 = V::Zero(), s6 = V::Zero(), s7 = V::Zero();
  size_t t = 0;
  for (; t + 8 <= d; t += 8) {
    s0 = term(t, s0);
    s1 = term(t + 1, s1);
    s2 = term(t + 2, s2);
    s3 = term(t + 3, s3);
    s4 = term(t + 4, s4);
    s5 = term(t + 5, s5);
    s6 = term(t + 6, s6);
    s7 = term(t + 7, s7);
  }
  switch (d - t) {
    case 7: s6 = term(t + 6, s6); [[fallthrough]];
    case 6: s5 = term(t + 5, s5); [[fallthrough]];
    case 5: s4 = term(t + 4, s4); [[fallthrough]];
    case 4: s3 = term(t + 3, s3); [[fallthrough]];
    case 3: s2 = term(t + 2, s2); [[fallthrough]];
    case 2: s1 = term(t + 1, s1); [[fallthrough]];
    case 1: s0 = term(t, s0); [[fallthrough]];
    default: break;
  }
  return ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7));
}

// Stores the first `width` lanes of v to out.
template <typename V>
MULTICLUST_SIMD_INLINE void StoreLanes(V v, size_t width, double* out) {
  if (width == 4) {
    v.Store(out);
    return;
  }
  double lane[4];
  v.Store(lane);
  for (size_t l = 0; l < width; ++l) out[l] = lane[l];
}

// out[j] = ||x - rows_j||^2 for j in [0, count); rows_j is rows + j*d.
// Each entry is SquaredDistance of its pair, bit for bit. Rows wider than
// 16 coordinates run the per-pair kernel: its contiguous 8-wide loads
// then beat gathering four rows into lanes.
template <typename V, size_t D = 0>
void SquaredDistanceRow(const double* x, const double* rows, size_t count,
                        size_t d, double* out) {
  if constexpr (D == 0) {
    if (WithFixedDim(d, [&](auto dim) {
          SquaredDistanceRow<V, decltype(dim)::value>(x, rows, count, d, out);
        })) {
      return;
    }
    if (d > 16) {
      for (size_t j = 0; j < count; ++j) {
        out[j] = SquaredDistance<V>(x, rows + j * d, d);
      }
      return;
    }
  } else {
    d = D;
  }
  for (size_t j0 = 0; j0 < count; j0 += 4) {
    const size_t width = count - j0 < 4 ? count - j0 : 4;
    const RowQuad q = RowQuad::Of(rows + j0 * d, width, d);
    StoreLanes(SlotReduce<V>(d, [&](size_t t, V acc) {
                 const V diff = V::Broadcast(x[t]) - q.Lanes<V>(t);
                 return V::MulAdd(diff, diff, acc);
               }),
               width, out + j0);
  }
}

// out[l] = the index c < k of the smallest dist(c) in lane l, for the
// first `width` lanes: the per-pair scan's strict-< argmin, so ties and
// NaN distances keep the lowest index. Running best distance and index
// are lanes; SelectLess is false on NaN, like the scalar `<`.
template <typename V, typename Dist>
MULTICLUST_SIMD_INLINE void ArgminLanes(size_t k, const Dist& dist,
                                        size_t width, int* out) {
  V best = k > 0 ? dist(0) : V::Zero();
  V best_c = V::Zero();
  for (size_t c = 1; c < k; ++c) {
    const V s = dist(c);
    best_c = V::SelectLess(s, best, V::Broadcast(static_cast<double>(c)),
                           best_c);
    best = V::SelectLess(s, best, s, best);
  }
  double idx[4];
  best_c.Store(idx);
  for (size_t l = 0; l < width; ++l) out[l] = static_cast<int>(idx[l]);
}

// out[r] = argmin_c ||x_r - centers_c||^2 for the `count` rows
// x_r = x + r*d, strict-< tie-breaking (lowest index).
template <typename V, size_t D = 0>
void NearestSquaredRows(const double* x, size_t count, const double* centers,
                        size_t k, size_t d, int* out) {
  if constexpr (D == 0) {
    if (WithFixedDim(d, [&](auto dim) {
          NearestSquaredRows<V, decltype(dim)::value>(x, count, centers, k, d,
                                                      out);
        })) {
      return;
    }
  } else {
    d = D;
  }
  LaneBuffer<D> buffer(d);
  double* const xl = buffer.data();
  for (size_t r0 = 0; r0 < count; r0 += 4) {
    const size_t width = count - r0 < 4 ? count - r0 : 4;
    TransposeRows<V>(x + r0 * d, width, d, xl);
    const auto dist = [&](size_t c) {
      const double* ctr = centers + c * d;
      return SlotReduce<V>(d, [&](size_t t, V acc) {
        const V diff = V::Load(xl + 4 * t) - V::Broadcast(ctr[t]);
        return V::MulAdd(diff, diff, acc);
      });
    };
    ArgminLanes<V>(k, dist, width, out + r0);
  }
}

// out[r] = argmin_c x_norms[r] - 2 x_r.c + center_norms[c] for the
// `count` rows x_r = x + r*d, strict-< tie-breaking (lowest index).
template <typename V, size_t D = 0>
void NearestNormFormRows(const double* x, size_t count, const double* centers,
                         size_t k, size_t d, const double* x_norms,
                         const double* center_norms, int* out) {
  if constexpr (D == 0) {
    if (WithFixedDim(d, [&](auto dim) {
          NearestNormFormRows<V, decltype(dim)::value>(
              x, count, centers, k, d, x_norms, center_norms, out);
        })) {
      return;
    }
  } else {
    d = D;
  }
  LaneBuffer<D> buffer(d);
  double* const xl = buffer.data();
  const V two = V::Broadcast(2.0);
  for (size_t r0 = 0; r0 < count; r0 += 4) {
    const size_t width = count - r0 < 4 ? count - r0 : 4;
    TransposeRows<V>(x + r0 * d, width, d, xl);
    const V xn = RowQuad::Of(x_norms + r0, width, 1).Lanes<V>(0);
    const auto dist = [&](size_t c) {
      const double* ctr = centers + c * d;
      const V dot = SlotReduce<V>(d, [&](size_t t, V acc) {
        return V::MulAdd(V::Load(xl + 4 * t), V::Broadcast(ctr[t]), acc);
      });
      return (xn - two * dot) + V::Broadcast(center_norms[c]);
    };
    ArgminLanes<V>(k, dist, width, out + r0);
  }
}

// out[r] = SquaredDistance(x_r, centers + labels[r]*d, d) for the `count`
// rows x_r = x + r*d; a row with a negative label gets +0. Both operands
// are per lane here: each row is paired with its own centre (a row
// without one is paired with itself, and its lane is dropped).
template <typename V, size_t D = 0>
void AssignedSquaredDistances(const double* x, size_t count,
                              const double* centers, const int* labels,
                              size_t d, double* out) {
  if constexpr (D == 0) {
    if (WithFixedDim(d, [&](auto dim) {
          AssignedSquaredDistances<V, decltype(dim)::value>(x, count, centers,
                                                            labels, d, out);
        })) {
      return;
    }
  } else {
    d = D;
  }
  for (size_t r0 = 0; r0 < count; r0 += 4) {
    const size_t width = count - r0 < 4 ? count - r0 : 4;
    const RowQuad rows = RowQuad::Of(x + r0 * d, width, d);
    RowQuad own = rows;
    for (size_t l = 0; l < 4; ++l) {
      const int c = l < width ? labels[r0 + l] : -1;
      if (c >= 0) own.r[l] = centers + static_cast<size_t>(c) * d;
    }
    double s[4];
    SlotReduce<V>(d, [&](size_t t, V acc) {
      const V diff = rows.Lanes<V>(t) - own.Lanes<V>(t);
      return V::MulAdd(diff, diff, acc);
    }).Store(s);
    for (size_t l = 0; l < width; ++l) {
      out[r0 + l] = labels[r0 + l] >= 0 ? s[l] : 0.0;
    }
  }
}

// Cache-blocked row-major GEMM: c[i,:] = a[i,:] * b for i in
// [row_begin, row_end). a is (? x acols), b is (acols x bcols), c rows
// must be zero-initialized. Blocked over columns (kNc) and the inner
// dimension (kKc); for every output element the inner-dimension
// accumulation order stays ascending regardless of blocking, so the
// result is independent of the block sizes.
template <typename V>
void GemmRows(const double* a, size_t acols, const double* b, size_t bcols,
              double* c, size_t row_begin, size_t row_end) {
  constexpr size_t kNc = 256;  // column panel width
  constexpr size_t kKc = 64;   // inner-dim panel depth
  // Loop order jb -> kb -> i: the (kKc x kNc) panel of b (128 KiB at the
  // defaults) is reused across every row of a before moving on, instead
  // of being re-streamed from memory once per row. For any output element
  // the k accumulation still runs ascending (kb ascending outside, k
  // ascending inside), so the loop order is invisible in the bits.
  for (size_t jb = 0; jb < bcols; jb += kNc) {
    const size_t jend = jb + kNc < bcols ? jb + kNc : bcols;
    const size_t width = jend - jb;
    for (size_t kb = 0; kb < acols; kb += kKc) {
      const size_t kend = kb + kKc < acols ? kb + kKc : acols;
      const double* bpanel = b + jb;
      for (size_t i = row_begin; i < row_end; ++i) {
        const double* arow = a + i * acols;
        double* crow = c + i * bcols + jb;
        // Register block: each c vector is accumulated over the whole k
        // panel in a register (the k-ascending order per element is the
        // same as a memory-resident sweep, so blocking stays invisible
        // in the bits). Four vectors in flight hide the add latency.
        size_t j = 0;
        for (; j + 16 <= width; j += 16) {
          V c0 = V::Load(crow + j);
          V c1 = V::Load(crow + j + 4);
          V c2 = V::Load(crow + j + 8);
          V c3 = V::Load(crow + j + 12);
          for (size_t k = kb; k < kend; ++k) {
            const V av = V::Broadcast(arow[k]);
            const double* brow = bpanel + k * bcols + j;
            c0 = V::MulAdd(av, V::Load(brow), c0);
            c1 = V::MulAdd(av, V::Load(brow + 4), c1);
            c2 = V::MulAdd(av, V::Load(brow + 8), c2);
            c3 = V::MulAdd(av, V::Load(brow + 12), c3);
          }
          c0.Store(crow + j);
          c1.Store(crow + j + 4);
          c2.Store(crow + j + 8);
          c3.Store(crow + j + 12);
        }
        for (; j + 4 <= width; j += 4) {
          V c0 = V::Load(crow + j);
          for (size_t k = kb; k < kend; ++k) {
            c0 = V::MulAdd(V::Broadcast(arow[k]),
                           V::Load(bpanel + k * bcols + j), c0);
          }
          c0.Store(crow + j);
        }
        for (; j < width; ++j) {
          double acc = crow[j];
          for (size_t k = kb; k < kend; ++k) {
            acc = acc + (arow[k] * bpanel[k * bcols + j]);
          }
          crow[j] = acc;
        }
      }
    }
  }
}

// --- the symmetric silhouette tile. ---
//
// Per-cluster distance sums of every row against every row, under several
// labellings at once, with each unordered pair's root computed once. The
// accumulators are the caller's: quad q = rows 4q .. 4q+3 owns `stride`
// = 4 * (sum of ks + 1) doubles at acc + q * stride, four lanes (its
// rows) per slot. Labelling l's cluster c is slot base_l + c (base_l the
// sum of the earlier ks) and the last slot is the quad's discard slot,
// where noise rows and the padding rows of a partial last quad add.
//
// root(i, j) and root(j, i) are the same bits: each coordinate's
// difference is rounded separately and fl(a - b) = -fl(b - a), so the
// squares, their ascending sum and the root agree. Each root is computed
// once, rows in lanes against a broadcast partner quad, and goes to two
// chains: the rows' sums (rows in lanes, partners ascending) and, after a
// 4 x 4 transpose, the partners' sums (partners in lanes, rows
// ascending). A quad against itself adds to its own rows' sums only: its
// 16 roots already hold both directions.

// For num in 1..6, calls body(std::integral_constant<size_t, num>{}) and
// returns true; otherwise returns false.
template <typename Body>
MULTICLUST_SIMD_INLINE bool WithFixedLabellings(size_t num, const Body& body) {
  switch (num) {
    case 1: body(std::integral_constant<size_t, 1>{}); return true;
    case 2: body(std::integral_constant<size_t, 2>{}); return true;
    case 3: body(std::integral_constant<size_t, 3>{}); return true;
    case 4: body(std::integral_constant<size_t, 4>{}); return true;
    case 5: body(std::integral_constant<size_t, 5>{}); return true;
    case 6: body(std::integral_constant<size_t, 6>{}); return true;
    default: return false;
  }
}

// acc[slots[l]] += v for each labelling l; L > 0 is num at compile time.
template <size_t L, typename V>
MULTICLUST_SIMD_INLINE void AddToSlots(double* acc, const uint32_t* slots,
                                       size_t num, V v) {
  for (size_t l = 0; l < (L > 0 ? L : num); ++l) {
    double* a = acc + slots[l];
    (V::Load(a) + v).Store(a);
  }
}

// root[q][p]: the roots of row quad q (lane-major at lanes[q]) against
// partner p, each the ascending-coordinate sum of separately rounded
// squares. Q row quads share every partner broadcast.
template <typename V, size_t Q>
MULTICLUST_SIMD_INLINE void QuadRoots(const double* const* lanes,
                                      const RowQuad& partners, size_t d,
                                      V (&root)[Q][4]) {
  V s[Q][4];
  for (size_t q = 0; q < Q; ++q) {
    for (size_t p = 0; p < 4; ++p) s[q][p] = V::Zero();
  }
  for (size_t t = 0; t < d; ++t) {
    V x[Q];
    for (size_t q = 0; q < Q; ++q) x[q] = V::Load(lanes[q] + 4 * t);
    for (size_t p = 0; p < 4; ++p) {
      const V y = V::Broadcast(partners.r[p][t]);
      for (size_t q = 0; q < Q; ++q) {
        const V diff = x[q] - y;
        s[q][p] = V::MulAdd(diff, diff, s[q][p]);
      }
    }
  }
  for (size_t q = 0; q < Q; ++q) {
    for (size_t p = 0; p < 4; ++p) root[q][p] = s[q][p].Sqrt();
  }
}

// Q row quads against one later partner quad: each root goes to both
// chains. row_acc[q] and row_slots (4 * Q rows) belong to the row quads,
// partner_acc and partner_slots (4 rows) to the partner quad.
template <typename V, size_t L, size_t Q>
MULTICLUST_SIMD_INLINE void AddPairQuads(const double* const* lanes,
                                         double* const* row_acc,
                                         const uint32_t* row_slots,
                                         const RowQuad& partners,
                                         double* partner_acc,
                                         const uint32_t* partner_slots,
                                         size_t d, size_t num) {
  V root[Q][4];
  QuadRoots<V, Q>(lanes, partners, d, root);
  for (size_t p = 0; p < 4; ++p) {
    for (size_t q = 0; q < Q; ++q) {
      AddToSlots<L>(row_acc[q], partner_slots + p * num, num, root[q][p]);
    }
  }
  for (size_t q = 0; q < Q; ++q) {
    V::Transpose(root[q][0], root[q][1], root[q][2], root[q][3]);
    for (size_t r = 0; r < 4; ++r) {
      AddToSlots<L>(partner_acc, row_slots + (4 * q + r) * num, num,
                    root[q][r]);
    }
  }
}

// The quad at lanes against its own rows: the row chains only.
template <typename V, size_t L>
MULTICLUST_SIMD_INLINE void AddDiagonalQuad(const double* lanes, double* acc,
                                            const uint32_t* slots,
                                            const RowQuad& self, size_t d,
                                            size_t num) {
  V root[1][4];
  QuadRoots<V, 1>(&lanes, self, d, root);
  for (size_t p = 0; p < 4; ++p) {
    AddToSlots<L>(acc, slots + p * num, num, root[0][p]);
  }
}

// Adds the tile's pairs to the accumulators acc (layout above) of the n
// rows of `data`. A diagonal tile (rows == cols) adds every pair of its
// rows, i with itself included, once; an off-diagonal tile
// (rows_end <= cols_begin) adds every (row, col) pair to both. Ranges
// start at a multiple of 4 and end at one or at n. L > 0 is the
// labelling count at compile time.
//
// Order: row quads go in strips of two, ascending; each strip meets the
// partner quads in ascending order. So a row's chain takes this tile's
// partners in ascending order, and a partner's chain takes this tile's
// rows in ascending order. In a diagonal tile, quad a's chain first takes
// the partner-side adds of every earlier quad (earlier strips, then the
// strip's first quad), then itself, then the later quads: ascending too.
// Callers order the tiles so each chain meets them in ascending order.
template <typename V, size_t L>
void SymmetricTile(const double* data, size_t d, const int* const* labels,
                   const size_t* ks, size_t num, size_t rows_begin,
                   size_t rows_end, size_t cols_begin, size_t cols_end,
                   double* acc) {
  if constexpr (L > 0) num = L;
  const bool diagonal = rows_begin == cols_begin;
  // Slot offsets, num per row, for the rows then (off the diagonal) the
  // cols, each range padded to whole quads.
  size_t discard = 0;
  for (size_t l = 0; l < num; ++l) discard += ks[l];
  const size_t stride = 4 * (discard + 1);
  const auto padded = [](size_t begin, size_t end) {
    return (end - begin + 3) & ~static_cast<size_t>(3);
  };
  const size_t row_count = padded(rows_begin, rows_end);
  const size_t col_count = diagonal ? 0 : padded(cols_begin, cols_end);
  std::vector<uint32_t> slots((row_count + col_count) * num);
  const auto fill = [&](size_t begin, size_t end, size_t count,
                        uint32_t* out) {
    for (size_t j = 0; j < count; ++j) {
      size_t base = 0;
      for (size_t l = 0; l < num; ++l) {
        const int c = begin + j < end ? labels[l][begin + j] : -1;
        out[j * num + l] = static_cast<uint32_t>(
            4 * (c >= 0 ? base + static_cast<size_t>(c) : discard));
        base += ks[l];
      }
    }
  };
  uint32_t* const row_slots = slots.data();
  fill(rows_begin, rows_end, row_count, row_slots);
  uint32_t* const col_slots =
      diagonal ? row_slots : row_slots + row_count * num;
  if (!diagonal) fill(cols_begin, cols_end, col_count, col_slots);

  const auto quad_of = [&](size_t row) { return acc + (row / 4) * stride; };
  const auto rows_at = [&](size_t row, size_t end) {
    return RowQuad::Of(data + row * d, end - row < 4 ? end - row : 4, d);
  };
  LaneBuffer<0> lanes0(d), lanes1(d);
  const double* const lanes[2] = {lanes0.data(), lanes1.data()};
  for (size_t a = rows_begin; a < rows_end; a += 8) {
    const bool two = rows_end - a > 4;
    TransposeRows<V>(data + a * d, two ? 4 : rows_end - a, d, lanes0.data());
    if (two) {
      const size_t second_width = std::min<size_t>(rows_end - a - 4, 4);
      TransposeRows<V>(data + (a + 4) * d, second_width, d, lanes1.data());
    }
    double* const row_acc[2] = {quad_of(a), two ? quad_of(a + 4) : nullptr};
    const uint32_t* const strip_slots = row_slots + (a - rows_begin) * num;
    size_t j0 = cols_begin;
    if (diagonal) {
      AddDiagonalQuad<V, L>(lanes[0], row_acc[0], strip_slots,
                            rows_at(a, rows_end), d, num);
      if (two) {
        AddPairQuads<V, L, 1>(lanes, row_acc, strip_slots,
                              rows_at(a + 4, rows_end), row_acc[1],
                              strip_slots + 4 * num, d, num);
        AddDiagonalQuad<V, L>(lanes[1], row_acc[1], strip_slots + 4 * num,
                              rows_at(a + 4, rows_end), d, num);
      }
      j0 = a + 8;
    }
    for (; j0 < cols_end; j0 += 4) {
      const RowQuad partners = rows_at(j0, cols_end);
      const uint32_t* const partner_slots = col_slots + (j0 - cols_begin) * num;
      if (two) {
        AddPairQuads<V, L, 2>(lanes, row_acc, strip_slots, partners,
                              quad_of(j0), partner_slots, d, num);
      } else {
        AddPairQuads<V, L, 1>(lanes, row_acc, strip_slots, partners,
                              quad_of(j0), partner_slots, d, num);
      }
    }
  }
}

// The tile at compile-time labelling counts 1..6, and at a run-time
// count (L = 0) beyond: with the count known, the add loops unroll.
template <typename V>
void ClusterDistanceSumsTile(const double* data, size_t d,
                             const int* const* labels, const size_t* ks,
                             size_t num, size_t rows_begin, size_t rows_end,
                             size_t cols_begin, size_t cols_end,
                             double* acc) {
  const auto tile = [&](auto lab) {
    SymmetricTile<V, decltype(lab)::value>(data, d, labels, ks, num,
                                           rows_begin, rows_end, cols_begin,
                                           cols_end, acc);
  };
  if (!WithFixedLabellings(num, tile)) {
    tile(std::integral_constant<size_t, 0>{});
  }
}

}  // namespace impl
}  // namespace kernels
}  // namespace multiclust

#endif  // MULTICLUST_LINALG_KERNEL_IMPL_H_
