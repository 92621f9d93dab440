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
///    on add latency); the tail (n % 8) is zero-padded into an 8-slot
///    buffer so every length takes the same combine path. The final
///    combine is one vector add (acc0 + acc1) followed by the fixed lane
///    order documented on ReduceSum — fixed for every backend, which is
///    all the bit-identity contract needs.
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
#include <vector>

#include "linalg/simd.h"

namespace multiclust {
namespace kernels {
namespace impl {

// --- f64 reductions (4-lane model). ---

template <typename V>
double Dot(const double* a, const double* b, size_t n) {
  V acc0 = V::Zero(), acc1 = V::Zero();
  const size_t main = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < main; i += 8) {
    acc0 = V::MulAdd(V::Load(a + i), V::Load(b + i), acc0);
    acc1 = V::MulAdd(V::Load(a + i + 4), V::Load(b + i + 4), acc1);
  }
  if (i < n) {
    double ta[8] = {0, 0, 0, 0, 0, 0, 0, 0}, tb[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (size_t j = 0; i + j < n; ++j) {
      ta[j] = a[i + j];
      tb[j] = b[i + j];
    }
    acc0 = V::MulAdd(V::Load(ta), V::Load(tb), acc0);
    acc1 = V::MulAdd(V::Load(ta + 4), V::Load(tb + 4), acc1);
  }
  return (acc0 + acc1).ReduceSum();
}

template <typename V>
double Sum(const double* x, size_t n) {
  V acc0 = V::Zero(), acc1 = V::Zero();
  const size_t main = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < main; i += 8) {
    acc0 = acc0 + V::Load(x + i);
    acc1 = acc1 + V::Load(x + i + 4);
  }
  if (i < n) {
    double t[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (size_t j = 0; i + j < n; ++j) t[j] = x[i + j];
    acc0 = acc0 + V::Load(t);
    acc1 = acc1 + V::Load(t + 4);
  }
  return (acc0 + acc1).ReduceSum();
}

template <typename V>
double SquaredNorm(const double* x, size_t n) {
  return Dot<V>(x, x, n);
}

template <typename V>
double SquaredDistance(const double* a, const double* b, size_t n) {
  V acc0 = V::Zero(), acc1 = V::Zero();
  const size_t main = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < main; i += 8) {
    const V d0 = V::Load(a + i) - V::Load(b + i);
    const V d1 = V::Load(a + i + 4) - V::Load(b + i + 4);
    acc0 = V::MulAdd(d0, d0, acc0);
    acc1 = V::MulAdd(d1, d1, acc1);
  }
  if (i < n) {
    double ta[8] = {0, 0, 0, 0, 0, 0, 0, 0}, tb[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (size_t j = 0; i + j < n; ++j) {
      ta[j] = a[i + j];
      tb[j] = b[i + j];
    }
    const V d0 = V::Load(ta) - V::Load(tb);
    const V d1 = V::Load(ta + 4) - V::Load(tb + 4);
    acc0 = V::MulAdd(d0, d0, acc0);
    acc1 = V::MulAdd(d1, d1, acc1);
  }
  return (acc0 + acc1).ReduceSum();
}

// sum_j (x[j] - mean[j])^2 / var[j] — the diagonal-covariance Gaussian
// quadratic form. The tail pads var with 1.0 so padded lanes contribute
// 0/1 = 0 instead of 0/0 = NaN.
template <typename V>
double QuadDiag(const double* x, const double* mean, const double* var,
                size_t n) {
  V acc = V::Zero();
  const size_t main = n & ~static_cast<size_t>(3);
  size_t i = 0;
  for (; i < main; i += 4) {
    const V d = V::Load(x + i) - V::Load(mean + i);
    acc = acc + (d * d) / V::Load(var + i);
  }
  if (i < n) {
    double tx[4] = {0, 0, 0, 0}, tm[4] = {0, 0, 0, 0}, tv[4] = {1, 1, 1, 1};
    for (size_t j = 0; i + j < n; ++j) {
      tx[j] = x[i + j];
      tm[j] = mean[i + j];
      tv[j] = var[i + j];
    }
    const V d = V::Load(tx) - V::Load(tm);
    acc = acc + (d * d) / V::Load(tv);
  }
  return acc.ReduceSum();
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

// --- fused / composite f64 kernels. ---

// out[j] = ||x - rows_j||^2 for j in [0, count); rows_j is rows + j*d.
// Each entry is SquaredDistance of its pair, bit for bit.
template <typename V>
void SquaredDistanceRow(const double* x, const double* rows, size_t count,
                        size_t d, double* out) {
  for (size_t j = 0; j < count; ++j) {
    out[j] = SquaredDistance<V>(x, rows + j * d, d);
  }
}

// s[j] = exp(-gamma * s[j]) in place, one scalar libm exp per element.
template <typename V>
void GaussianFromSquared(double gamma, double* s, size_t n) {
  for (size_t j = 0; j < n; ++j) s[j] = std::exp(-gamma * s[j]);
}

// --- row-lane distance kernels (four rows ride the four lanes). ---
//
// Each group of four rows is transposed to lane-major order and each
// centre coordinate is broadcast, so one vector op advances four
// (row, centre) pairs. Eight slot accumulators s[j % 8] replay the
// per-pair SquaredDistance / Dot kernels lane for lane: slot l < 4 is
// lane l of acc0, slot l + 4 is lane l of acc1, and the combine
// ((s0+s4)+(s1+s5)) + ((s2+s6)+(s3+s7)) is acc0 + acc1 followed by
// ReduceSum's fixed order. The per-pair kernels' zero-padded tail slots
// only add +0 to an accumulator that started at +0 and so is never -0
// (+0 + -0 = +0); adding +0 leaves it unchanged, so the row-lane kernels
// skip those slots. Every distance or
// dot product is therefore bit-identical to SquaredDistance / Dot on the
// same backend, and with them identical across backends.

// lanes[4*t + l] = x_{l, t} for the first `width` rows of x (stride d);
// lanes of missing rows are zero.
inline void TransposeRows(const double* x, size_t width, size_t d,
                          double* lanes) {
  for (size_t t = 0; t < d; ++t) {
    for (size_t l = 0; l < 4; ++l) {
      lanes[4 * t + l] = l < width ? x[l * d + t] : 0.0;
    }
  }
}

// Runs slot = term(t, slot) for coordinate t = 0 .. d-1 into slot t % 8,
// then combines the slots in the per-pair kernels' order.
template <typename V, typename Term>
V SlotReduce(size_t d, const Term& term) {
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

// out[r] = argmin_c ||x_r - centers_c||^2 for the `count` rows
// x_r = x + r*d, strict-< tie-breaking (lowest index).
template <typename V>
void NearestSquaredRows(const double* x, size_t count, const double* centers,
                        size_t k, size_t d, int* out) {
  std::vector<double> lanes(4 * d);
  const double* xl = lanes.data();
  for (size_t r0 = 0; r0 < count; r0 += 4) {
    const size_t width = count - r0 < 4 ? count - r0 : 4;
    TransposeRows(x + r0 * d, width, d, lanes.data());
    double best[4] = {0, 0, 0, 0};
    int best_c[4] = {0, 0, 0, 0};
    for (size_t c = 0; c < k; ++c) {
      const double* ctr = centers + c * d;
      double s[4];
      SlotReduce<V>(d, [&](size_t t, V acc) {
        const V diff = V::Load(xl + 4 * t) - V::Broadcast(ctr[t]);
        return V::MulAdd(diff, diff, acc);
      }).Store(s);
      for (size_t l = 0; l < width; ++l) {
        if (c == 0 || s[l] < best[l]) {
          best[l] = s[l];
          best_c[l] = static_cast<int>(c);
        }
      }
    }
    for (size_t l = 0; l < width; ++l) out[r0 + l] = best_c[l];
  }
}

// out[r] = argmin_c x_norms[r] - 2 x_r.c + center_norms[c] for the
// `count` rows x_r = x + r*d, strict-< tie-breaking (lowest index).
template <typename V>
void NearestNormFormRows(const double* x, size_t count, const double* centers,
                         size_t k, size_t d, const double* x_norms,
                         const double* center_norms, int* out) {
  std::vector<double> lanes(4 * d);
  const double* xl = lanes.data();
  for (size_t r0 = 0; r0 < count; r0 += 4) {
    const size_t width = count - r0 < 4 ? count - r0 : 4;
    TransposeRows(x + r0 * d, width, d, lanes.data());
    double best[4] = {0, 0, 0, 0};
    int best_c[4] = {0, 0, 0, 0};
    for (size_t c = 0; c < k; ++c) {
      const double* ctr = centers + c * d;
      double dot[4];
      SlotReduce<V>(d, [&](size_t t, V acc) {
        return V::MulAdd(V::Load(xl + 4 * t), V::Broadcast(ctr[t]), acc);
      }).Store(dot);
      for (size_t l = 0; l < width; ++l) {
        const double dist = x_norms[r0 + l] - 2.0 * dot[l] + center_norms[c];
        if (c == 0 || dist < best[l]) {
          best[l] = dist;
          best_c[l] = static_cast<int>(c);
        }
      }
    }
    for (size_t l = 0; l < width; ++l) out[r0 + l] = best_c[l];
  }
}

// out[r] = SquaredDistance(x_r, centers + labels[r]*d, d) for the `count`
// rows x_r = x + r*d; a row with a negative label gets +0. Both operands
// are per lane here: the four rows' own centres are transposed alongside.
template <typename V>
void AssignedSquaredDistances(const double* x, size_t count,
                              const double* centers, const int* labels,
                              size_t d, double* out) {
  std::vector<double> lanes(8 * d);
  const double* xl = lanes.data();
  double* cl = lanes.data() + 4 * d;
  for (size_t r0 = 0; r0 < count; r0 += 4) {
    const size_t width = count - r0 < 4 ? count - r0 : 4;
    TransposeRows(x + r0 * d, width, d, lanes.data());
    for (size_t l = 0; l < 4; ++l) {
      const int c = l < width ? labels[r0 + l] : -1;
      for (size_t t = 0; t < d; ++t) {
        cl[4 * t + l] = c >= 0 ? centers[static_cast<size_t>(c) * d + t] : 0.0;
      }
    }
    double s[4];
    SlotReduce<V>(d, [&](size_t t, V acc) {
      const V diff = V::Load(xl + 4 * t) - V::Load(cl + 4 * t);
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

// For every labelling l < num_labellings: out[l][r*ks[l] + c] = sum over
// the rows j in ascending order with labels[l][j] == c of ||x_r - data_j||,
// for the `count` rows x_r = x + r*d. A label < 0 skips that labelling.
//
// Lanes run across four rows x_r, never across the rows j: each data row
// is broadcast, so every lane runs exactly the scalar recurrence
//   s = 0; for t ascending: s += (x_rt - y_t)^2;  root = sqrt(s)
// with separately rounded mul + add. Each root is computed once and added
// to the (l, labels[l][j]) accumulator of every labelling. j runs
// ascending, four rows in flight at a time (four independent distance
// chains) whose roots still enter the sums one at a time in j order, so
// every (l, c) sum adds the same roots in the same order as a loop over
// cluster c's members in ascending row order: the plain scalar loop's
// bits, for any row count, d and labelling count. Missing rows of a last
// partial group are zero-padded lanes whose results are dropped.
template <typename V>
void ClusterDistanceSumsMulti(const double* x, size_t count,
                              const double* data, size_t n, size_t d,
                              const int* const* labels, const size_t* ks,
                              size_t num_labellings, double* const* out) {
  const size_t num = num_labellings;
  // Accumulator slots, four lanes each: labelling l's cluster c is slot
  // base[l] + c, and every noise row adds into one discarded slot.
  std::vector<size_t> base(num + 1, 0);
  for (size_t l = 0; l < num; ++l) base[l + 1] = base[l] + ks[l];
  const size_t discard = base[num];
  std::vector<double> acc(4 * (discard + 1));
  double* const accs = acc.data();
  // slot[j*num + l]: offset of row j's accumulator under labelling l, so
  // the add loop has no branch and no per-labelling base. 32 bits keep
  // the table small; the offsets stay below 4 * (sum of ks + 1).
  std::vector<uint32_t> slot(n * num);
  for (size_t j = 0; j < n; ++j) {
    for (size_t l = 0; l < num; ++l) {
      const int c = labels[l][j];
      slot[j * num + l] = static_cast<uint32_t>(
          4 * (c >= 0 ? base[l] + static_cast<size_t>(c) : discard));
    }
  }
  const auto add = [&](size_t j, V root) {
    const uint32_t* s = slot.data() + j * num;
    // One labelling (every single Silhouette call) skips the loop
    // bookkeeping, which measurably slows a pass that is this tight.
    if (num == 1) {
      double* a = accs + s[0];
      (V::Load(a) + root).Store(a);
      return;
    }
    for (size_t l = 0; l < num; ++l) {
      double* a = accs + s[l];
      (V::Load(a) + root).Store(a);
    }
  };
  // Four rows transposed to lane-major: lanes[4*t + l] = x_{r0+l, t}.
  std::vector<double> lanes(4 * d);
  for (size_t r0 = 0; r0 < count; r0 += 4) {
    const size_t width = count - r0 < 4 ? count - r0 : 4;
    for (size_t t = 0; t < d; ++t) {
      for (size_t l = 0; l < 4; ++l) {
        lanes[4 * t + l] = l < width ? x[(r0 + l) * d + t] : 0.0;
      }
    }
    const double* xl = lanes.data();
    std::fill(acc.begin(), acc.end(), 0.0);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* y0 = data + j * d;
      const double* y1 = y0 + d;
      const double* y2 = y1 + d;
      const double* y3 = y2 + d;
      V s0 = V::Zero(), s1 = V::Zero(), s2 = V::Zero(), s3 = V::Zero();
      for (size_t t = 0; t < d; ++t) {
        const V xi = V::Load(xl + 4 * t);
        const V d0 = xi - V::Broadcast(y0[t]);
        const V d1 = xi - V::Broadcast(y1[t]);
        const V d2 = xi - V::Broadcast(y2[t]);
        const V d3 = xi - V::Broadcast(y3[t]);
        s0 = V::MulAdd(d0, d0, s0);
        s1 = V::MulAdd(d1, d1, s1);
        s2 = V::MulAdd(d2, d2, s2);
        s3 = V::MulAdd(d3, d3, s3);
      }
      add(j, s0.Sqrt());
      add(j + 1, s1.Sqrt());
      add(j + 2, s2.Sqrt());
      add(j + 3, s3.Sqrt());
    }
    for (; j < n; ++j) {
      const double* y = data + j * d;
      V s = V::Zero();
      for (size_t t = 0; t < d; ++t) {
        const V diff = V::Load(xl + 4 * t) - V::Broadcast(y[t]);
        s = V::MulAdd(diff, diff, s);
      }
      add(j, s.Sqrt());
    }
    for (size_t l = 0; l < num; ++l) {
      for (size_t c = 0; c < ks[l]; ++c) {
        const double* a = accs + 4 * (base[l] + c);
        for (size_t r = 0; r < width; ++r) {
          out[l][(r0 + r) * ks[l] + c] = a[r];
        }
      }
    }
  }
}

}  // namespace impl
}  // namespace kernels
}  // namespace multiclust

#endif  // MULTICLUST_LINALG_KERNEL_IMPL_H_
