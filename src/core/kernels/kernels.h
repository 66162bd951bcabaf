// SIMD kernel layer under core::Matrix: per-ISA specializations of the
// numeric hot loops (register-tiled GEMM, elementwise activations,
// row-scale/row-norm, softmax and one-hot argmax decode) behind a
// runtime CPU-feature dispatcher.
//
// Dispatch model (after intel/ScalableVectorSearch): every kernel is a
// plain function pointer in a KernelTable; one table per ISA is
// compiled into the library (the AVX2 one only when the toolchain
// supports -mavx2), and the active table is chosen exactly once, at
// first use, from CPUID — overridable with DAISY_SIMD=scalar|avx2 for
// testing and CI. Callers grab the table through Active() and never
// branch on the ISA themselves.
//
// Determinism contract (DESIGN.md §5g):
//  * Within a build the active table is fixed, every kernel's
//    reduction order is a pure function of the element index (never of
//    the thread partition), and callers only split work at row or
//    chunk boundaries — so results are bit-identical for any
//    DAISY_THREADS value.
//  * Across ISAs the scalar and AVX2 tables execute the same IEEE
//    operation sequence per element (shared per-lane algorithms in
//    lane_ops.h, striped reductions, no FMA), so forcing
//    DAISY_SIMD=scalar vs avx2 is *also* bitwise identical. The
//    equivalence suite in tests/core/kernels_test.cc pins this.
//  * argmax assumes NaN-free input (it decodes softmax/one-hot
//    samples); with NaNs present the scalar and AVX2 tie-breaks can
//    differ.
#ifndef DAISY_CORE_KERNELS_KERNELS_H_
#define DAISY_CORE_KERNELS_KERNELS_H_

#include <cstddef>

namespace daisy::kern {

enum class Isa { kScalar, kAvx2 };

/// Output rows of one register tile. Row-parallel callers keep their
/// chunk grains a multiple of it, so chunks hold whole tiles.
inline constexpr size_t kTileRows = 4;

/// One ISA's implementations of the hot kernels. All pointers are
/// non-null in every installed table.
struct KernelTable {
  /// NN/TN GEMM tile: for r < rows, j < jn,
  ///   o[r*o_stride + j] += a[r*a_rs + p*a_ps] * b[p*b_stride + j]
  /// accumulated over p = 0, 1, ..., pn-1 in ascending order onto the
  /// value already in o, one mul then one add per step (no FMA). A is
  /// addressed by a row stride and a p stride, so a_rs = k, a_ps = 1
  /// reads the rows of A (MatMul) and a_rs = 1, a_ps = k reads Aᵀ
  /// (TransposeMatMul). Any row count; rows run in kTileRows groups.
  void (*gemm_nn)(const double* a, size_t a_rs, size_t a_ps, const double* b,
                  size_t b_stride, size_t pn, double* o, size_t o_stride,
                  size_t rows, size_t jn);
  /// NT GEMM tile: o = a · bᵀ for a B given as 4-column panels of bᵀ.
  /// Panel c (output columns 4c..4c+3) starts at bp + 4*kn*c and holds
  /// B(4c + l, p) at [4*p + l]; lanes past jn in the last panel are
  /// read but never stored. For r < rows, j < jn, o[r*o_stride + j] is
  /// the dot of a[r*a_stride + p] and B(j, p) over p in [0, kn),
  /// reduced exactly like `dot`: stripe p mod 4 sums ascending p from
  /// 0.0, then (s0+s2)+(s1+s3).
  void (*gemm_nt)(const double* a, size_t a_stride, const double* bp,
                  size_t kn, double* o, size_t o_stride, size_t rows,
                  size_t jn);
  /// Striped dot product (stripe i mod 4, combine (s0+s2)+(s1+s3)).
  double (*dot)(const double* a, const double* b, size_t n);
  /// d[i] *= s.
  void (*scale)(double s, double* d, size_t n);
  /// d[i] += s[i] / d[i] -= s[i] / d[i] *= s[i].
  void (*add)(const double* s, double* d, size_t n);
  void (*sub)(const double* s, double* d, size_t n);
  void (*mul)(const double* s, double* d, size_t n);

  // Elementwise activations, forward...
  void (*tanh)(const double* x, double* y, size_t n);
  void (*sigmoid)(const double* x, double* y, size_t n);
  void (*relu)(const double* x, double* y, size_t n);
  void (*leaky_relu)(double alpha, const double* x, double* y, size_t n);
  // ...and backward. tanh/sigmoid scale the incoming gradient by the
  // derivative expressed in the cached *output* y; relu variants gate
  // on the cached *input* x.
  void (*tanh_bwd)(const double* y, double* g, size_t n);
  void (*sigmoid_bwd)(const double* y, double* g, size_t n);
  void (*relu_bwd)(const double* x, double* g, size_t n);
  void (*leaky_relu_bwd)(double alpha, const double* x, double* g, size_t n);

  /// One softmax row: y = exp(x - max(x)) / sum(...), striped max and
  /// sum, normalization by multiplication with 1/sum. n must be >= 1.
  void (*softmax_row)(const double* x, double* y, size_t n);
  /// One softmax-backward row: out[c] = y[c] * (g[c] - dot(g, y)).
  void (*softmax_row_bwd)(const double* y, const double* g, double* out,
                          size_t n);
  /// First index of the row maximum (ties -> lowest index). n >= 1,
  /// NaN-free input.
  size_t (*argmax)(const double* x, size_t n);
};

/// True when the running CPU reports AVX2 support (false on non-x86).
bool CpuSupportsAvx2();

/// True when `isa` can be used here: kScalar always; kAvx2 only when
/// the AVX2 table was compiled in *and* the CPU supports it.
bool IsaAvailable(Isa isa);

/// The ISA the active table was selected for.
Isa ActiveIsa();

/// "scalar" or "avx2".
const char* IsaName(Isa isa);

/// The active kernel table. First call resolves the startup choice:
/// DAISY_SIMD=scalar|avx2 when set (falling back to scalar with a
/// stderr warning if avx2 is unavailable), else the best available ISA.
const KernelTable& Active();

/// A specific ISA's table; DAISY_CHECKs IsaAvailable(isa).
const KernelTable& Table(Isa isa);

/// Overrides the active table (DAISY_CHECKs availability). Test-only:
/// call while no kernels are in flight. ResetIsaForTesting restores
/// the startup resolution (env var / auto-detect).
void SetIsaForTesting(Isa isa);
void ResetIsaForTesting();

}  // namespace daisy::kern

#endif  // DAISY_CORE_KERNELS_KERNELS_H_
