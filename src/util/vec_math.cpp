#include "util/vec_math.h"

#include <algorithm>
#include <cmath>

#if defined(WGTT_HAVE_LIBMVEC) && defined(__x86_64__)
#include <immintrin.h>

// glibc's vector-math library exports the AVX2 variants under the GCC
// vector-ABI mangling.  The __m256d signature matches the vector ABI's
// register convention (argument and result in ymm0), so declaring and
// calling them directly is well-defined.
extern "C" {
__m256d _ZGVdN4v_exp10(__m256d);
__m256d _ZGVdN4v_log10(__m256d);
__m256d _ZGVdN4v_erfc(__m256d);
__m256d _ZGVdN4v_sin(__m256d);
__m256d _ZGVdN4v_cos(__m256d);
}

namespace wgtt::vecm {

bool available() {
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
}

namespace {

// Apply a 4-wide kernel across n elements.  The tail (n % 4) goes through
// the SAME vector kernel on a zero-padded block, so an element's result
// never depends on where it falls relative to the vector width.
template <typename Kernel>
inline void map4(const double* x, double* out, std::size_t n, Kernel k) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, k(_mm256_loadu_pd(x + i)));
  }
  if (i < n) {
    alignas(32) double pad[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = i; j < n; ++j) pad[j - i] = x[j];
    const __m256d r = k(_mm256_load_pd(pad));
    _mm256_store_pd(pad, r);
    for (std::size_t j = i; j < n; ++j) out[j] = pad[j - i];
  }
}

}  // namespace

void db_to_linear(const double* x, double* out, std::size_t n) {
  const __m256d ten = _mm256_set1_pd(10.0);
  map4(x, out, n, [ten](__m256d v) {
    // Same rounding as the scalar path's db / 10.0 (IEEE division), then
    // exp10 instead of pow(10, .): the one ulp-divergent step.
    return _ZGVdN4v_exp10(_mm256_div_pd(v, ten));
  });
}

void linear_to_db(const double* x, double* out, std::size_t n) {
  const __m256d ten = _mm256_set1_pd(10.0);
  map4(x, out, n, [ten](__m256d v) {
    return _mm256_mul_pd(ten, _ZGVdN4v_log10(v));
  });
}

void erfc(const double* x, double* out, std::size_t n) {
  map4(x, out, n, [](__m256d v) { return _ZGVdN4v_erfc(v); });
}

void sin_cos(const double* x, double* cos_out, double* sin_out,
             std::size_t n) {
  map4(x, cos_out, n, [](__m256d v) { return _ZGVdN4v_cos(v); });
  map4(x, sin_out, n, [](__m256d v) { return _ZGVdN4v_sin(v); });
}

void complex_gain_sum(const double* gains, std::size_t taps,
                      const double* w_re, const double* w_im, std::size_t n,
                      double* out) {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m256d re = _mm256_setzero_pd();
    __m256d im = _mm256_setzero_pd();
    for (std::size_t t = 0; t < taps; ++t) {
      const __m256d gr = _mm256_broadcast_sd(gains + 2 * t);
      const __m256d gi = _mm256_broadcast_sd(gains + 2 * t + 1);
      const __m256d wr = _mm256_loadu_pd(w_re + t * n + k);
      const __m256d wi = _mm256_loadu_pd(w_im + t * n + k);
      re = _mm256_add_pd(
          re, _mm256_sub_pd(_mm256_mul_pd(gr, wr), _mm256_mul_pd(gi, wi)));
      im = _mm256_add_pd(
          im, _mm256_add_pd(_mm256_mul_pd(gr, wi), _mm256_mul_pd(gi, wr)));
    }
    // Interleave back to (re, im) pairs: lo = re0 im0 re2 im2,
    // hi = re1 im1 re3 im3.
    const __m256d lo = _mm256_unpacklo_pd(re, im);
    const __m256d hi = _mm256_unpackhi_pd(re, im);
    _mm256_storeu_pd(out + 2 * k, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(out + 2 * k + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }
  // Tail lanes: the same per-lane operations in scalar form.
  for (; k < n; ++k) {
    double re = 0.0;
    double im = 0.0;
    for (std::size_t t = 0; t < taps; ++t) {
      const double gr = gains[2 * t];
      const double gi = gains[2 * t + 1];
      const double wr = w_re[t * n + k];
      const double wi = w_im[t * n + k];
      re = re + (gr * wr - gi * wi);
      im = im + (gr * wi + gi * wr);
    }
    out[2 * k] = re;
    out[2 * k + 1] = im;
  }
}

void clamped_sqrt_ratio(const double* x, double scale, double denom,
                        double divisor, double* out, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vdenom = _mm256_set1_pd(denom);
  const __m256d vdivisor = _mm256_set1_pd(divisor);
  map4(x, out, n, [=](__m256d v) {
    // max_pd returns its SECOND operand when either is NaN or both are
    // zeros, so (zero, v) reproduces std::max(v, 0.0) for NaN and -0.
    const __m256d snr = _mm256_max_pd(zero, v);
    return _mm256_div_pd(
        _mm256_sqrt_pd(_mm256_div_pd(_mm256_mul_pd(vscale, snr), vdenom)),
        vdivisor);
  });
}

void scaled_half(const double* x, double c, double* out, std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d half = _mm256_set1_pd(0.5);
  map4(x, out, n, [=](__m256d v) {
    return _mm256_mul_pd(vc, _mm256_mul_pd(half, v));
  });
}

}  // namespace wgtt::vecm

#else  // scalar fallback: no libmvec at build time or non-x86-64 target

namespace wgtt::vecm {

bool available() { return false; }

// The fallbacks mirror the scalar reference expressions exactly; they only
// run if a caller ignores available(), and then they are bit-identical to
// the reference path.  The exact kernels are bit-identical either way.
void db_to_linear(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::pow(10.0, x[i] / 10.0);
}

void linear_to_db(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = 10.0 * std::log10(x[i]);
}

void erfc(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::erfc(x[i]);
}

void sin_cos(const double* x, double* cos_out, double* sin_out,
             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    cos_out[i] = std::cos(x[i]);
    sin_out[i] = std::sin(x[i]);
  }
}

void complex_gain_sum(const double* gains, std::size_t taps,
                      const double* w_re, const double* w_im, std::size_t n,
                      double* out) {
  for (std::size_t k = 0; k < n; ++k) {
    double re = 0.0;
    double im = 0.0;
    for (std::size_t t = 0; t < taps; ++t) {
      const double gr = gains[2 * t];
      const double gi = gains[2 * t + 1];
      const double wr = w_re[t * n + k];
      const double wi = w_im[t * n + k];
      re = re + (gr * wr - gi * wi);
      im = im + (gr * wi + gi * wr);
    }
    out[2 * k] = re;
    out[2 * k + 1] = im;
  }
}

void clamped_sqrt_ratio(const double* x, double scale, double denom,
                        double divisor, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::sqrt(scale * std::max(x[i], 0.0) / denom) / divisor;
  }
}

void scaled_half(const double* x, double c, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = c * (0.5 * x[i]);
}

}  // namespace wgtt::vecm

#endif
