// Fixture: SIMD intrinsics. The include and every intrinsic type and call
// must trip [isa-guard] — no file in the tree may contain ISA-specific
// code, or a baseline build faults and results depend on the host CPU.
#include <immintrin.h>

double sum4(const double* p) {
  __m256d v = _mm256_loadu_pd(p);
  __m256d h = _mm256_hadd_pd(v, v);
  double out[4];
  _mm256_storeu_pd(out, h);
  return out[0] + out[2];
}
