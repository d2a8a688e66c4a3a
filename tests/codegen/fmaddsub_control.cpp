// fmaddsub_control.cpp — the negative control of the codegen_scan ctest:
// the alternating multiply pair of a complex multiply-accumulate, compiled
// as the AVX2 kernel tiers compile their bodies (AVX2+FMA, contraction
// off). GCC 12 fuses the pair into vfmaddsub here, so the scan must find
// one in this object.
#include <cstddef>

#pragma GCC push_options
#pragma GCC target("avx2,fma")
#pragma GCC optimize("fp-contract=off")
void fmaddsub_control(const double* base, const double* steer,
                      std::size_t n_paths, std::size_t n_sc, std::size_t sc,
                      double* out) {
  double are = 0.0, aim = 0.0;
  for (std::size_t p = 0; p < n_paths; ++p) {
    const double* bplane = base + p * 2 * n_sc;
    const double sr = steer[2 * p];
    const double si = steer[2 * p + 1];
    are += sr * bplane[sc] - si * bplane[n_sc + sc];
    aim += sr * bplane[n_sc + sc] + si * bplane[sc];
  }
  out[0] = are;
  out[1] = aim;
}
#pragma GCC pop_options
