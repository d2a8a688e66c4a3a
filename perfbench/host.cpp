// Host and build provenance printed with every result.
#include <thread>

#include "spans.hpp"
#include "util/simd.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::string host_provenance_json() {
  using namespace mobiwlan;
  const auto b = [](bool v) { return std::string(v ? "true" : "false"); };
  return std::string("{\"nproc\":") +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"simd_tier\":\"" + simd::tier_name(simd::active_tier()) +
         "\",\"precision\":\"" + simd::precision_name(simd::active_precision()) +
         "\",\"avx2\":" + b(simd::avx2fma_supported()) +
         ",\"avx512\":" + b(simd::avx512_supported()) +
         ",\"compiler\":\"" PERFBENCH_COMPILER "\",\"build_type\":\"" +
         PERFBENCH_BUILD_TYPE + "\"}";
}

}  // namespace perfbench
