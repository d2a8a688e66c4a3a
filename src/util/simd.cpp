#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace mobiwlan::simd {

namespace {

// The forced-tier / forced-precision cells: kDeferToEnv consults the
// environment, anything else is an explicit request.
constexpr int kDeferToEnv = -1;

[[noreturn]] void reject(const char* var, std::string_view value,
                         const char* accepted) {
  throw std::invalid_argument(std::string(var) + "='" + std::string(value) +
                              "' is not a valid value (accepted: " +
                              accepted + ")");
}

/// The value of environment variable `var`, or nullptr when it is unset
/// or empty.
const char* env_value(const char* var) {
  const char* v = std::getenv(var);
  return (v != nullptr && v[0] != '\0') ? v : nullptr;
}

/// The tier the environment requests (0/1/2), or kDeferToEnv when
/// MOBIWLAN_SIMD_TIER is unset.
int env_tier_request() {
  const char* v = env_value("MOBIWLAN_SIMD_TIER");
  return v != nullptr ? static_cast<int>(parse_tier(v)) : kDeferToEnv;
}

/// The precision the environment requests (0/1), or kDeferToEnv when
/// MOBIWLAN_PRECISION is unset.
int env_precision_request() {
  const char* v = env_value("MOBIWLAN_PRECISION");
  return v != nullptr ? static_cast<int>(parse_precision(v)) : kDeferToEnv;
}

std::atomic<int> g_forced_tier{kDeferToEnv};
std::atomic<int> g_forced_precision{kDeferToEnv};

}  // namespace

Tier parse_tier(std::string_view value) {
  if (value == "scalar") return Tier::kScalar;
  if (value == "avx2") return Tier::kAvx2;
  if (value == "avx512") return Tier::kAvx512;
  reject("MOBIWLAN_SIMD_TIER", value, "scalar, avx2, avx512");
}

Precision parse_precision(std::string_view value) {
  if (value == "fp64") return Precision::kFloat64;
  if (value == "fp32") return Precision::kFloat32;
  reject("MOBIWLAN_PRECISION", value, "fp32, fp64");
}

bool avx2fma_supported() {
#if defined(__x86_64__)
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

bool avx512_supported() {
#if defined(__x86_64__)
  static const bool supported =
      avx2fma_supported() && __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl");
  return supported;
#else
  return false;
#endif
}

Tier best_supported_tier() {
  if (avx512_supported()) return Tier::kAvx512;
  if (avx2fma_supported()) return Tier::kAvx2;
  return Tier::kScalar;
}

Tier active_tier() {
  int req = g_forced_tier.load(std::memory_order_relaxed);
  if (req == kDeferToEnv) {
    static const int from_env = env_tier_request();
    req = from_env;
  }
  const Tier best = best_supported_tier();
  if (req == kDeferToEnv) return best;
  // Graceful fallback: a tier the host lacks degrades to the best it has
  // (avx512 -> avx2 -> scalar); a tier below the best is honored as-is.
  const Tier requested = static_cast<Tier>(req);
  return requested < best ? requested : best;
}

void set_forced_tier(int tier) {
  if (tier < 0)
    g_forced_tier.store(kDeferToEnv, std::memory_order_relaxed);
  else
    g_forced_tier.store(tier > 2 ? 2 : tier, std::memory_order_relaxed);
}

Precision active_precision() {
  int req = g_forced_precision.load(std::memory_order_relaxed);
  if (req == kDeferToEnv) {
    static const int from_env = env_precision_request();
    req = from_env;
  }
  return req == 1 ? Precision::kFloat32 : Precision::kFloat64;
}

void set_forced_precision(int precision) {
  if (precision < 0)
    g_forced_precision.store(kDeferToEnv, std::memory_order_relaxed);
  else
    g_forced_precision.store(precision != 0 ? 1 : 0,
                             std::memory_order_relaxed);
}

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
  }
  return "?";
}

const char* precision_name(Precision precision) {
  return precision == Precision::kFloat32 ? "fp32" : "fp64";
}

bool use_avx2fma() { return active_tier() >= Tier::kAvx2; }

}  // namespace mobiwlan::simd
