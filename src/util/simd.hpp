// simd.hpp — one switch for every runtime-dispatched SIMD kernel.
//
// The channel synthesis MAC (chan/channel.cpp), the batched engine
// (chan/channel_batch.cpp) and the Box-Muller noise fill (util/rng.cpp)
// carry ISA-specific variants selected at runtime so the build stays
// baseline x86-64. Selection used to be a static-init cpuid check per
// translation unit, which left the scalar fallback unreachable on AVX2
// hosts — i.e. never exercised in CI. This header centralizes the decision
// along two independent axes:
//
//   * the **instruction tier** (scalar / AVX2+FMA / AVX-512), overridable
//     with MOBIWLAN_SIMD_TIER=scalar|avx2|avx512 in the environment (read
//     once, at first query) or set_forced_tier() from test code. A
//     requested tier the host cannot run degrades gracefully
//     (avx512 → avx2 → scalar); CI uses the override to force-exercise
//     every dispatch path on one host.
//   * the **precision tier** (fp64 / fp32) of the batched channel-synthesis
//     plane math, overridable with MOBIWLAN_PRECISION=fp32|fp64 or
//     set_forced_precision(). The default is fp64, which preserves every
//     bitwise determinism contract; the fp32 tier trades ≤~1e-5
//     scale-relative CSI agreement for 8/16-lane plane kernels (geometry
//     and RNG stay double either way — see DESIGN.md §5 "Precision
//     tiers").
//
// Both variables accept exactly the spellings above; any other non-empty
// value throws std::invalid_argument at the first query instead of
// silently running a different kernel set. An empty value means unset.
//
// Kernels must consult use_avx2fma()/active_tier()/active_precision() per
// call (not cache them in a static): that is what makes the test hooks
// effective.
#pragma once

#include <string_view>

namespace mobiwlan::simd {

/// Instruction tiers, ordered: a host that runs tier T runs every tier
/// below it. kAvx512 means AVX-512F + AVX-512DQ + AVX-512VL (the subsets
/// the fp32 plane kernels use) on top of AVX2+FMA.
enum class Tier { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Precision of the batched synthesis plane math (not of geometry or RNG,
/// which are always double).
enum class Precision { kFloat64 = 0, kFloat32 = 1 };

/// True if the host CPU supports AVX2 and FMA (cpuid; cached).
bool avx2fma_supported();

/// True if the host CPU supports AVX-512F/DQ/VL (cpuid; cached).
bool avx512_supported();

/// The best tier the host supports (cpuid only, ignoring overrides).
Tier best_supported_tier();

/// The tier dispatch sites must use: the forced/env-requested tier clamped
/// to host support, or the best supported tier when nothing is forced.
Tier active_tier();

/// Test hook: -1 defers to the environment (the default); 0/1/2 request
/// kScalar/kAvx2/kAvx512 (clamped to host support at query time). Takes
/// effect on the next active_tier() query.
void set_forced_tier(int tier);

/// The active precision tier: MOBIWLAN_PRECISION=fp32 selects kFloat32;
/// fp64, empty or unset keeps the default kFloat64.
Precision active_precision();

/// Test hook: -1 defers to the environment (the default), 0 forces fp64,
/// 1 forces fp32. Takes effect on the next active_precision() query.
void set_forced_precision(int precision);

/// Display names ("scalar"/"avx2"/"avx512", "fp64"/"fp32") for reports.
const char* tier_name(Tier tier);
const char* precision_name(Precision precision);

/// Parses a MOBIWLAN_SIMD_TIER value: exactly "scalar", "avx2" or
/// "avx512". Anything else throws std::invalid_argument naming the
/// variable, the value and the accepted spellings.
Tier parse_tier(std::string_view value);

/// Parses a MOBIWLAN_PRECISION value: exactly "fp32" or "fp64". Anything
/// else throws std::invalid_argument like parse_tier().
Precision parse_precision(std::string_view value);

/// The question AVX2-tier dispatch sites ask: active tier >= kAvx2.
bool use_avx2fma();

}  // namespace mobiwlan::simd
