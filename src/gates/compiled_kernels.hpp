// Runtime-dispatched evaluation kernels for CompiledNetlist.
//
// The instruction stream is ISA-agnostic; only the inner loop differs: the
// W words of one net are contiguous, so W=2/4/8 map 1:1 onto SSE2/AVX2/
// AVX-512 bitwise ops. Each ISA variant lives in its own translation unit
// compiled with the matching -m flags (see src/gates/CMakeLists.txt), and
// select() picks the widest one the running CPU reports via
// __builtin_cpu_supports — the binary stays runnable on plain x86-64 and
// non-x86 hosts (generic only).
//
// The environment variable GAIP_KERNEL ("generic", "avx2", "avx512")
// forces a variant for differential testing; a KNOWN variant the running
// CPU lacks falls back to generic (so one test matrix runs everywhere),
// but an unknown value is rejected with std::invalid_argument — a typo'd
// kernel name must not silently benchmark the wrong engine. GAIP_JIT gets
// the same strict contract (see gates/compiled.hpp resolve_backend).
#pragma once

#include <cstddef>
#include <cstdint>

namespace gaip::gates {

struct LaneInstr;

namespace kernels {

/// Evaluate `n` instructions over a value array where slot s occupies
/// words [s*W, s*W + W); W is baked into the function.
using EvalFn = void (*)(const LaneInstr* code, std::size_t n, std::uint64_t* values);

/// Register latch: copy the block of slot d[i] into slot q[i] for all `n`
/// registers, every D read before any Q is written (a D may be another
/// register's Q). `tmp` holds n blocks of W words, aligned like a slot.
using LatchFn = void (*)(const std::uint32_t* q, const std::uint32_t* d, std::size_t n,
                         std::uint64_t* values, std::uint64_t* tmp);

/// One ISA's kernels for a W-word block.
struct Kernels {
    EvalFn eval;
    LatchFn latch;
};

/// Best kernels for `words` (1/2/4/8) on this CPU. Never returns null.
/// Throws std::invalid_argument on an unknown GAIP_KERNEL value.
const Kernels* select(unsigned words);

/// Name of the variant select(words) resolves to on this CPU under the
/// current GAIP_KERNEL setting: "generic", "avx2" or "avx512". Same strict
/// GAIP_KERNEL validation as select().
const char* selected_name(unsigned words);

/// Portable kernel table (always available).
const Kernels* generic(unsigned words);

#if defined(GAIP_X86_KERNELS)
/// Per-ISA tables; only linked on x86-64 GNU/Clang builds.
const Kernels* avx2(unsigned words);
const Kernels* avx512(unsigned words);
#endif

}  // namespace kernels
}  // namespace gaip::gates
