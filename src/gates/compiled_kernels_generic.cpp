// Portable kernel table + the runtime dispatcher. Compiled with the
// project's default flags only — must run on any target.
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "gates/compiled.hpp"
#include "gates/compiled_kernels.hpp"

namespace gaip::gates::kernels {

namespace {
#include "gates/compiled_kernels_impl.inl"

/// Strictly-parsed GAIP_KERNEL value. Returns nullptr when unset; throws
/// on anything outside the known variant names — a typo must fail loudly
/// instead of silently falling through to the generic engine.
const char* forced_kernel() {
    const char* forced = std::getenv("GAIP_KERNEL");
    if (forced == nullptr || *forced == '\0') return nullptr;
    if (std::strcmp(forced, "generic") != 0 && std::strcmp(forced, "avx2") != 0 &&
        std::strcmp(forced, "avx512") != 0)
        throw std::invalid_argument("GAIP_KERNEL: unknown value \"" + std::string(forced) +
                                    "\" (expected generic, avx2, or avx512)");
    return forced;
}

/// Shared resolution for select()/selected_name(): which variant runs for
/// `words` on this CPU under the current (validated) GAIP_KERNEL.
const char* resolve_variant(unsigned words) {
    const char* forced = forced_kernel();
#if defined(GAIP_X86_KERNELS)
    const bool has512 = __builtin_cpu_supports("avx512f") != 0;
    const bool has2 = __builtin_cpu_supports("avx2") != 0;
    if (forced != nullptr) {
        // A known variant this CPU lacks degrades to generic so one test
        // matrix runs on every host; unknown names threw above.
        if (std::strcmp(forced, "avx512") == 0 && has512) return "avx512";
        if (std::strcmp(forced, "avx2") == 0 && has2) return "avx2";
        return "generic";
    }
    if (has512 && avx512(words) != nullptr) return "avx512";
    if (has2 && avx2(words) != nullptr) return "avx2";
#else
    (void)forced;
    (void)words;
#endif
    return "generic";
}

}  // namespace

const Kernels* generic(unsigned words) { return table(words); }

const Kernels* select(unsigned words) {
    const char* variant = resolve_variant(words);
#if defined(GAIP_X86_KERNELS)
    if (std::strcmp(variant, "avx512") == 0) return avx512(words);
    if (std::strcmp(variant, "avx2") == 0) return avx2(words);
#endif
    (void)variant;
    return generic(words);
}

const char* selected_name(unsigned words) { return resolve_variant(words); }

}  // namespace gaip::gates::kernels
