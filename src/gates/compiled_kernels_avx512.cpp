// AVX-512F kernel table: compiled with -mavx512f so the W=8 block (one
// full 64-byte cache line per net) becomes one 512-bit vpandq/vpxorq
// chain per gate — or a single vpternlogq once the compiler fuses the
// three-input form. Only entered after
// __builtin_cpu_supports("avx512f") in kernels::select().
#include "gates/compiled.hpp"
#include "gates/compiled_kernels.hpp"

namespace gaip::gates::kernels {

namespace {
#include "gates/compiled_kernels_impl.inl"
}  // namespace

const Kernels* avx512(unsigned words) { return table(words); }

}  // namespace gaip::gates::kernels
