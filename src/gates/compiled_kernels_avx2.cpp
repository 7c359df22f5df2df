// AVX2 kernel table: same template as the generic TU, compiled with
// -mavx2 (see src/gates/CMakeLists.txt) so the W=4 block becomes one
// 256-bit vpand/vpxor chain per gate. Only entered after
// __builtin_cpu_supports("avx2") in kernels::select().
#include "gates/compiled.hpp"
#include "gates/compiled_kernels.hpp"

namespace gaip::gates::kernels {

namespace {
#include "gates/compiled_kernels_impl.inl"
}  // namespace

const Kernels* avx2(unsigned words) { return table(words); }

}  // namespace gaip::gates::kernels
