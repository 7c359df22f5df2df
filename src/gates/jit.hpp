// Native-codegen "JIT" backend for CompiledNetlist.
//
// The interpreted lane-block engine (compiled_kernels*) already removed
// per-opcode branching, but every instruction still pays stream dispatch:
// load a 40-byte LaneInstr, load the three masks, apply the generic
// ((a & b) & ma) ^ ((a ^ b) & mx) ^ inv form even when the gate is a plain
// AND. This module goes one step further — the software analogue of the
// paper's Sec. III-D claim that RESYNTHESIZING a specialized netlist beats
// composing generic blocks: the *optimized* instruction stream (post
// CSE/prune/compaction) is lowered to specialized C++ source in which
//   * every slot offset is a compile-time array index (no operand loads),
//   * the three-mask kernel form collapses to the exact operator per gate
//     (a & b, ~(a | b), a ^ b, ~a, ...) — constants folded into literals,
//   * the N-word lane loop is a single vector-typed statement per gate
//     with Options::words baked in,
//   * register clocking and scan-chain muxing are emitted as dedicated
//     gaip_jit_clock / gaip_jit_scan functions with the latch slot lists
//     unrolled,
// then compiled by the HOST toolchain into a shared object and dlopen()ed
// behind the same EvalFn-shaped seam the interpreter uses. Results are
// bit-identical to the interpreter by construction (pure bitwise integer
// ops; tests/gates/test_jit.cpp pins it differentially at every width).
//
// Artifact cache: compiling ~6k statements costs seconds, so artifacts
// live in an on-disk cache keyed by a content hash of (ABI tag, words,
// instruction stream, register slot lists, compiler id, flags). The
// second campaign on the same netlist skips compilation entirely: a
// per-process module registry resolves repeat requests without touching
// the filesystem ("memory" hit), and a valid `<key>.so` on disk loads
// without a compiler invocation ("disk" hit). A corrupted or truncated
// artifact fails validation (dlopen error or key/ABI mismatch) and forces
// a clean rebuild. Hits/misses/compile times are counted process-wide
// (jit::stats()) and emitted as trace events when a sink is attached.
//
// Backend selection: CompiledNetlist::Options::backend picks the engine;
// the GAIP_JIT environment variable overrides it ("0"/"off"/"interp",
// "1"/"on"/"jit", "force" — anything else is rejected loudly, same strict
// contract as GAIP_KERNEL). When JIT is requested but no host compiler is
// available (or codegen fails), the engine falls back to the interpreter
// gracefully — unless forced, which throws. Cache directory:
// GAIP_JIT_CACHE > $XDG_CACHE_HOME/gaip-jit > $HOME/.cache/gaip-jit >
// /tmp/gaip-jit-cache. Compiler: GAIP_JIT_CXX > the compiler that built
// this binary (baked in by CMake) > c++/g++/clang++ from PATH. Extra
// flags: GAIP_JIT_FLAGS (cache-keyed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gaip::trace {
class TraceSink;
}

namespace gaip::gates {

struct LaneInstr;

namespace jit {

/// Process-wide cache/compile counters. `misses` counts requests that
/// found no usable artifact (each miss triggers one compiler invocation;
/// `compiles` is the subset that produced a loadable module).
struct Stats {
    std::uint64_t memory_hits = 0;   ///< module already loaded in-process
    std::uint64_t disk_hits = 0;     ///< valid artifact loaded, no compile
    std::uint64_t misses = 0;        ///< no usable artifact found
    std::uint64_t compiles = 0;      ///< successful compiler invocations
    std::uint64_t compile_failures = 0;
    std::uint64_t fallbacks = 0;     ///< JIT requested, interpreter used
    double compile_ms_total = 0.0;   ///< wall time spent inside the compiler
};
Stats stats();
/// Test hook: zero the counters (modules stay loaded).
void reset_stats();

/// Everything the code generator needs from a CompiledNetlist: the final
/// instruction stream over storage slots plus the register latch lists.
struct Request {
    const LaneInstr* code = nullptr;
    std::size_t n = 0;
    unsigned words = 1;
    std::size_t slots = 0;
    /// Register Q / D storage slots in scan-chain order (equal length).
    std::vector<std::uint32_t> regs_q;
    std::vector<std::uint32_t> regs_d;
};

/// A loaded artifact. Function pointers stay valid for the lifetime of
/// the process (modules are never dlclose()d — campaign workers may still
/// hold them).
class Module {
public:
    /// Full combinational pass over the value storage (same layout as the
    /// interpreter: slot s occupies words [s*W, s*W + W) from the base).
    using EvalFn = void (*)(std::uint64_t* values);
    /// Lane-wise register latch (normal-mode clock edge, all words).
    using ClockFn = void (*)(std::uint64_t* values);
    /// One scan-chain shift; scan_in/scan_out are words-long (nullptr:
    /// zeros in / discard out).
    using ScanFn = void (*)(std::uint64_t* values, const std::uint64_t* scan_in,
                            std::uint64_t* scan_out);

    virtual ~Module() = default;
    virtual EvalFn eval() const noexcept = 0;
    virtual ClockFn clock() const noexcept = 0;
    virtual ScanFn scan() const noexcept = 0;
    /// Content-hash key of this artifact (cache filename stem).
    virtual const std::string& key() const noexcept = 0;
    /// True if this module loaded from cache without a compiler run (in
    /// THIS process; a recompiled artifact reports false).
    virtual bool cache_hit() const noexcept = 0;
    /// Compiler wall time for this artifact (0 on cache hits).
    virtual double compile_ms() const noexcept = 0;
};

/// Compile (or fetch from cache) the specialized module for `req`.
/// Returns nullptr — after counting a fallback and emitting a trace event
/// — when no host compiler is available or compilation fails; throws
/// std::runtime_error instead when `force` is set.
std::shared_ptr<const Module> compile(const Request& req, bool force = false);

/// True when a host compiler was resolved (GAIP_JIT_CXX / baked-in / PATH).
bool available();
/// Identity string of the resolved compiler ("path (version line)"), part
/// of the cache key; empty when unavailable.
std::string compiler_id();
/// Resolved artifact cache directory (created on demand).
std::string cache_dir();
/// Content-hash key `compile(req)` would use — exposed for cache tests.
std::string cache_key(const Request& req);

/// Test hook: forget every in-process module handle so the next compile()
/// exercises the on-disk path again. Previously returned modules stay
/// valid.
void clear_module_registry();

/// Attach a telemetry sink for jit_compile / jit_cache_hit / jit_fallback
/// events (nullptr detaches; emission is skipped entirely when detached —
/// same zero-overhead-when-off contract as the system tap).
void set_trace_sink(trace::TraceSink* sink);

}  // namespace jit
}  // namespace gaip::gates
