// Compiled bit-parallel (SWAR) gate-level simulation over N-word lane
// blocks.
//
// GateNetlist::eval() walks every net through a branchy switch and computes
// ONE run per pass — fine for equivalence checking, hopeless for the
// Table VII-IX sweep grids and fault campaigns. CompiledNetlist is the
// classic compiled-code simulator answer: the netlist is compiled ONCE into
// a flat, branch-free instruction stream (dense operand arrays, constants
// folded, buffers and one-constant-operand gates chased into aliases), and
// evaluation carries a BLOCK of W machine words per net (W = 1/2/4/8 →
// 64/128/256/512 lanes), so one pass simulates lane_count() INDEPENDENT
// runs: bit k of word w belongs to lane w*64+k. The per-net word loop is
// laid out SoA-style (the W words of one net are contiguous and aligned),
// which the per-ISA kernels turn into one SSE/AVX2/AVX-512 vector op per
// gate (src/gates/compiled_kernels*, picked at runtime by CPU feature).
//
// Every Boolean two-input gate is normalized to the single branch-free form
//
//     out = ((a & b) & ma) ^ ((a ^ b) & mx) ^ inv
//
// (ma/mx/inv in {0, ~0}): AND = {~0,0,0}, OR = {~0,~0,0} (a|b == (a&b)^(a^b)),
// XOR = {0,~0,0}, NAND/NOR add inv = ~0, NOT a = {a,a,~0,0,~0}. The inner
// loop therefore has no per-opcode dispatch at all.
//
// On top of the lowering, an instruction-stream optimization pass (the
// compiled-code counterpart of the SIS-style netlist pass in
// src/gates/optimize.cpp) can be applied per Options:
//   * cse   — local value numbering: two instructions with identical
//     (operands, kernel masks) collapse into one; the duplicate's net
//     becomes an alias, so every net stays readable (default ON);
//   * prune — dead-gate pruning + topological reordering + storage
//     compaction: only instructions reachable from register D pins and the
//     caller-supplied `keep` roots survive, emitted in dependency DFS
//     order with freshly packed value slots (cache locality). Reading a
//     pruned net throws, so prune is OPT-IN for callers that only observe
//     ports (BatchGateRunner, FaultCampaign).
// Before/after instruction counts are exposed via base_instruction_count()
// / instruction_count() / cse_shared() / pruned_dead().
//
// Lane semantics:
//   * inputs, register state, and scan in/out are lane-blocks (word w, bit
//     k = lane w*64+k); helpers broadcast one value to all lanes or poke a
//     single lane;
//   * clock() latches every register lane-wise (normal mode) across ALL
//     words; test mode shifts the whole scan chain by one in every lane,
//     exactly mirroring GateNetlist::clock per lane;
//   * net numbering is shared with the source GateNetlist, so port Net ids
//     from GaCoreNetlist/RngNetlist address the compiled state directly.
//
// CompiledNetlist is bit- and cycle-identical to the scalar reference in
// every lane of every word (tests/gates/test_compiled.cpp runs the full GA
// core + RNG netlists differentially at W = 1/2/4/8). Prefer it whenever
// more than a handful of cycles are simulated; keep GateNetlist::eval as
// the oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gates/netlist.hpp"

namespace gaip::gates {

namespace jit {
class Module;
}
namespace kernels {
struct Kernels;
}

/// Evaluation engine behind CompiledNetlist. kInterp runs the per-ISA
/// interpreted kernels (compiled_kernels*); kJit lowers the optimized
/// instruction stream to specialized native code via the host toolchain
/// (src/gates/jit.*), falling back to the interpreter when no compiler is
/// available; kJitForce throws instead of falling back (differential tests
/// assert real native execution with it). kAuto defers to the GAIP_JIT
/// environment override and defaults to the interpreter.
enum class Backend { kAuto, kInterp, kJit, kJitForce };

/// Apply the GAIP_JIT environment override to a requested backend.
/// Accepted values: "0"/"off"/"interp", "1"/"on"/"jit", "force"; anything
/// else throws std::invalid_argument (same strict contract as
/// GAIP_KERNEL). Unset: kAuto resolves to kInterp, explicit requests pass
/// through.
Backend resolve_backend(Backend requested);
/// "interp", "jit" or "jit-force" (resolved backends only; kAuto asserts).
const char* backend_name(Backend b);

/// One lowered gate: dst/a/b are STORAGE SLOTS (not source net ids); the
/// kernel computes dst = ((a & b) & ma) ^ ((a ^ b) & mx) ^ inv per word.
/// Public only so the per-ISA kernel translation units can see it.
struct LaneInstr {
    std::uint32_t dst;
    std::uint32_t a;
    std::uint32_t b;
    std::uint64_t ma;   // AND-kernel mask
    std::uint64_t mx;   // XOR-kernel mask
    std::uint64_t inv;  // output inversion mask
};

class CompiledNetlist {
public:
    /// Lanes per machine word (the u64 SWAR width — not a lane-count cap).
    static constexpr unsigned kWordBits = 64;
    /// Largest supported lane block: 8 words = 512 lanes.
    static constexpr unsigned kMaxWords = 8;

    struct Options {
        /// Words per lane block: 1, 2, 4, or 8 (64/128/256/512 lanes).
        unsigned words = 1;
        /// Instruction-stream common-subexpression elimination. Keeps every
        /// net readable (duplicates become aliases).
        bool cse = true;
        /// Dead-gate pruning + topological reorder + slot compaction.
        /// Requires `keep` to cover every net the caller will read beyond
        /// registers; reading a pruned net throws.
        bool prune = false;
        /// Extra liveness roots for prune (port/monitor nets). Inputs,
        /// registers, and constants are always live.
        std::vector<Net> keep;
        /// Evaluation engine: interpreted kernels or host-compiled native
        /// code (see Backend above; GAIP_JIT overrides).
        Backend backend = Backend::kAuto;
    };

    /// Compile `src` (constant folding + buffer/alias chasing + the
    /// optional Options passes). The source netlist is only read during
    /// construction; current scalar input and register values are NOT
    /// carried over — all lanes start at zero.
    explicit CompiledNetlist(const GateNetlist& src);
    CompiledNetlist(const GateNetlist& src, Options opts);

    // --- geometry ---
    unsigned words() const noexcept { return words_; }
    /// Total independent lanes: words() * 64.
    unsigned lane_count() const noexcept { return words_ * kWordBits; }

    // --- per-lane / per-word / broadcast input and state access ---
    /// Set word `word` of a primary input (bit k = lane word*64+k).
    void set_input_word(Net n, unsigned word, std::uint64_t lanes);
    /// Single-word convenience (requires words() == 1).
    void set_input_lanes(Net n, std::uint64_t lanes);
    /// Set a primary input in one lane (any lane < lane_count()).
    void set_input(Net n, unsigned lane, bool v);
    /// Broadcast one value to every lane of an input.
    void set_input_all(Net n, bool v);
    /// Drive a word input (LSB-first net vector) with `value` in one lane.
    /// Throws if `value` has bits beyond the vector's width — excess bits
    /// were silently dropped before; now the scalar and compiled paths both
    /// reject them (see GateNetlist::set_word_input).
    void set_word_input(const std::vector<Net>& w, unsigned lane, std::uint64_t value);
    /// Backdoor register state access (mirrors GateNetlist::set_register).
    void set_register(Net q, unsigned lane, bool v);
    void set_register_word(Net q, unsigned word, std::uint64_t lanes);
    /// Single-word convenience (requires words() == 1).
    void set_register_lanes(Net q, std::uint64_t lanes);
    /// Invert a register bit in each lane of word `word` selected by `mask`
    /// — the SEU injection hook: one XOR plants an independent single-event
    /// upset per lane of the same baseline simulation (src/fault/).
    void xor_register_word(Net q, unsigned word, std::uint64_t mask);
    /// Single-word convenience (requires words() == 1).
    void xor_register_lanes(Net q, std::uint64_t mask);

    // --- simulation ---
    /// Combinational propagation of all lane_count() lanes in one pass.
    void eval();
    /// Precompile the instruction sub-stream in the transitive fanout of
    /// `sources` (input/state nets). After a full eval(), if ONLY those
    /// sources changed, eval_cone(id) re-propagates just that fanout — the
    /// stream is single-assignment and topologically ordered, so every
    /// instruction outside the fanout would recompute an unchanged value.
    /// The classic use is a same-cycle response loop (drive inputs → eval
    /// → read request → drive response → re-eval): the re-eval touches the
    /// response cone only, typically a few percent of the stream. Returns
    /// a cone id; throws if a source net is unknown or pruned.
    std::uint32_t make_cone(const std::vector<Net>& sources);
    void eval_cone(std::uint32_t cone);
    /// Instructions in one cone (vs instruction_count() for a full pass).
    std::size_t cone_size(std::uint32_t cone) const { return cones_.at(cone).size(); }
    /// Clock edge in every lane. Normal mode latches D into every register
    /// across all words. Test mode shifts the scan chain by one in every
    /// lane; the single-word form feeds `scan_in` into word 0 (and zeros
    /// into words 1..) and returns word 0 of the scan-out, so it requires
    /// words() == 1 — use clock_scan() for wide blocks.
    std::uint64_t clock(bool test_mode = false, std::uint64_t scan_in = 0);
    /// Full-width scan shift: `scan_in`/`scan_out` are words() words
    /// (either may be nullptr: zeros in / discard out).
    void clock_scan(const std::uint64_t* scan_in, std::uint64_t* scan_out);
    /// Per-lane clock gating: a normal-mode clock edge that latches D into Q
    /// only in the lanes whose bit is SET in `enable_words` (words() words,
    /// bit k of word w = lane w*64+k); disabled lanes hold their register
    /// state — the island interconnect's generation-synchronous barrier,
    /// where parked lanes freeze while siblings keep evolving. Implemented
    /// as save / clock() / merge around whichever backend is active, so the
    /// interpreted kernels and the JIT modules gate identically without a
    /// dedicated code path (asserted by tests/gates/test_clock_gating.cpp).
    void clock_gated(const std::uint64_t* enable_words);

    // --- validated-once hot-path handles ---
    // The per-call accessors above re-validate the net kind / word index /
    // pruning status on every call, which dominates harness-bound inner
    // loops (a fault-campaign cycle makes ~1500 of them). A SlotHandle
    // front-loads that validation: resolve it ONCE via input_handle() /
    // state_handle() / read_handle(), then the inline word accessors below
    // go straight to storage with zero checks. Handles stay valid for the
    // lifetime of this CompiledNetlist (slots never move after
    // construction) and are NOT interchangeable between instances.
    struct SlotHandle {
        std::uint32_t slot = 0;
    };
    /// Handle for driving a primary input (throws if `n` is not an input).
    SlotHandle input_handle(Net n) const { return {input_slot(n, "input_handle")}; }
    /// Handle for poking register state (throws if `n` is not a register Q).
    SlotHandle state_handle(Net n) const { return {state_slot(n, "state_handle")}; }
    /// Handle for reading any live net (aliases and folded constants
    /// resolve; throws if the net was pruned).
    SlotHandle read_handle(Net n) const;
    /// Write all words() words of an input/state handle from `w`.
    void write_words(SlotHandle h, const std::uint64_t* w) noexcept {
        std::uint64_t* const p = slot_ptr(h.slot);
        for (unsigned i = 0; i < words_; ++i) p[i] = w[i];
    }
    /// Read all words() words of a handle into `out`.
    void read_words(SlotHandle h, std::uint64_t* out) const noexcept {
        const std::uint64_t* const p = slot_ptr(h.slot);
        for (unsigned i = 0; i < words_; ++i) out[i] = p[i];
    }
    /// One word of a handle (word < words(), unchecked).
    std::uint64_t read_word(SlotHandle h, unsigned word) const noexcept {
        return slot_ptr(h.slot)[word];
    }
    /// XOR `mask` into one word of a state handle (the hot SEU hook).
    void xor_word(SlotHandle h, unsigned word, std::uint64_t mask) noexcept {
        slot_ptr(h.slot)[word] ^= mask;
    }

    // --- value reads ---
    /// Word `word` of one net (aliases and folded constants resolve;
    /// throws if the net was pruned).
    std::uint64_t lanes_word(Net n, unsigned word) const;
    /// Single-word convenience (requires words() == 1).
    std::uint64_t lanes(Net n) const;
    bool value(Net n, unsigned lane) const;
    /// LSB-first word read in one lane (same contract as
    /// GateNetlist::word_value; at most kWordBits nets fit one u64).
    std::uint64_t word_value(const std::vector<Net>& nets, unsigned lane) const;
    /// Word 0 of the scan-chain tail bit (requires words() == 1; use
    /// scan_tail_word for wide blocks).
    std::uint64_t scan_tail() const;
    std::uint64_t scan_tail_word(unsigned word) const;

    // --- compile statistics ---
    std::size_t net_count() const noexcept { return root_.size(); }
    /// Instructions actually executed per eval() (after every pass).
    std::size_t instruction_count() const noexcept { return code_.size(); }
    /// Instructions after folding/chasing but BEFORE cse/prune — the
    /// "before" of the optimizer's before/after report.
    std::size_t base_instruction_count() const noexcept { return base_instructions_; }
    std::size_t folded_constants() const noexcept { return folded_; }
    std::size_t chased_aliases() const noexcept { return aliased_; }
    /// Instructions removed by value numbering (cse).
    std::size_t cse_shared() const noexcept { return cse_shared_; }
    /// Instructions removed as unreachable (prune).
    std::size_t pruned_dead() const noexcept { return pruned_; }
    std::size_t register_count() const noexcept { return regs_q_.size(); }
    /// Value-storage slots after compaction (cache-footprint metric).
    std::size_t slot_count() const noexcept { return slots_; }

    // --- JIT backend introspection ---
    /// True when eval()/clock() run host-compiled native code instead of
    /// the interpreted kernels (false after a graceful fallback).
    bool jit_active() const noexcept { return jit_ != nullptr; }
    /// Loaded JIT artifact (nullptr when interpreting) — exposes the
    /// content-hash key, cache-hit flag, and compile time.
    const jit::Module* jit_module() const noexcept { return jit_.get(); }

private:
    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

    // Aligned view over store_: slot s occupies words [s*words_, s*words_
    // + words_) from a 64-byte-aligned base. Recomputed from store_ on
    // demand so default copy/move keep the object valid.
    std::uint64_t* base() noexcept {
        const auto p = reinterpret_cast<std::uintptr_t>(store_.data());
        return reinterpret_cast<std::uint64_t*>((p + 63) & ~std::uintptr_t{63});
    }
    const std::uint64_t* base() const noexcept {
        const auto p = reinterpret_cast<std::uintptr_t>(store_.data());
        return reinterpret_cast<const std::uint64_t*>((p + 63) & ~std::uintptr_t{63});
    }
    std::uint64_t* slot_ptr(std::uint32_t slot) noexcept {
        return base() + std::size_t{slot} * words_;
    }
    const std::uint64_t* slot_ptr(std::uint32_t slot) const noexcept {
        return base() + std::size_t{slot} * words_;
    }
    /// Scratch blocks of the interpreter's latch, past the last slot.
    std::uint64_t* latch_tmp() noexcept { return slot_ptr(static_cast<std::uint32_t>(slots_)); }
    std::uint32_t input_slot(Net n, const char* who) const;
    std::uint32_t state_slot(Net n, const char* who) const;
    void check_word(unsigned word, const char* who) const;
    void require_single_word(const char* who) const;

    std::vector<LaneInstr> code_;
    std::vector<std::vector<LaneInstr>> cones_;  // make_cone sub-streams
    std::vector<std::uint64_t> store_;      // raw backing (aligned view via base()), + latch scratch
    std::size_t slots_ = 0;
    unsigned words_ = 1;
    std::vector<std::uint32_t> root_;       // source net -> slot (kNoSlot = pruned)
    std::vector<GateOp> ops_;               // source ops (input/state checks)
    std::vector<std::uint32_t> regs_q_;     // slots, scan-chain order
    std::vector<std::uint32_t> regs_d_;     // slots, root-resolved D nets
    std::vector<std::uint64_t> gate_tmp_;   // clock_gated() Q save (lazily sized)
    const kernels::Kernels* kernels_ = nullptr;  // interpreter eval + latch for words_
    std::shared_ptr<const jit::Module> jit_;  // native backend (null = interp)
    // Raw entry points of jit_ (non-null iff jit_ is), cached so the hot
    // paths dispatch without a virtual call.
    void (*jit_eval_)(std::uint64_t*) = nullptr;
    void (*jit_clock_)(std::uint64_t*) = nullptr;
    void (*jit_scan_)(std::uint64_t*, const std::uint64_t*, std::uint64_t*) = nullptr;
    std::size_t base_instructions_ = 0;
    std::size_t folded_ = 0;
    std::size_t aliased_ = 0;
    std::size_t cse_shared_ = 0;
    std::size_t pruned_ = 0;
};

}  // namespace gaip::gates
