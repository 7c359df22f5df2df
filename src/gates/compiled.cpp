#include "gates/compiled.hpp"

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gates/compiled_kernels.hpp"
#include "gates/jit.hpp"

namespace gaip::gates {

Backend resolve_backend(Backend requested) {
    const char* env = std::getenv("GAIP_JIT");
    if (env != nullptr && *env != '\0') {
        if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
            std::strcmp(env, "interp") == 0)
            return Backend::kInterp;
        if (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0 ||
            std::strcmp(env, "jit") == 0)
            return Backend::kJit;
        if (std::strcmp(env, "force") == 0) return Backend::kJitForce;
        throw std::invalid_argument(
            "GAIP_JIT: unknown value \"" + std::string(env) +
            "\" (expected 0/off/interp, 1/on/jit, or force)");
    }
    return requested == Backend::kAuto ? Backend::kInterp : requested;
}

const char* backend_name(Backend b) {
    switch (b) {
        case Backend::kInterp: return "interp";
        case Backend::kJit: return "jit";
        case Backend::kJitForce: return "jit-force";
        case Backend::kAuto: break;
    }
    return "auto";
}

namespace {

constexpr std::uint64_t kAll = ~std::uint64_t{0};
constexpr std::size_t kNoDef = ~std::size_t{0};

/// Symbolic value of a net during compilation: a constant, or a reference
/// to the defining net (self for real definitions, the referent for
/// aliases).
struct Sym {
    bool is_const = false;
    bool const_val = false;
    Net ref = kNoNet;
};

/// Value-numbering key for instruction-stream CSE. The kernel form is
/// fully symmetric in (a, b) — both a&b and a^b commute — so operands are
/// canonicalized a <= b before lookup; the three masks are each 0 or ~0,
/// so they fold into three key bits.
struct VnKey {
    std::uint32_t a;
    std::uint32_t b;
    unsigned masks;  // bit0 = ma, bit1 = mx, bit2 = inv
    bool operator==(const VnKey&) const = default;
};

struct VnHash {
    std::size_t operator()(const VnKey& k) const noexcept {
        std::uint64_t h = (std::uint64_t{k.a} << 35) ^ (std::uint64_t{k.b} << 3) ^ k.masks;
        h *= 0x9E3779B97F4A7C15ull;
        h ^= h >> 29;
        h *= 0xBF58476D1CE4E5B9ull;
        h ^= h >> 32;
        return static_cast<std::size_t>(h);
    }
};

}  // namespace

CompiledNetlist::CompiledNetlist(const GateNetlist& src)
    : CompiledNetlist(src, Options()) {}

CompiledNetlist::CompiledNetlist(const GateNetlist& src, Options opts) {
    if (opts.words != 1 && opts.words != 2 && opts.words != 4 && opts.words != 8)
        throw std::invalid_argument(
            "CompiledNetlist: words must be 1, 2, 4, or 8 (64/128/256/512 lanes)");
    words_ = opts.words;
    kernels_ = kernels::select(words_);

    const std::size_t n = src.net_count();
    ops_.resize(n);

    // ---- Lowering: fold constants, chase buffers/aliases, normalize every
    // surviving gate to kernel-mask form. Instructions here use NET ids;
    // storage slots are assigned after the optimization passes.
    std::vector<Sym> sym(n);
    std::vector<Net> root_net(n, kNoNet);  // net -> defining net (self for defs)
    std::vector<LaneInstr> code;
    code.reserve(n);

    for (Net i = 0; i < n; ++i) {
        const GateOp op = src.op_of(i);
        ops_[i] = op;
        switch (op) {
            case GateOp::kConst0:
            case GateOp::kConst1:
                sym[i] = Sym{.is_const = true, .const_val = (op == GateOp::kConst1)};
                root_net[i] = i;
                ++folded_;
                continue;
            case GateOp::kInput:
            case GateOp::kState:
                sym[i] = Sym{.ref = i};
                root_net[i] = i;
                continue;
            default: break;
        }

        // Normalize the gate to kernel-mask form over the raw fanins.
        bool ka = false, kx = false, kinv = false;  // ma, mx, inv as booleans
        Net fa = src.fanin_a(i);
        Net fb = src.fanin_b(i);
        switch (op) {
            case GateOp::kBuf: fb = fa; break;
            case GateOp::kNot: fb = fa; ka = true; kinv = true; break;  // (a&a)&~0 ^ ~0
            case GateOp::kAnd: ka = true; break;
            case GateOp::kOr: ka = true; kx = true; break;
            case GateOp::kXor: kx = true; break;
            case GateOp::kNand: ka = true; kinv = true; break;
            case GateOp::kNor: ka = true; kx = true; kinv = true; break;
            default: throw std::logic_error("CompiledNetlist: unexpected op");
        }

        if (op == GateOp::kBuf) {
            const Sym s = sym[fa];
            sym[i] = s;
            root_net[i] = s.is_const ? i : s.ref;
            ++aliased_;
            continue;
        }

        const Sym sa = sym[fa];
        const Sym sb = sym[fb];

        // Evaluate symbolically to fold constants and single-operand
        // identities (AND with 1, XOR with 0, x AND x, ...). Meaningful
        // when at least one operand is constant or both refer to the same
        // dynamic net.
        const bool foldable = sa.is_const || sb.is_const ||
                              (!sa.is_const && !sb.is_const && sa.ref == sb.ref);
        if (foldable) {
            // Truth table of the output as a function of the single free
            // variable (or of nothing if both operands are constant).
            auto out_for = [&](bool var) {
                const bool va = sa.is_const ? sa.const_val : var;
                const bool vb = sb.is_const ? sb.const_val : var;
                bool r = false;
                if (ka) r ^= (va && vb);
                if (kx) r ^= (va != vb);
                return r != kinv;
            };
            const bool o0 = out_for(false);
            const bool o1 = out_for(true);
            if (o0 == o1) {  // constant output
                sym[i] = Sym{.is_const = true, .const_val = o0};
                root_net[i] = i;
                ++folded_;
                continue;
            }
            const Net ref = sa.is_const ? sb.ref : sa.ref;
            if (o1) {  // out == var: plain alias
                sym[i] = Sym{.ref = ref};
                root_net[i] = ref;
                ++aliased_;
                continue;
            }
            // out == ~var: emit a NOT instruction on the referent.
            sym[i] = Sym{.ref = i};
            root_net[i] = i;
            code.push_back(LaneInstr{i, ref, ref, kAll, 0, kAll});
            continue;
        }

        // General dynamic two-operand gate.
        sym[i] = Sym{.ref = i};
        root_net[i] = i;
        code.push_back(LaneInstr{i, sa.ref, sb.ref, ka ? kAll : 0, kx ? kAll : 0,
                                 kinv ? kAll : 0});
    }

    base_instructions_ = code.size();

    // ---- CSE: forward value numbering. The stream is single-assignment
    // and operands always reference earlier definitions, so one pass
    // converges. A duplicate's net becomes an alias of the surviving
    // definition — every net stays readable.
    if (opts.cse) {
        std::unordered_map<VnKey, Net, VnHash> vn;
        vn.reserve(code.size());
        std::vector<Net> rep(n);
        for (Net i = 0; i < n; ++i) rep[i] = i;
        std::vector<LaneInstr> kept;
        kept.reserve(code.size());
        for (const LaneInstr& inst : code) {
            std::uint32_t a = rep[inst.a];
            std::uint32_t b = rep[inst.b];
            if (a > b) std::swap(a, b);
            const unsigned masks = (inst.ma ? 1u : 0u) | (inst.mx ? 2u : 0u) |
                                   (inst.inv ? 4u : 0u);
            const auto [it, fresh] = vn.try_emplace(VnKey{a, b, masks}, inst.dst);
            if (fresh) {
                kept.push_back(LaneInstr{inst.dst, a, b, inst.ma, inst.mx, inst.inv});
            } else {
                rep[inst.dst] = it->second;
                ++cse_shared_;
            }
        }
        code = std::move(kept);
        for (Net i = 0; i < n; ++i)
            if (root_net[i] != kNoNet) root_net[i] = rep[root_net[i]];
    }

    // Registers in declaration (= scan-chain) order; D referents resolved
    // now because they seed the liveness roots.
    const std::vector<Net> qs = src.register_q_nets();
    const std::vector<Net> ds = src.register_d_nets();
    for (const Net dn : ds)
        if (dn == kNoNet)
            throw std::logic_error("CompiledNetlist: register has no D connection");

    // ---- Prune + topological reorder: depth-first postorder from the
    // liveness roots (register D pins + caller keep nets) visits exactly
    // the reachable instructions, in an order that keeps each root's cone
    // clustered — dependency-correct (operands emit before users) and
    // cache-friendlier than interleaved emission order.
    std::vector<std::size_t> def_of(n, kNoDef);
    for (std::size_t idx = 0; idx < code.size(); ++idx) def_of[code[idx].dst] = idx;

    if (opts.prune) {
        std::vector<Net> live_roots;
        live_roots.reserve(opts.keep.size() + ds.size());
        for (const Net k : opts.keep) {
            if (k >= n) throw std::invalid_argument("CompiledNetlist: keep net out of range");
            if (!sym[k].is_const) live_roots.push_back(root_net[k]);
        }
        for (const Net dn : ds)
            if (!sym[dn].is_const) live_roots.push_back(root_net[dn]);

        std::vector<char> done(n, 0);
        std::vector<LaneInstr> ordered;
        ordered.reserve(code.size());
        struct Frame {
            Net net;
            unsigned phase;
        };
        std::vector<Frame> stack;
        for (const Net r : live_roots) {
            if (def_of[r] == kNoDef || done[r]) continue;
            stack.push_back(Frame{r, 0});
            while (!stack.empty()) {
                Frame& f = stack.back();
                const LaneInstr& ci = code[def_of[f.net]];
                if (f.phase == 0) {
                    f.phase = 1;
                    const Net a = ci.a;
                    if (def_of[a] != kNoDef && !done[a]) {
                        stack.push_back(Frame{a, 0});
                        continue;
                    }
                }
                if (f.phase == 1) {
                    f.phase = 2;
                    const Net b = ci.b;
                    if (def_of[b] != kNoDef && !done[b]) {
                        stack.push_back(Frame{b, 0});
                        continue;
                    }
                }
                done[f.net] = 1;
                ordered.push_back(ci);
                stack.pop_back();
            }
        }
        pruned_ = code.size() - ordered.size();
        code = std::move(ordered);
        for (std::size_t idx = 0; idx < n; ++idx) def_of[idx] = kNoDef;
        for (std::size_t idx = 0; idx < code.size(); ++idx) def_of[code[idx].dst] = idx;
    }

    // ---- Storage compaction: slot 0/1 hold the two constants, then
    // inputs and register state in net order, then instruction results in
    // final emission order — eval() writes walk memory forward, and at
    // words == 8 every slot block is exactly one 64-byte cache line.
    std::vector<std::uint32_t> slot_of(n, kNoSlot);
    std::uint32_t next_slot = 2;
    for (Net i = 0; i < n; ++i)
        if (ops_[i] == GateOp::kInput || ops_[i] == GateOp::kState) slot_of[i] = next_slot++;
    for (const LaneInstr& inst : code)
        if (def_of[inst.dst] != kNoDef) slot_of[inst.dst] = next_slot++;
    slots_ = next_slot;

    for (LaneInstr& inst : code) {
        inst.dst = slot_of[inst.dst];
        inst.a = slot_of[inst.a];
        inst.b = slot_of[inst.b];
    }
    code_ = std::move(code);

    root_.assign(n, kNoSlot);
    for (Net i = 0; i < n; ++i) {
        if (sym[i].is_const) {
            root_[i] = sym[i].const_val ? 1u : 0u;
            continue;
        }
        root_[i] = slot_of[root_net[i]];  // kNoSlot when the definition was pruned
    }

    regs_q_.reserve(qs.size());
    for (const Net q : qs) regs_q_.push_back(slot_of[q]);
    regs_d_.reserve(ds.size());
    for (const Net dn : ds) {
        const std::uint32_t s = root_[dn];
        if (s == kNoSlot)
            throw std::logic_error("CompiledNetlist: register D net has no live slot");
        regs_d_.push_back(s);
    }
    // One latch scratch block per register after the slots; +7 u64 of
    // slack lets base() round up to the next 64-byte boundary.
    store_.assign((slots_ + regs_q_.size()) * words_ + 7, 0);
    std::uint64_t* const one = slot_ptr(1);
    for (unsigned w = 0; w < words_; ++w) one[w] = kAll;

    // ---- Backend selection: the interpreter kernel above is always
    // available (cones run on it regardless); the JIT replaces the full
    // eval pass, register clocking and scan shifting with host-compiled
    // specialized code, falling back gracefully unless forced.
    const Backend backend = resolve_backend(opts.backend);
    if (backend == Backend::kJit || backend == Backend::kJitForce) {
        jit::Request req;
        req.code = code_.data();
        req.n = code_.size();
        req.words = words_;
        req.slots = slots_;
        req.regs_q = regs_q_;
        req.regs_d = regs_d_;
        jit_ = jit::compile(req, backend == Backend::kJitForce);
        if (jit_) {
            jit_eval_ = jit_->eval();
            jit_clock_ = jit_->clock();
            jit_scan_ = jit_->scan();
        }
    }
}

std::uint32_t CompiledNetlist::input_slot(Net n, const char* who) const {
    if (n >= ops_.size() || ops_[n] != GateOp::kInput)
        throw std::invalid_argument(std::string(who) + ": not an input net");
    return root_[n];
}

std::uint32_t CompiledNetlist::state_slot(Net n, const char* who) const {
    if (n >= ops_.size() || ops_[n] != GateOp::kState)
        throw std::invalid_argument(std::string(who) + ": not a register net");
    return root_[n];
}

void CompiledNetlist::check_word(unsigned word, const char* who) const {
    if (word >= words_)
        throw std::invalid_argument(std::string(who) + ": word " + std::to_string(word) +
                                    " out of range for a " + std::to_string(words_) +
                                    "-word lane block");
}

void CompiledNetlist::require_single_word(const char* who) const {
    if (words_ != 1)
        throw std::logic_error(std::string(who) +
                               ": single-u64 API requires words() == 1; this block is " +
                               std::to_string(words_) + " words (" +
                               std::to_string(lane_count()) + " lanes) — use the *_word form");
}

void CompiledNetlist::set_input_word(Net n, unsigned word, std::uint64_t lanes) {
    check_word(word, "set_input_word");
    slot_ptr(input_slot(n, "set_input_word"))[word] = lanes;
}

void CompiledNetlist::set_input_lanes(Net n, std::uint64_t lanes) {
    require_single_word("set_input_lanes");
    slot_ptr(input_slot(n, "set_input_lanes"))[0] = lanes;
}

void CompiledNetlist::set_input(Net n, unsigned lane, bool v) {
    if (lane >= lane_count()) throw std::invalid_argument("set_input: lane out of range");
    std::uint64_t& w = slot_ptr(input_slot(n, "set_input"))[lane / kWordBits];
    const std::uint64_t bit = std::uint64_t{1} << (lane % kWordBits);
    w = v ? (w | bit) : (w & ~bit);
}

void CompiledNetlist::set_input_all(Net n, bool v) {
    std::uint64_t* const p = slot_ptr(input_slot(n, "set_input_all"));
    for (unsigned w = 0; w < words_; ++w) p[w] = v ? kAll : 0;
}

void CompiledNetlist::set_word_input(const std::vector<Net>& w, unsigned lane,
                                     std::uint64_t value) {
    if (w.size() < kWordBits && (value >> w.size()) != 0)
        throw std::invalid_argument("set_word_input: value has bits beyond the " +
                                    std::to_string(w.size()) + "-bit word");
    for (std::size_t i = 0; i < w.size(); ++i)
        set_input(w[i], lane, i < kWordBits && ((value >> i) & 1u));
}

void CompiledNetlist::set_register(Net q, unsigned lane, bool v) {
    if (lane >= lane_count()) throw std::invalid_argument("set_register: lane out of range");
    std::uint64_t& w = slot_ptr(state_slot(q, "set_register"))[lane / kWordBits];
    const std::uint64_t bit = std::uint64_t{1} << (lane % kWordBits);
    w = v ? (w | bit) : (w & ~bit);
}

void CompiledNetlist::set_register_word(Net q, unsigned word, std::uint64_t lanes) {
    check_word(word, "set_register_word");
    slot_ptr(state_slot(q, "set_register_word"))[word] = lanes;
}

void CompiledNetlist::set_register_lanes(Net q, std::uint64_t lanes) {
    require_single_word("set_register_lanes");
    slot_ptr(state_slot(q, "set_register_lanes"))[0] = lanes;
}

void CompiledNetlist::xor_register_word(Net q, unsigned word, std::uint64_t mask) {
    check_word(word, "xor_register_word");
    slot_ptr(state_slot(q, "xor_register_word"))[word] ^= mask;
}

void CompiledNetlist::xor_register_lanes(Net q, std::uint64_t mask) {
    require_single_word("xor_register_lanes");
    slot_ptr(state_slot(q, "xor_register_lanes"))[0] ^= mask;
}

void CompiledNetlist::eval() {
    if (jit_eval_ != nullptr) {
        jit_eval_(base());
        return;
    }
    kernels_->eval(code_.data(), code_.size(), base());
}

std::uint32_t CompiledNetlist::make_cone(const std::vector<Net>& sources) {
    std::vector<char> hot(slots_, 0);
    for (const Net s : sources) {
        if (s >= root_.size()) throw std::invalid_argument("make_cone: net not defined");
        const std::uint32_t slot = root_[s];
        if (slot == kNoSlot)
            throw std::logic_error("make_cone: source net " + std::to_string(s) +
                                   " was pruned (compile with Options::keep covering it)");
        hot[slot] = 1;
    }
    // One forward pass suffices: operands always refer to earlier
    // definitions, so fanout membership is decided by the time each
    // instruction is visited.
    std::vector<LaneInstr> cone;
    for (const LaneInstr& inst : code_) {
        if (hot[inst.a] || hot[inst.b]) {
            hot[inst.dst] = 1;
            cone.push_back(inst);
        }
    }
    cones_.push_back(std::move(cone));
    return static_cast<std::uint32_t>(cones_.size() - 1);
}

void CompiledNetlist::eval_cone(std::uint32_t cone) {
    const std::vector<LaneInstr>& c = cones_.at(cone);
    kernels_->eval(c.data(), c.size(), base());
}

std::uint64_t CompiledNetlist::clock(bool test_mode, std::uint64_t scan_in) {
    if (regs_q_.empty()) return 0;
    if (test_mode) {
        require_single_word("clock(test_mode)");
        std::uint64_t out = 0;
        clock_scan(&scan_in, &out);
        return out;
    }
    const std::uint64_t out = slot_ptr(regs_q_.back())[0];
    if (jit_clock_ != nullptr) {
        jit_clock_(base());
        return out;
    }
    kernels_->latch(regs_q_.data(), regs_d_.data(), regs_q_.size(), base(), latch_tmp());
    return out;
}

void CompiledNetlist::clock_gated(const std::uint64_t* enable_words) {
    if (regs_q_.empty()) return;
    const std::size_t r = regs_q_.size();
    if (gate_tmp_.size() < r * words_) gate_tmp_.resize(r * words_);
    // Save every register's Q block, take a normal edge on the active
    // backend, then put the saved state back in the disabled lanes:
    // q = (q_new & enable) | (q_old & ~enable).
    for (std::size_t i = 0; i < r; ++i) {
        const std::uint64_t* const q = slot_ptr(regs_q_[i]);
        for (unsigned w = 0; w < words_; ++w) gate_tmp_[i * words_ + w] = q[w];
    }
    clock();
    for (std::size_t i = 0; i < r; ++i) {
        std::uint64_t* const q = slot_ptr(regs_q_[i]);
        for (unsigned w = 0; w < words_; ++w) {
            const std::uint64_t en = enable_words[w];
            q[w] = (q[w] & en) | (gate_tmp_[i * words_ + w] & ~en);
        }
    }
}

void CompiledNetlist::clock_scan(const std::uint64_t* scan_in, std::uint64_t* scan_out) {
    if (jit_scan_ != nullptr) {
        jit_scan_(base(), scan_in, scan_out);
        return;
    }
    if (regs_q_.empty()) {
        if (scan_out != nullptr)
            for (unsigned w = 0; w < words_; ++w) scan_out[w] = 0;
        return;
    }
    if (scan_out != nullptr) {
        const std::uint64_t* const tail = slot_ptr(regs_q_.back());
        for (unsigned w = 0; w < words_; ++w) scan_out[w] = tail[w];
    }
    std::uint64_t carry[kMaxWords] = {};
    if (scan_in != nullptr)
        for (unsigned w = 0; w < words_; ++w) carry[w] = scan_in[w];
    for (const std::uint32_t q : regs_q_) {
        std::uint64_t* const p = slot_ptr(q);
        for (unsigned w = 0; w < words_; ++w) std::swap(carry[w], p[w]);
    }
}

CompiledNetlist::SlotHandle CompiledNetlist::read_handle(Net n) const {
    if (n >= root_.size()) throw std::invalid_argument("read_handle: net not defined");
    const std::uint32_t s = root_[n];
    if (s == kNoSlot)
        throw std::logic_error("read_handle: net " + std::to_string(n) +
                               " was pruned (compile with Options::keep covering it)");
    return SlotHandle{s};
}

std::uint64_t CompiledNetlist::lanes_word(Net n, unsigned word) const {
    if (n >= root_.size()) throw std::invalid_argument("lanes_word: net not defined");
    check_word(word, "lanes_word");
    const std::uint32_t s = root_[n];
    if (s == kNoSlot)
        throw std::logic_error("lanes_word: net " + std::to_string(n) +
                               " was pruned (compile with Options::keep covering it)");
    return slot_ptr(s)[word];
}

std::uint64_t CompiledNetlist::lanes(Net n) const {
    require_single_word("lanes");
    return lanes_word(n, 0);
}

bool CompiledNetlist::value(Net n, unsigned lane) const {
    if (lane >= lane_count()) throw std::invalid_argument("value: lane out of range");
    return (lanes_word(n, lane / kWordBits) >> (lane % kWordBits)) & 1u;
}

std::uint64_t CompiledNetlist::word_value(const std::vector<Net>& nets, unsigned lane) const {
    if (nets.size() > kWordBits)
        throw std::invalid_argument("word_value: more than " + std::to_string(kWordBits) +
                                    " nets cannot pack into u64");
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < nets.size(); ++i)
        if (value(nets[i], lane)) v |= std::uint64_t{1} << i;
    return v;
}

std::uint64_t CompiledNetlist::scan_tail() const {
    require_single_word("scan_tail");
    return regs_q_.empty() ? 0 : slot_ptr(regs_q_.back())[0];
}

std::uint64_t CompiledNetlist::scan_tail_word(unsigned word) const {
    check_word(word, "scan_tail_word");
    return regs_q_.empty() ? 0 : slot_ptr(regs_q_.back())[word];
}

}  // namespace gaip::gates
