#include "gates/batch_runner.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "core/ga_core.hpp"
#include "mem/ga_memory.hpp"
#include "trace/vcd.hpp"
#include "util/bits.hpp"

namespace gaip::gates {

namespace {

constexpr unsigned kWordBits = CompiledNetlist::kWordBits;
constexpr auto kStartState = static_cast<std::uint8_t>(core::GaCore::State::kStart);
constexpr auto kDoneState = static_cast<std::uint8_t>(core::GaCore::State::kDone);

/// Event envelope for lane telemetry: 50 MHz GA clock -> 20 ns/cycle.
trace::TraceEvent lane_event(const char* kind, std::uint64_t cycle) {
    return trace::TraceEvent(kind, cycle * 20'000, cycle);
}

/// Lane k's value of a `count`-bit port from its bit-planes (plane j
/// holds bit j of 64 lanes). Lanes with work are usually a minority of a
/// word, so this beats a 64x64 transpose of the whole word.
std::uint64_t lane_bits(const std::uint64_t* planes, unsigned count, unsigned k) {
    std::uint64_t v = 0;
    for (unsigned j = 0; j < count; ++j) v |= ((planes[j] >> k) & 1u) << j;
    return v;
}

template <std::size_t N>
void handles(std::array<CompiledNetlist::SlotHandle, N>& out, const Word& nets,
             CompiledNetlist::SlotHandle (CompiledNetlist::*resolve)(Net) const,
             const CompiledNetlist& sim) {
    for (std::size_t j = 0; j < N; ++j) out[j] = (sim.*resolve)(nets.at(j));
}

}  // namespace

BatchGateRunner::BatchGateRunner(fitness::FitnessId fn, std::vector<core::GaParameters> lane_params,
                                 unsigned words, Backend backend, FemTiming timing)
    : fn_(fn),
      timing_(timing),
      core_src_(build_ga_core_netlist()),
      rng_src_(build_rng_netlist()) {
    if (lane_params.empty() || lane_params.size() > kMaxLanes)
        throw std::invalid_argument("BatchGateRunner: need 1.." + std::to_string(kMaxLanes) +
                                    " lane configs");
    if (words == 0)
        for (words = 1; words * kWordBits < lane_params.size(); words *= 2) {
        }
    if (lane_params.size() > std::size_t{words} * kWordBits)
        throw std::invalid_argument(
            "BatchGateRunner: " + std::to_string(lane_params.size()) +
            " lane configs exceed the " + std::to_string(words * kWordBits) + " lanes of a " +
            std::to_string(words) + "-word block");
    core_.emplace(core_src_->nl, CompiledNetlist::Options{
                                     .words = words,
                                     .cse = true,
                                     .prune = true,
                                     .keep = core_src_->observable_port_nets(),
                                     .backend = backend});
    rng_.emplace(rng_src_->nl, CompiledNetlist::Options{
                                   .words = words,
                                   .cse = true,
                                   .prune = true,
                                   .keep = rng_src_->observable_port_nets(),
                                   .backend = backend});
    words_ = core_->words();

    const CompiledNetlist& c = *core_;
    const CompiledNetlist& r = *rng_;
    const GaCoreNetlist& cs = *core_src_;
    const RngNetlist& rs = *rng_src_;
    h_.ga_load = c.input_handle(cs.ga_load);
    h_.data_valid = c.input_handle(cs.data_valid);
    h_.start = c.input_handle(cs.start_ga);
    h_.fit_valid = c.input_handle(cs.fit_valid);
    handles(h_.index, cs.index, &CompiledNetlist::input_handle, c);
    handles(h_.value, cs.value, &CompiledNetlist::input_handle, c);
    handles(h_.fit_value, cs.fit_value, &CompiledNetlist::input_handle, c);
    handles(h_.rn, cs.rn, &CompiledNetlist::input_handle, c);
    handles(h_.mem_data_in, cs.mem_data_in, &CompiledNetlist::input_handle, c);
    h_.fit_request = c.read_handle(cs.fit_request);
    h_.data_ack = c.read_handle(cs.data_ack);
    h_.ga_done = c.read_handle(cs.ga_done);
    h_.mem_wr = c.read_handle(cs.mem_wr);
    h_.rn_next = c.read_handle(cs.rn_next);
    h_.mon_gen_pulse = c.read_handle(cs.mon_gen_pulse);
    h_.mon_bank = c.read_handle(cs.mon_bank);
    handles(h_.candidate, cs.candidate, &CompiledNetlist::read_handle, c);
    handles(h_.mem_address, cs.mem_address, &CompiledNetlist::read_handle, c);
    handles(h_.mem_data_out, cs.mem_data_out, &CompiledNetlist::read_handle, c);
    handles(h_.state, cs.state, &CompiledNetlist::read_handle, c);
    h_.rng_ga_load = r.input_handle(rs.ga_load);
    h_.rng_data_valid = r.input_handle(rs.data_valid);
    h_.rng_start = r.input_handle(rs.start);
    h_.rng_rn_next = r.input_handle(rs.rn_next);
    handles(h_.rng_index, rs.index, &CompiledNetlist::input_handle, r);
    handles(h_.rng_value, rs.value, &CompiledNetlist::input_handle, r);
    handles(h_.rng_rn, rs.rn, &CompiledNetlist::read_handle, r);

    if (timing_ == FemTiming::kSameCycle) {
        // The same-cycle answer only changes fit_valid/fit_value; their
        // fanout is a few hundred instructions, so step()'s second eval
        // runs just that cone instead of the full stream.
        std::vector<Net> fit_sources{cs.fit_valid};
        fit_sources.insert(fit_sources.end(), cs.fit_value.begin(), cs.fit_value.end());
        fit_cone_ = core_->make_cone(fit_sources);
    }
    // The gate lists have been compiled; keep only the register names
    // register_net() resolves (the port nets live outside `nl`).
    for (const Net q : cs.nl.register_q_nets()) registers_.emplace_back(cs.nl.name_of(q), q);
    core_src_->nl = GateNetlist();
    rng_src_->nl = GateNetlist();
    set_lanes(std::move(lane_params));
}

void BatchGateRunner::reconfigure(fitness::FitnessId fn,
                                  std::vector<core::GaParameters> lane_params) {
    if (lane_params.empty() || lane_params.size() > std::size_t{words_} * kWordBits)
        throw std::invalid_argument(
            "BatchGateRunner: reconfigure wants 1.." + std::to_string(words_ * kWordBits) +
            " lane configs for this " + std::to_string(words_) + "-word block");
    fn_ = fn;
    set_lanes(std::move(lane_params));
}

void BatchGateRunner::set_lanes(std::vector<core::GaParameters> lane_params) {
    params_ = std::move(lane_params);
    const std::size_t n = params_.size();
    presets_.assign(n, 0);
    tracing_ = false;
    vcd_ = nullptr;  // its probes belong to the old job set
    lanes_.assign(n, Lane{});
    slot_of_.resize(n);
    std::iota(slot_of_.begin(), slot_of_.end(), 0u);
    for (std::size_t k = 0; k < n; ++k) {
        const core::GaParameters& p = params_[k];
        lanes_[k].program = {
            {0, static_cast<std::uint16_t>(p.n_gens & 0xFFFF)},
            {1, static_cast<std::uint16_t>(p.n_gens >> 16)},
            {2, p.pop_size},
            {3, p.xover_threshold},
            {4, p.mut_threshold},
            {5, p.seed},
        };
    }
    // The GA memory as reset() leaves it, so the backdoor is in range (and
    // strided for this lane count) before the first run.
    mem_.assign(std::size_t{mem::kGaMemoryDepth} * n, 0);
    dout_.assign(n, 0);
}

unsigned BatchGateRunner::lane_slot(unsigned lane) const {
    if (lane >= lanes_.size()) throw std::invalid_argument("BatchGateRunner: lane out of range");
    return slot_of_[lane];
}

std::uint64_t BatchGateRunner::lane_length(std::size_t lane) const {
    const core::GaParameters eff = core::resolve_parameters(presets_[lane], params_[lane]);
    const std::uint64_t evals = util::sat_mul_u64(eff.pop_size, std::uint64_t{eff.n_gens} + 1);
    const std::uint64_t per_eval = util::sat_add_u64(64, util::sat_mul_u64(8, eff.pop_size));
    return util::sat_mul_u64(evals, per_eval);
}

std::uint64_t BatchGateRunner::default_cycle_bound() const {
    std::uint64_t bound = 0;
    for (std::size_t k = 0; k < params_.size(); ++k)
        bound = std::max<std::uint64_t>(bound, util::sat_add_u64(lane_length(k), 100'000ull));
    return bound;
}

void BatchGateRunner::set_lane_preset(unsigned lane, std::uint8_t preset) {
    lane_slot(lane);
    presets_[lane] = preset & 0x3;
}

std::uint8_t BatchGateRunner::lane_state(unsigned lane) const {
    return static_cast<std::uint8_t>(core_->word_value(core_src_->state, lane_slot(lane)));
}

void BatchGateRunner::set_lane_sink(unsigned lane, trace::TraceSink* sink) {
    const unsigned s = lane_slot(lane);
    lanes_[s].sink = sink;
    LaneWord& m = lw_[s / kWordBits];
    const std::uint64_t bit = std::uint64_t{1} << (s % kWordBits);
    m.traced = sink != nullptr ? m.traced | bit : m.traced & ~bit;
    m.touched |= bit;  // emit any pending init/start event on the next cycle
    tracing_ = std::any_of(lanes_.begin(), lanes_.end(),
                           [](const Lane& l) { return l.sink != nullptr; });
}

void BatchGateRunner::add_vcd(trace::VcdWriter* vcd, const std::vector<unsigned>& lanes_to_trace) {
    for (const unsigned lane : lanes_to_trace) {
        lane_slot(lane);
        const std::string scope = "gates.lane" + std::to_string(lane);
        // The lane's slot is looked up per sample: begin_run() may move it.
        auto word = [this, lane](const Word& w) {
            const Word* pw = &w;  // stable: lives in *core_src_
            return [this, lane, pw] { return core_->word_value(*pw, slot_of_[lane]); };
        };
        auto bit = [this, lane](Net n) {
            return [this, lane, n] { return core_->value(n, slot_of_[lane]) ? std::uint64_t{1} : 0; };
        };
        vcd->add_probe(scope, "state", 6, word(core_src_->state));
        vcd->add_probe(scope, "gen_id", 32, word(core_src_->gen_id));
        vcd->add_probe(scope, "best_fit", 16, word(core_src_->best_fit));
        vcd->add_probe(scope, "best_ind", 16, word(core_src_->best_ind));
        vcd->add_probe(scope, "candidate", 16, word(core_src_->candidate));
        vcd->add_probe(scope, "bank", 1, bit(core_src_->bank));
        vcd->add_probe(scope, "data_ack", 1, bit(core_src_->data_ack));
        vcd->add_probe(scope, "fitness_request", 1, bit(core_src_->fit_request));
        vcd->add_probe(scope, "GA_done", 1, bit(core_src_->ga_done));
        vcd->add_probe(scope, "mon_gen_pulse", 1, bit(core_src_->mon_gen_pulse));
    }
    vcd_ = vcd;
}

std::vector<BatchLaneResult> BatchGateRunner::run(std::uint64_t max_cycles) {
    const std::vector<BatchLaneResult> out = run_bounded(max_cycles);
    for (const BatchLaneResult& r : out)
        if (!r.finished)
            throw std::runtime_error("BatchGateRunner: lanes did not finish within bound");
    return out;
}

std::vector<BatchLaneResult> BatchGateRunner::run_bounded(std::uint64_t max_cycles) {
    if (max_cycles == 0) max_cycles = default_cycle_bound();
    reset();
    std::size_t unfinished = lanes_.size();
    while (unfinished > 0 && cycle_ < max_cycles) unfinished = step();
    std::vector<BatchLaneResult> out;
    out.reserve(lanes_.size());
    for (const unsigned s : slot_of_) out.push_back(lanes_[s].result);
    return out;
}

void BatchGateRunner::append_lane_write(unsigned lane, std::uint8_t index, std::uint16_t value) {
    lane_at(lane).program.emplace_back(index, value);
}

std::size_t BatchGateRunner::run_to_barrier(std::uint64_t max_cycles) {
    std::size_t running = pending_lanes();
    while (running > 0 && cycle_ < max_cycles) {
        step();
        running = pending_lanes();
    }
    return running;
}

std::size_t BatchGateRunner::pending_lanes() const noexcept {
    std::size_t n = 0;
    for (unsigned w = 0; w < words_; ++w)
        n += static_cast<std::size_t>(std::popcount(lw_[w].lanes & ~lw_[w].finished & ~stall_[w]));
    return n;
}

bool BatchGateRunner::lane_parked(unsigned lane) const {
    const unsigned s = lane_slot(lane);
    return ((stall_[s / kWordBits] >> (s % kWordBits)) & 1u) != 0;
}

void BatchGateRunner::release_lanes() {
    for (unsigned w = 0; w < words_; ++w) {
        for (std::uint64_t m = stall_[w]; m != 0; m &= m - 1) {
            Lane& l = lanes_[w * kWordBits + static_cast<unsigned>(std::countr_zero(m))];
            l.stall_cycles += cycle_ - l.park_cycle;
        }
        // A released lane's address may have moved while it was parked,
        // and the island may have poked its memory: re-read next cycle.
        lw_[w].touched |= stall_[w];
    }
    stall_ = WordVec{};
}

std::uint64_t BatchGateRunner::lane_stall_cycles(unsigned lane) const {
    const Lane& l = lane_at(lane);
    return l.stall_cycles + (lane_parked(lane) ? cycle_ - l.park_cycle : 0);
}

bool BatchGateRunner::lane_bank(unsigned lane) const {
    return core_->value(core_src_->bank, lane_slot(lane));
}

std::uint32_t BatchGateRunner::peek_lane_mem(unsigned lane, std::uint8_t addr) const {
    return mem_[std::size_t{addr} * lanes_.size() + lane_slot(lane)];
}

void BatchGateRunner::poke_lane_mem(unsigned lane, std::uint8_t addr, std::uint32_t word) {
    const unsigned s = lane_slot(lane);
    mem_[std::size_t{addr} * lanes_.size() + s] = word;
    disturb(s);
}

Net BatchGateRunner::register_net(const std::string& name) const {
    for (const auto& [reg, q] : registers_)
        if (reg == name) return q;
    throw std::invalid_argument("BatchGateRunner: the core has no register bit '" + name + "'");
}

void BatchGateRunner::flip_lane_register(unsigned lane, Net q) {
    const unsigned s = lane_slot(lane);
    core_->xor_register_word(q, s / kWordBits, std::uint64_t{1} << (s % kWordBits));
    disturb(s);
}

void BatchGateRunner::disturb(unsigned s) {
    LaneWord& m = lw_[s / kWordBits];
    const std::uint64_t bit = std::uint64_t{1} << (s % kWordBits);
    m.touched |= bit;
    // A finished lane is only a fixed point while nobody writes to it: a
    // disturbed one stays live (and is stepped like any other) until reset.
    m.open |= bit & m.lanes;
    live_words_ = std::max(live_words_, s / kWordBits + 1);
}

void BatchGateRunner::reset() {
    cycle_ = 0;
    usage_ = Usage{};
    stall_ = WordVec{};
    barrier_armed_ = false;
    barrier_gen_ = 0;
    inputs_quiet_ = false;
    mdi_w_ = {};
    fem_valid_w_ = {};
    fitv_w_ = {};
    const std::size_t n_lanes = lanes_.size();
    mem_.assign(std::size_t{mem::kGaMemoryDepth} * n_lanes, 0);
    dout_.assign(n_lanes, 0);

    // Placement: the longest-running lanes take the lowest slots, so the
    // trailing lane words finish first and leave the live-word prefix.
    // Stable, so a uniform batch keeps caller order.
    std::vector<unsigned> order(n_lanes);  // slot -> caller lane
    std::iota(order.begin(), order.end(), 0u);
    std::vector<std::uint64_t> length(n_lanes);
    for (std::size_t k = 0; k < n_lanes; ++k) length[k] = lane_length(k);
    std::stable_sort(order.begin(), order.end(),
                     [&](unsigned a, unsigned b) { return length[a] > length[b]; });
    std::vector<Lane> placed(n_lanes);
    lw_ = {};
    for (std::size_t s = 0; s < n_lanes; ++s) {
        const unsigned k = order[s];
        Lane& fresh = placed[s];
        Lane& old = lanes_[slot_of_[k]];
        fresh.program = std::move(old.program);
        fresh.sink = old.sink;
        if (presets_[k] != 0) {
            // Preset lane: Table IV pins carry the run — no handshake,
            // start pulse scheduled immediately.
            fresh.init_done = true;
            fresh.init_done_traced = true;
            fresh.start_hold = 2;
        }
        LaneWord& m = lw_[s / kWordBits];
        const std::uint64_t bit = std::uint64_t{1} << (s % kWordBits);
        m.lanes |= bit;
        if (fresh.sink != nullptr) m.traced |= bit;
    }
    lanes_ = std::move(placed);
    for (std::size_t s = 0; s < n_lanes; ++s) slot_of_[order[s]] = static_cast<unsigned>(s);
    for (LaneWord& m : lw_) m.open = m.touched = m.lanes;  // first cycle visits every lane
    live_words_ = static_cast<unsigned>((n_lanes + kWordBits - 1) / kWordBits);

    // Static pins: per-lane preset mode (user mode = 0), fitness slot 0.
    std::array<WordVec, 2> preset_w{};
    for (std::size_t k = 0; k < n_lanes; ++k) {
        const std::size_t s = slot_of_[k];
        for (unsigned j = 0; j < 2; ++j)
            if ((presets_[k] >> j) & 1u) preset_w[j][s / kWordBits] |= std::uint64_t{1} << (s % kWordBits);
    }
    CompiledNetlist& c = *core_;
    CompiledNetlist& r = *rng_;
    const GaCoreNetlist& cs = *core_src_;
    const RngNetlist& rs = *rng_src_;
    c.set_input_all(cs.reset, false);
    for (unsigned j = 0; j < cs.preset.size() && j < 2; ++j)
        for (unsigned w = 0; w < words_; ++w) c.set_input_word(cs.preset[j], w, preset_w[j][w]);
    for (const Net n : cs.fitfunc_select) c.set_input_all(n, false);
    for (const Net n : cs.fit_value_ext) c.set_input_all(n, false);
    c.set_input_all(cs.fit_valid_ext, false);
    c.set_input_all(cs.sel_force_found, false);
    for (const Net n : cs.mem_data_in) c.set_input_all(n, false);
    for (const Net n : cs.fit_value) c.set_input_all(n, false);
    c.set_input_all(cs.fit_valid, false);
    c.set_input_all(cs.start_ga, false);
    c.set_input_all(cs.ga_load, false);
    c.set_input_all(cs.data_valid, false);
    for (const Net n : cs.index) c.set_input_all(n, false);
    for (const Net n : cs.value) c.set_input_all(n, false);
    r.set_input_all(rs.reset, false);
    for (unsigned j = 0; j < rs.preset.size() && j < 2; ++j)
        for (unsigned w = 0; w < words_; ++w) r.set_input_word(rs.preset[j], w, preset_w[j][w]);
    r.set_input_all(rs.start, false);
    r.set_input_all(rs.rn_next, false);
    r.set_input_all(rs.ga_load, false);
    r.set_input_all(rs.data_valid, false);
    for (const Net n : rs.index) r.set_input_all(n, false);
    for (const Net n : rs.value) r.set_input_all(n, false);

    // Synchronous reset pulse in every lane.
    c.set_input_all(cs.reset, true);
    r.set_input_all(rs.reset, true);
    c.eval();
    r.eval();
    c.clock();
    r.clock();
    c.set_input_all(cs.reset, false);
    r.set_input_all(rs.reset, false);
}

void BatchGateRunner::drive_handshake() {
    // Init-handshake and start_GA drive words. Once no lane is programming
    // or pulsing start they are zero for the rest of the run (both only
    // ever advance), so the cycle that sees that drives the zeros one last
    // time and later cycles skip the lane scan and the drives.
    WordVec ga_load_w{}, data_valid_w{}, start_w{};
    std::array<WordVec, 3> index_w{};
    std::array<WordVec, 16> value_w{};
    for (LaneWord& m : lw_) m.programming = 0;
    bool busy = false;
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
        const Lane& l = lanes_[k];
        const unsigned w = static_cast<unsigned>(k / kWordBits);
        const std::uint64_t bit = std::uint64_t{1} << (k % kWordBits);
        if (!l.init_done) {
            lw_[w].programming |= bit;
            ga_load_w[w] |= bit;
            if (l.init_asserting) {
                data_valid_w[w] |= bit;
                const auto& [idx, val] = l.program[l.init_item];
                for (unsigned j = 0; j < 3; ++j)
                    if ((idx >> j) & 1u) index_w[j][w] |= bit;
                for (unsigned j = 0; j < 16; ++j)
                    if ((val >> j) & 1u) value_w[j][w] |= bit;
            }
        }
        if (l.start_hold > 0) {
            lw_[w].programming |= bit;
            start_w[w] |= bit;
        }
        busy = busy || (lw_[w].programming & bit) != 0;
    }
    inputs_quiet_ = !busy;
    CompiledNetlist& c = *core_;
    CompiledNetlist& r = *rng_;
    c.write_words(h_.ga_load, ga_load_w.data());
    c.write_words(h_.data_valid, data_valid_w.data());
    c.write_words(h_.start, start_w.data());
    r.write_words(h_.rng_ga_load, ga_load_w.data());
    r.write_words(h_.rng_data_valid, data_valid_w.data());
    r.write_words(h_.rng_start, start_w.data());
    for (unsigned j = 0; j < 3; ++j) {
        c.write_words(h_.index[j], index_w[j].data());
        r.write_words(h_.rng_index[j], index_w[j].data());
    }
    for (unsigned j = 0; j < 16; ++j) {
        c.write_words(h_.value[j], value_w[j].data());
        r.write_words(h_.rng_value[j], value_w[j].data());
    }
}

void BatchGateRunner::answer_fem(unsigned word, std::uint64_t mask) {
    // Look up the candidate of every lane in `mask` (each lookup is one
    // evaluation) and set the answer's bits in the fit_value planes, whose
    // bits of these lanes are clear: they were not valid.
    std::uint64_t cand[16];
    for (unsigned j = 0; j < 16; ++j) cand[j] = core_->read_word(h_.candidate[j], word);
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
        const unsigned k = static_cast<unsigned>(std::countr_zero(m));
        Lane& l = lanes_[word * kWordBits + k];
        l.fem_value = fitness::fitness_u16(fn_, static_cast<std::uint16_t>(lane_bits(cand, 16, k)));
        ++l.result.evaluations;
        for (unsigned j = 0; j < 16; ++j)
            fitv_w_[j][word] |= std::uint64_t{(l.fem_value >> j) & 1u} << k;
    }
}

std::size_t BatchGateRunner::step() {
    CompiledNetlist& c = *core_;
    CompiledNetlist& r = *rng_;
    const std::size_t n = lanes_.size();
    const bool same_cycle = timing_ == FemTiming::kSameCycle;
    const unsigned live = live_words_;

    // ---- drive the core and settle its combinational cone -----------------
    if (!inputs_quiet_) drive_handshake();
    // fit_valid/fit_value: kNextCycle drives last cycle's answers; the
    // kSameCycle words are zero here (the answer goes in below).
    c.write_words(h_.fit_valid, fem_valid_w_.data());
    for (unsigned j = 0; j < 16; ++j) {
        c.write_words(h_.fit_value[j], fitv_w_[j].data());
        // rn comes straight from the RNG's CA state registers.
        WordVec rn{};
        r.read_words(h_.rng_rn[j], rn.data());
        c.write_words(h_.rn[j], rn.data());
    }
    for (unsigned j = 0; j < 32; ++j) c.write_words(h_.mem_data_in[j], mdi_w_[j].data());
    c.eval();

    // ---- sample the core's outputs (pre-edge values) -----------------------
    const WordVec fit_req_w = read(h_.fit_request);
    if (same_cycle) {
        // fit_request and candidate are Moore outputs, so answering before
        // the edge is loop-free: fit_valid follows fit_request and the
        // re-propagation runs only the fit_valid/fit_value fanout cone.
        bool any_req = false;
        for (unsigned w = 0; w < live; ++w) {
            const std::uint64_t ans = fit_req_w[w] & ~stall_[w];
            if (ans == 0) continue;
            any_req = true;
            answer_fem(w, ans);
        }
        if (any_req) {
            c.write_words(h_.fit_valid, fit_req_w.data());
            for (unsigned j = 0; j < 16; ++j) {
                c.write_words(h_.fit_value[j], fitv_w_[j].data());
                fitv_w_[j] = WordVec{};
            }
            c.eval_cone(fit_cone_);
        }
    }
    const WordVec data_ack_w = read(h_.data_ack);
    const WordVec ga_done_w = read(h_.ga_done);
    const WordVec mem_wr_w = read(h_.mem_wr);
    // Pre-edge monitor samples: the same observation point the RT-level
    // SystemTap uses, so traced event streams line up across substrates.
    // The island barrier watches the same pulse to spot lanes entering
    // their kGenCheck boundary.
    const WordVec mon_pulse_w = (tracing_ || barrier_armed_) ? read(h_.mon_gen_pulse) : WordVec{};
    const WordVec mon_bank_w = tracing_ ? read(h_.mon_bank) : WordVec{};

    // ---- RNG module (the init bus + start pulse were driven above) --------
    {
        WordVec rn_next{};
        c.read_words(h_.rn_next, rn_next.data());
        r.write_words(h_.rng_rn_next, rn_next.data());
    }
    r.eval();

    // ---- clock edge --------------------------------------------------------
    // Parked lanes are clock-gated: their registers (core AND RNG) hold
    // while active lanes latch normally. The WordVec is zero-initialized
    // beyond words_, so the mask math stays in-range.
    std::uint64_t any_parked = 0;
    for (unsigned w = 0; w < words_; ++w) any_parked |= stall_[w];
    if (any_parked != 0) {
        WordVec enable{};
        for (unsigned w = 0; w < words_; ++w) enable[w] = ~stall_[w];
        c.clock_gated(enable.data());
        r.clock_gated(enable.data());
    } else {
        c.clock();
        r.clock();
    }
    ++cycle_;

    // ---- advance the per-lane peripheral models, one lane word at a time --
    // Each word's event mask picks the lanes whose models have work this
    // cycle; every other lane's models would compute what they hold. The
    // per-lane fields come straight from the port bit-planes: mem_address,
    // mem_data_out and candidate are combinational, so they still hold
    // their pre-edge values here; the FSM state is a register and reads
    // post-edge.
    const bool handshaking = !inputs_quiet_;
    std::size_t unfinished = 0;
    for (unsigned w = 0; w < live; ++w) {
        LaneWord& m = lw_[w];
        const std::size_t base = std::size_t{w} * kWordBits;
        const std::uint64_t parked = stall_[w];
        const std::uint64_t wr = mem_wr_w[w] & ~parked;
        // FEM: lanes answered this cycle. kNextCycle answers a request one
        // cycle after it rises and holds valid until it drops (valid next
        // cycle == request this cycle); parked lanes hold their FEM state.
        const std::uint64_t req = fit_req_w[w] & ~parked;
        const std::uint64_t valid = fem_valid_w_[w];
        const std::uint64_t answered = same_cycle ? req : req & ~valid;
        if (!same_cycle) {
            const std::uint64_t next_valid = req | (valid & parked);
            if (const std::uint64_t dropped = valid & ~next_valid; dropped != 0)
                for (unsigned j = 0; j < 16; ++j) fitv_w_[j][w] &= ~dropped;
            if (answered != 0) answer_fem(w, answered);
            fem_valid_w_[w] = next_valid;
        }
        const std::uint64_t ack = data_ack_w[w];
        const std::uint64_t done = ga_done_w[w];
        const std::uint64_t pulse = mon_pulse_w[w];
        const std::uint64_t bank = mon_bank_w[w];

        std::uint64_t moved = 0;
        for (unsigned j = 0; j < 8; ++j) {
            const std::uint64_t a = c.read_word(h_.mem_address[j], w);
            moved |= a ^ m.addr[j];
            m.addr[j] = a;
        }
        // Bit-sliced kStart / kDone match on the post-edge state planes.
        std::uint64_t at_start = ~std::uint64_t{0}, at_done = ~std::uint64_t{0};
        if (same_cycle)
            for (unsigned j = 0; j < 6; ++j) {
                const std::uint64_t s = c.read_word(h_.state[j], w);
                at_start &= (kStartState >> j) & 1u ? s : ~s;
                at_done &= (kDoneState >> j) & 1u ? s : ~s;
            }
        // Events: the GA memory port moved or writes, or one of the rarer
        // lane-model events below.
        const std::uint64_t rose = pulse & ~m.pulse;
        std::uint64_t rare = m.touched | (ack & ~m.ack) |
                             (same_cycle ? (at_start & ~m.started) | (at_done & ~m.finished)
                                         : done & ~m.finished) |
                             ((answered | rose | (bank ^ m.bank)) & m.traced);
        if (handshaking) rare |= m.programming;
        if (barrier_armed_) rare |= rose & ~m.finished;
        const std::uint64_t visit = (moved | wr | rare) & m.lanes & ~parked;
        usage_.lane_visits += static_cast<std::uint64_t>(std::popcount(visit));

        std::uint64_t wdata[32] = {};
        if (wr != 0)
            for (unsigned j = 0; j < 32; ++j) wdata[j] = c.read_word(h_.mem_data_out[j], w);
        bool dout_changed = false;
        for (std::uint64_t vm = visit; vm != 0; vm &= vm - 1) {
            const unsigned k = static_cast<unsigned>(std::countr_zero(vm));
            const std::uint64_t bit = std::uint64_t{1} << k;
            const std::size_t i = base + k;

            // GA memory (write-first synchronous RAM).
            std::uint32_t& cell = mem_[lane_bits(m.addr.data(), 8, k) * n + i];
            if ((wr & bit) != 0) cell = static_cast<std::uint32_t>(lane_bits(wdata, 32, k));
            dout_changed = dout_changed || dout_[i] != cell;
            dout_[i] = cell;
            if ((rare & bit) == 0) continue;

            Lane& l = lanes_[i];
            trace::TraceSink* sink = l.sink;
            const bool ack_k = (ack & bit) != 0;
            if (sink != nullptr && ack_k && (m.ack & bit) == 0) {
                const auto& [idx, val] = l.program[l.init_item];
                sink->on_event(lane_event(trace::kind::kInitWrite, cycle_)
                                   .add("index", static_cast<std::uint64_t>(idx))
                                   .add("value", static_cast<std::uint64_t>(val)));
            }
            if (sink != nullptr && (answered & bit) != 0) {
                // The request/value pair collapses into the answering
                // cycle; the stream order (request then value, one pair per
                // evaluation) matches the RT-level tap.
                const std::uint64_t cand = c.word_value(core_src_->candidate, static_cast<unsigned>(i));
                sink->on_event(lane_event(trace::kind::kFemRequest, cycle_).add("candidate", cand));
                sink->on_event(lane_event(trace::kind::kFemValue, cycle_)
                                   .add("candidate", cand)
                                   .add("value", static_cast<std::uint64_t>(l.fem_value)));
            }

            // Init handshake FSM (a no-op once the handshake went quiet).
            if (handshaking && !l.init_done) {
                if (l.init_asserting) {
                    if (ack_k) l.init_asserting = false;
                } else if (!ack_k) {
                    if (++l.init_item >= l.program.size()) {
                        l.init_done = true;
                        l.start_hold = 2;  // schedule the start_GA pulse
                    } else {
                        l.init_asserting = true;
                    }
                }
            } else if (handshaking && l.start_hold > 0) {
                if ((m.started & bit) == 0 && !same_cycle) {
                    m.started |= bit;
                    l.start_cycle = cycle_;
                }
                --l.start_hold;
            }
            if (same_cycle && (m.started & bit) == 0 && (at_start & bit) != 0) {
                m.started |= bit;
                l.start_cycle = cycle_;
            }

            const bool rose_k = (rose & bit) != 0;
            if (sink != nullptr) {
                if (l.init_done && !l.init_done_traced) {
                    l.init_done_traced = true;
                    sink->on_event(lane_event(trace::kind::kInitDone, cycle_));
                }
                if ((m.started & bit) != 0 && !l.start_traced) {
                    l.start_traced = true;
                    sink->on_event(lane_event(trace::kind::kStart, cycle_));
                }
                const unsigned lane = static_cast<unsigned>(i);
                if (rose_k) {
                    sink->on_event(lane_event(trace::kind::kGeneration, cycle_)
                                       .add("gen", c.word_value(core_src_->mon_gen_id, lane))
                                       .add("best_fit", c.word_value(core_src_->mon_best_fit, lane))
                                       .add("best_ind", c.word_value(core_src_->mon_best_ind, lane))
                                       .add("fit_sum", c.word_value(core_src_->mon_fit_sum, lane))
                                       .add("pop", c.word_value(core_src_->mon_pop_size, lane))
                                       .add("bank", std::uint64_t{(bank & bit) != 0}));
                }
                if (((bank ^ m.bank) & bit) != 0)
                    sink->on_event(lane_event(trace::kind::kBankSwap, cycle_)
                                       .add("bank", std::uint64_t{(bank & bit) != 0}));
            }
            // Barrier park: the pulse rise IS the monitor capture edge (E2
            // of the boundary), so gating the lane from the next cycle on
            // freezes it after the pre-migration snapshot and before the
            // elite write reaches the other bank — the exact window the RTL
            // island driver pokes GaMemory in.
            if (barrier_armed_ && (m.finished & bit) == 0 && rose_k &&
                c.word_value(core_src_->mon_gen_id, static_cast<unsigned>(i)) == barrier_gen_) {
                l.park_cycle = cycle_;
                stall_[w] |= bit;
            }

            // Completion: kNextCycle = the first GA_done after the start
            // pulse; kSameCycle = the first post-edge kDone after kStart.
            const bool finished = ((same_cycle ? at_done : done) & bit) != 0;
            if ((m.finished & bit) == 0 && (m.started & bit) != 0 && finished) {
                const unsigned lane = static_cast<unsigned>(i);
                m.finished |= bit;
                m.open &= ~bit;
                l.result.finished = true;
                l.result.best_fitness =
                    static_cast<std::uint16_t>(c.word_value(core_src_->best_fit, lane));
                l.result.best_candidate =
                    static_cast<std::uint16_t>(c.word_value(core_src_->best_ind, lane));
                l.result.generations =
                    static_cast<std::uint32_t>(c.word_value(core_src_->gen_id, lane));
                l.result.ga_cycles = cycle_ - l.start_cycle;
                if (sink != nullptr)
                    sink->on_event(
                        lane_event(trace::kind::kDone, cycle_)
                            .add("best_fit", static_cast<std::uint64_t>(l.result.best_fitness))
                            .add("best_ind", static_cast<std::uint64_t>(l.result.best_candidate))
                            .add("gen", static_cast<std::uint64_t>(l.result.generations)));
            }
        }
        m.touched &= ~visit;
        // Parked lanes keep the samples of their last active cycle.
        m.ack = (m.ack & parked) | (ack & ~parked);
        m.pulse = (m.pulse & parked) | (pulse & ~parked);
        m.bank = (m.bank & parked) | (bank & ~parked);
        unfinished += static_cast<std::size_t>(std::popcount(m.lanes & ~m.finished));

        if (dout_changed) {
            // Read data -> next cycle's mem_data_in drive, transposed.
            std::uint64_t dout[kWordBits] = {};
            const unsigned width = static_cast<unsigned>(std::min<std::size_t>(kWordBits, n - base));
            std::copy_n(dout_.begin() + static_cast<std::ptrdiff_t>(base), width, dout);
            util::transpose64(dout);
            for (unsigned j = 0; j < 32; ++j) mdi_w_[j][w] = dout[j];
        }
    }
    usage_.live_word_cycles += live;
    usage_.open_lane_cycles += unfinished;
    // Retire trailing words whose lanes have all finished.
    while (live_words_ > 0 && lw_[live_words_ - 1].open == 0) --live_words_;
    if (vcd_ != nullptr) vcd_->sample(cycle_ * 20'000);
    return unfinished;
}

}  // namespace gaip::gates
