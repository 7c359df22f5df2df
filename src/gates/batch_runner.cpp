#include "gates/batch_runner.hpp"

#include <algorithm>
#include <bit>
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
    presets_.assign(params_.size(), 0);
    lane_sinks_.assign(params_.size(), nullptr);
    tracing_ = false;
    lanes_.assign(params_.size(), Lane{});
    for (std::size_t k = 0; k < params_.size(); ++k) {
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
}

const BatchGateRunner::Lane& BatchGateRunner::lane_at(unsigned lane) const {
    if (lane >= lanes_.size()) throw std::invalid_argument("BatchGateRunner: lane out of range");
    return lanes_[lane];
}

std::uint64_t BatchGateRunner::default_cycle_bound() const {
    std::uint64_t bound = 0;
    for (std::size_t k = 0; k < params_.size(); ++k) {
        const core::GaParameters eff = core::resolve_parameters(presets_[k], params_[k]);
        const std::uint64_t evals = util::sat_mul_u64(eff.pop_size, std::uint64_t{eff.n_gens} + 1);
        const std::uint64_t per_eval = util::sat_add_u64(64, util::sat_mul_u64(8, eff.pop_size));
        bound = std::max<std::uint64_t>(
            bound, util::sat_add_u64(util::sat_mul_u64(evals, per_eval), 100'000ull));
    }
    return bound;
}

void BatchGateRunner::set_lane_preset(unsigned lane, std::uint8_t preset) {
    lane_at(lane);
    presets_[lane] = preset & 0x3;
}

std::uint8_t BatchGateRunner::lane_state(unsigned lane) const {
    lane_at(lane);
    return static_cast<std::uint8_t>(core_->word_value(core_src_->state, lane));
}

void BatchGateRunner::set_lane_sink(unsigned lane, trace::TraceSink* sink) {
    lane_at(lane);
    lane_sinks_[lane] = sink;
    tracing_ = std::any_of(lane_sinks_.begin(), lane_sinks_.end(),
                           [](const trace::TraceSink* s) { return s != nullptr; });
}

void BatchGateRunner::add_vcd(trace::VcdWriter* vcd, const std::vector<unsigned>& lanes_to_trace) {
    for (const unsigned lane : lanes_to_trace) {
        lane_at(lane);
        const std::string scope = "gates.lane" + std::to_string(lane);
        auto word = [this, lane](const Word& w) {
            const Word* pw = &w;  // stable: lives in *core_src_
            return [this, lane, pw] { return core_->word_value(*pw, lane); };
        };
        auto bit = [this, lane](Net n) {
            return [this, lane, n] { return core_->value(n, lane) ? std::uint64_t{1} : 0; };
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
    for (const Lane& l : lanes_) out.push_back(l.result);
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
    return static_cast<std::size_t>(std::count_if(lanes_.begin(), lanes_.end(), [](const Lane& l) {
        return !l.result.finished && !l.parked;
    }));
}

void BatchGateRunner::release_lanes() {
    for (Lane& l : lanes_) l.parked = false;
    stall_ = WordVec{};
}

bool BatchGateRunner::lane_bank(unsigned lane) const {
    lane_at(lane);
    return core_->value(core_src_->bank, lane);
}

std::uint32_t BatchGateRunner::peek_lane_mem(unsigned lane, std::uint8_t addr) const {
    lane_at(lane);
    return mem_[std::size_t{addr} * lanes_.size() + lane];
}

void BatchGateRunner::poke_lane_mem(unsigned lane, std::uint8_t addr, std::uint32_t word) {
    lane_at(lane);
    mem_[std::size_t{addr} * lanes_.size() + lane] = word;
}

Net BatchGateRunner::register_net(const std::string& name) const {
    for (const Net q : core_src_->nl.register_q_nets())
        if (core_src_->nl.name_of(q) == name) return q;
    throw std::invalid_argument("BatchGateRunner: the core has no register bit '" + name + "'");
}

void BatchGateRunner::flip_lane_register(unsigned lane, Net q) {
    lane_at(lane);
    core_->xor_register_word(q, lane / kWordBits, std::uint64_t{1} << (lane % kWordBits));
}

void BatchGateRunner::reset() {
    cycle_ = 0;
    stall_ = WordVec{};
    barrier_armed_ = false;
    barrier_gen_ = 0;
    inputs_quiet_ = false;
    mdi_w_ = {};
    fem_valid_w_ = {};
    fitv_w_ = {};
    mem_.assign(std::size_t{mem::kGaMemoryDepth} * lanes_.size(), 0);
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
        Lane fresh;
        fresh.program = std::move(lanes_[k].program);
        if (presets_[k] != 0) {
            // Preset lane: Table IV pins carry the run — no handshake,
            // start pulse scheduled immediately.
            fresh.init_done = true;
            fresh.init_done_traced = true;
            fresh.start_hold = 2;
        }
        lanes_[k] = std::move(fresh);
    }
    // Static pins: per-lane preset mode (user mode = 0), fitness slot 0.
    std::array<WordVec, 2> preset_w{};
    for (std::size_t k = 0; k < presets_.size(); ++k)
        for (unsigned j = 0; j < 2; ++j)
            if ((presets_[k] >> j) & 1u) preset_w[j][k / kWordBits] |= std::uint64_t{1} << (k % kWordBits);
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
    bool busy = false;
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
        const Lane& l = lanes_[k];
        const unsigned w = static_cast<unsigned>(k / kWordBits);
        const std::uint64_t bit = std::uint64_t{1} << (k % kWordBits);
        if (!l.init_done) {
            busy = true;
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
            busy = true;
            start_w[w] |= bit;
        }
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

void BatchGateRunner::answer_fem(unsigned word, std::uint64_t mask, const std::uint64_t* fields,
                                 unsigned shift) {
    // Look up the candidate of every lane in `mask` (bits shift..shift+15
    // of its transposed field word); each lookup is one evaluation.
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
        const unsigned k = static_cast<unsigned>(std::countr_zero(m));
        Lane& l = lanes_[word * kWordBits + k];
        l.fem_value = fitness::fitness_u16(fn_, static_cast<std::uint16_t>(fields[k] >> shift));
        ++l.result.evaluations;
    }
}

void BatchGateRunner::pack_fem(unsigned word, std::uint64_t valid) {
    // fit_value drive words of one lane word: the answered value in every
    // `valid` lane, zero elsewhere (scattered back by one transpose).
    std::uint64_t fv[kWordBits] = {};
    for (std::uint64_t m = valid; m != 0; m &= m - 1) {
        const unsigned k = static_cast<unsigned>(std::countr_zero(m));
        fv[k] = lanes_[word * kWordBits + k].fem_value;
    }
    util::transpose64(fv);
    for (unsigned j = 0; j < 16; ++j) fitv_w_[j][word] = fv[j];
}

std::size_t BatchGateRunner::step() {
    CompiledNetlist& c = *core_;
    CompiledNetlist& r = *rng_;
    const std::size_t n = lanes_.size();
    const bool same_cycle = timing_ == FemTiming::kSameCycle;

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
        for (unsigned w = 0; w < words_; ++w) {
            const std::uint64_t ans = fit_req_w[w] & ~stall_[w];
            if (ans == 0) continue;
            any_req = true;
            std::uint64_t cand[kWordBits] = {};
            for (unsigned j = 0; j < 16; ++j) cand[j] = c.read_word(h_.candidate[j], w);
            util::transpose64(cand);
            answer_fem(w, ans, cand, 0);
            pack_fem(w, ans);
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
    // One 64x64 transpose per word gathers every per-lane field the models
    // read into one word per lane: bits 0-7 mem_address, 8-39 mem_data_out,
    // 40-45 post-edge FSM state, 46-61 candidate. The combinational ones
    // still hold their pre-edge values here.
    const bool handshaking = !inputs_quiet_;
    std::size_t unfinished = 0;
    for (unsigned w = 0; w < words_ && std::size_t{w} * kWordBits < n; ++w) {
        const std::size_t base = std::size_t{w} * kWordBits;
        const unsigned width = static_cast<unsigned>(std::min<std::size_t>(kWordBits, n - base));
        const std::uint64_t parked = stall_[w];
        const std::uint64_t wr = mem_wr_w[w] & ~parked;
        // FEM: lanes answered this cycle. kNextCycle answers a request one
        // cycle after it rises and holds valid until it drops (valid next
        // cycle == request this cycle); parked lanes hold their FEM state.
        const std::uint64_t req = fit_req_w[w] & ~parked;
        const std::uint64_t valid = fem_valid_w_[w];
        const std::uint64_t answered = same_cycle ? req : req & ~valid;

        std::uint64_t f[kWordBits] = {};
        for (unsigned j = 0; j < 8; ++j) f[j] = c.read_word(h_.mem_address[j], w);
        if (wr != 0)
            for (unsigned j = 0; j < 32; ++j) f[8 + j] = c.read_word(h_.mem_data_out[j], w);
        if (same_cycle)
            for (unsigned j = 0; j < 6; ++j) f[40 + j] = c.read_word(h_.state[j], w);
        else if (answered != 0)
            for (unsigned j = 0; j < 16; ++j) f[46 + j] = c.read_word(h_.candidate[j], w);
        util::transpose64(f);

        if (!same_cycle) {
            const std::uint64_t next_valid = req | (valid & parked);
            if (answered != 0) answer_fem(w, answered, f, 46);
            if (answered != 0 || next_valid != valid) pack_fem(w, next_valid);
            fem_valid_w_[w] = next_valid;
        }
        const std::uint64_t ack = data_ack_w[w];
        const std::uint64_t done = ga_done_w[w];
        std::uint64_t dout[kWordBits] = {};

        for (unsigned k = 0; k < width; ++k) {
            const std::size_t i = base + k;
            Lane& l = lanes_[i];
            if ((parked >> k) & 1u) {
                // Frozen at the barrier: peripherals hold, telemetry edge
                // detectors hold, the lane just accrues stall time.
                ++l.stall_cycles;
                dout[k] = l.mem_dout;
                if (!l.result.finished) ++unfinished;
                continue;
            }
            trace::TraceSink* sink = tracing_ ? lane_sinks_[i] : nullptr;
            const bool ack_k = (ack >> k) & 1u;

            if (sink != nullptr && ack_k && !l.prev_ack) {
                const auto& [idx, val] = l.program[l.init_item];
                sink->on_event(lane_event(trace::kind::kInitWrite, cycle_)
                                   .add("index", static_cast<std::uint64_t>(idx))
                                   .add("value", static_cast<std::uint64_t>(val)));
            }
            l.prev_ack = ack_k;

            // GA memory (write-first synchronous RAM).
            std::uint32_t& cell = mem_[static_cast<std::uint8_t>(f[k]) * n + i];
            if ((wr >> k) & 1u) cell = static_cast<std::uint32_t>(f[k] >> 8);
            l.mem_dout = cell;
            dout[k] = cell;

            if (sink != nullptr && ((answered >> k) & 1u)) {
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
                if (!l.started && !same_cycle) {
                    l.started = true;
                    l.start_cycle = cycle_;
                }
                --l.start_hold;
            }
            const auto state = static_cast<std::uint8_t>((f[k] >> 40) & 0x3F);
            if (same_cycle && !l.started && state == kStartState) {
                l.started = true;
                l.start_cycle = cycle_;
            }

            const bool pulse = (mon_pulse_w[w] >> k) & 1u;
            const bool bank = (mon_bank_w[w] >> k) & 1u;
            if (sink != nullptr) {
                if (l.init_done && !l.init_done_traced) {
                    l.init_done_traced = true;
                    sink->on_event(lane_event(trace::kind::kInitDone, cycle_));
                }
                if (l.started && !l.start_traced) {
                    l.start_traced = true;
                    sink->on_event(lane_event(trace::kind::kStart, cycle_));
                }
                const unsigned lane = static_cast<unsigned>(i);
                if (pulse && !l.prev_pulse) {
                    sink->on_event(lane_event(trace::kind::kGeneration, cycle_)
                                       .add("gen", c.word_value(core_src_->mon_gen_id, lane))
                                       .add("best_fit", c.word_value(core_src_->mon_best_fit, lane))
                                       .add("best_ind", c.word_value(core_src_->mon_best_ind, lane))
                                       .add("fit_sum", c.word_value(core_src_->mon_fit_sum, lane))
                                       .add("pop", c.word_value(core_src_->mon_pop_size, lane))
                                       .add("bank", std::uint64_t{bank}));
                }
                if (bank != l.prev_bank)
                    sink->on_event(lane_event(trace::kind::kBankSwap, cycle_)
                                       .add("bank", std::uint64_t{bank}));
            }
            // Barrier park: the pulse rise IS the monitor capture edge (E2
            // of the boundary), so gating the lane from the next cycle on
            // freezes it after the pre-migration snapshot and before the
            // elite write reaches the other bank — the exact window the RTL
            // island driver pokes GaMemory in.
            if (barrier_armed_ && !l.result.finished && pulse && !l.prev_pulse &&
                c.word_value(core_src_->mon_gen_id, static_cast<unsigned>(i)) == barrier_gen_) {
                l.parked = true;
                stall_[w] |= std::uint64_t{1} << k;
            }
            l.prev_pulse = pulse;
            l.prev_bank = bank;

            // Completion: kNextCycle = the first GA_done after the start
            // pulse; kSameCycle = the first post-edge kDone after kStart.
            if (!l.result.finished) {
                const bool finished = same_cycle ? state == kDoneState : ((done >> k) & 1u) != 0;
                if (l.started && finished) {
                    const unsigned lane = static_cast<unsigned>(i);
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
                                .add("best_ind",
                                     static_cast<std::uint64_t>(l.result.best_candidate))
                                .add("gen", static_cast<std::uint64_t>(l.result.generations)));
                } else {
                    ++unfinished;
                }
            }
        }
        // Transposed read data -> next cycle's mem_data_in drive.
        util::transpose64(dout);
        for (unsigned j = 0; j < 32; ++j) mdi_w_[j][w] = dout[j];
    }
    if (vcd_ != nullptr) vcd_->sample(cycle_ * 20'000);
    return unfinished;
}

}  // namespace gaip::gates
