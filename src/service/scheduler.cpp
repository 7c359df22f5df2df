#include "service/scheduler.hpp"

#include <algorithm>
#include <atomic>

#include "gates/batch_runner.hpp"
#include "core/behavioral.hpp"
#include "island/island.hpp"
#include "island/supervised.hpp"
#include "supervisor/supervisor.hpp"
#include "system/ga_system.hpp"
#include "trace/jsonl.hpp"

namespace gaip::service {

namespace {

supervisor::BackendKind to_supervisor_backend(JobBackend b) noexcept {
    switch (b) {
        case JobBackend::kRtl: return supervisor::BackendKind::kRtl;
        case JobBackend::kBehavioral: return supervisor::BackendKind::kBehavioral;
        case JobBackend::kGates: return supervisor::BackendKind::kGateLane;
    }
    return supervisor::BackendKind::kBehavioral;
}

bool is_terminal(JobState s) noexcept {
    return s != JobState::kQueued && s != JobState::kRunning;
}

/// Gate jobs are packable when nothing job-specific escapes the lane:
/// plain single-engine, unsupervised runs.
bool batchable(const JobSpec& s) noexcept {
    return s.backend == JobBackend::kGates && s.islands == 0 && !s.supervise;
}

}  // namespace

/// One tracked job. Doubles as the job's live-stream hub: engines emit
/// trace events into it and it fans out to every attached client sink
/// (zero-cost when nobody subscribed — the emit sites check streaming()).
struct Scheduler::Job final : trace::TraceSink {
    JobRecord rec;
    Clock::time_point deadline{};  ///< zero when the job has none
    std::atomic<bool> cancel{false};

    std::mutex stream_mu;
    std::vector<trace::TraceSink*> sinks;
    std::vector<std::function<void(const JobRecord&)>> end_cbs;
    std::atomic<unsigned> sink_count{0};
    bool ended = false;  ///< end callbacks fired (guarded by stream_mu)

    bool streaming() const noexcept {
        return sink_count.load(std::memory_order_relaxed) != 0;
    }

    void on_event(const trace::TraceEvent& e) override {
        if (!streaming()) return;
        std::lock_guard<std::mutex> lk(stream_mu);
        for (trace::TraceSink* s : sinks) s->on_event(e);
    }
};

Scheduler::Scheduler(SchedulerConfig cfg) : cfg_(cfg), started_(Clock::now()) {
    if (cfg_.workers == 0) cfg_.workers = 1;
    cfg_.max_batch_lanes =
        std::clamp<unsigned>(cfg_.max_batch_lanes, 1, gates::BatchGateRunner::kMaxLanes);
    runner_cache_.resize(cfg_.workers);
    workers_.reserve(cfg_.workers);
    for (unsigned w = 0; w < cfg_.workers; ++w)
        workers_.emplace_back([this, w] { worker_main(w); });
}

Scheduler::~Scheduler() { stop(); }

bool Scheduler::past_deadline(const JobPtr& j) const {
    return j->deadline != Clock::time_point{} && Clock::now() > j->deadline;
}

void Scheduler::emit_metric(trace::TraceEvent e) {
    if (cfg_.metrics == nullptr) return;
    std::lock_guard<std::mutex> lk(metrics_mu_);
    cfg_.metrics->on_event(e);
    cfg_.metrics->flush();
}

std::uint64_t Scheduler::submit(const JobSpec& spec) {
    JobPtr j;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_ || draining_)
            throw ProtocolError(err::kShuttingDown,
                                draining_ ? "daemon is draining" : "daemon is shutting down");
        if (queue_.size() >= cfg_.max_queue) {
            ++counters_.rejected;
            trace::TraceEvent e("job_reject", 0, 0);
            e.add("queued", std::uint64_t{queue_.size()});
            emit_metric(std::move(e));
            throw ProtocolError(err::kQueueFull,
                                "queue full (" + std::to_string(cfg_.max_queue) + " jobs)");
        }
        j = std::make_shared<Job>();
        j->rec.id = next_id_++;
        j->rec.spec = spec;
        j->rec.submitted = Clock::now();
        if (spec.deadline_ms != 0)
            j->deadline = j->rec.submitted + std::chrono::milliseconds(spec.deadline_ms);
        // Write-ahead: the journal record lands before the job can run (or
        // be acknowledged), so a crash never loses an accepted job.
        if (cfg_.journal != nullptr) cfg_.journal->record_submit(j->rec);
        jobs_[j->rec.id] = j;
        queue_.push_back(j);
        ++counters_.submitted;
    }
    cv_.notify_one();
    trace::TraceEvent e("job_submit", 0, 0);
    e.add("id", j->rec.id);
    e.add("fitness", fitness::fitness_name(spec.fn));
    e.add("backend", job_backend_name(spec.backend));
    if (spec.islands != 0) e.add("islands", std::uint64_t{spec.islands});
    if (spec.supervise) e.add("supervise", std::uint64_t{1});
    emit_metric(std::move(e));
    return j->rec.id;
}

CancelOutcome Scheduler::cancel(std::uint64_t id) {
    JobPtr queued_victim;
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end()) return CancelOutcome::kNotFound;
        JobPtr j = it->second;
        if (is_terminal(j->rec.state)) return CancelOutcome::kTooLate;
        j->cancel.store(true, std::memory_order_relaxed);
        if (j->rec.state == JobState::kQueued) {
            queue_.erase(std::remove(queue_.begin(), queue_.end(), j), queue_.end());
            queued_victim = std::move(j);
        }
    }
    if (queued_victim) finish(queued_victim, JobState::kCancelled, {});
    return CancelOutcome::kCancelled;
}

std::optional<JobRecord> Scheduler::status(std::uint64_t id) const {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    return it->second->rec;
}

std::vector<JobRecord> Scheduler::list() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<JobRecord> out;
    out.reserve(jobs_.size());
    for (const auto& [id, j] : jobs_) out.push_back(j->rec);
    std::sort(out.begin(), out.end(),
              [](const JobRecord& a, const JobRecord& b) { return a.id < b.id; });
    return out;
}

void Scheduler::restore_terminal(const JobRecord& rec) {
    std::lock_guard<std::mutex> lk(mu_);
    auto j = std::make_shared<Job>();
    j->rec = rec;
    {
        std::lock_guard<std::mutex> slk(j->stream_mu);
        j->ended = true;
    }
    jobs_[rec.id] = std::move(j);
    next_id_ = std::max(next_id_, rec.id + 1);
    ++counters_.restored;
}

void Scheduler::readmit(const JobRecord& rec) {
    JobPtr j;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_ || draining_) return;
        j = std::make_shared<Job>();
        j->rec.id = rec.id;
        j->rec.spec = rec.spec;
        j->rec.state = JobState::kQueued;
        j->rec.submitted = Clock::now();
        if (rec.spec.deadline_ms != 0)
            j->deadline = j->rec.submitted + std::chrono::milliseconds(rec.spec.deadline_ms);
        jobs_[j->rec.id] = j;
        queue_.push_back(j);
        next_id_ = std::max(next_id_, rec.id + 1);
        ++counters_.submitted;
        ++counters_.readmitted;
    }
    cv_.notify_one();
    trace::TraceEvent e("job_readmit", 0, 0);
    e.add("id", rec.id);
    e.add("backend", job_backend_name(rec.spec.backend));
    emit_metric(std::move(e));
}

void Scheduler::begin_drain() {
    {
        std::lock_guard<std::mutex> lk(mu_);
        draining_ = true;
    }
    cv_.notify_all();
}

bool Scheduler::draining() const {
    std::lock_guard<std::mutex> lk(mu_);
    return draining_;
}

void Scheduler::wait_drained() {
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [&] { return active_ == 0; });
}

std::size_t Scheduler::queue_depth() const {
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size();
}

std::uint64_t Scheduler::next_id() const {
    std::lock_guard<std::mutex> lk(mu_);
    return next_id_;
}

ServiceStats Scheduler::stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    ServiceStats s = counters_;
    s.queued = queue_.size();
    s.running = active_;
    s.uptime_s = std::chrono::duration<double>(Clock::now() - started_).count();
    return s;
}

bool Scheduler::attach_stream(std::uint64_t id, trace::TraceSink* sink,
                              std::function<void(const JobRecord&)> on_end) {
    JobPtr j;
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end()) throw ProtocolError(err::kNotFound, "no such job");
        j = it->second;
    }
    std::lock_guard<std::mutex> lk(j->stream_mu);
    if (j->ended) return false;
    if (sink != nullptr) {
        j->sinks.push_back(sink);
        j->sink_count.store(static_cast<unsigned>(j->sinks.size()), std::memory_order_relaxed);
    }
    if (on_end) j->end_cbs.push_back(std::move(on_end));
    return true;
}

void Scheduler::detach_stream(std::uint64_t id, trace::TraceSink* sink) {
    JobPtr j;
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end()) return;
        j = it->second;
    }
    std::lock_guard<std::mutex> lk(j->stream_mu);
    j->sinks.erase(std::remove(j->sinks.begin(), j->sinks.end(), sink), j->sinks.end());
    j->sink_count.store(static_cast<unsigned>(j->sinks.size()), std::memory_order_relaxed);
}

std::size_t Scheduler::expire_overdue() {
    std::vector<JobPtr> victims;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (auto it = queue_.begin(); it != queue_.end();) {
            const JobPtr& j = *it;
            if (j->deadline != Clock::time_point{} && Clock::now() > j->deadline) {
                victims.push_back(j);
                it = queue_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const JobPtr& j : victims) finish(j, JobState::kExpired, {});
    return victims.size();
}

void Scheduler::wait_idle() {
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [&] { return queue_.empty() && active_ == 0; });
}

void Scheduler::stop() {
    std::vector<JobPtr> orphans;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_ && workers_.empty()) return;
        stopping_ = true;
        if (!draining_) {
            // Drain mode preserves queued jobs: they stay journaled as
            // pending and are recovered (re-admitted) on the next boot.
            orphans.assign(queue_.begin(), queue_.end());
            queue_.clear();
            for (const auto& [id, j] : jobs_)
                if (j->rec.state == JobState::kRunning)
                    j->cancel.store(true, std::memory_order_relaxed);
        }
    }
    cv_.notify_all();
    for (const JobPtr& j : orphans) finish(j, JobState::kCancelled, {});
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    idle_cv_.notify_all();
}

void Scheduler::finish(const JobPtr& j, JobState state, const JobOutcome& outcome,
                       const std::string& error) {
    JobRecord snapshot;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (is_terminal(j->rec.state)) return;
        j->rec.state = state;
        j->rec.outcome = outcome;
        j->rec.error = error;
        j->rec.finished = Clock::now();
        if (j->rec.started == Clock::time_point{}) j->rec.started = j->rec.finished;
        switch (state) {
            case JobState::kDone: {
                ++counters_.done;
                counters_.gens_total += outcome.generations;
                counters_.evals_total += outcome.evaluations;
                counters_.rollbacks_total += outcome.rollbacks;
                switch (j->rec.spec.backend) {
                    case JobBackend::kRtl: ++counters_.done_rtl; break;
                    case JobBackend::kBehavioral: ++counters_.done_behavioral; break;
                    case JobBackend::kGates: ++counters_.done_gates; break;
                }
                if (j->rec.spec.islands != 0) ++counters_.done_islands;
                if (j->rec.spec.supervise) ++counters_.done_supervised;
                break;
            }
            case JobState::kFailed: ++counters_.failed; break;
            case JobState::kCancelled: ++counters_.cancelled; break;
            case JobState::kExpired:
                ++counters_.expired;
                ++counters_.deadline_misses;
                break;
            default: break;
        }
        // Write-ahead: the terminal record is durable before the end
        // callbacks (and thus any client-visible ack) can observe it.
        if (cfg_.journal != nullptr) cfg_.journal->record_terminal(j->rec);
        snapshot = j->rec;
    }
    const char* metric_kind = "job_done";
    if (state == JobState::kFailed) metric_kind = "job_fail";
    if (state == JobState::kCancelled) metric_kind = "job_cancel";
    if (state == JobState::kExpired) metric_kind = "job_expire";
    trace::TraceEvent e(metric_kind, 0, 0);
    e.add("id", snapshot.id);
    e.add("backend", job_backend_name(snapshot.spec.backend));
    if (state == JobState::kDone) {
        e.add("best_fitness", std::uint64_t{outcome.best_fitness});
        e.add("generations", std::uint64_t{outcome.generations});
        if (!outcome.status.empty()) e.add("status", outcome.status);
    }
    if (!error.empty()) e.add("error", error);
    emit_metric(std::move(e));

    std::vector<std::function<void(const JobRecord&)>> cbs;
    {
        std::lock_guard<std::mutex> lk(j->stream_mu);
        j->ended = true;
        cbs.swap(j->end_cbs);
        j->sinks.clear();
        j->sink_count.store(0, std::memory_order_relaxed);
    }
    for (auto& cb : cbs) cb(snapshot);
}

void Scheduler::worker_main(unsigned worker_idx) {
    for (;;) {
        std::vector<JobPtr> batch;
        JobPtr single;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [&] { return stopping_ || draining_ || !queue_.empty(); });
            // Drain: leave queued jobs where they are (journaled pending).
            if (stopping_ || draining_) return;
            if (queue_.empty()) continue;
            JobPtr j = queue_.front();
            queue_.pop_front();
            if (batchable(j->rec.spec)) {
                batch.push_back(j);
                // Pack more queued gates jobs running the same fitness
                // function into this lane block (queue order preserved for
                // the rest).
                for (auto it = queue_.begin();
                     it != queue_.end() && batch.size() < cfg_.max_batch_lanes;) {
                    if (batchable((*it)->rec.spec) && (*it)->rec.spec.fn == j->rec.spec.fn) {
                        batch.push_back(*it);
                        it = queue_.erase(it);
                    } else {
                        ++it;
                    }
                }
            } else {
                single = j;
            }
            const std::size_t taken = batch.size() + (single ? 1 : 0);
            active_ += taken;
            const auto now = Clock::now();
            for (const JobPtr& t : batch) {
                t->rec.state = JobState::kRunning;
                t->rec.started = now;
                if (cfg_.journal != nullptr) cfg_.journal->record_start(t->rec.id);
            }
            if (single) {
                single->rec.state = JobState::kRunning;
                single->rec.started = now;
                if (cfg_.journal != nullptr) cfg_.journal->record_start(single->rec.id);
            }
        }
        const auto start_metric = [&](const JobPtr& t) {
            trace::TraceEvent e("job_start", 0, 0);
            e.add("id", t->rec.id);
            e.add("backend", job_backend_name(t->rec.spec.backend));
            emit_metric(std::move(e));
        };
        for (const JobPtr& t : batch) start_metric(t);
        if (single) start_metric(single);

        if (!batch.empty()) {
            const std::size_t n = batch.size();
            run_gate_batch(std::move(batch), worker_idx);
            std::lock_guard<std::mutex> lk(mu_);
            active_ -= n;
            if (active_ == 0) idle_cv_.notify_all();  // wait_idle / wait_drained
        }
        if (single) {
            run_single(single, worker_idx);
            std::lock_guard<std::mutex> lk(mu_);
            active_ -= 1;
            if (active_ == 0) idle_cv_.notify_all();
        }
    }
}

void Scheduler::run_single(const JobPtr& j, unsigned worker_idx) {
    try {
        if (j->cancel.load(std::memory_order_relaxed)) {
            finish(j, JobState::kCancelled, {});
            return;
        }
        if (past_deadline(j)) {
            finish(j, JobState::kExpired, {});
            return;
        }
        if (j->rec.spec.islands > 0) {
            run_island_job(j);
        } else if (j->rec.spec.supervise) {
            run_supervised_job(j);
        } else if (j->rec.spec.backend == JobBackend::kBehavioral) {
            run_behavioral_job(j);
        } else if (j->rec.spec.backend == JobBackend::kRtl) {
            run_rtl_job(j);
        } else {
            // Defensive: a gates job that bypassed the packing path runs
            // as a one-lane batch on this worker's cached runner.
            std::vector<JobPtr> batch{j};
            run_gate_batch(std::move(batch), worker_idx);
        }
    } catch (const std::exception& ex) {
        finish(j, JobState::kFailed, {}, ex.what());
    }
}

void Scheduler::run_behavioral_job(const JobPtr& j) {
    const JobSpec& spec = j->rec.spec;
    const fitness::FitnessId fn = spec.fn;
    core::BehavioralEngine eng(
        spec.params, [fn](std::uint16_t c) { return fitness::fitness_u16(fn, c); },
        prng::RngKind::kCellularAutomaton, /*keep_populations=*/false);
    while (!eng.done()) {
        if (j->cancel.load(std::memory_order_relaxed)) {
            finish(j, JobState::kCancelled, {});
            return;
        }
        if (past_deadline(j)) {
            finish(j, JobState::kExpired, {});
            return;
        }
        eng.step_generation();
        if (j->streaming()) {
            trace::TraceEvent e(trace::kind::kGeneration, 0, 0);
            e.add("gen", std::uint64_t{eng.generation()});
            e.add("best_fit", std::uint64_t{eng.best_fitness()});
            e.add("best_ind", std::uint64_t{eng.best_candidate()});
            j->on_event(e);
        }
    }
    JobOutcome out;
    out.best_fitness = eng.best_fitness();
    out.best_candidate = eng.best_candidate();
    out.generations = eng.generation();
    out.evaluations = eng.evaluations();
    if (j->streaming()) {
        trace::TraceEvent e(trace::kind::kDone, 0, 0);
        e.add("best_fit", std::uint64_t{out.best_fitness});
        e.add("best_ind", std::uint64_t{out.best_candidate});
        j->on_event(e);
    }
    finish(j, past_deadline(j) ? JobState::kExpired : JobState::kDone, out);
}

void Scheduler::run_rtl_job(const JobPtr& j) {
    const JobSpec& spec = j->rec.spec;
    system::GaSystemConfig cfg;
    cfg.params = spec.params;
    cfg.internal_fems = {spec.fn};
    cfg.fitfunc_select = 0;
    cfg.keep_populations = false;
    cfg.trace_sink = j.get();
    const core::RunResult r = system::run_ga_system(cfg);
    JobOutcome out;
    out.best_fitness = r.best_fitness;
    out.best_candidate = r.best_candidate;
    out.generations = spec.params.n_gens;
    out.evaluations = r.evaluations;
    if (j->cancel.load(std::memory_order_relaxed)) {
        finish(j, JobState::kCancelled, {});  // arrived mid-run; result discarded
    } else {
        finish(j, past_deadline(j) ? JobState::kExpired : JobState::kDone, out);
    }
}

void Scheduler::run_island_job(const JobPtr& j) {
    const JobSpec& spec = j->rec.spec;
    island::IslandConfig ic;
    ic.fn = spec.fn;
    ic.base = spec.params;
    ic.islands = spec.islands;
    ic.topology = spec.topology;
    ic.migration = spec.migration;
    ic.backend = to_supervisor_backend(spec.backend);
    ic.gate_backend = cfg_.gate_backend;
    ic.words = spec.words;
    ic.sink = j.get();
    JobOutcome out;
    if (spec.supervise) {
        island::SupervisedIslandConfig sc;
        sc.islands = ic;
        sc.sink = j.get();
        island::SupervisedIslandSystem sys(sc);
        const island::SupervisedIslandReport rep = sys.run();
        out.best_fitness = rep.best_fitness;
        out.best_candidate = rep.best_candidate;
        out.generations = spec.params.n_gens;
        out.rollbacks = rep.rollbacks;
        out.status = supervisor::status_name(rep.status);
        for (const island::IslandStats& is : rep.result.islands) out.evaluations += is.evaluations;
        if (rep.status == supervisor::Status::kAborted) {
            finish(j, JobState::kFailed, out, "supervisor abort: " + rep.abort_reason);
            return;
        }
    } else {
        const island::IslandResult r = island::run_island_system(ic);
        out.best_fitness = r.best_fitness;
        out.best_candidate = r.best_candidate;
        out.generations = spec.params.n_gens;
        for (const island::IslandStats& is : r.islands) out.evaluations += is.evaluations;
    }
    if (j->cancel.load(std::memory_order_relaxed)) {
        finish(j, JobState::kCancelled, {});
    } else {
        finish(j, past_deadline(j) ? JobState::kExpired : JobState::kDone, out);
    }
}

void Scheduler::run_supervised_job(const JobPtr& j) {
    const JobSpec& spec = j->rec.spec;
    supervisor::SupervisorConfig sc;
    sc.fn = spec.fn;
    sc.params = spec.params;
    sc.backend = to_supervisor_backend(spec.backend);
    sc.sink = j.get();
    supervisor::MissionSupervisor sup(sc);
    const supervisor::SupervisorReport rep = sup.run();
    JobOutcome out;
    out.best_fitness = rep.best_fitness;
    out.best_candidate = rep.best_candidate;
    out.generations = rep.generations;
    out.rollbacks = rep.rollbacks;
    out.retries = rep.retries;
    out.status = supervisor::status_name(rep.status);
    if (rep.status == supervisor::Status::kAborted) {
        finish(j, JobState::kFailed, out, "supervisor abort: " + rep.abort_reason);
        return;
    }
    if (j->cancel.load(std::memory_order_relaxed)) {
        finish(j, JobState::kCancelled, {});
    } else {
        finish(j, past_deadline(j) ? JobState::kExpired : JobState::kDone, out);
    }
}

void Scheduler::run_gate_batch(std::vector<JobPtr> batch, unsigned worker_idx) {
    // Lane-block width: honor the largest per-job hint, then grow to fit
    // the packed lane count.
    unsigned words = 1;
    for (const JobPtr& j : batch) words = std::max(words, j->rec.spec.words);
    while (std::size_t{words} * gates::BatchGateRunner::kWordBits < batch.size()) words *= 2;

    std::vector<core::GaParameters> lane_params;
    lane_params.reserve(batch.size());
    for (const JobPtr& j : batch) lane_params.push_back(j->rec.spec.params);
    const fitness::FitnessId fn = batch.front()->rec.spec.fn;

    try {
        auto& cache = runner_cache_[worker_idx];
        auto it = cache.find(words);
        if (it == cache.end()) {
            it = cache
                     .emplace(words, std::make_unique<gates::BatchGateRunner>(
                                         fn, lane_params, words, cfg_.gate_backend))
                     .first;
        } else {
            it->second->reconfigure(fn, lane_params);
        }
        gates::BatchGateRunner& runner = *it->second;
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++counters_.gate_batches;
            counters_.gate_lanes += batch.size();
        }
        for (std::size_t k = 0; k < batch.size(); ++k)
            runner.set_lane_sink(static_cast<unsigned>(k), batch[k].get());

        const std::uint64_t bound = runner.default_cycle_bound();
        constexpr std::uint64_t kCheckMask = 2047;  // cancel/deadline window
        runner.begin_run();
        std::size_t pending = batch.size();
        while (pending > 0 && runner.cycles() < bound) {
            pending = runner.step_cycle();
            if ((runner.cycles() & kCheckMask) == 0) {
                bool any_live = false;
                for (const JobPtr& j : batch)
                    if (!j->cancel.load(std::memory_order_relaxed) && !past_deadline(j)) {
                        any_live = true;
                        break;
                    }
                if (!any_live) break;
            }
        }
        {
            std::lock_guard<std::mutex> lk(mu_);
            counters_.gate_lane_cycles += runner.cycles() * batch.size();
            counters_.gate_open_lane_cycles += runner.usage().open_lane_cycles;
        }
        for (std::size_t k = 0; k < batch.size(); ++k) {
            const JobPtr& j = batch[k];
            if (j->cancel.load(std::memory_order_relaxed)) {
                finish(j, JobState::kCancelled, {});
                continue;
            }
            if (past_deadline(j)) {
                finish(j, JobState::kExpired, {});
                continue;
            }
            const gates::BatchLaneResult& lr = runner.lane_result(static_cast<unsigned>(k));
            if (!lr.finished) {
                finish(j, JobState::kFailed, {}, "lane did not finish within the cycle bound");
                continue;
            }
            JobOutcome out;
            out.best_fitness = lr.best_fitness;
            out.best_candidate = lr.best_candidate;
            out.generations = lr.generations;
            out.evaluations = lr.evaluations;
            finish(j, JobState::kDone, out);
        }
    } catch (const std::exception& ex) {
        for (const JobPtr& j : batch) finish(j, JobState::kFailed, {}, ex.what());
    }
}

}  // namespace gaip::service
