// gaipd_mixed: an in-process gaipd Daemon (2 scheduler workers) driven over
// its real Unix socket by a closed-loop load generator that keeps kWindow
// jobs in flight: a job mix drawn from the seed — gates jobs over several
// fitness functions (so lane packing varies), rtl, behavioral, island and
// supervised jobs — submitted in schedule order until the measured time is
// used up, then drained.
//
// Load comes from this process over two connections: a submitter thread
// calls Client::submit on connection A whenever fewer than kWindow jobs are
// in flight, then subscribes the job with a `stream` frame on connection B,
// whose reader thread sees each job's per-generation events and its
// stream_end (the result). Latency runs from the submit call to the
// stream_end.
//
// Queue wait and run time come from a benchmark-owned metrics sink: the
// daemon's metrics JSONL goes to a FIFO whose reader timestamps every
// job_submit / job_start / job_done line on arrival.
//
// The measured load runs without the write-ahead journal: every job waits on
// three fdatasync'd journal appends, and on a shared host their latency
// swings by an order of magnitude between runs, which swamps the daemon's
// own cost. Traced runs add a third pass with the journal on and report it
// per layer (service.journal_*), beside a standalone append probe.
#include <sys/stat.h>
#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>

#include "common.hpp"
#include "island/island.hpp"
#include "service/client.hpp"
#include "service/journal.hpp"
#include "service/server.hpp"
#include "supervisor/supervisor.hpp"
#include "trace/jsonl.hpp"

namespace perfbench {
namespace {

using service::JobBackend;
using service::JobSpec;

constexpr unsigned kWorkers = 2;
/// Jobs in flight: enough to keep both workers busy with more queued behind
/// them, so gates jobs of one fitness function can be packed into a batch.
constexpr std::size_t kWindow = 8;
constexpr std::size_t kWarmJobs = 10;
constexpr int kSetupReps = 51;
constexpr std::chrono::milliseconds kSetupPause{20};
/// Upper bound on jobs one run can submit (the schedule is drawn up front).
constexpr std::size_t kMaxJobsPerSecond = 2000;
/// Jobs per unit of the cross-run repeat check.
constexpr std::size_t kUnitJobs = 250;

enum class JobClass { kGates, kRtl, kBehavioral, kIslands, kSupervised };
constexpr const char* kClassNames[] = {"gates", "rtl", "behavioral", "islands", "supervised"};

struct Planned {
    JobClass cls = JobClass::kGates;
    JobSpec spec;
};

/// Job classes of one 40-job block of the schedule. The repository has no
/// record of real gaipd traffic, so the mix is synthetic: every class gets
/// the same share (8 of 40). The order within a block is shuffled by the
/// seed, so seeds differ in order, fitness functions and GA seeds but not in
/// the mix or the job sizes.
constexpr std::size_t kMixBlock = 40;
constexpr std::array<std::size_t, 5> kMixCounts = {8, 8, 8, 8, 8};

/// Every job is the service throughput bench's spec (bench/
/// bench_service_throughput.cpp: pop 16 x 12 generations, XR 10, mutation
/// 1) on one of three fitness functions, so gates jobs of one function can
/// be packed into a lane batch. Island jobs use two islands of that spec
/// with the island scaling bench's migration (every 4 generations, 2
/// emigrants).
Planned draw_job(Rng& g, JobClass cls) {
    Planned j;
    JobSpec& s = j.spec;
    j.cls = cls;
    constexpr fitness::FitnessId kFns[] = {fitness::FitnessId::kMBf6_2, fitness::FitnessId::kOneMax,
                                           fitness::FitnessId::kRoyalRoad};
    s.fn = kFns[g.range(0, 2)];
    s.params.pop_size = 16;
    s.params.n_gens = 12;
    s.params.xover_threshold = 10;
    s.params.mut_threshold = 1;
    s.params.seed = g.seed16();
    switch (j.cls) {
        case JobClass::kGates: s.backend = JobBackend::kGates; break;
        case JobClass::kRtl: s.backend = JobBackend::kRtl; break;
        case JobClass::kBehavioral: s.backend = JobBackend::kBehavioral; break;
        case JobClass::kIslands:
            s.backend = JobBackend::kRtl;
            s.islands = 2;
            s.topology = g.range(0, 1) ? island::Topology::kRing : island::Topology::kStar;
            s.migration.interval = 4;
            s.migration.count = 2;
            s.migration.mig_seed = g.seed16();
            break;
        case JobClass::kSupervised:
            s.backend = JobBackend::kRtl;
            s.supervise = true;
            break;
    }
    return j;
}

std::vector<Planned> schedule(std::uint64_t seed, std::size_t n) {
    Rng g(seed, 6000);
    std::vector<Planned> jobs;
    std::vector<JobClass> mix;
    for (std::size_t i = 0; i < n; ++i) {
        if (i % kMixBlock == 0) {
            mix.clear();
            for (std::size_t c = 0; c < kMixCounts.size(); ++c)
                mix.insert(mix.end(), kMixCounts[c], static_cast<JobClass>(c));
            for (std::size_t k = mix.size() - 1; k > 0; --k) std::swap(mix[k], mix[g.range(0, k)]);
        }
        jobs.push_back(draw_job(g, mix[i % kMixBlock]));
    }
    return jobs;
}

/// What the client saw of one job.
struct Seen {
    std::uint64_t id = 0;
    Clock::time_point submitted{}, result{};
    double submit_rpc_ms = 0;
    bool delivered = false;
    std::string state;
    std::uint64_t best_fitness = 0, best_candidate = 0, generations = 0;
};

/// The benchmark-owned metrics sink: reads the daemon's metrics FIFO and
/// timestamps each line on arrival (parsing waits until the run is over).
class MetricsTap {
public:
    explicit MetricsTap(std::string fifo) : fifo_(std::move(fifo)) {
        if (::mkfifo(fifo_.c_str(), 0600) != 0)
            throw std::runtime_error("mkfifo " + fifo_ + " failed");
        thread_ = std::thread([this] {
            std::FILE* f = std::fopen(fifo_.c_str(), "r");  // blocks until the daemon opens it
            if (f == nullptr) return;
            char buf[4096];
            while (std::fgets(buf, sizeof(buf), f) != nullptr)
                lines_.emplace_back(Clock::now(), buf);
            std::fclose(f);
        });
    }
    /// Release the reader when the daemon never opened the FIFO.
    void abandon() {
        const int fd = ::open(fifo_.c_str(), O_WRONLY | O_NONBLOCK);
        if (fd >= 0) ::close(fd);
    }
    /// Wait for EOF (the daemon closed its end) and return the lines.
    std::vector<std::pair<Clock::time_point, std::string>> finish() {
        if (thread_.joinable()) thread_.join();
        return std::move(lines_);
    }
    ~MetricsTap() {
        if (thread_.joinable()) {
            abandon();
            thread_.join();
        }
    }

private:
    std::string fifo_;
    std::thread thread_;
    std::vector<std::pair<Clock::time_point, std::string>> lines_;
};

struct Instance {
    std::string dir;
    std::unique_ptr<MetricsTap> tap;  // declared first: outlives the daemon
    std::unique_ptr<service::Daemon> daemon;
    std::string socket;
    double setup_s = 0;
};

/// Start a daemon in `dir` and wait until it answers a ping: the set-up a
/// user pays. A daemon that will carry load (`load`) also writes its metrics
/// to the benchmark's sink and then runs kWarmJobs warm-up jobs (two of every
/// class), both outside the set-up time: opening the sink's FIFO waits for
/// the reader thread, which is the benchmark's cost, not the daemon's.
Instance start_daemon(const std::string& dir, std::uint64_t seed, bool journal, bool load) {
    Instance in;
    in.dir = dir;
    std::filesystem::create_directories(dir);
    in.socket = dir + "/gaipd.sock";
    service::ServerConfig cfg;
    cfg.socket_path = in.socket;
    if (load) {
        in.tap = std::make_unique<MetricsTap>(dir + "/metrics.fifo");
        cfg.metrics_path = dir + "/metrics.fifo";
    }
    if (journal) cfg.journal_dir = dir + "/journal";
    cfg.scheduler.workers = kWorkers;
    try {
        Span s(SpanId::kSetup);
        const Clock::time_point t0 = Clock::now();
        {
            Span ds(SpanId::kServiceDaemonStart);
            in.daemon = std::make_unique<service::Daemon>(cfg);
        }
        if (!service::ping_wait(in.socket, 10.0)) throw std::runtime_error("gaipd: no ping answer");
        in.setup_s = seconds_since(t0);
    } catch (...) {
        if (in.tap) in.tap->abandon();
        throw;
    }
    if (!load) return in;
    service::Client c(in.socket);
    Rng g(seed, 6001);
    for (std::size_t i = 0; i < kWarmJobs; ++i) {
        const Planned j = draw_job(g, static_cast<JobClass>(i % kMixCounts.size()));
        const auto end = c.run_job(j.spec);
        if (end.str("state") != "done") throw std::runtime_error("gaipd: warm-up job failed");
    }
    return in;
}

struct Phase {
    std::vector<Seen> seen;     ///< by schedule index; the first `submitted` are used
    std::size_t submitted = 0;  ///< jobs 0..submitted-1 ran (a schedule prefix)
    Clock::time_point start{}, end{};
    std::vector<std::pair<Clock::time_point, std::string>> metrics;
    std::uint64_t journal_records = 0;
    std::uint64_t gate_batches = 0, gate_lanes = 0;
    std::uint64_t refused_streams = 0;

    double wall_s() const { return seconds_between(start, end); }
    std::vector<double> latency_ms() const {
        std::vector<double> v;
        for (std::size_t i = 0; i < submitted; ++i)
            if (seen[i].delivered) v.push_back(seconds_between(seen[i].submitted, seen[i].result) * 1e3);
        return v;
    }
};

std::uint64_t count_lines(const std::string& path) {
    std::ifstream in(path);
    std::uint64_t n = 0;
    for (std::string line; std::getline(in, line);) n += !line.empty();
    return n;
}

/// Keep kWindow jobs in flight against a started daemon until `seconds`
/// have passed, drain, then stop the daemon.
Phase drive(Instance& in, const std::vector<Planned>& jobs, double seconds) {
    Phase ph;
    ph.seen.resize(jobs.size());
    service::Client submit_conn(in.socket);
    service::Client stream_conn(in.socket);
    const service::Frame stats0 = submit_conn.stats();

    std::mutex mu;
    std::condition_variable slot_free;
    std::map<std::uint64_t, std::size_t> index_of;  // job id -> schedule index
    std::deque<std::size_t> acks_due;               // stream requests awaiting their ack
    std::size_t finished = 0, in_flight = 0;
    std::size_t total = std::numeric_limits<std::size_t>::max();  // set once submitting stops

    std::exception_ptr reader_error;
    std::thread reader([&] {
        try {
            while (true) {
                {
                    std::lock_guard<std::mutex> lk(mu);
                    if (finished == total) return;
                }
                const service::Frame f = stream_conn.read_frame();  // skips generation events
                const Clock::time_point now = Clock::now();
                std::lock_guard<std::mutex> lk(mu);
                if (f.verb == "stream") {  // ack (or refusal) of the oldest stream request
                    const std::size_t i = acks_due.front();
                    acks_due.pop_front();
                    if (f.ok()) continue;
                    ++ph.refused_streams;
                    ph.seen[i].state = "refused";
                } else if (f.verb == "stream_end") {
                    Seen& s = ph.seen[index_of.at(f.u64("id"))];
                    s.result = now;
                    s.delivered = true;
                    s.state = f.str("state");
                    s.best_fitness = f.u64("best_fitness");
                    s.best_candidate = f.u64("best_candidate");
                    s.generations = f.u64("generations");
                } else {
                    continue;  // the closing ping's answer
                }
                ++finished;
                --in_flight;
                slot_free.notify_one();
            }
        } catch (...) {
            std::lock_guard<std::mutex> lk(mu);
            reader_error = std::current_exception();
            slot_free.notify_one();
        }
    });

    ph.start = Clock::now();
    try {
        for (std::size_t i = 0; i < jobs.size() && seconds_since(ph.start) < seconds; ++i) {
            {
                std::unique_lock<std::mutex> lk(mu);
                slot_free.wait(lk, [&] { return in_flight < kWindow || reader_error; });
                if (reader_error) break;
            }
            Seen& s = ph.seen[i];
            s.submitted = Clock::now();
            {
                Span sp(SpanId::kServiceSubmit);
                s.id = submit_conn.submit(jobs[i].spec);
            }
            s.submit_rpc_ms = seconds_since(s.submitted) * 1e3;
            service::Frame req(service::verb::kStream);
            req.add("id", s.id);
            std::lock_guard<std::mutex> lk(mu);
            index_of[s.id] = i;
            acks_due.push_back(i);
            ++in_flight;
            ++ph.submitted;
            stream_conn.send(req);
        }
        // Wake the reader once more in case the last result already came in.
        std::lock_guard<std::mutex> lk(mu);
        total = ph.submitted;
        stream_conn.send(service::Frame(service::verb::kPing));
    } catch (...) {
        in.daemon.reset();  // closes the stream connection under the reader
        reader.join();
        throw;
    }
    reader.join();
    if (reader_error) std::rethrow_exception(reader_error);
    ph.end = Clock::now();

    const service::Frame stats1 = submit_conn.stats();
    ph.gate_batches = stats1.u64("gate_batches") - stats0.u64("gate_batches");
    ph.gate_lanes = stats1.u64("gate_lanes") - stats0.u64("gate_lanes");
    in.daemon.reset();  // stops the server; the metrics FIFO reaches EOF
    ph.metrics = in.tap->finish();
    ph.journal_records = count_lines(in.dir + "/journal/journal.jsonl");
    return ph;
}

struct Reference {
    bool ok = false;
    std::uint64_t cycles = 0;
};

/// Direct in-process run of one job's spec, compared with what the client
/// received. Single-engine jobs run on the RT-level GaSystem (bit-exact with
/// the behavioral and gate substrates, and it yields the GA cycle count).
Reference reference(const Planned& j, const Seen& s) {
    const JobSpec& spec = j.spec;
    Reference r;
    std::uint64_t fit = 0, cand = 0, gens = spec.params.n_gens;
    if (spec.islands > 0) {
        island::IslandConfig ic;
        ic.fn = spec.fn;
        ic.base = spec.params;
        ic.islands = spec.islands;
        ic.topology = spec.topology;
        ic.migration = spec.migration;
        ic.backend = supervisor::BackendKind::kRtl;
        const island::IslandResult res = island::run_island_system(ic);
        fit = res.best_fitness;
        cand = res.best_candidate;
        for (const island::IslandStats& is : res.islands) r.cycles += is.run_cycles;
    } else if (spec.supervise) {
        supervisor::SupervisorConfig sc;
        sc.fn = spec.fn;
        sc.params = spec.params;
        sc.backend = supervisor::BackendKind::kRtl;
        const supervisor::SupervisorReport rep = supervisor::MissionSupervisor(sc).run();
        if (rep.status != supervisor::Status::kOk) return r;
        fit = rep.best_fitness;
        cand = rep.best_candidate;
        gens = rep.generations;
        r.cycles = rep.total_cycles;
    } else {
        const RefResult ref = rtl_reference(spec.fn, spec.params);
        fit = ref.best_fitness;
        cand = ref.best_candidate;
        gens = ref.generations;
        r.cycles = ref.ga_cycles;
    }
    r.ok = s.delivered && s.state == "done" && s.best_fitness == fit && s.best_candidate == cand &&
           s.generations == gens;
    return r;
}

double ms_between(Clock::time_point a, Clock::time_point b) { return seconds_between(a, b) * 1e3; }

struct LayerTimes {
    std::vector<double> queue_wait, deliver;
    std::map<JobClass, std::vector<double>> run;
    double busy_s = 0;
    std::map<JobClass, double> busy_by_class;  ///< a gates batch counts once
};

/// Queue wait, run time, delivery and worker busy time from the metrics
/// sink. A gates batch shows up as consecutive job_start lines of gates jobs
/// within 1 ms of each other; it keeps a worker busy until its last job ends.
LayerTimes layer_times(const Phase& ph, const std::vector<Planned>& jobs) {
    std::map<std::uint64_t, std::size_t> index_of;
    for (std::size_t i = 0; i < ph.submitted; ++i) index_of[ph.seen[i].id] = i;
    struct Times {
        Clock::time_point submit{}, start{}, done{};
    };
    std::map<std::size_t, Times> t;
    std::vector<std::vector<std::size_t>> executions;
    Clock::time_point last_gate_start{};
    bool last_was_gate = false;
    for (const auto& [ts, line] : ph.metrics) {
        const trace::TraceEvent e = trace::from_json_line(line);
        const auto it = index_of.find(e.u64("id", 0));
        if (it == index_of.end()) continue;  // a warm-up job
        const std::size_t i = it->second;
        if (e.kind == "job_submit") {
            t[i].submit = ts;
        } else if (e.kind == "job_start") {
            t[i].start = ts;
            const bool gate = jobs[i].cls == JobClass::kGates;
            if (gate && last_was_gate && ts - last_gate_start < std::chrono::milliseconds(1))
                executions.back().push_back(i);
            else
                executions.push_back({i});
            last_was_gate = gate;
            if (gate) last_gate_start = ts;
        } else {
            t[i].done = ts;
        }
    }
    LayerTimes lt;
    for (const auto& [i, x] : t) {
        lt.queue_wait.push_back(ms_between(x.submit, x.start));
        lt.run[jobs[i].cls].push_back(ms_between(x.start, x.done));
        if (ph.seen[i].delivered) lt.deliver.push_back(ms_between(x.done, ph.seen[i].result));
    }
    for (const std::vector<std::size_t>& ex : executions) {
        Clock::time_point end = t[ex.front()].start;
        for (const std::size_t i : ex) end = std::max(end, t[i].done);
        const double busy = seconds_between(t[ex.front()].start, end);
        lt.busy_s += busy;
        lt.busy_by_class[jobs[ex.front()].cls] += busy;
    }
    return lt;
}

double journal_append_ms_p50(const std::string& dir) {
    service::Journal j(dir);
    std::vector<double> ms;
    for (std::uint64_t id = 1; id <= 200; ++id) {
        const Clock::time_point t0 = Clock::now();
        j.record_start(id);
        ms.push_back(seconds_since(t0) * 1e3);
    }
    return median(ms);
}

}  // namespace

Report run_gaipd_mixed(const Options& o) {
    Report r;
    add_common_env(r, kWorkers + 2);
    r.set_env("scheduler_workers", std::to_string(kWorkers));
    r.set_env("load_threads", "2");
    r.set_env("load_connections", "2");
    r.set_env("jobs_in_flight", std::to_string(kWindow));
    r.set_env("gate_backend", gates::backend_name(gates::resolve_backend(gates::Backend::kAuto)));

    const std::vector<Planned> jobs =
        schedule(o.seed, static_cast<std::size_t>(o.seconds * kMaxJobsPerSecond) + kWindow);

    // Set-up, repeated on fresh directories, then the daemon that carries
    // the load. Each start follows an idle pause, as a user's start follows
    // idle time: back to back, a start runs on warm caches and awake CPUs,
    // and its time then swings with whatever else the host runs.
    spans_enable(o.trace);
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        std::this_thread::sleep_for(kSetupPause);
        setups.push_back(
            start_daemon(o.workdir + "/setup" + std::to_string(rep), o.seed, false, false).setup_s);
    }
    Instance in = start_daemon(o.workdir + "/load", o.seed, false, true);
    spans_enable(false);
    const Phase plain = drive(in, jobs, o.seconds);

    // Correctness and the simulated cycles, outside the timed section.
    const std::size_t n = plain.submitted;
    std::vector<Reference> refs(n);
    parallel_for(n, kCheckThreads, [&](std::size_t i) { refs[i] = reference(jobs[i], plain.seen[i]); });
    std::uint64_t cycles = 0;
    Digest d;
    for (std::size_t i = 0; i < n; ++i) {
        const Seen& s = plain.seen[i];
        r.check(refs[i].ok, "gaipd_mixed: job " + std::to_string(i) + " (" +
                                kClassNames[static_cast<int>(jobs[i].cls)] + ", state " + s.state +
                                ") differs from its direct run");
        cycles += refs[i].cycles;
        d.add(s.best_fitness).add(s.best_candidate).add(s.generations).add(refs[i].cycles);
        if ((i + 1) % kUnitJobs == 0) {
            r.units.push_back("jobs " + std::to_string(i + 1 - kUnitJobs) + ".." +
                              std::to_string(i) + " digest=" + d.hex());
            d = Digest();
        }
    }
    r.check(plain.refused_streams == 0, "gaipd_mixed: the daemon refused stream subscriptions");

    const std::vector<double> latency = plain.latency_ms();
    r.set_e2e("setup_s", median(setups));
    r.set_e2e("sim_cycles_per_s", static_cast<double>(cycles) / plain.wall_s());
    r.set_e2e("results_per_s", static_cast<double>(latency.size()) / plain.wall_s());
    r.set_e2e("job_latency_p50_ms", quantile(latency, 0.50));
    r.set_e2e("job_latency_p99_ms", quantile(latency, 0.99));
    r.set_samples("setup_s", setups.size());
    r.set_samples("job_latency_ms", latency.size());

    if (o.trace) {
        // A second daemon under the same load with spans on: the change in
        // wall time per job is the tracing overhead; the layer split comes
        // from this pass.
        spans_enable(true);
        Instance tin = start_daemon(o.workdir + "/traced", o.seed, false, true);
        const Phase traced = drive(tin, jobs, o.seconds);
        spans_enable(false);
        std::vector<double> submit_ms;
        for (std::size_t i = 0; i < traced.submitted; ++i) submit_ms.push_back(traced.seen[i].submit_rpc_ms);
        const LayerTimes lt = layer_times(traced, jobs);
        r.set_layer("service.submit_rpc_ms_p50", quantile(submit_ms, 0.50));
        r.set_layer("service.submit_rpc_ms_p99", quantile(submit_ms, 0.99));
        r.set_layer("service.queue_wait_ms_p50", quantile(lt.queue_wait, 0.50));
        r.set_layer("service.queue_wait_ms_p99", quantile(lt.queue_wait, 0.99));
        for (const auto& [cls, v] : lt.run)
            r.set_layer(std::string("service.run_ms_p50.") + kClassNames[static_cast<int>(cls)],
                        quantile(v, 0.50));
        r.set_layer("service.deliver_ms_p50", quantile(lt.deliver, 0.50));
        r.set_layer("service.lanes_per_batch",
                    traced.gate_batches == 0 ? 0.0
                                             : static_cast<double>(traced.gate_lanes) /
                                                   static_cast<double>(traced.gate_batches));
        r.set_layer("service.busy_frac", lt.busy_s / (kWorkers * traced.wall_s()));
        for (const auto& [cls, busy] : lt.busy_by_class)
            r.set_layer(std::string("service.busy_share.") + kClassNames[static_cast<int>(cls)],
                        busy / lt.busy_s);
        r.set_layer("service.journal_append_ms_p50",
                    journal_append_ms_p50(o.workdir + "/probe-journal"));
        r.set_layer("trace.overhead_frac", (traced.wall_s() / traced.submitted) /
                                               (plain.wall_s() / plain.submitted) - 1.0);
        add_span_metrics(r);

        // The same load once more with the write-ahead journal on (untraced).
        Instance jin = start_daemon(o.workdir + "/journaled", o.seed, true, true);
        const Phase journaled = drive(jin, jobs, o.seconds);
        const std::vector<double> journaled_latency = journaled.latency_ms();
        r.set_layer("service.journal_records", static_cast<double>(journaled.journal_records));
        r.set_layer("service.journal_latency_p50_ms", quantile(journaled_latency, 0.50));
        r.set_layer("service.journal_latency_p99_ms", quantile(journaled_latency, 0.99));
        r.check(journaled.journal_records == 3 * (journaled.submitted + kWarmJobs),
                "gaipd_mixed: journal does not hold submit, start and end of every job");
        for (const Phase* p : {&traced, &journaled}) {
            bool same = true;
            for (std::size_t i = 0; i < std::min(n, p->submitted); ++i) {
                const Seen& a = plain.seen[i];
                const Seen& b = p->seen[i];
                same &= a.state == b.state && a.best_fitness == b.best_fitness &&
                        a.best_candidate == b.best_candidate && a.generations == b.generations;
            }
            r.check(same, std::string("gaipd_mixed: ") + (p == &traced ? "traced" : "journaled") +
                              " pass delivered different results");
        }
    }
    r.set_e2e("peak_rss_mb", peak_rss_mb());
    return r;
}

}  // namespace perfbench
