#include "inprocess.hh"

#include <atomic>
#include <thread>

#include "spec/engine.hh"

namespace hostbench
{

namespace svc = picosim::svc;

JobTiming
runJob(svc::JobManager &mgr, const svc::JobSpec &job, Tracer &tracer,
       std::uint64_t request, double *tailS)
{
    JobTiming out;
    const std::uint64_t root = tracer.reserveId();
    const double t0 = tracer.now();
    out.id = mgr.submit(job);
    const double tSubmitted = tracer.now();

    std::atomic<bool> stop{false};
    std::vector<double> finishes; // poller thread only, until joined
    std::thread poller;
    if (tailS != nullptr) {
        poller = std::thread([&] {
            std::size_t seen = 0;
            while (!stop.load()) {
                const auto st = mgr.status(out.id);
                for (; st && seen < st->runsDone; ++seen)
                    finishes.push_back(tracer.now());
                std::this_thread::sleep_for(std::chrono::microseconds(500));
            }
        });
    }

    const std::size_t n = job.runs.size();
    out.rowAt.reserve(n);
    double tFirst = tSubmitted, tLast = tSubmitted;
    for (std::size_t i = 0; i < n; ++i) {
        (void)mgr.waitRow(out.id, i);
        tLast = tracer.now();
        if (i == 0)
            tFirst = tLast;
        out.rowAt.push_back(tLast - t0);
    }
    out.state = mgr.wait(out.id).state;
    const double tDone = tracer.now();
    if (poller.joinable()) {
        stop.store(true);
        poller.join();
        const std::size_t k = finishes.size();
        *tailS = k >= 2 ? finishes[k - 1] - finishes[k - 2] : 0.0;
    }
    out.rows = mgr.runRows(out.id);

    RequestSample &s = out.sample;
    s.request = request;
    s.latency = tDone - t0;
    s.submit = tSubmitted - t0;
    s.firstRow = tFirst - tSubmitted;
    s.rowGap = tLast - tFirst;
    s.doneGap = tDone - tLast;
    if (tracer.enabled()) {
        tracer.add("svc.submit", "client", root, request, t0, tSubmitted);
        tracer.add("svc.first_row", "client", root, request, tSubmitted,
                   tFirst);
        tracer.add("svc.row_gap", "client", root, request, tFirst, tLast);
        tracer.add("svc.done_gap", "client", root, request, tLast, tDone);
        tracer.addWithId(root, "request", "client", 0, request, t0, tDone);
    }
    return out;
}

void
warmupInProcess(svc::JobManager &mgr, Gate &gate)
{
    const std::uint64_t id = mgr.submitText(kWarmupSpecText);
    const svc::JobStatus st = mgr.wait(id);
    const std::vector<svc::RunRow> rows = mgr.runRows(id);
    gate.check("warm-up", st.state == svc::JobState::Done && !rows.empty() &&
                              runOk(rows[0].result) &&
                              rows[0].result.cycles == kWarmupGoldenCycles,
               "expected the " + std::to_string(kWarmupGoldenCycles) +
                   "-cycle blackscholes golden");
}

void
gateRows(Gate &gate, const std::string &what, const JobTiming &job,
         const std::vector<std::uint64_t> &tasks, std::vector<char> &bad)
{
    if (!gate.check(what, job.state == svc::JobState::Done,
                    std::string("job ended ") + svc::jobStateName(job.state)))
        std::fill(bad.begin(), bad.end(), 1);
    for (std::size_t i = 0; i < job.rows.size(); ++i) {
        const svc::RunRow &row = job.rows[i];
        const bool ok = row.done && runOk(row.result) &&
                        row.result.tasks == tasks[i];
        if (!gate.check(what + " run " + std::to_string(i), ok,
                        "not finished Ok with the spec's program (status " +
                            std::string(picosim::rt::runStatusName(
                                row.result.status)) +
                            ", " + std::to_string(row.result.tasks) +
                            " tasks)"))
            bad[i] = true;
    }
}

std::vector<std::uint64_t>
programTasks(const std::vector<picosim::spec::RunSpec> &specs)
{
    std::vector<std::uint64_t> tasks;
    const picosim::spec::RunSpec *last = nullptr;
    for (const picosim::spec::RunSpec &s : specs) {
        // Consecutive runs of one input share the program: build once.
        if (last == nullptr || s.workload != last->workload ||
            s.wl != last->wl)
            tasks.push_back(
                picosim::spec::Engine::buildProgram(s).numTasks());
        else
            tasks.push_back(tasks.back());
        last = &s;
    }
    return tasks;
}

std::vector<Replayed>
replayJob(Context &ctx, const std::vector<picosim::spec::RunSpec> &specs,
          const JobTiming &job, std::uint64_t request, unsigned threads,
          std::vector<double> &parseS, std::vector<char> &bad)
{
    const std::size_t n = specs.size();
    std::vector<Replayed> out(n);
    std::vector<double> parse(n);
    std::atomic<std::size_t> next{0};
    Tracer &tr = ctx.tracer;
    const auto worker = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            const std::string what = "replay of run " + std::to_string(i);
            try {
                const Tracer::Scope root(tr, "replay", "bench", 0, request);
                const std::string text = specs[i].serialize();
                const double p0 = tr.now();
                (void)picosim::spec::RunSpec::parse(text);
                parse[i] = tr.now() - p0;
                tr.add("spec.parse", "spec", root.id(), 0, p0, p0 + parse[i]);

                out[i] = replayRun(specs[i], tr, root.id(), request, 0,
                                   false);
                picosim::rt::RunResult oracle;
                {
                    const Tracer::Scope s(tr, "oracle", "bench", root.id());
                    oracle = picosim::spec::Engine::run(specs[i]);
                }
                const picosim::rt::RunResult &row = job.rows[i].result;
                const bool same =
                    ctx.gate.same(what + " vs spec::Engine::run", oracle,
                                  row) &&
                    ctx.gate.check(what, out[i].result.cycles == row.cycles,
                                   "replayed cycles differ from the row");
                if (!same)
                    bad[i] = true;
            } catch (const std::exception &e) {
                ctx.gate.check(what, false, e.what());
                bad[i] = true;
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    parseS.insert(parseS.end(), parse.begin(), parse.end());
    return out;
}

} // namespace hostbench
