/**
 * @file
 * fig9-sweep: the paper's Figure 9 matrix (37 inputs x 4 runtimes = 148
 * runs) submitted as one job to an in-process JobManager with two
 * workers, streamed back row by row in run order.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "host.hh"
#include "inprocess.hh"
#include "spec/engine.hh"
#include "stats.hh"

namespace hostbench
{

namespace svc = picosim::svc;

namespace
{

constexpr unsigned kWorkers = 2;

/** Rows re-run through spec::Engine::run by every untraced run's gate. */
constexpr std::size_t kOracleSample = 8;

/** Set-ups after the timed phase, besides those between sweeps. */
constexpr unsigned kExtraSetups = 6;

} // namespace

Outcome
runFig9(Context &ctx)
{
    const Options &opt = ctx.opt;
    Outcome out;

    // One set-up: a fresh JobManager, the seeded specs and the warm-up
    // request. The first is kept for the timed phase; another follows
    // every sweep (torn down outside the clock).
    svc::JobManager::Params params;
    params.workers = kWorkers;
    svc::JobSpec job;
    const auto setUp = [&] {
        const auto t0 = SteadyClock::now();
        auto m = std::make_unique<svc::JobManager>(params);
        job.runs = fig9Runs(opt.seed);
        warmupInProcess(*m, ctx.gate);
        out.setupS.push_back(secondsBetween(t0, SteadyClock::now()));
        return m;
    };
    const std::unique_ptr<svc::JobManager> mgr = setUp();
    const std::vector<std::uint64_t> tasks = programTasks(job.runs);
    const std::size_t n = job.runs.size();

    // Timed phase: whole sweeps, the fastest one counts. A traced run
    // times one untraced and one traced sweep instead.
    const long sweeps =
        opt.trace ? 1 : std::max(2L, std::lround(opt.seconds / 10.0));
    Tracer off(false);
    std::vector<JobTiming> done;
    out.calibBeforeMs = calibrationMs();
    for (long s = 0; s < sweeps; ++s) {
        done.push_back(runJob(*mgr, job, off, 0));
        setUp();
    }
    double tailS = 0.0;
    if (opt.trace) {
        done.push_back(runJob(*mgr, job, ctx.tracer, 1, &tailS));
        setUp();
    }
    out.calibAfterMs = calibrationMs();
    // A sweep outlasts the host's slow phases, so the set-ups between
    // sweeps sample few of them; a few more, a second apart, do.
    for (unsigned i = 0; !opt.trace && i < kExtraSetups; ++i) {
        std::this_thread::sleep_for(std::chrono::seconds(1));
        setUp();
    }

    // Result gate: every row Ok with its spec's program, and every sweep
    // bit-identical to the first.
    std::vector<std::vector<char>> bad(done.size(), std::vector<char>(n, 0));
    for (std::size_t s = 0; s < done.size(); ++s) {
        const std::string what = "sweep " + std::to_string(s);
        gateRows(ctx.gate, what, done[s], tasks, bad[s]);
        for (std::size_t i = 0; s > 0 && i < n; ++i)
            if (!ctx.gate.same(what + " run " + std::to_string(i) +
                                   " vs sweep 0",
                               done[0].rows[i].result,
                               done[s].rows[i].result))
                bad[s][i] = true;
    }

    const std::vector<svc::RunRow> &rows = done[0].rows;
    if (!opt.trace) {
        // Independent oracle on a seeded sample of the cheaper half of
        // the matrix (fewest component ticks): a direct Engine::run.
        std::vector<std::size_t> order(n);
        for (std::size_t i = 0; i < n; ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(), [&](auto a, auto b) {
            return rows[a].result.componentTicks <
                   rows[b].result.componentTicks;
        });
        for (std::size_t k = 0; k < kOracleSample; ++k) {
            const std::size_t i =
                order[(opt.seed * 2654435761u + k * 7919u) % (n / 2)];
            const auto oracle = picosim::spec::Engine::run(job.runs[i]);
            if (!ctx.gate.same("run " + std::to_string(i) +
                                   " vs spec::Engine::run",
                               oracle, rows[i].result))
                bad[0][i] = true;
        }
    }

    // Latency of row i: the time until it streamed (in run order, as the
    // RESULT verb delivers rows), fastest over the sweeps like wall_s.
    std::vector<double> walls, speedups;
    for (const JobTiming &t : done)
        walls.push_back(t.sample.latency);
    for (std::size_t i = 0; !opt.trace && i < n; ++i) {
        std::vector<double> at;
        for (const JobTiming &t : done)
            at.push_back(t.rowAt[i]);
        out.latencyMs.push_back(fastest(at) * 1e3);
    }
    for (std::size_t i = 0; i < n; ++i) {
        out.simCycles += rows[i].result.cycles;
        if (i % kFig9KindsPerInput != 0 && rows[i].result.cycles != 0) {
            const auto serial = rows[i - i % kFig9KindsPerInput].result;
            speedups.push_back(static_cast<double>(serial.cycles) /
                               static_cast<double>(rows[i].result.cycles));
        }
    }
    out.wallS = fastest(walls);
    out.simMcyclesPerS = static_cast<double>(out.simCycles) / 1e6 / out.wallS;
    out.simSpeedup = geomean(speedups);
    for (const auto &b : bad) {
        out.attempted += n;
        out.failed += static_cast<std::uint64_t>(
            std::count(b.begin(), b.end(), 1));
    }
    out.notes.push_back("fig9-sweep: " + std::to_string(done.size()) +
                        " sweep(s) of " + std::to_string(n) + " runs on " +
                        std::to_string(kWorkers) + " workers");
    if (!opt.trace)
        return out;

    // Traced run: replay the traced sweep's runs through the layers.
    const JobTiming &traced = done.back();
    LayerInputs in;
    in.runs = replayJob(ctx, job.runs, traced, 1, kWorkers, in.parseS,
                        bad.back());
    in.requests.push_back(traced.sample);
    in.requests.back().mainRowWork = in.runs.front().cost.rowWork();
    double work = 0.0;
    for (const Replayed &r : in.runs)
        work += r.cost.rowWork();
    in.poolEfficiency = work / (kWorkers * traced.sample.latency);
    in.poolTailS = tailS;
    in.overheadFrac = traced.sample.latency / done.front().sample.latency - 1.0;
    out.failed = 0;
    for (const auto &b : bad)
        out.failed += static_cast<std::uint64_t>(
            std::count(b.begin(), b.end(), 1));
    out.perLayer = perLayerMetrics(in, ctx.tracer.spans());
    return out;
}

} // namespace hostbench
