/**
 * @file
 * manycore-sharded: one architect-scale simulation (sparselu nb16 bs24
 * on 32 cores, 4x4 sharded scheduler, timed memory, Phentos) planned
 * like `picosim_run` (main run + serial baseline) and repeated back to
 * back on a one-worker JobManager. The repetitions are bit-identical
 * work, so their spread is host interference and the fastest one is
 * the simulator's speed.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "host.hh"
#include "inprocess.hh"
#include "service/run_plan.hh"
#include "stats.hh"

namespace hostbench
{

namespace svc = picosim::svc;

namespace
{

/** Repetitions each phase of a traced run times. */
constexpr long kTracedRepetitions = 3;

/** Rounds of the untraced repetitions. More than the other workloads'
 *  kRounds: a repetition is one request here, so the fastest-over-rounds
 *  latency of each position needs more rounds to stay out of a host
 *  slow phase. */
constexpr long kManycoreRounds = 6;

} // namespace

Outcome
runManycore(Context &ctx)
{
    const Options &opt = ctx.opt;
    Outcome out;

    // One set-up: a fresh JobManager, the seeded spec planned like
    // picosim_run, and the warm-up request. The first is kept for the
    // timed phase; another follows every round (torn down outside the
    // clock).
    svc::JobManager::Params params;
    params.workers = 1;
    svc::JobSpec job;
    const auto setUp = [&] {
        const auto t0 = SteadyClock::now();
        auto m = std::make_unique<svc::JobManager>(params);
        job.runs = svc::RunPlan::make({manycoreSpec(opt.seed)}).runs;
        warmupInProcess(*m, ctx.gate);
        out.setupS.push_back(secondsBetween(t0, SteadyClock::now()));
        return m;
    };
    const std::unique_ptr<svc::JobManager> mgr = setUp();
    const std::vector<std::uint64_t> tasks = programTasks(job.runs);

    // Timed phase: K repetitions (~2 per --seconds at today's speed) in
    // back-to-back rounds; a traced run times K untraced, then K traced
    // repetitions.
    const long rounds = opt.trace ? 1 : kManycoreRounds;
    const long perRound =
        opt.trace ? kTracedRepetitions
                  : std::max(2L, std::lround(opt.seconds * 2) / rounds);
    const long reps = perRound * rounds;
    Tracer off(false);
    std::vector<JobTiming> done;
    double tailS = 0.0;
    out.calibBeforeMs = calibrationMs();
    for (long r = 0; r < reps; ++r) {
        done.push_back(runJob(*mgr, job, off, 0));
        if ((r + 1) % perRound == 0)
            setUp();
    }
    for (long r = 0; opt.trace && r < reps; ++r)
        done.push_back(runJob(*mgr, job, ctx.tracer,
                              static_cast<std::uint64_t>(r + 1), &tailS));
    out.calibAfterMs = calibrationMs();

    // Result gate: each repetition Ok and bit-identical to the first.
    std::vector<char> bad(done.size(), 0);
    for (std::size_t r = 0; r < done.size(); ++r) {
        const std::string what = "repetition " + std::to_string(r);
        std::vector<char> rowBad(job.runs.size(), 0);
        gateRows(ctx.gate, what, done[r], tasks, rowBad);
        for (std::size_t i = 0; r > 0 && i < job.runs.size(); ++i)
            if (!ctx.gate.same(what + " run " + std::to_string(i) +
                                   " vs repetition 0",
                               done[0].rows[i].result,
                               done[r].rows[i].result))
                rowBad[i] = 1;
        bad[r] = std::count(rowBad.begin(), rowBad.end(), 1) > 0;
    }

    const picosim::rt::RunResult &main = done[0].rows[0].result;
    const picosim::rt::RunResult &serial = done[0].rows[1].result;
    std::vector<double> mainS, repS;
    for (const JobTiming &t : done) {
        mainS.push_back(t.rowAt[0]);
        repS.push_back(t.sample.latency);
    }
    // Latency of the i-th request of a round, fastest over the rounds —
    // the row-wise fastest-of-K fig9-sweep uses over its sweeps. Rounds
    // lie seconds apart, so a host slow phase rarely covers one position
    // in all of them.
    for (long i = 0; !opt.trace && i < perRound; ++i) {
        std::vector<double> at;
        for (long r = 0; r < rounds; ++r)
            at.push_back(repS[static_cast<std::size_t>(r * perRound + i)]);
        out.latencyMs.push_back(fastest(at) * 1e3);
    }
    out.simCycles = main.cycles + serial.cycles;
    out.simSpeedup = main.cycles == 0 ? 0.0
                                      : static_cast<double>(serial.cycles) /
                                            static_cast<double>(main.cycles);
    out.simMcyclesPerS =
        static_cast<double>(main.cycles) / 1e6 / fastest(mainS);
    out.wallS = fastest(repS);
    out.attempted = done.size();
    out.failed =
        static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), 1));
    out.notes.push_back(
        "manycore-sharded: " + std::to_string(done.size()) +
        " repetitions; main run " + std::to_string(main.cycles) +
        " cycles, " + std::to_string(main.tasks) + " tasks; fastest " +
        fullDigits(fastest(mainS)) + " s, median " +
        fullDigits(median(mainS)) + " s");
    if (!opt.trace)
        return out;

    // Traced run: replay every traced repetition through the layers.
    LayerInputs in;
    double work = 0.0, tracedWall = 0.0, untracedWall = 0.0;
    for (long r = 0; r < reps; ++r) {
        const JobTiming &t = done[static_cast<std::size_t>(reps + r)];
        untracedWall += done[static_cast<std::size_t>(r)].sample.latency;
        tracedWall += t.sample.latency;
        std::vector<char> rowBad(job.runs.size(), 0);
        std::vector<Replayed> runs =
            replayJob(ctx, job.runs, t, t.sample.request, 1, in.parseS,
                      rowBad);
        if (std::count(rowBad.begin(), rowBad.end(), 1) > 0)
            bad[static_cast<std::size_t>(reps + r)] = 1;
        in.requests.push_back(t.sample);
        in.requests.back().mainRowWork = runs.front().cost.rowWork();
        for (Replayed &run : runs) {
            work += run.cost.rowWork();
            in.runs.push_back(std::move(run));
        }
    }
    in.poolEfficiency = work / tracedWall;
    in.poolTailS = tailS;
    in.overheadFrac = tracedWall / untracedWall - 1.0;
    out.failed =
        static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), 1));
    out.perLayer = perLayerMetrics(in, ctx.tracer.spans());
    return out;
}

} // namespace hostbench
