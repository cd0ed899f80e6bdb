/**
 * @file
 * Kernel-efficiency benchmark: quantifies what the event-driven kernel and
 * the parallel batch harness buy over the reference implementation.
 *
 *  1. Component-tick reduction: Figure 8-style workloads run under
 *     EvalMode::EventDriven vs the tick-the-world reference, with
 *     identical cycle results. The wall times of both are printed too,
 *     but these runs take milliseconds: they are no throughput measure.
 *  2. Simulation throughput: simulated Mcycles per host second on named
 *     runs of half a second or more — the Figure 9 matrix on one worker
 *     and a 32-core sharded machine — each the fastest of several runs.
 *     tools/check_perf.py gates these against a per-host baseline.
 *  3. Batch throughput: the Figure 9 matrix swept with one worker vs a
 *     pool, with identical rows. The pool result is only meaningful
 *     relative to hostConcurrency (also emitted): on a
 *     single-hardware-thread host the pool cannot beat 1x by
 *     construction.
 *
 * Every experiment is described as a spec::RunSpec mutation and executed
 * through spec::Engine, and each BENCH json row carries the serialized
 * spec that produced it (replayable with `picosim_run --spec`).
 *
 * `--quick` (or PICOSIM_QUICK=1) subsamples the sweeps for CI.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/fig_common.hh"
#include "spec/engine.hh"

using namespace picosim;

namespace
{

double
wallSeconds(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

void
compareModes(bench::BenchJson &json, const char *label,
             const spec::RunSpec &base, unsigned repeats)
{
    spec::RunSpec event = base;
    event.mode = sim::EvalMode::EventDriven;
    spec::RunSpec world = base;
    world.mode = sim::EvalMode::TickWorld;

    // Min-of-N: both modes are CPU-bound and deterministic, so the floor
    // of several runs is the honest wall time on a shared machine.
    rt::RunResult re, rw;
    double te = 0.0, tw = 0.0;
    for (unsigned r = 0; r < repeats; ++r) {
        const double e =
            wallSeconds([&] { re = spec::Engine::run(event); });
        const double w =
            wallSeconds([&] { rw = spec::Engine::run(world); });
        te = r == 0 ? e : std::min(te, e);
        tw = r == 0 ? w : std::min(tw, w);
    }

    const double tickRatio =
        re.componentTicks == 0
            ? 0.0
            : static_cast<double>(rw.componentTicks) /
                  static_cast<double>(re.componentTicks);
    std::printf("%-28s %12llu cycles %s  ticks %llu -> %llu (%.2fx)  "
                "wall %.3fs -> %.3fs (%.2fx)\n",
                label, static_cast<unsigned long long>(re.cycles),
                re.cycles == rw.cycles ? "[=]" : "[MISMATCH]",
                static_cast<unsigned long long>(rw.componentTicks),
                static_cast<unsigned long long>(re.componentTicks),
                tickRatio, tw, te, te > 0 ? tw / te : 0.0);

    json.beginRow();
    json.field("bench", "mode_compare");
    json.field("label", label);
    json.field("cycles", re.cycles);
    json.field("identical", re.cycles == rw.cycles);
    json.field("eventTicks", re.componentTicks);
    json.field("worldTicks", rw.componentTicks);
    json.field("tickRatio", tickRatio);
    json.field("wallEventSec", te);
    json.field("wallWorldSec", tw);
    json.field("wallSpeedup", te > 0 ? tw / te : 0.0);
    bench::stampSpec(json, event);
    bench::stampHost(json);
}

/** Time one run of @p fn; keep its result in @p out when it is the
 *  fastest so far (round 0 always is). */
template <typename T, typename Fn>
void
keepFastest(unsigned round, double &best, T &out, Fn fn)
{
    T got{};
    const double t = wallSeconds([&] { got = fn(); });
    if (round == 0 || t < best) {
        best = t;
        out = std::move(got);
    }
}

void
throughputRow(bench::BenchJson &json, const char *label,
              std::uint64_t simCycles, double wall, unsigned repeats)
{
    const double mcps =
        wall > 0 ? static_cast<double>(simCycles) / wall / 1e6 : 0.0;
    std::printf("%-42s %11llu cycles in %.3fs: %.1f Mcycles/s\n", label,
                static_cast<unsigned long long>(simCycles), wall, mcps);
    json.beginRow();
    json.field("bench", "sim_throughput");
    json.field("label", label);
    json.field("simCycles", simCycles);
    json.field("wallSec", wall);
    json.field("repeats", std::uint64_t{repeats});
    json.field("simMcyclesPerSec", mcps);
    bench::stampHost(json);
}

/** Simulated cycles of every run in the matrix, serial baselines too. */
std::uint64_t
matrixCycles(const std::vector<bench::MatrixRow> &rows)
{
    std::uint64_t sum = 0;
    for (const bench::MatrixRow &r : rows)
        sum += r.serialCycles + r.nanosSw + r.nanosRv + r.phentos;
    return sum;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            // Same switch the sweeps read; one knob for both paths.
            setenv("PICOSIM_QUICK", "1", /*overwrite=*/1);
        } else {
            std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
            return 2;
        }
    }
    const unsigned repeats = 5;

    bench::BenchJson json("BENCH_kernel.json");

    std::printf("== Event-driven kernel vs tick-the-world reference ==\n");
    std::printf("(ticks = component evaluations; [=] = identical cycle "
                "results; wall = min of %u runs of a few ms, not gated)\n\n",
                repeats);

    // Warm the process (allocator pools, lazy init, page faults) before
    // anything is timed, so the first measured row is not penalized.
    (void)spec::Engine::run(
        bench::canonicalSpec("blackscholes", {{"options", 1024}, {"block", 32}}));

    // Figure 8 coarse-granularity points: most components quiescent most
    // cycles, the sweet spot for wake scheduling.
    compareModes(json, "blackscholes 4K B32 Phentos",
                 bench::canonicalSpec("blackscholes", {{"options", 4096}, {"block", 32}}),
                 repeats);
    compareModes(json, "blackscholes 4K B256 Phentos",
                 bench::canonicalSpec("blackscholes",
                          {{"options", 4096}, {"block", 256}}),
                 repeats);
    compareModes(json, "task-free g=10k Phentos",
                 bench::canonicalSpec("task-free",
                          {{"tasks", 256}, {"deps", 1}, {"payload", 10'000}}),
                 repeats);
    compareModes(json, "task-free g=10k Nanos-RV",
                 bench::canonicalSpec("task-free",
                          {{"tasks", 256}, {"deps", 1}, {"payload", 10'000}},
                          rt::RuntimeKind::NanosRV),
                 repeats);
    compareModes(json, "task-chain g=1k Phentos",
                 bench::canonicalSpec("task-chain",
                          {{"tasks", 256}, {"deps", 1}, {"payload", 1'000}}),
                 repeats);

    // hostbench's manycore machine on a larger sparselu: every cycle of
    // ShardedPicos, the four managers and the timed memory in play.
    spec::RunSpec manycore = bench::canonicalSpec(
        "sparselu", {{"nb", 56}, {"bs", 24}}, rt::RuntimeKind::Phentos);
    manycore.cores = 32;
    manycore.schedShards = 4;
    manycore.clusters = 4;
    manycore.mem = mem::MemMode::Timed;
    manycore.canonicalize();

    const unsigned hwThreads =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned poolThreads = 8;

    // The timed legs run round by round, each keeping its fastest run:
    // a burst of load on a shared host then costs one sample of every
    // leg instead of every sample of one.
    double tSerial = 0.0, tManycore = 0.0, tPool = 0.0;
    std::vector<bench::MatrixRow> serialRows, poolRows;
    rt::RunResult manycoreRes;
    for (unsigned r = 0; r < repeats; ++r) {
        keepFastest(r, tSerial, serialRows,
                    [] { return bench::runFigure9Matrix(false, 1); });
        keepFastest(r, tManycore, manycoreRes, [&] {
            return spec::Engine::runInspected(manycore).result;
        });
        keepFastest(r, tPool, poolRows, [&] {
            return bench::runFigure9Matrix(false, poolThreads);
        });
    }

    std::printf("\n== Simulation throughput (fastest of %u runs) ==\n",
                repeats);
    throughputRow(json, "fig9 matrix, 1 worker", matrixCycles(serialRows),
                  tSerial, repeats);
    throughputRow(json, "manycore sparselu nb56 bs24 32-core 4x4",
                  manycoreRes.cycles, tManycore, repeats);
    bench::stampSpec(json, manycore);

    std::printf("\n== Parallel batch harness (Figure 9 sweep, %u worker "
                "pool, %u hardware thread(s)) ==\n",
                poolThreads, hwThreads);
    bool same = serialRows.size() == poolRows.size();
    for (std::size_t i = 0; same && i < serialRows.size(); ++i) {
        same = serialRows[i].serialCycles == poolRows[i].serialCycles &&
               serialRows[i].nanosSw == poolRows[i].nanosSw &&
               serialRows[i].nanosRv == poolRows[i].nanosRv &&
               serialRows[i].phentos == poolRows[i].phentos;
    }
    std::printf("1 worker: %.2fs   %u workers: %.2fs (%.2fx)   results %s\n",
                tSerial, poolThreads, tPool,
                tPool > 0 ? tSerial / tPool : 0.0,
                same ? "identical" : "MISMATCH");
    if (hwThreads == 1) {
        std::printf("(single hardware thread: pool speedup is capped at "
                    "~1x on this host)\n");
    }

    json.beginRow();
    json.field("bench", "batch_throughput");
    json.field("serialSec", tSerial);
    json.field("poolSec", tPool);
    json.field("poolSpeedup", tPool > 0 ? tSerial / tPool : 0.0);
    json.field("poolThreads", std::uint64_t{poolThreads});
    json.field("identical", same);
    bench::stampHost(json, poolThreads);

    if (json.write())
        std::printf("json      : %s\n", json.path().c_str());
    else
        std::fprintf(stderr, "warning: could not write %s\n",
                     json.path().c_str());
    return same ? 0 : 1;
}
