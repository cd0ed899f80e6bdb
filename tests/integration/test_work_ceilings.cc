/**
 * @file
 * Work ceilings: the event kernel's exact work counts, pinned.
 *
 * Host time is noisy; the component ticks and evaluated cycles the event
 * kernel spends on a run are not — they are a pure function of the
 * deterministic schedule, the same on every host and every run. Each
 * config below pins both counts of its main run (the serial baseline is
 * not run) as ceilings:
 *
 *  - a run above its ceiling fails: some component is now evaluated at
 *    cycles where it used to sleep;
 *  - a run below it passes and prints the new counts, and the change
 *    that earned the drop lowers the ceiling.
 *
 * Only the event kernel is pinned. TickWorld ticks every component at
 * every evaluated cycle by construction, and takes 2-4x the host time.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "spec/engine.hh"
#include "spec/run_spec.hh"

using namespace picosim;

namespace
{

struct WorkCeiling
{
    const char *name; ///< test-name suffix
    const char *spec; ///< spec text over the defaults
    std::uint64_t componentTicks;
    std::uint64_t evaluatedCycles;
};

/** The parameter prints as its spec text: stable across builds, and
 *  unchanged when a ceiling is lowered. */
void
PrintTo(const WorkCeiling &c, std::ostream *os)
{
    *os << c.spec;
}

constexpr WorkCeiling kCeilings[] = {
    // kernel_speedup's mode_compare rows.
    {"blackscholes_4K_B32_Phentos",
     "workload=blackscholes wl.options=4096 wl.block=32", 20'218,
     12'542},
    {"blackscholes_4K_B256_Phentos",
     "workload=blackscholes wl.options=4096 wl.block=256", 8'851,
     7'586},
    {"task_free_g10k_Phentos",
     "workload=task-free wl.tasks=256 wl.deps=1 wl.payload=10000",
     33'428, 19'263},
    {"task_free_g10k_Nanos_RV",
     "workload=task-free wl.tasks=256 wl.deps=1 wl.payload=10000 "
     "runtime=nanos-rv",
     48'396, 34'195},
    {"task_chain_g1k_Phentos",
     "workload=task-chain wl.tasks=256 wl.deps=1 wl.payload=1000",
     91'291, 52'840},

    // Figure 9 inputs under both hardware-assisted runtimes.
    {"stream_deps_128x1024_Phentos",
     "workload=stream-deps wl.blocks=128 wl.elems=1024 wl.iters=2",
     129'869, 72'279},
    {"stream_deps_128x1024_Nanos_RV",
     "workload=stream-deps wl.blocks=128 wl.elems=1024 wl.iters=2 "
     "runtime=nanos-rv",
     219'600, 161'180},
    {"sparselu_N32_M16_Phentos", "workload=sparselu wl.nb=8 wl.bs=96",
     3'618'504, 3'544'658},
    {"sparselu_N32_M16_Nanos_RV",
     "workload=sparselu wl.nb=8 wl.bs=96 runtime=nanos-rv", 736'500,
     725'651},
    {"jacobi_N128_B1_Phentos",
     "workload=jacobi wl.n=128 wl.block-rows=1 wl.sweeps=8", 129'226,
     69'112},
    {"jacobi_N128_B1_Nanos_RV",
     "workload=jacobi wl.n=128 wl.block-rows=1 wl.sweeps=8 "
     "runtime=nanos-rv",
     250'256, 187'689},

    // The heaviest Figure 9 run, 35,777,083 simulated cycles, most of
    // them spent with Picos and the manager waiting on each other. The
    // ceiling keeps its evaluated cycles under 5% of them.
    {"stream_deps_4096x4096_Phentos",
     "workload=stream-deps wl.blocks=1024 wl.elems=4096 wl.iters=2",
     1'045'580, 586'838},

    // hostbench's manycore-sharded machine, at one fixed sparselu seed.
    // ShardedPicos takes about 52k of these ticks: under 25% of the
    // evaluated cycles.
    {"manycore_sharded_sparselu_nb16_bs24",
     "workload=sparselu wl.nb=16 wl.bs=24 wl.seed=15132624633787722197 "
     "cores=32 sched-shards=4 clusters=4 steal=on mem=timed "
     "runtime=phentos",
     972'535, 556'471},
};

} // namespace

class WorkCeilings : public ::testing::TestWithParam<WorkCeiling>
{
};

TEST_P(WorkCeilings, EventKernelWorkAtOrBelowCeiling)
{
    const WorkCeiling &c = GetParam();
    const rt::RunResult res =
        spec::Engine::run(spec::RunSpec::parse(c.spec));
    ASSERT_TRUE(res.completed);
    EXPECT_LE(res.componentTicks, c.componentTicks)
        << "component ticks rose above the ceiling";
    EXPECT_LE(res.evaluatedCycles, c.evaluatedCycles)
        << "evaluated cycles rose above the ceiling";
    if (res.componentTicks < c.componentTicks ||
        res.evaluatedCycles < c.evaluatedCycles) {
        std::printf("[ CEILING  ] %s now takes %llu ticks over %llu "
                    "cycles: lower its ceiling\n",
                    c.name,
                    static_cast<unsigned long long>(res.componentTicks),
                    static_cast<unsigned long long>(res.evaluatedCycles));
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, WorkCeilings,
                         ::testing::ValuesIn(kCeilings),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });
