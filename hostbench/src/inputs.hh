/**
 * @file
 * The benchmark's inputs, generated from its --seed. The program under
 * test only ever sees the resulting specs (canonical RunSpecs for the
 * in-process JobManager, spec text for the daemon); the same seed always
 * yields the same specs.
 */

#ifndef HOSTBENCH_INPUTS_HH
#define HOSTBENCH_INPUTS_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "spec/run_spec.hh"

namespace hostbench
{

enum class Workload
{
    Fig9Sweep,
    ManycoreSharded,
    ServeJournaled,
};

const char *workloadName(Workload w);
std::optional<Workload> workloadFromName(std::string_view name);

/** Spec text of the warm-up request every set-up sends: the registry
 *  default blackscholes run, whose CLI golden is kWarmupGoldenCycles. */
inline constexpr const char *kWarmupSpecText = "workload=blackscholes";
inline constexpr std::uint64_t kWarmupGoldenCycles = 404299;

/** Median task count of sparselu's generator on an @p nb x @p nb block
 *  grid over wl.seed 1..200 (nb 8, 12 and 16: the grids used here). */
std::uint64_t sparseluTargetTasks(unsigned nb);

/**
 * A sparselu wl.seed drawn from @p seed whose @p nb-grid program has
 * within 1% of sparseluTargetTasks(nb) tasks. The benchmark seed picks
 * the sparsity pattern while the problem size stays put: raw wl.seeds
 * spread nb16 task counts by 16% between quartiles (nb8: 38%), which
 * would make every seed cost a different amount of host time.
 */
std::uint64_t sizedSparseluSeed(unsigned nb, std::uint64_t seed);

/** Runtimes of one Figure 9 input, in submission order; the first is
 *  the serial baseline of the other three. */
inline constexpr std::size_t kFig9KindsPerInput = 4;

/**
 * The Figure 9 matrix: 37 inputs x {serial, Nanos-SW, Nanos-RV,
 * Phentos} on the default 8-core, single-Picos, inline-memory machine,
 * canonical. @p seed sets wl.seed of the 10 sparselu inputs (one sized
 * pattern per grid, shared by its five block sizes).
 */
std::vector<picosim::spec::RunSpec> fig9Runs(std::uint64_t seed);

/**
 * The many-core run: sparselu nb16 bs24 on 32 cores, 4 scheduler shards
 * in 4 clusters with stealing, timed memory, Phentos; @p seed sets
 * wl.seed (sized). Canonical.
 */
picosim::spec::RunSpec manycoreSpec(std::uint64_t seed);

/** One step of a daemon client's closed loop. */
struct ServeRequest
{
    bool refetch = false;
    std::string text;          ///< spec text to SUBMIT (refetch: empty)
    std::size_t refetchOf = 0; ///< refetch: index of an earlier submit
                               ///< step of the same client
};

/**
 * The request sequence of daemon client @p client: a seeded, balanced
 * mix of small blackscholes, sparselu, stream (deps and barrier),
 * task-free and nested task-tree specs — each main run a few ms of host
 * time — alternating Phentos and Nanos-RV; every fourth step re-fetches
 * the RESULT of one of the client's earlier submits.
 */
std::vector<ServeRequest> serveScript(std::uint64_t seed, unsigned client,
                                      std::size_t steps);

} // namespace hostbench

#endif // HOSTBENCH_INPUTS_HH
