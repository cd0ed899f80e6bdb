/**
 * @file
 * What every workload runner shares: the command-line options, the
 * measured outcome, and the per-layer metric assembly of a traced run.
 */

#ifndef HOSTBENCH_BENCH_HH
#define HOSTBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gate.hh"
#include "inputs.hh"
#include "replay.hh"
#include "trace.hh"

namespace hostbench
{

struct Options
{
    Workload workload = Workload::Fig9Sweep;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool corruptExpected = false; ///< self-test hook (see Gate)
    /** Journals and span files live here, inside the checkout. */
    std::string scratch = ".bench_build/hostbench/scratch";
};

/** Rounds of a timed phase. Every workload sets up once before its
 *  timed phase and once more after each round, and reports the median
 *  of those set-up times as setup_s: spread over the run, they sample
 *  the host's slow and fast phases alike instead of one moment. */
inline constexpr unsigned kRounds = 3;

/** One request as its client saw it, in seconds (a phase that does not
 *  apply stays negative). */
struct RequestSample
{
    std::uint64_t request = 0; ///< span request id
    bool refetch = false;
    double latency = 0.0;
    double submit = -1.0;   ///< SUBMIT sent (or submit() called) → OK
    double firstRow = -1.0; ///< OK → first row
    double rowGap = -1.0;   ///< first row → last row
    double doneGap = -1.0;  ///< last row → DONE
    double refetchPhase = -1.0; ///< re-fetch: RESULT sent → DONE
    double mainRowWork = -1.0;  ///< replayed layer time of the main run
};

/** Inputs of the per-layer metrics, gathered by a traced run. */
struct LayerInputs
{
    std::vector<Replayed> runs;  ///< every replayed run
    std::vector<double> parseS;  ///< spec::RunSpec::parse durations
    std::vector<double> journalAppendS;
    double journalRecordsPerRequest = 0.0;
    std::vector<RequestSample> requests;
    double poolEfficiency = 0.0;
    double poolTailS = 0.0;
    double overheadFrac = 0.0;
};

/** Every per-layer metric, in BENCHMARK.json order: name → value. */
std::vector<std::pair<std::string, double>>
perLayerMetrics(const LayerInputs &in, const std::vector<Span> &spans);

/** Unattributed time of one request: its latency minus the self time of
 *  every layer span tagged with its id (client and bench spans aside). */
double unattributed(const RequestSample &req,
                    const std::vector<Span> &spans,
                    const std::map<std::uint64_t, double> &self);

/** What one workload run measured. */
struct Outcome
{
    std::vector<double> setupS;
    double wallS = 0.0;
    double simMcyclesPerS = 0.0;
    std::vector<double> latencyMs;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t simCycles = 0;
    double simSpeedup = 0.0;
    double calibBeforeMs = 0.0;
    double calibAfterMs = 0.0;

    std::vector<std::pair<std::string, double>> perLayer; ///< traced only
    std::vector<std::string> notes; ///< printed before the result line
};

struct Context
{
    explicit Context(const Options &o)
        : opt(o), gate(o.corruptExpected), tracer(o.trace)
    {
    }

    const Options &opt;
    Gate gate;
    Tracer tracer;
};

Outcome runFig9(Context &ctx);
Outcome runManycore(Context &ctx);
Outcome runServe(Context &ctx);

} // namespace hostbench

#endif // HOSTBENCH_BENCH_HH
