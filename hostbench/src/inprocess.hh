/**
 * @file
 * The in-process front door: jobs submitted to an svc::JobManager and
 * streamed back row by row in run order, the way `picosim_run` and the
 * daemon's RESULT verb consume them.
 */

#ifndef HOSTBENCH_INPROCESS_HH
#define HOSTBENCH_INPROCESS_HH

#include <cstdint>
#include <vector>

#include "bench.hh"
#include "service/job_manager.hh"

namespace hostbench
{

/** One job as its in-process client saw it. */
struct JobTiming
{
    std::uint64_t id = 0;
    picosim::svc::JobState state = picosim::svc::JobState::Queued;
    std::vector<picosim::svc::RunRow> rows;
    std::vector<double> rowAt; ///< s from submit until row i streamed
    RequestSample sample;      ///< latency and protocol phases
};

/**
 * Submit @p job, stream its rows in run order, wait for the final state.
 * With an enabled @p tracer, the request and its phases become spans
 * (layer "client") tagged @p request. A tail probe polls the job's
 * finished-run count while it runs when @p tailS is given, and stores
 * the time between its last two run completions there.
 */
JobTiming runJob(picosim::svc::JobManager &mgr,
                 const picosim::svc::JobSpec &job, Tracer &tracer,
                 std::uint64_t request, double *tailS = nullptr);

/** Send the warm-up request (kWarmupSpecText, planned like picosim_run)
 *  and gate its main run against the CLI golden. */
void warmupInProcess(picosim::svc::JobManager &mgr, Gate &gate);

/** Gate @p job: it ended Done, and every row finished Ok, completed and
 *  ran the program its spec builds (@p tasks per run). Marks failed
 *  rows in @p bad (sized like the rows). */
void gateRows(Gate &gate, const std::string &what, const JobTiming &job,
              const std::vector<std::uint64_t> &tasks,
              std::vector<char> &bad);

/** Task count of every spec's program (the gate's expectation). */
std::vector<std::uint64_t>
programTasks(const std::vector<picosim::spec::RunSpec> &specs);

/**
 * Traced runs: replay every run of @p job through the layers on
 * @p threads threads (spans under @p request), and gate each row
 * field-for-field against a direct spec::Engine::run of its spec. The
 * spec-parse probe times RunSpec::parse of each canonical spec's text.
 * Marks failed rows in @p bad.
 */
std::vector<Replayed>
replayJob(Context &ctx, const std::vector<picosim::spec::RunSpec> &specs,
          const JobTiming &job, std::uint64_t request, unsigned threads,
          std::vector<double> &parseS, std::vector<char> &bad);

} // namespace hostbench

#endif // HOSTBENCH_INPROCESS_HH
