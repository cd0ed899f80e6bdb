/**
 * @file
 * Result gate: every simulated result the benchmark sees is checked
 * against an independent expectation (a direct run of the same spec, a
 * bit-identical repetition, the warm-up golden). Any mismatch fails the
 * unit of work it belongs to and makes the command exit non-zero.
 */

#ifndef HOSTBENCH_GATE_HH
#define HOSTBENCH_GATE_HH

#include <mutex>
#include <string>
#include <vector>

#include "runtime/runtime.hh"

namespace hostbench
{

/** True when @p r ended Ok and completed its program. */
bool runOk(const picosim::rt::RunResult &r);

/** First field (wire name) where @p a and @p b differ, or "" when they
 *  agree on every field the wire carries. */
std::string firstDifference(const picosim::rt::RunResult &a,
                            const picosim::rt::RunResult &b);

class Gate
{
  public:
    /** @p corruptFirst perturbs the first expected result compared by
     *  same() (its cycle count, +1): the self-test uses it to prove a
     *  wrong result fails the command. */
    explicit Gate(bool corruptFirst = false) : corrupt_(corruptFirst) {}

    /** Field-for-field equality of @p actual against @p expected. */
    bool same(const std::string &what, picosim::rt::RunResult expected,
              const picosim::rt::RunResult &actual);

    /** Record @p detail as a failure of @p what unless @p ok. */
    bool check(const std::string &what, bool ok,
               const std::string &detail = {});

    bool passed() const;
    std::vector<std::string> failures() const;

  private:
    mutable std::mutex lock_;
    bool corrupt_;
    std::vector<std::string> failures_;
};

} // namespace hostbench

#endif // HOSTBENCH_GATE_HH
