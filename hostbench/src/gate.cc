#include "gate.hh"

#include <map>

#include "service/wire.hh"

namespace hostbench
{

namespace wire = picosim::svc::wire;

bool
runOk(const picosim::rt::RunResult &r)
{
    return r.status == picosim::rt::RunStatus::Ok && r.completed;
}

std::string
firstDifference(const picosim::rt::RunResult &a,
                const picosim::rt::RunResult &b)
{
    const auto fa = wire::parseFlatJson(wire::runResultJson(a));
    const auto fb = wire::parseFlatJson(wire::runResultJson(b));
    for (const auto &[key, value] : fa) {
        const auto it = fb.find(key);
        if (it == fb.end() || it->second != value)
            return key;
    }
    return fa.size() == fb.size() ? std::string() : "<field set>";
}

bool
Gate::same(const std::string &what, picosim::rt::RunResult expected,
           const picosim::rt::RunResult &actual)
{
    {
        const std::lock_guard<std::mutex> lk(lock_);
        if (corrupt_) {
            corrupt_ = false;
            expected.cycles += 1;
        }
    }
    const std::string diff = firstDifference(expected, actual);
    return check(what, diff.empty(), "field '" + diff + "' differs");
}

bool
Gate::check(const std::string &what, bool ok, const std::string &detail)
{
    if (!ok) {
        const std::lock_guard<std::mutex> lk(lock_);
        failures_.push_back(what + (detail.empty() ? "" : ": " + detail));
    }
    return ok;
}

bool
Gate::passed() const
{
    const std::lock_guard<std::mutex> lk(lock_);
    return failures_.empty();
}

std::vector<std::string>
Gate::failures() const
{
    const std::lock_guard<std::mutex> lk(lock_);
    return failures_;
}

} // namespace hostbench
