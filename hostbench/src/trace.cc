#include "trace.hh"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>

#include "service/wire.hh"

namespace hostbench
{

double
secondsBetween(SteadyClock::time_point a, SteadyClock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
selfTime(const Span &span, const std::vector<Span> &children)
{
    std::vector<std::pair<double, double>> cover;
    cover.reserve(children.size());
    for (const Span &c : children) {
        const double lo = std::max(c.start, span.start);
        const double hi = std::min(c.end, span.end);
        if (hi > lo)
            cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double runStart = 0.0, runEnd = 0.0;
    bool open = false;
    for (const auto &[lo, hi] : cover) {
        if (open && lo <= runEnd) {
            runEnd = std::max(runEnd, hi);
            continue;
        }
        if (open)
            covered += runEnd - runStart;
        runStart = lo;
        runEnd = hi;
        open = true;
    }
    if (open)
        covered += runEnd - runStart;
    return span.duration() - covered;
}

std::map<std::uint64_t, double>
selfTimes(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, std::vector<Span>> children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].push_back(s);
    std::map<std::uint64_t, double> out;
    static const std::vector<Span> kNone;
    for (const Span &s : spans) {
        const auto it = children.find(s.id);
        out[s.id] = selfTime(s, it == children.end() ? kNone : it->second);
    }
    return out;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(SteadyClock::now())
{
}

double
Tracer::now() const
{
    return secondsBetween(origin_, SteadyClock::now());
}

std::uint64_t
Tracer::reserveId()
{
    if (!enabled_)
        return 0;
    const std::lock_guard<std::mutex> lk(lock_);
    return nextId_++;
}

void
Tracer::addWithId(std::uint64_t id, std::string name, std::string layer,
                  std::uint64_t parent, std::uint64_t request, double start,
                  double end)
{
    if (!enabled_)
        return;
    const std::size_t self =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::lock_guard<std::mutex> lk(lock_);
    const auto lane = threadIds_.try_emplace(
        self, static_cast<unsigned>(threadIds_.size()));
    Span s;
    s.id = id;
    s.parent = parent;
    s.request = request;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.start = start;
    s.end = end;
    s.thread = lane.first->second;
    spans_.push_back(std::move(s));
}

std::uint64_t
Tracer::add(std::string name, std::string layer, std::uint64_t parent,
            std::uint64_t request, double start, double end)
{
    const std::uint64_t id = reserveId();
    addWithId(id, std::move(name), std::move(layer), parent, request, start,
              end);
    return id;
}

Tracer::Scope::Scope(Tracer &tracer, std::string name, std::string layer,
                     std::uint64_t parent, std::uint64_t request)
    : tracer_(tracer), name_(std::move(name)), layer_(std::move(layer)),
      parent_(parent), request_(request), id_(tracer.reserveId()),
      start_(tracer.enabled() ? tracer.now() : 0.0)
{
}

Tracer::Scope::~Scope()
{
    if (tracer_.enabled())
        tracer_.addWithId(id_, std::move(name_), std::move(layer_), parent_,
                          request_, start_, tracer_.now());
}

std::vector<Span>
Tracer::spans() const
{
    const std::lock_guard<std::mutex> lk(lock_);
    return spans_;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const std::vector<Span> all = spans();
    os << "[\n";
    char buf[64];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        if (i > 0)
            os << ",\n";
        os << "  {\"name\": " << picosim::svc::wire::jsonString(s.name)
           << ", \"cat\": " << picosim::svc::wire::jsonString(s.layer)
           << ", \"ph\": \"X\"";
        std::snprintf(buf, sizeof(buf), ", \"ts\": %.3f, \"dur\": %.3f",
                      s.start * 1e6, s.duration() * 1e6);
        os << buf << ", \"pid\": 0, \"tid\": " << s.thread
           << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
           << ", \"request\": " << s.request << "}}";
    }
    os << "\n]\n";
    return static_cast<bool>(os.flush());
}

} // namespace hostbench
