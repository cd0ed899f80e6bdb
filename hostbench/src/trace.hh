/**
 * @file
 * In-memory spans around the benchmark's calls into picosim's layers.
 *
 * A span has a name (the call), a layer (the src/ module it enters), a
 * parent span, the request it belongs to, and steady-clock start/end
 * times. Spans stay in memory while the benchmark runs and are written
 * once at exit as a Chrome trace-event array — the format
 * `picosim_run --trace` emits, so the same viewers open both. A span's
 * self time is its duration minus the part of it its children cover.
 */

#ifndef HOSTBENCH_TRACE_HH
#define HOSTBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hostbench
{

using SteadyClock = std::chrono::steady_clock;

/** Seconds elapsed between two steady-clock points. */
double secondsBetween(SteadyClock::time_point a, SteadyClock::time_point b);

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0; ///< 0 = not tied to one request
    std::string name;
    std::string layer;
    double start = 0.0; ///< seconds since the tracer's origin
    double end = 0.0;
    unsigned thread = 0;

    double duration() const { return end - start; }
};

/**
 * Self time of @p span given its direct @p children: the span's duration
 * minus the length of the union of the children's intervals clipped to
 * the span. Overlapping children (concurrent work under one parent)
 * count once.
 */
double selfTime(const Span &span, const std::vector<Span> &children);

class Tracer
{
  public:
    /** A disabled tracer records nothing and costs one branch per call. */
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Seconds since this tracer was created. */
    double now() const;

    /** Record a finished span; returns its id (0 when disabled). */
    std::uint64_t add(std::string name, std::string layer,
                      std::uint64_t parent, std::uint64_t request,
                      double start, double end);

    /** Reserve an id for a span whose children are recorded before it
     *  finishes; close it later with addWithId(). */
    std::uint64_t reserveId();

    void addWithId(std::uint64_t id, std::string name, std::string layer,
                   std::uint64_t parent, std::uint64_t request,
                   double start, double end);

    /** RAII span: starts now, recorded on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string name, std::string layer,
              std::uint64_t parent = 0, std::uint64_t request = 0);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        std::uint64_t id() const { return id_; }

      private:
        Tracer &tracer_;
        std::string name_;
        std::string layer_;
        std::uint64_t parent_;
        std::uint64_t request_;
        std::uint64_t id_;
        double start_;
    };

    /** Snapshot of every recorded span, in recording order. */
    std::vector<Span> spans() const;

    /** Write the Chrome trace-event array to @p path; false on I/O
     *  failure. */
    bool writeChrome(const std::string &path) const;

  private:
    const bool enabled_;
    const SteadyClock::time_point origin_;

    mutable std::mutex lock_;
    std::uint64_t nextId_ = 1;
    std::vector<Span> spans_;
    std::map<std::size_t, unsigned> threadIds_; ///< hashed thread → lane
};

/** Per-span self time, keyed by span id, computed over @p spans. */
std::map<std::uint64_t, double> selfTimes(const std::vector<Span> &spans);

} // namespace hostbench

#endif // HOSTBENCH_TRACE_HH
