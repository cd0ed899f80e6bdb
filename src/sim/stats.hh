/**
 * @file
 * Minimal gem5-flavoured statistics package.
 *
 * Components register named scalars/histograms with a StatGroup; harness
 * code dumps them as text or consumes them programmatically.
 */

#ifndef PICOSIM_SIM_STATS_HH
#define PICOSIM_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace picosim::sim
{

/** A named accumulating counter. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator++() { value_ += 1.0; return *this; }
    void set(double v) { value_ = v; }
    double value() const { return value_; }
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/** A simple sample-statistics accumulator (count/sum/min/max/mean). */
class Distribution
{
  public:
    void
    sample(double v)
    {
        if (count_ == 0) {
            min_ = max_ = v;
        } else {
            min_ = std::min(min_, v);
            max_ = std::max(max_, v);
        }
        sum_ += v;
        sumSq_ += v * v;
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    double
    variance() const
    {
        if (count_ < 2)
            return 0.0;
        const double m = mean();
        return sumSq_ / count_ - m * m;
    }

    void
    reset()
    {
        count_ = 0;
        sum_ = sumSq_ = min_ = max_ = 0.0;
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Cycles [begin, end) during which a component is held down (a fault),
 * so a stall it is in goes unretried. end = kCycleNever when it never
 * heals; the default window is empty.
 */
struct HoldWindow
{
    Cycle begin = kCycleNever;
    Cycle end = kCycleNever;
};

/**
 * A stall counter kept as an interval. A component blocked on a
 * consumer sleeps until the consumer's pop or retirement wakes it, so
 * nothing retries once per blocked cycle, and TickWorld ticks it at
 * cycles the event kernel skips. The counter still reads what a retry
 * every cycle would count: 1 at the stall's first cycle, plus every
 * cycle until release, less the cycles a hold window covers. An open
 * interval is added to the counter whenever the stats are read (flush).
 */
class StallInterval
{
  public:
    explicit StallInterval(Scalar *counter) : counter_(counter) {}

    bool open() const { return from_ != kCycleNever; }

    /** An attempt blocked at @p now; opens the interval, counting @p now. */
    void
    block(Cycle now)
    {
        if (open())
            return;
        ++*counter_;
        from_ = now + 1;
    }

    /** The blocked attempt went through at @p now: count up to it, close. */
    void
    release(Cycle now, HoldWindow hold = {})
    {
        flush(now, hold);
        from_ = kCycleNever;
    }

    /** Count the open interval's cycles before @p asOf. */
    void
    flush(Cycle asOf, HoldWindow hold = {})
    {
        if (!open() || asOf <= from_)
            return;
        Cycle n = asOf - from_;
        const Cycle lo = std::max(from_, hold.begin);
        const Cycle hi = std::min(asOf, hold.end);
        if (hi > lo)
            n -= hi - lo;
        *counter_ += static_cast<double>(n);
        from_ = asOf;
    }

    /** Drop an open interval without counting it (component reset). */
    void clear() { from_ = kCycleNever; }

  private:
    Scalar *counter_;
    Cycle from_ = kCycleNever; ///< first cycle not yet counted; never = closed
};

/**
 * A flat registry of named statistics. Hierarchy is encoded in the names
 * ("picos.readyQueue.pops") like gem5's stat dump.
 */
class StatGroup
{
  public:
    Scalar &scalar(const std::string &name) { return scalars_[name]; }
    Distribution &dist(const std::string &name) { return dists_[name]; }

    bool hasScalar(const std::string &name) const
    {
        return scalars_.count(name) > 0;
    }

    double
    scalarValue(const std::string &name) const
    {
        auto it = scalars_.find(name);
        return it == scalars_.end() ? 0.0 : it->second.value();
    }

    /**
     * Sum of every scalar whose name starts with @p prefix and ends with
     * @p suffix — aggregates per-instance port stats ("manager.c3
     * .routingQueue.pushStalls") across replicated components.
     */
    double
    sumScalars(const std::string &prefix, const std::string &suffix) const
    {
        double sum = 0.0;
        for (auto it = scalars_.lower_bound(prefix);
             it != scalars_.end() && it->first.compare(0, prefix.size(),
                                                       prefix) == 0;
             ++it) {
            const std::string &name = it->first;
            if (name.size() >= suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0)
                sum += it->second.value();
        }
        return sum;
    }

    void
    reset()
    {
        for (auto &kv : scalars_)
            kv.second.reset();
        for (auto &kv : dists_)
            kv.second.reset();
    }

    /** Dump all statistics, sorted by name, as "name value" lines. */
    void dump(std::ostream &os) const;

  private:
    std::map<std::string, Scalar> scalars_;
    std::map<std::string, Distribution> dists_;
};

} // namespace picosim::sim

#endif // PICOSIM_SIM_STATS_HH
