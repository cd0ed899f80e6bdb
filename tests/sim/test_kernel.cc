/** @file Unit tests for the simulation kernel (clock, tick, fast-forward). */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_wheel.hh"
#include "sim/kernel.hh"
#include "sim/ticked.hh"

using namespace picosim;
using namespace picosim::sim;

namespace
{

/** Component active for the first n ticks, then idle. */
class CountDown : public Ticked
{
  public:
    CountDown(const Clock &clk, unsigned n)
        : Ticked("countdown"), clk_(clk), remaining_(n)
    {
    }

    void
    tick() override
    {
        if (remaining_ > 0) {
            --remaining_;
            lastTick_ = clk_.now();
            ++ticks_;
        }
    }

    Cycle
    nextDue(Cycle next) const override
    {
        return remaining_ > 0 ? next : kCycleNever;
    }

    unsigned remaining() const { return remaining_; }
    unsigned ticks() const { return ticks_; }
    Cycle lastTick() const { return lastTick_; }

  private:
    const Clock &clk_;
    unsigned remaining_;
    unsigned ticks_ = 0;
    Cycle lastTick_ = 0;
};

/** Component idle until a programmed wake cycle, then active once. */
class Alarm : public Ticked
{
  public:
    Alarm(const Clock &clk, Cycle at)
        : Ticked("alarm"), clk_(clk), at_(at)
    {
    }

    void
    tick() override
    {
        if (!fired_ && clk_.now() >= at_) {
            fired_ = true;
            firedAt_ = clk_.now();
        }
    }

    Cycle
    nextDue(Cycle) const override
    {
        return fired_ ? kCycleNever : at_;
    }

    bool fired() const { return fired_; }
    Cycle firedAt() const { return firedAt_; }

  private:
    const Clock &clk_;
    Cycle at_;
    bool fired_ = false;
    Cycle firedAt_ = 0;
};

/**
 * A queue of n items that become visible at one cycle; each evaluation
 * from then on consumes one. While items remain, nextDue() keeps
 * returning their visibility cycle, which is at or before now once they
 * are visible — as Picos's does while visible packets sit in its ready
 * queue. Both kernels must then evaluate it at now + 1.
 */
class Backlog : public Ticked
{
  public:
    Backlog(const Clock &clk, Cycle visible_at, unsigned n)
        : Ticked("backlog"), clk_(clk), visibleAt_(visible_at),
          remaining_(n)
    {
    }

    void
    tick() override
    {
        if (remaining_ > 0 && clk_.now() >= visibleAt_) {
            --remaining_;
            consumedAt_.push_back(clk_.now());
        }
    }

    Cycle
    nextDue(Cycle) const override
    {
        return remaining_ > 0 ? visibleAt_ : kCycleNever;
    }

    unsigned remaining() const { return remaining_; }
    const std::vector<Cycle> &consumedAt() const { return consumedAt_; }

  private:
    const Clock &clk_;
    Cycle visibleAt_;
    unsigned remaining_;
    std::vector<Cycle> consumedAt_;
};

} // namespace

TEST(Clock, AdvancesMonotonically)
{
    Clock clk;
    EXPECT_EQ(clk.now(), 0u);
    clk.advanceTo(5);
    EXPECT_EQ(clk.now(), 5u);
    clk.advanceTo(3); // backwards is a no-op
    EXPECT_EQ(clk.now(), 5u);
}

TEST(Simulator, TicksWhileActive)
{
    Simulator sim;
    CountDown cd(sim.clock(), 3);
    sim.addTicked(&cd);
    EXPECT_TRUE(sim.run([&] { return cd.remaining() == 0; }, 100));
    EXPECT_EQ(cd.ticks(), 3u);
    EXPECT_LE(sim.clock().now(), 4u);
}

TEST(Simulator, FastForwardsToWake)
{
    Simulator sim;
    Alarm alarm(sim.clock(), 1'000'000);
    sim.addTicked(&alarm);
    EXPECT_TRUE(sim.run([&] { return alarm.fired(); }, 2'000'000));
    EXPECT_EQ(alarm.firedAt(), 1'000'000u);
    // The kernel must have skipped the idle stretch.
    EXPECT_LT(sim.evaluatedCycles(), 10u);
}

TEST(Simulator, HonorsCycleLimit)
{
    Simulator sim;
    CountDown cd(sim.clock(), 1'000'000);
    sim.addTicked(&cd);
    EXPECT_FALSE(sim.run([] { return false; }, 100));
    EXPECT_LE(sim.clock().now(), 102u);
}

TEST(Simulator, ReturnsFalseWhenFullyIdle)
{
    Simulator sim;
    Alarm alarm(sim.clock(), 10);
    sim.addTicked(&alarm);
    // Alarm fires then goes idle forever; predicate never true.
    EXPECT_FALSE(sim.run([] { return false; }, 1'000'000));
}

TEST(Simulator, RunForAdvancesExactly)
{
    Simulator sim;
    CountDown cd(sim.clock(), 5);
    sim.addTicked(&cd);
    sim.runFor(50);
    EXPECT_EQ(sim.clock().now(), 50u);
    EXPECT_EQ(cd.remaining(), 0u);
}

TEST(Simulator, MultipleComponentsTickInOrder)
{
    Simulator sim;
    CountDown a(sim.clock(), 2), b(sim.clock(), 4);
    sim.addTicked(&a);
    sim.addTicked(&b);
    EXPECT_TRUE(sim.run([&] { return b.remaining() == 0; }, 100));
    EXPECT_EQ(a.ticks(), 2u);
    EXPECT_EQ(b.ticks(), 4u);
}

namespace
{

/**
 * Purely event-driven component: never reports activity, only runs when
 * someone requests a wake. Records every cycle it was evaluated at into a
 * shared journal tagged with its name.
 */
class WakeRecorder : public Ticked
{
  public:
    WakeRecorder(const Clock &clk, std::string name,
                 std::vector<std::pair<std::string, Cycle>> &journal)
        : Ticked(std::move(name)), clk_(clk), journal_(journal)
    {
    }

    void tick() override { journal_.emplace_back(name(), clk_.now()); }
    Cycle nextDue(Cycle) const override { return kCycleNever; }

  private:
    const Clock &clk_;
    std::vector<std::pair<std::string, Cycle>> &journal_;
};

} // namespace

TEST(EventKernel, WakesComponentExactlyAtRequestedCycle)
{
    Simulator sim;
    std::vector<std::pair<std::string, Cycle>> journal;
    WakeRecorder w(sim.clock(), "w", journal);
    sim.addTicked(&w);

    w.requestWake(500);
    w.requestWake(4000);
    sim.runFor(10'000);

    // Initial registration tick at 0, then exactly the requested cycles.
    ASSERT_EQ(journal.size(), 3u);
    EXPECT_EQ(journal[0].second, 0u);
    EXPECT_EQ(journal[1].second, 500u);
    EXPECT_EQ(journal[2].second, 4000u);
    // Only the scheduled cycles were evaluated at all.
    EXPECT_EQ(sim.evaluatedCycles(), 3u);
    EXPECT_EQ(sim.componentTicks(), 3u);
}

TEST(EventKernel, SameCycleWakesRunInRegistrationOrder)
{
    Simulator sim;
    std::vector<std::pair<std::string, Cycle>> journal;
    WakeRecorder a(sim.clock(), "a", journal);
    WakeRecorder b(sim.clock(), "b", journal);
    WakeRecorder c(sim.clock(), "c", journal);
    sim.addTicked(&a);
    sim.addTicked(&b);
    sim.addTicked(&c);

    // Schedule in reverse registration order; evaluation must not care.
    c.requestWake(100);
    b.requestWake(100);
    a.requestWake(100);
    sim.runFor(200);

    ASSERT_EQ(journal.size(), 6u); // 3 registration ticks + 3 wakes
    EXPECT_EQ(journal[3], (std::pair<std::string, Cycle>{"a", 100}));
    EXPECT_EQ(journal[4], (std::pair<std::string, Cycle>{"b", 100}));
    EXPECT_EQ(journal[5], (std::pair<std::string, Cycle>{"c", 100}));
}

TEST(EventKernel, PastWakeIsClampedToCurrentCycle)
{
    Simulator sim;
    std::vector<std::pair<std::string, Cycle>> journal;
    WakeRecorder w(sim.clock(), "w", journal);
    sim.addTicked(&w);
    sim.runFor(50);

    w.requestWake(10); // already in the past: clamp to "now"
    sim.runFor(50);

    ASSERT_EQ(journal.size(), 2u);
    EXPECT_EQ(journal[1].second, 50u);
}

TEST(EventKernel, DuplicateWakesCoalesce)
{
    Simulator sim;
    std::vector<std::pair<std::string, Cycle>> journal;
    WakeRecorder w(sim.clock(), "w", journal);
    sim.addTicked(&w);
    for (int i = 0; i < 100; ++i)
        w.requestWake(300);
    sim.runFor(1000);

    ASSERT_EQ(journal.size(), 2u); // registration tick + one wake
    EXPECT_EQ(journal[1].second, 300u);
}

TEST(EventKernel, SkipsQuiescentComponents)
{
    // One busy component plus nine sleepers: the event kernel must only
    // evaluate the busy one, while the tick-the-world baseline pays for
    // all ten every cycle.
    Simulator sim;
    CountDown busy(sim.clock(), 1000);
    std::vector<std::pair<std::string, Cycle>> journal;
    std::vector<std::unique_ptr<WakeRecorder>> sleepers;
    sim.addTicked(&busy);
    for (int i = 0; i < 9; ++i) {
        sleepers.push_back(std::make_unique<WakeRecorder>(
            sim.clock(), "s" + std::to_string(i), journal));
        sim.addTicked(sleepers.back().get());
    }
    EXPECT_TRUE(sim.run([&] { return busy.remaining() == 0; }, 10'000));

    // 9 registration ticks + 1000 busy ticks vs 10 * 1000 for the
    // reference kernel: well over the 2x reduction target.
    EXPECT_LE(sim.componentTicks(), 1010u);
    EXPECT_GE(sim.tickWorldTicks(), 10'000u);
}

TEST(EventKernel, ModesProduceIdenticalSchedules)
{
    // The same component set must see ticks at the same cycles under both
    // kernels (modulo no-op ticks, which the components don't record),
    // whether driven by run() or by runFor(). Both kernels take their
    // cycles from Ticked::nextDue(); each case covers one of its rules.
    struct Case
    {
        const char *what;
        unsigned countdown;    ///< CountDown's busy ticks
        Cycle alarmAt;         ///< Alarm's self-scheduled cycle
        Cycle backlogAt;       ///< Backlog's visibility cycle
        unsigned backlogItems; ///< 0 = Backlog stays idle
        Cycle horizon;         ///< run() limit, runFor() length
    };
    constexpr Cycle kBeyondWheel = 3 * EventWheel::kBuckets + 5;
    const Case cases[] = {
        {"busy, then a future due", 7, 5000, 0, 0, 100'000},
        {"a due at or before now for a stretch", 7, 5000, 100, 20,
         100'000},
        {"a self-scheduled due beyond the wheel horizon", 3,
         kBeyondWheel, 0, 0, kBeyondWheel + 100},
    };

    // Final clock, CountDown's last tick, Alarm's firing cycle, then
    // every cycle Backlog consumed at.
    const auto observe = [](const Case &c, EvalMode mode, bool run_for) {
        Simulator sim(mode);
        CountDown cd(sim.clock(), c.countdown);
        Alarm alarm(sim.clock(), c.alarmAt);
        Backlog backlog(sim.clock(), c.backlogAt, c.backlogItems);
        sim.addTicked(&cd);
        sim.addTicked(&alarm);
        sim.addTicked(&backlog);
        if (run_for) {
            sim.runFor(c.horizon);
        } else {
            EXPECT_TRUE(sim.run(
                [&] {
                    return alarm.fired() && cd.remaining() == 0 &&
                           backlog.remaining() == 0;
                },
                c.horizon));
        }
        std::vector<Cycle> seen = {sim.clock().now(), cd.lastTick(),
                                   alarm.firedAt()};
        seen.insert(seen.end(), backlog.consumedAt().begin(),
                    backlog.consumedAt().end());
        return seen;
    };

    for (const Case &c : cases) {
        std::vector<Cycle> backlogCycles;
        for (unsigned i = 0; i < c.backlogItems; ++i)
            backlogCycles.push_back(c.backlogAt + i);
        for (const bool run_for : {false, true}) {
            SCOPED_TRACE(std::string(c.what) +
                         (run_for ? " via runFor()" : " via run()"));
            const std::vector<Cycle> event =
                observe(c, EvalMode::EventDriven, run_for);
            EXPECT_EQ(event, observe(c, EvalMode::TickWorld, run_for));
            EXPECT_EQ(event[2], c.alarmAt);
            EXPECT_EQ(std::vector<Cycle>(event.begin() + 3, event.end()),
                      backlogCycles);
        }
    }
}
