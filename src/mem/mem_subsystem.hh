/**
 * @file
 * Timed, contention-aware memory subsystem (MemMode::Timed).
 *
 * TimedMemory is the Ticked front half of the memory system: harts issue
 * line-granular requests into per-core L1 front-ends and suspend
 * (sim::BlockHart) until the response arrives; the subsystem schedules
 * each request against three shared/limited resources and wakes the hart
 * at its completion cycle:
 *
 *  - per-core issue slot: one access enters a core's L1 pipeline per
 *    cycle, so bursts (streamTouch) serialize at the front-end;
 *  - per-core MSHRs: a bounded number of outstanding misses; a miss that
 *    finds all MSHRs busy waits for the oldest outstanding completion
 *    (backpressure);
 *  - the shared bus and main memory: FCFS Arbiters with per-transaction
 *    occupancy. Misses occupy the bus for a line transfer; refills and
 *    dirty transfers additionally occupy main memory (a MESI dirty
 *    transfer pays the owner writeback plus the requester refill).
 *
 * Functional MESI state and zero-contention latencies come from the
 * shared CoherentMemory, so an uncontended blocking access costs exactly
 * what MemMode::Inline charges — contention, queuing, and burst
 * parallelism are the only deltas between the modes.
 *
 * Determinism contract: requests are processed in issue order at the
 * issue cycle (harts tick before this component, which is woken for the
 * same cycle), and the whole schedule is cycle arithmetic over resource
 * free-at horizons. Nothing depends on how often tick() runs, so
 * EvalMode::EventDriven and EvalMode::TickWorld stay bit-identical.
 */

#ifndef PICOSIM_MEM_MEM_SUBSYSTEM_HH
#define PICOSIM_MEM_MEM_SUBSYSTEM_HH

#include <deque>
#include <vector>

#include "mem/coherent_memory.hh"
#include "sim/clock.hh"
#include "sim/cotask.hh"
#include "sim/port.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"
#include "sim/types.hh"

namespace picosim::mem
{

class TimedMemory final : public sim::Ticked
{
  public:
    TimedMemory(const sim::Clock &clock, CoherentMemory &func,
                sim::StatGroup &stats);

    /**
     * Bind the hart issuing on @p core: the context parked on BlockHart
     * and the core component to wake when its response completes.
     */
    void bindHart(CoreId core, sim::HartContext *ctx, sim::Ticked *hart);

    /**
     * Issue a burst of @p lines consecutive line accesses from @p core.
     * Must be called from that core's hart coroutine, which must
     * immediately `co_await sim::BlockHart{}`; the hart is woken at the
     * completion cycle of the last response. One outstanding burst per
     * core (the hart is blocked while it is in flight).
     */
    void issue(CoreId core, MemOp op, Addr base, unsigned lines);

    // -- Ticked --
    void tick() override;
    /** Runs only when issue() wakes it: the whole schedule is computed
     *  at the issue cycle. */
    Cycle nextDue(Cycle) const override { return kCycleNever; }

    const MemParams &params() const { return func_.params(); }

  private:
    struct Request
    {
        MemOp op;
        Addr addr;
    };

    /** Per-core L1 front-end. */
    struct Front
    {
        std::deque<Request> queue;   ///< issued, not yet scheduled
        std::vector<Cycle> inflight; ///< completions of outstanding misses
        Cycle slotFreeAt = 0;        ///< next free issue slot
        unsigned remaining = 0;      ///< burst requests not yet scheduled
        Cycle burstDone = 0;         ///< latest completion in the burst
        sim::HartContext *ctx = nullptr;
        sim::Ticked *hart = nullptr;
    };

    /** Schedule every queued request of @p core (all are schedulable:
     *  MSHR pressure delays the issue slot instead of stalling). */
    void drain(CoreId core);

    /** Schedule one request; @return its completion cycle. */
    Cycle schedule(CoreId core, const Request &req);

    const sim::Clock &clock_;
    CoherentMemory &func_;
    std::vector<Front> fronts_;
    sim::Arbiter bus_;
    sim::Arbiter dram_;
    sim::Scalar *accesses_;
    sim::Scalar *mshrStallCycles_;
};

} // namespace picosim::mem

#endif // PICOSIM_MEM_MEM_SUBSYSTEM_HH
