/**
 * @file
 * Cycle-level model of the Picos task-dependence-management accelerator
 * (Yazdanpanah et al. [24], Tan et al. [18,19,20]; paper Section IV-D).
 *
 * External interface (all 32-bit packet queues, as in the paper):
 *  - submission queue: receives 48-packet task descriptors (Figure 3);
 *  - ready queue: emits 3 packets (Picos ID, SW ID hi, SW ID lo) per
 *    ready-to-run task;
 *  - retirement queue: receives one Picos ID per retired task.
 *
 * Internals: a gateway FSM ingests one packet per cycle; a task reservation
 * station holds in-flight tasks; the dependence table tracks, per monitored
 * address, the last writer and the readers since then, from which RAW, WAW
 * and WAR edges are derived (Section III-A). Retirement wakes dependents
 * and re-feeds the ready scheduler.
 */

#ifndef PICOSIM_PICOS_PICOS_HH
#define PICOSIM_PICOS_PICOS_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "picos/dep_table.hh"
#include "picos/picos_params.hh"
#include "picos/scheduler_if.hh"
#include "rocc/task_packets.hh"
#include "sim/clock.hh"
#include "sim/queue.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"

namespace picosim::picos
{

/** Lifecycle of a task reservation entry. */
enum class TaskState : std::uint8_t {
    Free,    ///< entry unused
    Waiting, ///< has unresolved dependences
    Ready,   ///< queued for / streaming to the ready interface
    Running, ///< handed to a core, awaiting retirement
};

class Picos final : public sim::Ticked, public SchedulerIf
{
  public:
    Picos(const sim::Clock &clock, const PicosParams &params,
          sim::StatGroup &stats);

    // -- Submission interface --
    bool subCanAccept() const override { return subQueue_.canPush(); }
    bool subPush(std::uint32_t packet) override;

    // -- Ready interface (3 packets per task) --
    bool readyValid() const override { return readyQueue_.frontReady(); }

    std::uint32_t
    readyPop() override
    {
        // The pop that makes room for a whole descriptor unblocks an
        // issue waiting for it; nothing else here depends on the space.
        if (readyIssuingId_ >= 0 && readySpace() == 2)
            requestWake(clock_.now());
        return readyQueue_.pop();
    }

    /**
     * Register the consumer of the ready interface (the Picos Manager's
     * packet encoder). The event-driven kernel evaluates only scheduled
     * components, so Picos wakes its consumer whenever ready packets
     * become visible; without this the encoder would sleep through them.
     * The same consumer feeds the submission and retirement queues, and
     * a pop from either one while it is full wakes it too: a manager
     * blocked on a full queue sleeps until then.
     */
    void
    setReadyListener(sim::Ticked *listener) override
    {
        readyListener_ = listener;
    }

    // -- Retirement interface --
    bool retireCanAccept() const override { return retireQueue_.canPush(); }
    bool retirePush(std::uint32_t picos_id) override;

    // -- Ticked --
    void tick() override;
    Cycle nextDue(Cycle next) const override;

    // -- Introspection (tests, stats) --
    unsigned inFlightTasks() const { return inFlight_; }
    bool quiescent() const;
    const PicosParams &params() const { return params_; }
    TaskState taskState(std::uint32_t picos_id) const;
    std::size_t depTableEntries() const { return depTable_.validEntries(); }
    std::uint64_t tasksProcessed() const { return tasksProcessed_; }
    std::uint64_t tasksRetired() const { return tasksRetired_; }

    /** Count open stall intervals up to @p as_of (a stats read). */
    void flushStalls(Cycle as_of);

    void reset();

  private:
    struct TaskEntry
    {
        TaskState state = TaskState::Free;
        std::uint32_t gen = 0;
        std::uint64_t swId = 0;
        unsigned pendingDeps = 0;
        std::vector<TaskRef> dependents;

        /** Descriptor still being applied by the gateway: retirements
         *  must not mark the task ready yet — deps beyond a table-stall
         *  resume point may still add edges. */
        bool applying = false;
    };

    bool alive(const TaskRef &ref) const;
    TaskRef refOf(std::uint32_t id) const;
    bool entryEvictable(const DepEntry &entry) const;

    /** Allocate a TRS entry; returns id or -1 when full. */
    int allocTask();

    /** Run the gateway FSM for one cycle. */
    void tickGateway();

    /** Apply dependence analysis for the decoded descriptor. @return true
     *  if all table allocations succeeded (otherwise stall and retry). */
    bool applyDescriptor();

    /** Add edge producer -> consumer (consumer waits on producer). */
    void addEdge(const TaskRef &producer, std::uint32_t consumer_id);

    void tickReadyIssue();
    void tickRetire();

    void markReady(std::uint32_t id);

    std::size_t
    readySpace() const
    {
        return readyQueue_.capacity() - readyQueue_.size();
    }

    /** Pop @p q's visible front, waking the ready listener when the pop
     *  frees the slot a blocked producer waits for. */
    std::uint32_t popWakingProducer(sim::TimedFifo<std::uint32_t> &q);

    const sim::Clock &clock_;
    PicosParams params_;

    // Cached stat-registry slots (node addresses are stable); bumped on
    // every packet/edge, so the hot path never does a name lookup.
    sim::Scalar *statSubPackets_;
    sim::Scalar *statRetirePackets_;
    sim::Scalar *statDepEdges_;
    sim::Scalar *statReadyIssued_;
    sim::Scalar *statBadRetires_;
    sim::Scalar *statRetires_;
    sim::Distribution *statInFlight_;

    sim::TimedFifo<std::uint32_t> subQueue_;
    sim::TimedFifo<std::uint32_t> readyQueue_;
    sim::TimedFifo<std::uint32_t> retireQueue_;

    // Gateway state.
    std::vector<std::uint32_t> collectBuffer_;
    enum class GwState : std::uint8_t { Collect, Process, Stalled };
    GwState gwState_ = GwState::Collect;
    Cycle gwBusyUntil_ = 0;
    int gwTaskId_ = -1;
    std::size_t gwDepIndex_ = 0; ///< resume point across table stalls
    rocc::TaskDescriptor gwDesc_;

    // Task reservation station.
    std::vector<TaskEntry> tasks_;
    std::deque<std::uint32_t> freeList_;
    unsigned inFlight_ = 0;

    // Dependence table.
    DepTable depTable_;

    // Ready scheduling.
    std::deque<std::uint32_t> readyPending_;
    Cycle readyBusyUntil_ = 0;
    int readyIssuingId_ = -1;

    // Retirement.
    Cycle retireBusyUntil_ = 0;

    // Ready-interface consumer woken when ready packets become visible.
    sim::Ticked *readyListener_ = nullptr;

    // The gateway's two stalls, counted as intervals (see StallInterval):
    // both can only clear on a retirement.
    sim::StallInterval depTableStall_;
    sim::StallInterval trsStall_;

    std::uint64_t tasksProcessed_ = 0;
    std::uint64_t tasksRetired_ = 0;
};

} // namespace picosim::picos

#endif // PICOSIM_PICOS_PICOS_HH
