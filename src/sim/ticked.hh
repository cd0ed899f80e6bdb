/**
 * @file
 * Interface for cycle-evaluated hardware components.
 */

#ifndef PICOSIM_SIM_TICKED_HH
#define PICOSIM_SIM_TICKED_HH

#include <string>
#include <vector>

#include "sim/types.hh"

namespace picosim::sim
{

class Simulator;

/**
 * A component evaluated at simulated cycles by the kernel.
 *
 * A component states its schedule once, in nextDue(), and both kernels
 * take their cycles from that one query:
 *
 *  - the event-driven kernel (the default) evaluates a component only at
 *    cycles for which it is armed in the timing wheel; after every
 *    tick() it re-arms the component at nextDue(now + 1);
 *  - the reference tick-the-world kernel (EvalMode::TickWorld) ticks
 *    every component, in registration order, then advances to the
 *    minimum nextDue(now + 1) over all components.
 *
 * Both apply the same clamp: a due at or before `next` (= now + 1) means
 * "evaluate next cycle", and kCycleNever means "only when requestWake()
 * asks". Any state mutation from outside the component's own tick() — a
 * producer pushing into one of its queues, a consumer freeing space —
 * must be accompanied by a requestWake() so the sleeping component is
 * evaluated when that state becomes visible.
 *
 * Components scheduled for the same cycle are evaluated in registration
 * order, so the event kernel's results are bit-identical to TickWorld's.
 *
 * Dispatch: tick()/nextDue() are virtual for flexibility (unit tests
 * subclass freely), but the kernel's per-event path goes through a
 * flattened per-component function-pointer table. A concrete component
 * class calls bindFastDispatch<Self>() in its constructor to devirtualize
 * that table: the generated thunks call Self::tick() and Self::nextDue()
 * statically, so they inline into the thunk and skip the vtable load on
 * every event.
 */
class Ticked
{
  public:
    explicit Ticked(std::string name) : name_(std::move(name))
    {
        // Fallback thunks: dispatch through the vtable until a concrete
        // class binds itself via bindFastDispatch<Self>().
        tickFn_ = [](Ticked *t) { t->tick(); };
        dueFn_ = [](const Ticked *t, Cycle next) {
            return t->nextDue(next);
        };
    }

    virtual ~Ticked() = default;

    Ticked(const Ticked &) = delete;
    Ticked &operator=(const Ticked &) = delete;

    /** Evaluate one cycle at the current clock value. */
    virtual void tick() = 0;

    /**
     * The cycle this component next needs to be evaluated at, given
     * @p next = now + 1: any cycle at or before @p next when it has work
     * in the immediate next cycle (non-empty internal queues, in-flight
     * operations, resumable harts), else the earliest future cycle it
     * must run at, or kCycleNever when it is idle until external
     * stimulus arrives.
     */
    virtual Cycle nextDue(Cycle next) const = 0;

    /**
     * Ask the owning kernel to evaluate this component at (or after)
     * @p cycle. Safe to call from anywhere — another component's tick(),
     * a hart coroutine, or harness code between runs. A no-op when the
     * component is not registered with a Simulator (bare unit tests) or
     * the kernel runs in TickWorld mode. Requests for the current cycle
     * made after this component's evaluation slot has passed take effect
     * next cycle, preserving registration-order semantics.
     */
    void requestWake(Cycle cycle);

    /** True once registered with a Simulator. */
    bool attached() const { return sim_ != nullptr; }

    /** Position in the kernel's registration order (valid when attached). */
    unsigned regIndex() const { return regIndex_; }

    const std::string &name() const { return name_; }

    // -- Flattened kernel-facing dispatch --------------------------------

    void fastTick() { tickFn_(this); }
    Cycle fastDue(Cycle next) const { return dueFn_(this, next); }

  protected:
    /**
     * Devirtualize the kernel dispatch for the most-derived class. Call
     * from the constructor of the concrete component type; the qualified
     * Self::tick()/Self::nextDue() calls in the generated thunks bind
     * statically and inline. Classes that skip this simply pay the
     * virtual call.
     */
    template <typename Self>
    void
    bindFastDispatch()
    {
        tickFn_ = [](Ticked *t) { static_cast<Self *>(t)->Self::tick(); };
        dueFn_ = [](const Ticked *t, Cycle next) {
            return static_cast<const Self *>(t)->Self::nextDue(next);
        };
    }

  private:
    friend class Simulator;

    std::string name_;

    // Flattened dispatch table (virtual-call thunks until a concrete
    // class binds itself).
    void (*tickFn_)(Ticked *) = nullptr;
    Cycle (*dueFn_)(const Ticked *, Cycle) = nullptr;

    // -- Scheduling bookkeeping, owned by the registered Simulator --
    Simulator *sim_ = nullptr;
    unsigned regIndex_ = 0;   ///< registration slot
    Cycle armedAt_ = kCycleNever;  ///< cycle of the single wheel entry
    Cycle selfSched_ = kCycleNever; ///< kernel re-arm after last tick
    Cycle extHead_ = kCycleNever;  ///< earliest pending external wake
    Cycle lastTick_ = kCycleNever; ///< cycle of the last evaluation
    bool far_ = false;             ///< armed beyond the wheel horizon
    std::vector<Cycle> extMore_;   ///< later pending external wakes, sorted
};

} // namespace picosim::sim

#endif // PICOSIM_SIM_TICKED_HH
