// Deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and a queue of events of one kind: a
// process resume, ordered by (time, seq) where seq is the insertion count,
// so resumes at equal timestamps fire in the order they were scheduled and
// every simulation is exactly reproducible.  Simulated processes (MPI ranks,
// benchmark drivers) run on fibers and schedule their resumes through
// Engine::spawn and Process::advance / block / unblock_at.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "sim/fiber.h"
#include "support/units.h"

namespace swapp::sim {

class Engine;

/// A simulated process: a named fiber with blocking primitives.
///
/// Created through Engine::spawn; lifetime is owned by the engine.  All
/// member functions other than unblock_at must be called from inside the
/// process's own fiber.
class Process {
 public:
  const std::string& name() const noexcept { return name_; }
  std::uint32_t id() const noexcept { return id_; }
  bool finished() const noexcept { return fiber_->finished(); }

  /// Advances this process's local view of time by `dt`: the process sleeps
  /// and resumes once the clock reaches now() + dt.
  void advance(Seconds dt);

  /// Suspends until another party calls unblock_at().  Returns the
  /// simulation time at which the process was resumed.
  Seconds block();

  /// Schedules this process to resume at simulation time `when` (clamped to
  /// the current time if in the past).  Callable from any context.  Calling
  /// it for a process that is not blocked is an error.
  void unblock_at(Seconds when);

  /// True while the process is waiting inside block().
  bool blocked() const noexcept { return blocked_; }

  Engine& engine() noexcept { return engine_; }

 private:
  friend class Engine;
  Process(Engine& engine, std::uint32_t id, std::string name,
          std::function<void(Process&)> body, std::size_t stack_bytes);

  Engine& engine_;
  std::uint32_t id_;
  std::string name_;
  std::unique_ptr<Fiber> fiber_;
  bool blocked_ = false;
  bool resume_scheduled_ = false;
};

/// The simulation engine: clock + event queue + process table.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulation time in seconds.
  Seconds now() const noexcept { return now_; }

  /// Creates a process whose body starts executing at time `start`
  /// (>= now, else InvalidArgument).  The returned reference stays valid for
  /// the engine's lifetime.
  Process& spawn(std::string name, std::function<void(Process&)> body,
                 Seconds start = 0.0,
                 std::size_t stack_bytes = Fiber::kDefaultStackBytes);

  /// Runs until the event queue drains.  Throws InternalError if processes
  /// remain blocked with no pending events (deadlock), or propagates the
  /// first exception thrown by a process body.
  void run();

  /// Number of processes that have not finished their body.
  std::size_t live_process_count() const noexcept;

 private:
  friend class Process;

  /// Resumes `proc` at `time`; `seq` breaks ties in scheduling order.
  struct Event {
    Seconds time;
    std::uint64_t seq;
    Process* proc;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;  // FIFO within a timestamp
    }
  };

  /// Queues a resume of `proc` at absolute time `when` (>= now).
  void schedule(Seconds when, Process& proc);

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  std::vector<std::unique_ptr<Process>> processes_;
};

}  // namespace swapp::sim
