#include "sim/engine.h"

#include <algorithm>
#include <utility>

#include "support/error.h"

namespace swapp::sim {

Process::Process(Engine& engine, std::uint32_t id, std::string name,
                 std::function<void(Process&)> body, std::size_t stack_bytes)
    : engine_(engine), id_(id), name_(std::move(name)) {
  fiber_ = std::make_unique<Fiber>([this, body = std::move(body)] { body(*this); },
                                   stack_bytes);
}

void Process::advance(Seconds dt) {
  SWAPP_REQUIRE(dt >= 0.0, "cannot advance time backwards");
  SWAPP_ASSERT(Fiber::in_fiber(), "advance() called outside process context");
  if (dt == 0.0) return;
  blocked_ = true;
  resume_scheduled_ = true;
  engine_.schedule(engine_.now() + dt, *this);
  Fiber::yield();
}

Seconds Process::block() {
  SWAPP_ASSERT(Fiber::in_fiber(), "block() called outside process context");
  blocked_ = true;
  resume_scheduled_ = false;
  Fiber::yield();
  return engine_.now();
}

void Process::unblock_at(Seconds when) {
  SWAPP_ASSERT(blocked_, "unblock_at() on a process that is not blocked");
  SWAPP_ASSERT(!resume_scheduled_, "process already scheduled to resume");
  resume_scheduled_ = true;
  engine_.schedule(std::max(when, engine_.now()), *this);
}

void Engine::schedule(Seconds when, Process& proc) {
  SWAPP_REQUIRE(when >= now_, "cannot schedule an event in the past");
  queue_.push(Event{when, next_seq_++, &proc});
}

Process& Engine::spawn(std::string name, std::function<void(Process&)> body,
                       Seconds start, std::size_t stack_bytes) {
  SWAPP_REQUIRE(start >= now_, "cannot start a process in the past");
  auto proc = std::unique_ptr<Process>(new Process(
      *this, static_cast<std::uint32_t>(processes_.size()), std::move(name),
      std::move(body), stack_bytes));
  Process& ref = *proc;
  processes_.push_back(std::move(proc));
  schedule(start, ref);
  return ref;
}

void Engine::run() {
  while (!queue_.empty()) {
    // Copy out before pop: the resumed process may schedule further events.
    const Event ev = queue_.top();
    queue_.pop();
    SWAPP_ASSERT(ev.time >= now_, "event queue delivered a past event");
    now_ = ev.time;
    Process& proc = *ev.proc;
    proc.blocked_ = false;
    proc.resume_scheduled_ = false;
    proc.fiber_->resume();
  }
  if (live_process_count() > 0) {
    std::string stuck;
    for (const auto& p : processes_) {
      if (!p->finished()) {
        if (!stuck.empty()) stuck += ", ";
        stuck += p->name();
      }
    }
    throw InternalError("simulation deadlock: no events pending but " +
                        std::to_string(live_process_count()) +
                        " process(es) blocked: " + stuck);
  }
}

std::size_t Engine::live_process_count() const noexcept {
  std::size_t n = 0;
  for (const auto& p : processes_) {
    if (!p->finished()) ++n;
  }
  return n;
}

}  // namespace swapp::sim
