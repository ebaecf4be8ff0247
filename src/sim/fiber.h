// Stackful cooperative fibers.
//
// Simulated MPI ranks are written as ordinary blocking C++ code (the same way
// the real NAS-MZ and IMB sources are written); each rank runs on a fiber and
// the discrete-event engine switches between them.  This is the execution
// model used by mature network simulators (e.g. SimGrid): one OS thread, many
// user-level contexts, fully deterministic scheduling.
//
// On x86-64 a switch is a register-only assembly routine: it saves the
// callee-saved registers and the FP control state, and makes no system call.
// Other ISAs, and builds with CET shadow stacks (which that routine does not
// maintain), switch with POSIX ucontext.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

#if defined(__x86_64__) && !(defined(__CET__) && (__CET__ & 2))
#define SWAPP_FIBER_ASM_SWITCH 1
#else
#include <ucontext.h>
#endif

namespace swapp::sim {

/// A single user-level execution context.
///
/// The fiber's body runs when `resume()` is called and control returns to the
/// caller when the body calls `yield()` or returns.  Fibers are not
/// thread-safe: the whole simulation is single-threaded by design.
class Fiber {
 public:
  /// Default stack.  Collectives are analytic, so no simulated call chain
  /// recurses: the deepest fiber frame measured over a cold projection
  /// batch is 3.6 KB, and a page-aligned top keeps it to one touched page.
  /// Every stack is mapped above a PROT_NONE guard page, so an overflow
  /// faults instead of writing into other memory.  Each thread keeps up to
  /// 128 released default-size stacks (one 128-rank World) for its next
  /// fibers; other sizes are mapped and unmapped every time.
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  /// Throws InvalidArgument for a stack under 16 KiB or too large to map,
  /// and std::system_error if the stack cannot be mapped.
  explicit Fiber(std::function<void()> body,
                 std::size_t stack_bytes = kDefaultStackBytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Transfers control into the fiber until it yields or finishes.
  /// Must be called from outside any fiber (the scheduler context).
  void resume();

  /// Transfers control from the currently-running fiber back to the
  /// scheduler.  Must be called from inside a fiber body.
  static void yield();

  /// True once the body has returned.  Resuming a finished fiber throws.
  bool finished() const noexcept { return finished_; }

  /// True while any fiber body is executing on this thread.
  static bool in_fiber() noexcept;

  /// If the fiber body exited with an exception, rethrows it in the caller
  /// of resume(); otherwise a no-op.
  void rethrow_if_failed();

 private:
  /// First code run on the fiber's stack: runs the body of the thread's
  /// current fiber, then switches back for good.
  [[noreturn]] static void entry() noexcept;
  void run_body();
  /// Scheduler -> fiber, and fiber -> scheduler.
  void switch_in();
  void switch_out();

  /// Returns a mapped stack of `bytes` to the thread's pool or unmaps it.
  struct StackRelease {
    std::size_t bytes = 0;
    void operator()(char* stack) const noexcept;
  };

  std::function<void()> body_;
  std::size_t stack_bytes_;  ///< whole pages
  std::unique_ptr<char, StackRelease> stack_;  ///< lowest usable address
#ifdef SWAPP_FIBER_ASM_SWITCH
  void* sp_ = nullptr;         ///< the fiber's saved stack pointer
  void* return_sp_ = nullptr;  ///< the scheduler's, while the fiber runs
#else
  ucontext_t context_{};
  ucontext_t return_context_{};
#endif
  // Sanitizer bookkeeping (unused in uninstrumented builds): the scheduler
  // stack ASan switches back to, the fiber's ASan fake stack, and the TSan
  // contexts of the fiber and of its scheduler.
  const void* caller_stack_bottom_ = nullptr;
  std::size_t caller_stack_size_ = 0;
  void* fake_stack_ = nullptr;
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
  std::exception_ptr failure_;
  bool finished_ = false;
};

}  // namespace swapp::sim
