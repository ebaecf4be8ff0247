#include "sim/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <system_error>

#include "support/error.h"

#ifdef SWAPP_FIBER_ASM_SWITCH
#include <xmmintrin.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define SWAPP_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SWAPP_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define SWAPP_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SWAPP_FIBER_TSAN 1
#endif
#endif

#ifdef SWAPP_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef SWAPP_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#ifdef SWAPP_FIBER_ASM_SWITCH
// Saves the System V callee-saved state (rbp, rbx, r12-r15, the MXCSR and
// x87 control words) on the current stack, stores the stack pointer to
// *save_sp, loads load_sp and restores the same state from there.  The
// return address is part of the saved stack, so the final `ret` continues
// whichever side was switched to.  No signal mask: the simulation never
// changes it.
extern "C" void swapp_fiber_switch(void** save_sp, void* load_sp);
asm(R"(
  .text
  .globl swapp_fiber_switch
  .hidden swapp_fiber_switch
  .type swapp_fiber_switch, @function
  .p2align 4
swapp_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size swapp_fiber_switch, .-swapp_fiber_switch
)");
#endif

namespace swapp::sim {
namespace {

// The single running fiber on this thread (the simulation is single-threaded;
// thread_local keeps tests that run simulations on worker threads safe).
thread_local Fiber* g_current_fiber = nullptr;

// Sanitizers must be told about every stack switch: ASan tracks which stack
// is live (and otherwise warns on exceptions thrown inside a fiber), TSan
// keeps one shadow context per fiber.  Without either they compile away.
#ifdef SWAPP_FIBER_ASAN
void asan_start_switch(void** fake_stack, const void* bottom,
                       std::size_t size) {
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
}
void asan_finish_switch(void* fake_stack, const void** bottom,
                        std::size_t* size) {
  __sanitizer_finish_switch_fiber(fake_stack, bottom, size);
}
#else
void asan_start_switch(void**, const void*, std::size_t) {}
void asan_finish_switch(void*, const void**, std::size_t*) {}
#endif

#ifdef SWAPP_FIBER_ASAN
void asan_unpoison(char* begin, std::size_t bytes) {
  __asan_unpoison_memory_region(begin, bytes);
}
#else
void asan_unpoison(char*, std::size_t) {}
#endif

#ifdef SWAPP_FIBER_TSAN
void* tsan_create_fiber() { return __tsan_create_fiber(0); }
void tsan_destroy_fiber(void* fiber) { __tsan_destroy_fiber(fiber); }
void* tsan_current_fiber() { return __tsan_get_current_fiber(); }
void tsan_switch_to_fiber(void* fiber) { __tsan_switch_to_fiber(fiber, 0); }
#else
void* tsan_create_fiber() { return nullptr; }
void tsan_destroy_fiber(void*) {}
void* tsan_current_fiber() { return nullptr; }
void tsan_switch_to_fiber(void*) {}
#endif

std::size_t page_bytes() noexcept {
  static const auto bytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

/// `stack_bytes` rounded up to whole pages, once it is known to fit.
std::size_t checked_stack_bytes(std::size_t stack_bytes) {
  SWAPP_REQUIRE(stack_bytes >= 16 * 1024, "fiber stack too small");
  const std::size_t page = page_bytes();
  constexpr std::size_t kMaxBytes = std::numeric_limits<std::size_t>::max();
  SWAPP_REQUIRE(stack_bytes <= kMaxBytes - 2 * page, "fiber stack too large");
  return (stack_bytes + page - 1) / page * page;
}

/// Maps `bytes` (whole pages) of stack above one PROT_NONE guard page and
/// returns the stack's lowest usable address.
char* map_stack(std::size_t bytes) {
  const std::size_t guard = page_bytes();
  void* base = mmap(nullptr, guard + bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(),
                            "cannot map a fiber stack");
  }
  if (mprotect(base, guard, PROT_NONE) != 0) {
    const int error = errno;
    munmap(base, guard + bytes);
    throw std::system_error(error, std::generic_category(),
                            "cannot protect a fiber stack's guard page");
  }
  return static_cast<char*>(base) + guard;
}

void unmap_stack(char* stack, std::size_t bytes) noexcept {
  const std::size_t guard = page_bytes();
  munmap(stack - guard, guard + bytes);
}

// Default-size stacks released on this thread, kept for its next fibers.
// 128 is one 128-rank World, the largest the IMB and NAS profile grids build.
constexpr std::size_t kPooledStacks = 128;

struct StackPool {
  std::array<char*, kPooledStacks> stacks{};
  std::size_t count = 0;
  ~StackPool();
};

// Set once this thread's pool is destroyed: a fiber that outlives it (a
// thread_local destroyed later) unmaps its stack directly.
thread_local bool g_stack_pool_gone = false;
thread_local StackPool g_stack_pool;

StackPool::~StackPool() {
  for (std::size_t i = 0; i < count; ++i) {
    unmap_stack(stacks[i], Fiber::kDefaultStackBytes);
  }
  g_stack_pool_gone = true;
}

char* acquire_stack(std::size_t bytes) {
  char* stack = nullptr;
  if (bytes == Fiber::kDefaultStackBytes && !g_stack_pool_gone &&
      g_stack_pool.count > 0) {
    stack = g_stack_pool.stacks[--g_stack_pool.count];
  } else {
    stack = map_stack(bytes);
  }
  // A reused stack, or a fresh mapping at a reused address, may carry the
  // ASan poison of an earlier fiber's frames.
  asan_unpoison(stack, bytes);
  return stack;
}

}  // namespace

void Fiber::StackRelease::operator()(char* stack) const noexcept {
  if (bytes == kDefaultStackBytes && !g_stack_pool_gone &&
      g_stack_pool.count < kPooledStacks) {
    g_stack_pool.stacks[g_stack_pool.count++] = stack;
  } else {
    unmap_stack(stack, bytes);
  }
}

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes)
    : body_(std::move(body)),
      stack_bytes_(checked_stack_bytes(stack_bytes)),
      stack_(acquire_stack(stack_bytes_), StackRelease{stack_bytes_}) {
  SWAPP_REQUIRE(body_ != nullptr, "fiber body must be callable");
#ifdef SWAPP_FIBER_ASM_SWITCH
  // Seed the stack as if swapp_fiber_switch had saved it: its `ret` enters
  // entry() with rsp = 8 (mod 16), as after a call, under the creator's FP
  // control words.  entry()'s own return address is null, which ends
  // backtraces; it never returns.
  void** sp = reinterpret_cast<void**>(stack_.get() + stack_bytes_);
  *--sp = nullptr;
  *--sp = reinterpret_cast<void*>(&Fiber::entry);
  for (int reg = 0; reg < 6; ++reg) *--sp = nullptr;  // rbp, rbx, r12-r15
  --sp;
  const std::uint32_t mxcsr = _mm_getcsr();
  std::uint16_t x87_control = 0;
  asm volatile("fnstcw %0" : "=m"(x87_control));
  std::memcpy(sp, &mxcsr, sizeof mxcsr);
  std::memcpy(reinterpret_cast<char*>(sp) + 4, &x87_control,
              sizeof x87_control);
  sp_ = sp;
#else
  SWAPP_ASSERT(getcontext(&context_) == 0, "getcontext failed");
  context_.uc_stack.ss_sp = stack_.get();
  context_.uc_stack.ss_size = stack_bytes_;
  makecontext(&context_, &Fiber::entry, 0);
#endif
  tsan_fiber_ = tsan_create_fiber();
}

Fiber::~Fiber() { tsan_destroy_fiber(tsan_fiber_); }

void Fiber::entry() noexcept {
  Fiber* self = g_current_fiber;
  asan_finish_switch(nullptr, &self->caller_stack_bottom_,
                     &self->caller_stack_size_);
  self->run_body();
  g_current_fiber = nullptr;
  self->switch_out();
  std::abort();  // a finished fiber is never resumed
}

void Fiber::run_body() {
  try {
    body_();
  } catch (...) {
    failure_ = std::current_exception();
  }
  finished_ = true;
}

void Fiber::switch_in() {
  void* caller_fake_stack = nullptr;
  asan_start_switch(&caller_fake_stack, stack_.get(), stack_bytes_);
  tsan_caller_ = tsan_current_fiber();
  tsan_switch_to_fiber(tsan_fiber_);
#ifdef SWAPP_FIBER_ASM_SWITCH
  swapp_fiber_switch(&return_sp_, sp_);
#else
  SWAPP_ASSERT(swapcontext(&return_context_, &context_) == 0,
               "swapcontext into fiber failed");
#endif
  asan_finish_switch(caller_fake_stack, nullptr, nullptr);
}

void Fiber::switch_out() {
  // A finished fiber's stack is dead: ASan may drop its fake stack.
  asan_start_switch(finished_ ? nullptr : &fake_stack_, caller_stack_bottom_,
                    caller_stack_size_);
  tsan_switch_to_fiber(tsan_caller_);
#ifdef SWAPP_FIBER_ASM_SWITCH
  swapp_fiber_switch(&sp_, return_sp_);
#else
  SWAPP_ASSERT(swapcontext(&context_, &return_context_) == 0,
               "swapcontext out of fiber failed");
#endif
  asan_finish_switch(fake_stack_, &caller_stack_bottom_, &caller_stack_size_);
}

void Fiber::resume() {
  SWAPP_ASSERT(g_current_fiber == nullptr,
               "resume() called from inside a fiber");
  SWAPP_ASSERT(!finished_, "resume() on a finished fiber");
  g_current_fiber = this;
  switch_in();
  g_current_fiber = nullptr;
  rethrow_if_failed();
}

void Fiber::yield() {
  Fiber* self = g_current_fiber;
  SWAPP_ASSERT(self != nullptr, "yield() called outside a fiber");
  g_current_fiber = nullptr;
  self->switch_out();
  g_current_fiber = self;
}

bool Fiber::in_fiber() noexcept { return g_current_fiber != nullptr; }

void Fiber::rethrow_if_failed() {
  if (failure_) {
    auto failure = failure_;
    failure_ = nullptr;
    std::rethrow_exception(failure);
  }
}

}  // namespace swapp::sim
